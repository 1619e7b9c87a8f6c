"""Shared scratch-root resolution for spill/cache paths.

Five pipeline paths spill corpus-proportional intermediates to disk so they
stream with backpressure instead of pinning in the object store: the MinHash
signature cache (``pipelines/dedup_ops.minhash_sigs_parquet``), the
label-propagation edge spill (``neardup_clusters``), the Jaccard candidate
spill (``ngram_jaccard_verify``), the dedup winner parquet
(``stages/dedup.compute_winners_bucketed``) and the IVF index
(``pipelines/similarity.build_ivf_index``). On a multi-node cluster these
MUST live on storage every node can read (an NFS/object-store mount) — a
node-local ``/tmp`` written by one worker is invisible to readers scheduled
on other nodes, and the failure is silent (empty reads), not loud.

This module makes the constraint enforced behavior instead of a docstring
caveat. Resolution order (first hit wins):

1. the explicit ``*_dir`` / ``work_dir`` argument at the call site
2. the ``DATACAT_SCRATCH`` environment variable
3. the process default installed by :func:`set_scratch_root`
   (``PipelineConfig.scratch_root`` via ``apply_data_context``)
4. ``tempfile.gettempdir()`` — permitted only while the live Ray cluster
   has a single alive node; with >1 node this RAISES instead of silently
   handing back a path other nodes cannot see.
"""

from __future__ import annotations

import os
import tempfile

_PROCESS_DEFAULT: str | None = None

#: env var consulted between the explicit argument and the process default
ENV_VAR = "DATACAT_SCRATCH"


def set_scratch_root(path: str | None) -> None:
    """Install (or, with ``None``/empty, clear) the process-level scratch
    default. Called by ``PipelineConfig.apply_data_context`` — session
    owners (bench/CLI/user scripts) set it once; library code only reads."""
    global _PROCESS_DEFAULT
    _PROCESS_DEFAULT = path or None


def _alive_node_count() -> int:
    """Alive nodes in the connected Ray cluster; 1 when Ray is down (a
    driver-side path computation before ``ray.init`` is single-process by
    definition)."""
    try:
        import ray

        if not ray.is_initialized():
            return 1
        return sum(1 for n in ray.nodes() if n.get("Alive"))
    except Exception:
        return 1


def resolve_scratch_root(
    explicit: str | None = None, *, require_shared: bool = True
) -> str:
    """Resolve the scratch root per the module-docstring order.

    ``require_shared=True`` (the default, for placing NEW spill paths)
    raises ``RuntimeError`` when the resolution falls through to the
    node-local tempdir on a >1-node cluster. Pass ``require_shared=False``
    for maintenance that is correct per-node (e.g. reaping this node's own
    stale pid-keyed dirs)."""
    if explicit:
        return explicit
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    if _PROCESS_DEFAULT:
        return _PROCESS_DEFAULT
    root = tempfile.gettempdir()
    if require_shared:
        n = _alive_node_count()
        if n > 1:
            raise RuntimeError(
                f"scratch root would default to node-local {root!r} but the "
                f"Ray cluster has {n} alive nodes — workers on other nodes "
                "cannot read it. Set the DATACAT_SCRATCH environment "
                "variable, PipelineConfig.scratch_root, or the explicit "
                "*_dir argument to a directory on shared storage."
            )
    return root


def scratch_path(name: str, explicit_root: str | None = None) -> str:
    """Join ``name`` onto the resolved scratch root."""
    return os.path.join(resolve_scratch_root(explicit_root), name)
