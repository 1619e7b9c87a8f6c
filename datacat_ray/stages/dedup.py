"""Per-url capture dedup: keep the latest ``warc_ts`` (SURVEY.md D1).

The reference has no dedup (one file = one document); the north rule adds
dedup by url keeping the latest capture BEFORE extraction. The key and the
order column are fixed (``KEY``, ``TS``). Per url the capture with the
largest (``warc_ts``, ``pos``) wins, a null ``warc_ts`` never winning,
where ``pos`` = file rank << 32 | ordinal in the file is the capture's
input position: a total order, so exactly one capture per url wins, and
``pos`` alone names it. A narrow key pass builds the ``winner_keys`` rows,
``winner_set`` keeps each url's latest (on the driver, or bucketed by file
rank past ``_DRIVER_WINNER_ROWS`` input rows) and stores only the winning
positions, and the readers, which know each capture's position, drop every
other capture (``winner_keep``, a range lookup), so a stale payload never
leaves its read. Parquet (``winner_probe``): ``dedup_latest_prefilter``
(``extract_pages``, ``create_training_pairs``) and ``run_extract_job``;
WARC: ``sources/warc.extract_pages_warc``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from datacat_ray.config import MAX_IN_FLIGHT
from datacat_ray.stages.bucketed import (
    cached_ref,
    hash64,
    hash_buckets,
    read_bucket,
    write_bucket,
)

KEY = "url"
TS = "warc_ts"
POS = "pos"


# ---------------------------------------------------------------------------
# winner sets: the 100 TB path — the wide payload never crosses a shuffle
# ---------------------------------------------------------------------------

_DRIVER_WINNER_ROWS = 5_000_000
# in a winner set's build fingerprint: another key-row format is rebuilt
_KEY_FORMAT = "h,warc_ts,pos;bucket=rank"


def list_fragments(path) -> list[str]:
    """The one listing of an input, whose indexes are the file ranks: a
    directory gives its sorted ``*.parquet`` files, a file itself, a list
    each item's; a file listed twice keeps its first place (read once)."""
    files: list[str] = []
    for p in path if isinstance(path, (list, tuple)) else [path]:
        p = os.path.normpath(str(p))
        if os.path.isdir(p):
            files.extend(sorted(os.path.join(p, f) for f in os.listdir(p)
                                if f.endswith(".parquet")))
        else:
            files.append(p)
    return list(dict.fromkeys(files))


def winner_keys(urls, tss, ranks, ordinals) -> pa.Table:
    """The key rows of captures: ``h`` (``hash64`` of the url),
    ``warc_ts`` and ``pos`` = file rank (one, or one per capture) << 32 |
    ordinal in the file (a file holds far fewer than 2**32 captures)."""
    pos = (np.asarray(ranks, np.int64) << 32) | np.asarray(ordinals, np.int64)
    return pa.table({"h": pa.array(hash64(urls), pa.uint64()), TS: tss,
                     POS: pos})


def latest_keys(keys: pa.Table) -> pa.Table:
    """One row per ``h`` of a ``winner_keys`` table, sorted by ``h``: the
    largest (``warc_ts``, ``pos``), where a null ``warc_ts`` never wins
    (polars sort with nulls first, then the last row of each key)."""
    import polars as pl

    df = pl.from_arrow(keys).sort(["h", TS, POS])
    return df.unique("h", keep="last", maintain_order=True).to_arrow()


def parquet_keys(files: list[str], rows: list[int]) -> pa.Table:
    """The ``winner_keys`` rows of a ``list_fragments`` listing, on the
    driver: one (url, warc_ts) read, which keeps the listing order, and
    ``pos`` from the fragments' footer row counts ``rows``
    (``fragment_rows``)."""
    import pyarrow.dataset as pads

    t = pads.dataset(files, format="parquet").to_table(columns=[KEY, TS])
    n = np.array(rows, np.int64)
    first = np.repeat(np.cumsum(n) - n, n)
    return winner_keys(t[KEY], t[TS], np.repeat(np.arange(len(n)), n),
                       np.arange(t.num_rows) - first)


def fragment_keys(rank: int, path: str) -> tuple[int, pa.Table]:
    """(rows, ``winner_keys`` rows) of the ``rank``-th parquet fragment."""
    t = pq.read_table(path, columns=[KEY, TS])
    return t.num_rows, winner_keys(t[KEY], t[TS], rank,
                                   np.arange(t.num_rows))


def keys_by_file(files: list[str], file_keys, *args) -> tuple[list, list]:
    """A key pass as one Ray task per file (at most ``MAX_IN_FLIGHT``
    outstanding) of ``file_keys(*args, rank, path)`` → (rows read, their
    ``winner_keys``): the refs of the counts and of the key tables."""
    task = ray.remote(num_returns=2)(file_keys)
    refs, in_flight = [], []
    for rank, path in enumerate(files):
        if len(in_flight) >= MAX_IN_FLIGHT:
            _, in_flight = ray.wait(in_flight, num_returns=1)
        refs.append(task.remote(*args, rank, path))
        in_flight.append(refs[-1][1])
    return [n for n, _ in refs], [t for _, t in refs]


def compute_winners(path) -> pa.Table:
    """The driver winner table of parquet input ``path``, as
    ``winner_probe`` builds it (perfbench's ``dedup.winners_s`` probe)."""
    files = list_fragments(path)
    return latest_keys(parquet_keys(files, fragment_rows(files)))


def input_fingerprint(path) -> str:
    """Cheap content fingerprint of an input: sha1 over the (path, size,
    mtime_ns) of its ``list_fragments`` listing, in order. Cached artifacts
    derived from an input (winner sets, indexes) store this in their
    success marker so a REGENERATED input at the same path invalidates the
    cache instead of silently serving stale results."""
    import hashlib

    h = hashlib.sha1()
    for f in list_fragments(path):
        st = os.stat(f)
        h.update(f"{f}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def reap_stale_scratch(prefix: str, allowed) -> None:
    """Delete pid-keyed scratch dirs (``<prefix><digest>_<pid>``) whose
    owning process is gone — pid-keying prevents concurrent runs from
    clearing each other's spill, but without a reaper every invocation
    would leak a corpus-proportional dir in /tmp. Uses /proc liveness (a
    live pid's dir is never touched) and the same content guard as
    ``clear_cache_dir``: a dir holding anything unexpected is skipped, not
    deleted. Reaps in the resolved scratch root (datacat_ray/scratch.py) —
    reaping THIS node's dead-owner dirs is correct per-node, so the
    node-local fallback is allowed here (``require_shared=False``)."""
    import glob

    from datacat_ray.scratch import resolve_scratch_root

    root = resolve_scratch_root(require_shared=False)
    for d in glob.glob(os.path.join(root, prefix + "*_*")):
        pid_s = d.rsplit("_", 1)[-1]
        # bound-check before os.kill: an oversized numeric suffix would
        # raise OverflowError out of the probe and crash the caller
        if not pid_s.isdigit() or len(pid_s) > 10 or int(pid_s) <= 0:
            continue
        try:  # portable liveness probe (no procfs on macOS)
            os.kill(int(pid_s), 0)
            continue  # alive — never touch a live run's scratch
        except ProcessLookupError:
            pass  # dead owner → reapable
        except (PermissionError, OSError, OverflowError):
            continue  # exists but not ours / unknown — leave it
        try:
            clear_cache_dir(d, allowed)
        except (ValueError, OSError):
            pass  # not ours / raced — leave it


def pid_scratch_dir(prefix: str, key: str, allowed) -> str:
    """This process's scratch dir for inputs ``key``:
    ``<prefix><sha1(key)[:12]>_<pid>`` under the scratch root, after
    reaping dead owners' ``prefix`` dirs (``reap_stale_scratch``). Keyed
    by pid as well as the inputs, so two concurrent runs over the same
    corpus never clear each other's spill mid-read; the caller decides
    whether an existing dir is cleared."""
    import hashlib

    from datacat_ray.scratch import scratch_path

    reap_stale_scratch(prefix, allowed)
    digest = hashlib.sha1(key.encode()).hexdigest()[:12]
    return scratch_path(f"{prefix}{digest}_{os.getpid()}")


def clear_cache_dir(d: str, allowed) -> None:
    """Remove a stale/torn derived-artifact directory — but ONLY if every
    entry looks like one of ours (``allowed(name)``). A caller pointing a
    cache build at a directory holding unrelated data gets an error, not a
    recursive delete."""
    import shutil

    strangers = [f for f in os.listdir(d) if not allowed(f)]
    if strangers:
        raise ValueError(
            f"refusing to clear {d}: contains non-cache entries "
            f"{strangers[:5]} — pass an empty/dedicated directory"
        )
    shutil.rmtree(d)


BUILT_MARKER = "_BUILT_OK"


def build_once(d: str, fingerprint: str, allowed, build) -> None:
    """Build a derived-artifact directory once per input ``fingerprint``:
    a marker holding the fingerprint of a finished build skips ``build``;
    otherwise a stale (input changed) or torn (crashed mid-build)
    directory is cleared through ``clear_cache_dir`` (entries must pass
    ``allowed`` or be the marker), ``build()`` fills the fresh directory,
    and the marker is published atomically last."""
    marker = os.path.join(d, BUILT_MARKER)
    try:
        with open(marker) as fh:
            if fh.read().strip() == fingerprint:
                return
    except FileNotFoundError:
        pass
    if os.path.isdir(d):
        clear_cache_dir(
            d, lambda f: f.startswith(BUILT_MARKER) or allowed(f))
    os.makedirs(d, exist_ok=True)
    build()
    tmp = f"{marker}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(fingerprint + "\n")
    os.replace(tmp, marker)


def winner_bucket(pos: np.ndarray) -> np.ndarray:
    """The bucket a winner-set row is filed under: its file rank, so a
    read task probes one bucket file per file (``winner_keep``)."""
    return (pos >> 32).astype(np.int32)


def compute_winners_bucketed(keys: "ray.data.Dataset", out_dir: str,
                             fingerprint: str) -> str:
    """The winner set past driver memory: per-block ``latest_keys`` of
    ``keys`` (a Dataset of ``winner_keys`` blocks) → a hash shuffle on the
    bucket of ``h`` → per-bucket ``latest_keys`` → a shuffle of the winners
    on ``winner_bucket`` → one ``write_bucket`` file per file rank holding
    its winners' ``pos``. Only key rows cross the shuffles. Built once per
    input ``fingerprint`` (``build_once``). ``out_dir`` must be shared
    storage on a multi-node cluster (object store / NFS), same as any
    shuffle spill target."""

    def _local(t: pa.Table) -> pa.Table:
        t = latest_keys(t)
        b = hash_buckets(t["h"].to_numpy())
        return t.append_column("__bucket", pa.array(b))

    def _reduce_bucket(g: pa.Table) -> pa.Table:
        win = latest_keys(g.drop_columns(["__bucket"]))
        b = winner_bucket(win[POS].to_numpy())
        return win.append_column("__bucket", pa.array(b))

    def _write(g: pa.Table) -> pa.Table:
        b = int(g["__bucket"][0].as_py())
        write_bucket(out_dir, b, g.select([POS]))
        return pa.Table.from_pydict(
            {"bucket": pa.array([b], pa.int32()),
             "n_keys": pa.array([g.num_rows], pa.int64())}
        )

    def _build() -> None:
        (keys.map_batches(_local, batch_format="pyarrow")
         .groupby("__bucket").map_groups(_reduce_bucket,
                                         batch_format="pyarrow")
         .groupby("__bucket").map_groups(_write, batch_format="pyarrow")
         .materialize())  # drive the writes; the summary itself is tiny

    # "_WINNERS": the marker name of sets built before ``build_once``
    build_once(
        out_dir, fingerprint,
        lambda f: f.startswith(("bucket-", ".tmp.bucket-", "_WINNERS")),
        _build)
    return out_dir


def _sorted_pos(t: pa.Table | None) -> np.ndarray:
    """The winning positions of a winner table (the driver set or one
    bucket file), sorted ascending; None (a rank no winner was filed
    under) holds none."""
    if t is None:
        return np.empty(0, np.int64)
    return np.sort(t[POS].to_numpy())


def winner_set(n_rows: int, keys, key_blocks, inputs,
               winner_dir: str | None = None) -> tuple:
    """The one size pick of a keep-latest winner set over ``n_rows`` input
    rows, in the form ``winner_keep`` reads: the winning positions. Up to
    ``_DRIVER_WINNER_ROWS`` the driver builds them (``latest_keys(keys())``,
    ``keys()`` a ``winner_keys`` table) and broadcasts the sorted int64
    array once by ``ray.put`` → ``("driver", ref)``; past that, bucketed
    winner parquet under ``winner_dir`` from ``key_blocks()``, a Dataset of
    ``winner_keys`` blocks (``compute_winners_bucketed``; default dir a
    scratch dir keyed by ``inputs``, the input listing whose
    ``input_fingerprint`` marks the build) → ``("bucketed", winner_dir)``,
    read through the bounded per-worker ``read_bucket``. Both filter to the
    same rows. The ref rides inside a tuple, so a Ray task receiving the
    probe as an argument does not resolve it at invocation —
    ``winner_keep`` deserializes it once per worker."""
    if n_rows <= _DRIVER_WINNER_ROWS:
        return ("driver", ray.put(_sorted_pos(latest_keys(keys()))))
    if winner_dir is None:
        import hashlib

        from datacat_ray.scratch import scratch_path

        digest = hashlib.sha1(str(inputs).encode()).hexdigest()[:12]
        winner_dir = scratch_path(f"datacat_winners_{digest}")
    return ("bucketed", compute_winners_bucketed(
        key_blocks(), winner_dir,
        f"{_KEY_FORMAT}:{input_fingerprint(inputs)}"))


def fragment_rows(files: list[str]) -> list[int]:
    """Each parquet file's row count, from its footer."""
    return [pq.read_metadata(f).num_rows for f in files]


def winner_probe(path, winner_dir: str | None = None,
                 rows: list[int] | None = None) -> tuple:
    """The ``winner_set`` of parquet input ``path`` (its
    ``list_fragments``), sized by its footer row counts (``rows``, when
    the caller has read them: ``fragment_rows``); only (url, warc_ts) is
    read."""
    files = list_fragments(path)
    if rows is None:
        rows = fragment_rows(files)
    return winner_set(
        sum(rows),
        lambda: parquet_keys(files, rows),
        lambda: ray.data.from_arrow_refs(
            keys_by_file(files, fragment_keys)[1]),
        files, winner_dir)


def winner_keep(rank: int, start: int, n: int, probe: tuple) -> np.ndarray:
    """The one winner filter, called by the readers: the mask of the
    captures of ordinals ``start`` .. ``start + n`` of the ``rank``-th
    input file that are their url's winner in the ``winner_set`` ``probe``
    (bucketed: the bucket file of ``rank``). A position names one capture,
    so the winners among them are the slice of the sorted winning
    positions between ``rank << 32 | start`` and ``rank << 32 | start +
    n``: one binary search per batch, whatever the size of the set."""
    kind, arg = probe
    pos = (cached_ref(arg) if kind == "driver"
           else read_bucket(arg, rank, _sorted_pos))
    lo = (rank << 32) | start
    a, b = np.searchsorted(pos, [lo, lo + n])
    mask = np.zeros(n, dtype=bool)
    mask[pos[a:b] - lo] = True
    return mask


def dedup_latest_prefilter(
    path,
    columns: list[str] | None = None,
    winner_dir: str | None = None,
) -> "ray.data.Dataset":
    """Keep-latest dedup with ZERO wide shuffle over parquet input
    ``path``: a narrow winner pass (``winner_probe``), then one read
    (``sources.ranked.ParquetFragments``) that drops every capture but
    each url's winner in its read task. Exactly one row per url: the
    largest (``warc_ts``, fragment rank, row ordinal)."""
    from datacat_ray.sources.ranked import ParquetFragments

    files = list_fragments(path)
    src = ParquetFragments(files)
    src.columns, src.winners = columns, winner_probe(files, winner_dir)
    return ray.data.read_datasource(src)
