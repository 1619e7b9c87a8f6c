"""Per-url capture dedup: keep the latest ``warc_ts`` (SURVEY.md D1).

The reference has no dedup (one file = one document); the north rule adds
dedup by url keeping the latest capture BEFORE extraction. The key and the
order column are fixed (``KEY``, ``TS``), and every kernel here is the
hash-bucketed layer of ``stages/bucketed.py``:

* ``dedup_latest`` — the exact shuffle dedup over a Dataset
  (``bucketed.keep_latest``: in-batch keep-latest, one hash shuffle on the
  int bucket of the url, keep-latest per bucket). The wide ``html`` column
  crosses the shuffle once, only for rows that survive the in-batch step.
* ``dedup_latest_prefilter`` / ``run_extract_job`` — a narrow (url,
  warc_ts) winner set (``winner_probe``) that the full read is filtered
  against, so the payload of a stale capture never moves at all.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa

import ray.data

from datacat_ray.stages.bucketed import (
    cached_ref,
    hash64,
    hash_buckets,
    keep_last,
    keep_latest,
    read_bucket,
    write_bucket,
)

KEY = "url"
TS = "warc_ts"


def dedup_latest(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Keep, per url, the single row with the largest ``warc_ts`` (a null
    ``warc_ts`` never wins) — exact, through one shuffle on a small int
    bucket of the url, never a per-url Python call."""
    return keep_latest(ds, KEY, [TS])


# ---------------------------------------------------------------------------
# prefilter dedup: the 100 TB path — the wide payload never crosses a shuffle
# ---------------------------------------------------------------------------

_DRIVER_WINNER_ROWS = 5_000_000


def compute_winners(path) -> dict[int, object]:
    """Narrow winner pass on the driver: read ONLY (url, warc_ts) (parquet
    column pruning) and max-reduce them with polars (~50ms/100k rows),
    keyed by the 64-bit url hash (int keys keep the broadcast ~10× smaller
    than a str-keyed dict). ``winner_probe`` calls it up to
    ``_DRIVER_WINNER_ROWS`` input rows; past that the winner set stays
    distributed (``compute_winners_parquet``) and never reaches the
    driver. The wide html column never moves either way."""
    import polars as pl
    import pyarrow.dataset as pads

    t = pads.dataset(path, format="parquet").to_table(columns=[KEY, TS])
    win = pl.from_arrow(t).group_by(KEY).agg(pl.col(TS).max())
    return dict(zip(hash64(win[KEY]).tolist(), win[TS].to_list()))


def input_fingerprint(path) -> str:
    """Cheap content fingerprint of parquet input (a directory, a file, or
    a list of either): sha1 over the sorted (path, size, mtime_ns) listing.
    Cached artifacts derived from an input (winner sets, indexes) store
    this in their success marker so a REGENERATED input at the same path
    invalidates the cache instead of silently serving stale results."""
    import hashlib

    files: list[str] = []
    paths = path if isinstance(path, (list, tuple)) else [path]
    for p in paths:
        p = str(p)
        if os.path.isdir(p):
            files.extend(
                os.path.join(p, f)
                for f in os.listdir(p)
                if f.endswith(".parquet")
            )
        else:
            files.append(p)
    h = hashlib.sha1()
    for f in sorted(files):
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


def compute_winners_parquet(path, out_dir: str) -> str:
    """Distributed winner set for >driver-memory url cardinality: narrow
    (url, warc_ts) read → per-fragment keep-latest → ONE hash shuffle on
    the bucket of the 64-bit url hash → per-bucket keep-latest → one
    ``write_bucket`` file of (h, warc_ts) per bucket. The driver never
    materializes a winner; only (hash, ts) pairs cross the shuffle. Built
    once per input fingerprint (``build_once``). ``out_dir`` must be shared
    storage on a multi-node cluster (object store / NFS), same as any
    shuffle spill target."""
    import ray.data as rd

    def _local(b: pa.Table) -> pa.Table:
        b = keep_last(b, KEY, [TS])
        h = hash64(b[KEY])
        return pa.Table.from_pydict(
            {"h": pa.array(h, type=pa.uint64()), TS: b[TS],
             "__bucket": pa.array(hash_buckets(h))}
        )

    def _reduce_bucket(g: pa.Table) -> pa.Table:
        b = int(g["__bucket"][0].as_py())
        win = keep_last(g.drop_columns(["__bucket"]), "h", [TS])
        write_bucket(out_dir, b, win)
        return pa.Table.from_pydict(
            {"bucket": pa.array([b], pa.int32()),
             "n_keys": pa.array([win.num_rows], pa.int64())}
        )

    def _build() -> None:
        (
            rd.read_parquet(path, columns=[KEY, TS])
            .map_batches(_local, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(_reduce_bucket, batch_format="pyarrow")
            .materialize()  # drive the writes; the summary itself is tiny
        )

    # "_WINNERS": the marker name of sets built before ``build_once``
    build_once(
        out_dir, input_fingerprint(path),
        lambda f: f.startswith(("bucket-", ".tmp.bucket-", "_WINNERS")),
        _build)
    return out_dir


def winners_to_arrays(winners: dict) -> tuple[np.ndarray, np.ndarray]:
    """{hash64: ts} → (h sorted ascending uint64, aligned ts) — the
    broadcast form every winner probe consumes (one searchsorted per
    batch instead of a dict.get per row)."""
    h = np.fromiter(winners.keys(), dtype=np.uint64, count=len(winners))
    w = np.array(list(winners.values()), dtype=object)
    order = np.argsort(h, kind="stable")
    return h[order], w[order]


def sorted_hits(
    keys: np.ndarray, sorted_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership probe against a sorted array: returns (row indices of
    ``keys`` found in ``sorted_keys``, their positions in ``sorted_keys``).
    The one shared copy of the searchsorted+clamp+equality idiom every
    broadcast-lookup filter uses (winner probe, LP label assignment)."""
    if sorted_keys.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    pos = np.searchsorted(sorted_keys, keys)
    pos_c = np.minimum(pos, sorted_keys.size - 1)
    hit = np.flatnonzero(sorted_keys[pos_c] == keys)
    return hit, pos_c[hit]


def winner_mask(
    hashes: np.ndarray, tss: np.ndarray,
    wh: np.ndarray, wts: np.ndarray,
) -> np.ndarray:
    """Vectorized winner test: row i survives iff its key hash is a winner
    AND its ts equals the winning ts. ``wh`` must be sorted ascending."""
    mask = np.zeros(len(hashes), dtype=bool)
    hit, wpos = sorted_hits(hashes, wh)
    mask[hit] = wts[wpos] == tss[hit]
    return mask


def _ts_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Timestamp column → numpy for vectorized equality. Null-free columns
    take the no-boxing ``to_numpy`` path (int64/str in C); columns WITH
    nulls fall back to object dtype via ``to_pylist`` so a null compares
    as Python ``None`` on both sides (``to_numpy`` would turn a null int
    into NaN, and NaN != NaN would silently drop every null-ts winner)."""
    if col.null_count == 0:
        a = col.to_numpy(zero_copy_only=False)
        # numeric/bool dtypes compare exactly; anything else (strings,
        # dates) already lands as object
        return a
    return np.array(col.to_pylist(), dtype=object)


def _load_winners(t: pa.Table | None) -> tuple[np.ndarray, np.ndarray]:
    """(h sorted ascending, aligned winner ts) of one winner bucket —
    arrays, not a dict, so the probe is one ``searchsorted`` per batch."""
    if t is None:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=object)
    h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.argsort(h, kind="stable")
    return h[order], _ts_np(t[TS])[order]


def winner_probe(path, winner_dir: str | None = None) -> tuple:
    """The keep-latest winner set of parquet input ``path``, in the form
    ``apply_winners`` reads. The input's row count (parquet metadata)
    picks the build: up to ``_DRIVER_WINNER_ROWS`` rows the driver computes
    it (``compute_winners``) and broadcasts it once by ``ray.put`` →
    ``("driver", ref)``; past that, hash-bucketed winner parquet under
    ``winner_dir`` (``compute_winners_parquet``; default a scratch dir keyed
    by the input path) → ``("bucketed", winner_dir)``, read through the
    bounded per-worker ``read_bucket``. Both filter to the same rows. The ref
    rides inside a tuple, so a Ray task receiving the probe as an argument
    does not resolve it at invocation — ``apply_winners`` deserializes it
    once per worker."""
    import pyarrow.dataset as pads

    if pads.dataset(path, format="parquet").count_rows() <= _DRIVER_WINNER_ROWS:
        return ("driver",
                ray.put(winners_to_arrays(compute_winners(path))))
    if winner_dir is None:
        import hashlib

        from datacat_ray.scratch import scratch_path

        digest = hashlib.sha1(str(path).encode()).hexdigest()[:12]
        winner_dir = scratch_path(f"datacat_winners_{digest}")
    return ("bucketed", compute_winners_parquet(path, winner_dir))


def apply_winners(batch: pa.Table, probe: tuple) -> pa.Table:
    """The rows of ``batch`` that hold their url's winning ``warc_ts`` in
    the ``winner_probe`` set, kept latest within the batch — the one
    winner filter of ``dedup_latest_prefilter`` and of every
    ``run_extract_job`` partition. A bucketed set is probed bucket by
    bucket, each bucket read once per batch."""
    kind, arg = probe
    hashes = hash64(batch[KEY])
    tss = _ts_np(batch[TS])
    if kind == "driver":
        mask = winner_mask(hashes, tss, *cached_ref(arg))
    else:
        mask = np.zeros(batch.num_rows, dtype=bool)
        buckets = hash_buckets(hashes)
        for b in np.unique(buckets):
            sel = np.flatnonzero(buckets == b)
            mask[sel] = winner_mask(hashes[sel], tss[sel],
                                    *read_bucket(arg, int(b), _load_winners))
    return keep_last(batch.filter(pa.array(mask)), KEY, [TS])


def dedup_latest_prefilter(
    path,
    columns: list[str] | None = None,
    winner_dir: str | None = None,
) -> "ray.data.Dataset":
    """Keep-latest dedup with ZERO wide shuffle: a narrow (key, ts) winner
    pass (``winner_probe``, driver or bucketed by input size), then a
    streaming filter of the full read against the winner set. Stale
    captures are dropped at the read — the html payload of a loser never
    enters the pipeline.

    Exactness caveat: two captures of one url with byte-equal max ``ts``
    both pass the filter (a data pathology — same-microsecond recapture);
    the in-batch dedup removes them only when they share a batch, which
    Ray does not promise even within one fragment (it may split a small
    file into one-row blocks), while ``run_extract_job`` dedups each
    partition whole. Cross-fragment ones survive. Use ``dedup_latest``
    (exact groupby) where that matters."""
    probe = winner_probe(path, winner_dir)
    return ray.data.read_parquet(path, columns=columns).map_batches(
        functools.partial(apply_winners, probe=probe), batch_format="pyarrow")
