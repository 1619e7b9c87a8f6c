"""Per-url capture dedup: keep the latest ``warc_ts`` (SURVEY.md D1).

The reference has no dedup (one file = one document); the north rule adds
dedup by url keeping the latest capture BEFORE extraction. This is the
pipeline's single required all-to-all shuffle (key = ``url``).

Scale strategy (SURVEY.md §7.3):

1. **Within-batch pre-dedup** (``map_batches``, vectorized): drops stale
   captures that happen to co-locate in a read fragment — in Common-Crawl
   layouts captures of a url cluster in the same segment files, so this
   eliminates most duplicate volume before any data moves.
2. **Hash-shuffle group dedup** (``groupby(key).map_groups``): exact global
   winner per url. Ties on ``warc_ts`` break deterministically (last row in
   (ts, stable-order) sort wins).

The wide ``html`` column crosses the shuffle exactly once and only for rows
that survive step 1.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def _dedup_batch(batch: pa.Table, key: str, ts: str) -> pa.Table:
    """Vectorized within-batch keep-latest: stable sort by (key, ts) then
    keep each key's last occurrence."""
    n = batch.num_rows
    if n <= 1:
        return batch
    # nulls sort FIRST: a null capture time means "unknown, oldest" — the
    # default at_end placement would crown a null-ts row as latest
    order = pc.sort_indices(
        batch,
        sort_keys=[(key, "ascending"), (ts, "ascending")],
        null_placement="at_start",
    )
    sorted_keys = pc.take(batch[key], order).combine_chunks()
    # a sorted row wins if the NEXT sorted row has a different key (or none)
    differs = pc.not_equal(
        sorted_keys.slice(1), sorted_keys.slice(0, n - 1)
    ).to_numpy(zero_copy_only=False)
    keep = np.ones(n, dtype=bool)
    keep[: n - 1] = differs
    winners = pc.take(order, pa.array(np.flatnonzero(keep)))
    return batch.take(winners)


DEFAULT_BUCKETS = 256  # shuffle partitions; scale ~ cluster cores × 2


def _bucket_of(keys: pa.Array | pa.ChunkedArray | list, n_buckets: int) -> np.ndarray:
    """Deterministic (process-independent) key → bucket: the vectorized
    polars 64-bit hash (one C call per column) mod n_buckets. Correctness
    needs only that every capture of a key maps to ONE bucket on every
    worker, which the pinned-seed hash guarantees."""
    h = np.array(_key_hash64(keys), dtype=np.uint64)
    return (h % np.uint64(n_buckets)).astype(np.int32)


def dedup_latest(
    ds: "ray.data.Dataset",
    key: str = "url",
    ts: str = "warc_ts",
    n_buckets: int = DEFAULT_BUCKETS,
) -> "ray.data.Dataset":
    """Keep, per ``key``, the single row with the largest ``ts``.

    NOT ``groupby(key).map_groups`` — that is a sort shuffle on a wide
    string key plus one Python UDF call per distinct key (measured 33s of a
    34s pipeline at 5k urls). Instead: hash ``key`` into ``n_buckets``
    int buckets, shuffle on the small int, and run the VECTORIZED
    keep-latest kernel once per bucket. All captures of one url share a
    bucket, so per-url semantics are exact."""
    ds = ds.map_batches(
        lambda b: _dedup_batch(b, key, ts), batch_format="pyarrow"
    )

    def _add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__bucket", pa.array(_bucket_of(b[key], n_buckets))
        )

    def _dedup_bucket(g: pa.Table) -> pa.Table:
        return _dedup_batch(g.drop_columns(["__bucket"]), key, ts)

    ds = ds.map_batches(_add_bucket, batch_format="pyarrow")
    return ds.groupby("__bucket").map_groups(_dedup_bucket, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# prefilter dedup: the 100 TB path — the wide payload never crosses a shuffle
# ---------------------------------------------------------------------------

def _cached_get(ref) -> dict:
    """Per-worker deserialization cache for the broadcast winner map (the
    ``ray.put`` once / read-in-every-task pattern; without the cache every
    batch would re-deserialize the dict). Delegates to the shared bounded
    cache in ``stages/bucketed.py`` — one implementation, one policy."""
    from datacat_ray.stages.bucketed import cached_ref

    return cached_ref(ref)


_DRIVER_WINNER_ROWS = 5_000_000


def _key_hash64(arr: pa.ChunkedArray | pa.Array) -> list[int]:
    """Vectorized deterministic 64-bit hash of a string column (polars
    ahash with pinned seeds — stable across processes). Collision odds at
    10^6 keys ~ 3e-8; int keys keep the broadcast winner map ~10× smaller
    than a str-keyed dict and unpickling at ms per worker."""
    import polars as pl

    s = pl.from_arrow(arr if isinstance(arr, (pa.Array, pa.ChunkedArray)) else pa.array(arr))
    return s.hash(seed=20260817).to_list()


def compute_winners(
    path, key: str = "url", ts: str = "warc_ts"
) -> dict[int, object]:
    """Narrow winner pass on the driver: read ONLY (key, ts) (parquet
    column pruning) and max-reduce them with polars (~50ms/100k rows),
    keyed by the 64-bit key hash. ``winner_probe`` calls it up to
    ``_DRIVER_WINNER_ROWS`` input rows; past that the winner set stays
    distributed (``compute_winners_parquet``) and never reaches the
    driver. The wide html column never moves either way."""
    import polars as pl
    import pyarrow.dataset as pads

    t = pads.dataset(path, format="parquet").to_table(columns=[key, ts])
    win = pl.from_arrow(t).group_by(key).agg(pl.col(ts).max())
    hashes = win[key].hash(seed=20260817).to_list()
    return dict(zip(hashes, win[ts].to_list()))


WINNER_BUCKETS = 64  # winner-parquet partitions; scale to keep each bucket
# dict « worker heap (10^12 keys × 16 B / P — at that scale use P ~ 65536)


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


def compute_winners_parquet(
    path,
    out_dir: str,
    key: str = "url",
    ts: str = "warc_ts",
    n_buckets: int = WINNER_BUCKETS,
) -> str:
    """Distributed winner set for >driver-memory key cardinality: narrow
    (key, ts) read → per-fragment vectorized keep-latest → ONE hash shuffle
    on ``crc-style`` int bucket of the 64-bit key hash → per-bucket
    keep-latest → one parquet file per bucket (``bucket-%05d.parquet``,
    atomic rename). The driver never materializes a winner; only
    (hash, ts) pairs cross the shuffle. ``out_dir`` must be shared storage
    on a multi-node cluster (object store / NFS), same as any shuffle
    spill target."""
    import numpy as np

    import ray.data as rd

    from datacat_ray.stages.bucketed import keep_last

    fp = input_fingerprint(path)
    marker = os.path.join(out_dir, "_WINNERS_OK")
    if os.path.exists(marker):
        with open(marker) as fh:
            if fh.read().strip() == fp:
                return out_dir  # finished build over the SAME input bytes
    if os.path.isdir(out_dir):
        # stale (input changed) OR torn (crashed mid-build): clear so no
        # old-input bucket file can survive into the new layout — refusing
        # directories that hold anything but winner artifacts
        clear_cache_dir(
            out_dir,
            lambda f: f.startswith(("bucket-", ".tmp.bucket-", "_WINNERS")),
        )
    os.makedirs(out_dir, exist_ok=True)

    def _local(b: pa.Table) -> pa.Table:
        b = _dedup_batch(b, key, ts)
        h = np.array(_key_hash64(b[key]), dtype=np.uint64)
        return pa.Table.from_pydict(
            {
                "h": pa.array(h, type=pa.uint64()),
                ts: b[ts],
                "__bucket": pa.array(
                    (h % np.uint64(n_buckets)).astype(np.int32)),
            }
        )

    def _reduce_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        b = int(g["__bucket"][0].as_py())
        win = keep_last(g.drop_columns(["__bucket"]), "h", [ts])
        tmp = os.path.join(out_dir, f".tmp.bucket-{b:05d}.parquet.{os.getpid()}")
        pq.write_table(win, tmp)
        os.replace(tmp, os.path.join(out_dir, f"bucket-{b:05d}.parquet"))
        return pa.Table.from_pydict(
            {"bucket": pa.array([b], pa.int32()),
             "n_keys": pa.array([win.num_rows], pa.int64())}
        )

    narrow = rd.read_parquet(path, columns=[key, ts])
    summary = (
        narrow.map_batches(_local, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_reduce_bucket, batch_format="pyarrow")
    )
    summary.materialize()  # drive the writes; summary itself is tiny
    with open(marker, "w") as fh:
        fh.write(fp + "\n")
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


def filter_winners(batch: pa.Table, ref, key: str = "url",
                   ts: str = "warc_ts") -> pa.Table:
    """The rows of ``batch`` holding their key's winning ``ts`` in the
    broadcast winner probe ``ref`` (a ``ray.put`` of ``winners_to_arrays``,
    deserialized once per worker), then keep-latest within the batch —
    the driver-side probe of ``apply_winners``."""
    wh, wts = _cached_get(ref)
    hashes = np.array(_key_hash64(batch[key]), dtype=np.uint64)
    mask = winner_mask(hashes, _ts_np(batch[ts]), wh, wts)
    return _dedup_batch(batch.filter(pa.array(mask)), key, ts)


class BucketWinnerFilter:
    """Bucketed winner filter: keeps an LRU of per-bucket winner dicts so
    each worker holds at most ``max_cached`` × (cardinality / n_buckets)
    entries — bounded memory at any key cardinality. Input layouts where
    captures of a url cluster (Common-Crawl segment files) touch few
    buckets per batch; worst-case random layouts re-read bucket files,
    trading IO for the driver-dict's unbounded heap."""

    def __init__(
        self,
        winner_dir: str,
        key: str = "url",
        ts: str = "warc_ts",
        n_buckets: int = WINNER_BUCKETS,
        max_cached: int = 16,
    ):
        self._dir = winner_dir
        self._key, self._ts, self._n = key, ts, n_buckets
        self._max = max_cached
        from collections import OrderedDict

        self._lru: "OrderedDict[int, tuple]" = OrderedDict()

    def _bucket_arrays(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(h sorted ascending, aligned winner ts) for one bucket — arrays,
        not a dict, so the probe is one ``searchsorted`` per batch instead
        of a Python ``dict.get`` per row."""
        cached = self._lru.get(b)
        if cached is not None:
            self._lru.move_to_end(b)
            return cached
        import pyarrow.parquet as pq

        f = os.path.join(self._dir, f"bucket-{b:05d}.parquet")
        if os.path.exists(f):
            t = pq.read_table(f)
            h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
            w = _ts_np(t[self._ts])
            order = np.argsort(h, kind="stable")
            cached = (h[order], w[order])
        else:  # bucket with zero keys is never written
            cached = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=object))
        self._lru[b] = cached
        while len(self._lru) > self._max:
            self._lru.popitem(last=False)
        return cached

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        n = batch.num_rows
        if n == 0:
            return batch
        hashes = np.array(_key_hash64(batch[self._key]), dtype=np.uint64)
        buckets = (hashes % np.uint64(self._n)).astype(np.int64)
        tss = _ts_np(batch[self._ts])
        mask = np.zeros(n, dtype=bool)
        for b in np.unique(buckets):
            wh, wts = self._bucket_arrays(int(b))
            sel = np.flatnonzero(buckets == b)
            mask[sel] = winner_mask(hashes[sel], tss[sel], wh, wts)
        return _dedup_batch(
            batch.filter(pa.array(mask)), self._key, self._ts
        )


_BWF_CACHE: dict[tuple, BucketWinnerFilter] = {}


def _bucket_filter_for(winner_dir: str, key: str, ts: str):
    """Per-worker BucketWinnerFilter cache, keyed by the winner set's OWN
    fingerprint (from its success marker) as well as the dir — a rebuild of
    the winner set at the same path (input regenerated mid-session) must
    not keep serving a filter whose bucket LRU holds the old winners."""
    try:
        with open(os.path.join(winner_dir, "_WINNERS_OK")) as fh:
            fp = fh.read().strip()
    except FileNotFoundError:
        fp = ""
    ck = (winner_dir, fp, key, ts)
    f = _BWF_CACHE.get(ck)
    if f is None:
        _BWF_CACHE.clear()
        f = _BWF_CACHE[ck] = BucketWinnerFilter(winner_dir, key, ts)
    return f


def winner_probe(
    path, winner_dir: str | None = None, key: str = "url", ts: str = "warc_ts"
) -> tuple:
    """The keep-latest winner set of parquet input ``path``, in the form
    ``apply_winners`` reads. The input's row count (parquet metadata)
    picks the build: up to ``_DRIVER_WINNER_ROWS`` rows the driver computes
    it (``compute_winners``) and broadcasts it once by ``ray.put`` →
    ``("driver", ref)``; past that, hash-bucketed winner parquet under
    ``winner_dir`` (``compute_winners_parquet``; default a scratch dir keyed
    by the input path) → ``("bucketed", winner_dir)``, read through a
    bounded per-worker bucket LRU. Both filter to the same rows. The ref
    rides inside a tuple, so a Ray task receiving the probe as an argument
    does not resolve it at invocation — ``filter_winners`` deserializes it
    once per worker."""
    import pyarrow.dataset as pads

    if pads.dataset(path, format="parquet").count_rows() <= _DRIVER_WINNER_ROWS:
        return ("driver",
                ray.put(winners_to_arrays(compute_winners(path, key, ts))))
    if winner_dir is None:
        import hashlib

        from datacat_ray.scratch import scratch_path

        digest = hashlib.sha1(str(path).encode()).hexdigest()[:12]
        winner_dir = scratch_path(f"datacat_winners_{digest}")
    return ("bucketed", compute_winners_parquet(path, winner_dir, key, ts))


def apply_winners(batch: pa.Table, probe: tuple, key: str = "url",
                  ts: str = "warc_ts") -> pa.Table:
    """The rows of ``batch`` that hold their key's winning ``ts`` in the
    ``winner_probe`` set, kept latest within the batch — the one winner
    filter of ``dedup_latest_prefilter`` and of every ``run_extract_job``
    partition."""
    kind, arg = probe
    if kind == "bucketed":
        return _bucket_filter_for(arg, key, ts)(batch)
    return filter_winners(batch, arg, key, ts)


def dedup_latest_prefilter(
    path,
    key: str = "url",
    ts: str = "warc_ts",
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
    probe = winner_probe(path, winner_dir, key, ts)
    return ray.data.read_parquet(path, columns=columns).map_batches(
        functools.partial(apply_winners, probe=probe, key=key, ts=ts),
        batch_format="pyarrow")
