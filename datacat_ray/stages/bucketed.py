"""Hash-bucketed tables — the engine's one layer for per-key work at any
key cardinality, and its standard replacement for
``groupby(key).map_groups(python_udf)``.

``groupby(key).map_groups`` costs one Python call per DISTINCT key plus a
sort-shuffle on the raw key; at 10^8 users that is 10^8 UDF invocations
(measured 33 s of a 34 s pipeline at 5k urls). The bucketed shape instead
hashes the key into a small int bucket column, runs ONE hash shuffle on the
int, and applies a numpy/Arrow kernel once per bucket with key-boundary
masks — O(buckets) Python calls, identical per-key semantics because every
row of a key lands in the same bucket.

This module owns every piece of that shape: the one 64-bit key hash
(``hash64``), the bucket functions (``add_bucket``), the per-key kernels
(``keep_last``, ``keep_first_k``), the distributed keep-latest
(``keep_latest`` — the url dedup of ``stages/dedup.py`` and
``latest_events``), the key-run kernel (``key_runs``, ``run_rank``), the
global running sum over range buckets (``running_sum``), the shuffle hash
join (``hash_join``), the atomic
bucket-file writer (``write_bucket``) with its bounded per-worker reader
(``read_bucket``), and the per-worker cache of broadcast objects
(``cached_ref``).
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_BUCKETS = 64  # shuffle partitions; scale ~ cluster cores × 2
_HASH_SEED = 20260817


def hash64(values) -> np.ndarray:
    """The engine's one 64-bit key hash (uint64): polars' vectorized hash
    with a pinned seed, so every process maps a key to the same value —
    one C call per column. ``values``: an Arrow array or chunked array, a
    polars Series, or a list of strings. Nulls hash to a fixed value;
    callers that mean "null == empty" fill them first."""
    import polars as pl

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pl.from_arrow(values)
    elif not isinstance(values, pl.Series):
        values = pl.Series(values, dtype=pl.Utf8)
    return values.hash(seed=_HASH_SEED).to_numpy()


def hash_buckets(
    h: np.ndarray, n_buckets: int = DEFAULT_BUCKETS
) -> np.ndarray:
    """Bucket codes of ``hash64`` values: the string-key bucket function of
    ``add_bucket``, exposed for tables keyed by the hash itself (the url
    winner set) so writer and reader never diverge on the mapping."""
    return (h % np.uint64(n_buckets)).astype(np.int32)


_BCAST_CACHE: dict = {}
_BCAST_ORDER: list = []


def cached_ref(ref, max_entries: int = 4):
    """Per-worker deserialization cache for broadcast objects: ``ray.get``
    of a large dict/set re-deserializes it EVERY call, so a per-batch
    closure must go through this instead (one deserialization per worker
    per object, small bounded LRU — a stage pair alternating two refs must
    not thrash a single-slot cache). Trade-off: up to ``max_entries``
    deserialized objects stay pinned per long-lived worker after their
    pipelines finish; the bound keeps that a constant, and the object-store
    copies are freed by Ray independently."""
    import ray as _ray

    k = ref.hex()
    if k in _BCAST_CACHE:
        _BCAST_ORDER.remove(k)
        _BCAST_ORDER.append(k)
        return _BCAST_CACHE[k]
    v = _ray.get(ref)
    _BCAST_CACHE[k] = v
    _BCAST_ORDER.append(k)
    while len(_BCAST_ORDER) > max_entries:
        _BCAST_CACHE.pop(_BCAST_ORDER.pop(0), None)
    return v


def int_bucket_codes(
    keys: np.ndarray, n_buckets: int = DEFAULT_BUCKETS
) -> np.ndarray:
    """The integer-key bucket function of ``add_bucket``, exposed so
    write-side partitioners and read-side lookups (e.g. the paragraph-dedup
    prefilter) can never diverge on the mapping."""
    k = keys.astype(np.uint64)
    h = (k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (h % np.uint64(n_buckets)).astype(np.int32)


def add_bucket(
    t: pa.Table, key: str, n_buckets: int = DEFAULT_BUCKETS
) -> pa.Table:
    """Append a deterministic int32 ``__bucket`` column derived from ``key``.

    Integer keys: multiplicative (Knuth) hash then modulo — plain ``k % P``
    would map a sequential id space onto buckets in lockstep with any
    id-correlated skew. String keys: vectorized 64-bit hash via polars
    (stable across processes, pinned seed)."""
    # drop pandas schema metadata: the shuffle's schema-dedup hashing chokes
    # on the unhashable metadata dict and logs a warning per reduce task
    t = t.replace_schema_metadata(None)
    col = t[key]
    if pa.types.is_integer(col.type):
        # view-cast via numpy: negative int64 keys (e.g. signed content
        # hashes) must wrap, not overflow-error as pc.cast would
        k = col.combine_chunks().to_numpy(zero_copy_only=False)
        b = int_bucket_codes(k, n_buckets)
    else:
        b = hash_buckets(hash64(col), n_buckets)
    return t.append_column("__bucket", pa.array(b, type=pa.int32()))


def sorted_key_bounds(uid: np.ndarray) -> np.ndarray:
    """Start indices of each key run in a key-sorted array."""
    if len(uid) == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.empty(len(uid), dtype=bool)
    starts[0] = True
    starts[1:] = uid[1:] != uid[:-1]
    return np.flatnonzero(starts)


def key_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) of each key run in a key-sorted array: the one run
    kernel of the in-bucket ops. A run's length is its key's row count."""
    starts = sorted_key_bounds(keys)
    return starts, np.diff(np.append(starts, len(keys)))


def run_rank(keys: np.ndarray) -> np.ndarray:
    """0-based rank of each row within its key run of a key-sorted array."""
    starts, lens = key_runs(keys)
    return np.arange(len(keys), dtype=np.int64) - np.repeat(starts, lens)


def keep_first_k(
    t: pa.Table, key: str, order_cols: list[str], k: int
) -> pa.Table:
    """Vectorized per-key rank filter: keep each key's first ``k`` rows in
    (key, *order_cols) ascending order — ``row_number() OVER (PARTITION BY
    key ORDER BY order_cols) <= k`` without a per-key Python call."""
    n = t.num_rows
    if n == 0 or k <= 0:
        return t.slice(0, 0) if k <= 0 else t
    order = pc.sort_indices(
        t,
        sort_keys=[(key, "ascending")] + [(c, "ascending") for c in order_cols],
    )
    sorted_keys = pc.take(t[key], order).combine_chunks().to_numpy(
        zero_copy_only=False
    )
    rank = run_rank(sorted_keys)
    return t.take(pc.take(order, pa.array(np.flatnonzero(rank < k))))


def running_sum(tagged, n_buckets: int, weight: str | None,
                sort_keys: list[str], finish):
    """A global running sum of ``weight`` (``None``: 1 per row) without a
    global sort. ``tagged`` carries an int32 ``__bucket`` in [0,
    ``n_buckets``) that range-partitions the global order (an md5 byte, a
    doc-id range); within a bucket the order is ``sort_keys`` ascending.

    ``tagged`` is materialized once, so both passes read the same rows.
    Pass 1 sums the weight per bucket (a map-side partial, then at most
    ``n_buckets`` rows reach the driver), and the driver takes exclusive
    prefix sums of the bucket totals. Pass 2 is one shuffle on the bucket,
    an in-bucket sort, and offset + cumsum. ``finish(t, cum)`` gets one
    bucket's sorted rows (``__bucket`` dropped) and each row's inclusive
    running sum, and returns the output rows."""
    from ray.data.aggregate import Sum

    tagged = tagged.materialize()
    col, fn = (weight, "sum") if weight else ("__bucket", "count")

    totals = np.zeros(n_buckets, dtype=np.int64)
    for r in (
        tagged.map_batches(
            lambda t: t.group_by("__bucket").aggregate([(col, fn)]),
            batch_format="pyarrow",
        )
        .groupby("__bucket")
        .aggregate(Sum(f"{col}_{fn}", alias_name="w"))
        .take_all()
    ):
        totals[r["__bucket"]] = r["w"]
    offsets = np.cumsum(totals) - totals

    def _place(g: pa.Table) -> pa.Table:
        b = g["__bucket"][0].as_py()
        g = g.drop_columns(["__bucket"])
        g = g.take(pc.sort_indices(
            g, sort_keys=[(k, "ascending") for k in sort_keys]))
        w = (np.ones(g.num_rows, dtype=np.int64) if weight is None else
             g[weight].combine_chunks().to_numpy(zero_copy_only=False))
        return finish(g, offsets[b] + np.cumsum(w))

    return tagged.groupby("__bucket").map_groups(
        _place, batch_format="pyarrow")


def keep_last(t: pa.Table, key: str, order_cols: list[str]) -> pa.Table:
    """Vectorized keep-max-per-key: stable sort by (key, *order_cols) with
    nulls FIRST (a null order value never wins), keep each key's last row."""
    n = t.num_rows
    if n <= 1:
        return t
    order = pc.sort_indices(
        t,
        sort_keys=[(key, "ascending")] + [(c, "ascending") for c in order_cols],
        null_placement="at_start",
    )
    sorted_keys = pc.take(t[key], order).combine_chunks()
    differs = pc.not_equal(
        sorted_keys.slice(1), sorted_keys.slice(0, n - 1)
    ).to_numpy(zero_copy_only=False)
    keep = np.ones(n, dtype=bool)
    keep[: n - 1] = differs
    return t.take(pc.take(order, pa.array(np.flatnonzero(keep))))


def keep_latest(ds, key: str, order_cols: list[str]):
    """Exact distributed keep-max-per-key over a Dataset: in-batch
    ``keep_last`` (drops stale rows that share a read block before any
    data moves), ONE hash shuffle on the int bucket of ``key``, then
    ``keep_last`` once per bucket. Every row of a key lands in one bucket,
    so the per-key winner is exact; a null order value never wins."""
    ds = ds.map_batches(
        lambda t: add_bucket(keep_last(t, key, order_cols), key),
        batch_format="pyarrow",
    )
    return ds.groupby("__bucket").map_groups(
        lambda g: keep_last(g.drop_columns(["__bucket"]), key, order_cols),
        batch_format="pyarrow",
    )


def _no_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


def hash_join(left, right, on: str):
    """Inner shuffle hash join of two Datasets on column ``on``. Partitions
    are sized to half the session's CPUs (2 to 16): every partition is
    backed by an aggregator actor that reserves a core, and two chained
    16-partition joins deadlock a 4-CPU session (measured). Both inputs
    lose their schema metadata first, as in ``add_bucket``: Ray's schema
    de-dup hashes block schemas, and a schema carrying metadata (pandas
    metadata of a parquet read) is unhashable, and every aggregator would
    log that. Read tasks that split a parquet file into blocks still log
    it before this map; ``quiet_schema_hash_warning`` hides the driver's
    own copies."""
    import ray as _ray

    from datacat_ray import quiet_schema_hash_warning

    n_parts = max(2, min(16, int(_ray.cluster_resources().get("CPU", 8)) // 2))
    quiet_schema_hash_warning()
    left, right = (d.map_batches(_no_metadata, batch_format="pyarrow")
                   for d in (left, right))
    return left.join(right, "inner", n_parts, on=(on,))


# ---------------------------------------------------------------------------
# bucket files: one parquet file per bucket of a hash-partitioned table
# ---------------------------------------------------------------------------


def _bucket_path(d: str, b: int) -> str:
    return os.path.join(d, f"bucket-{b:05d}.parquet")


def write_bucket(d: str, b: int, t: pa.Table) -> None:
    """Publish ``t`` as bucket ``b`` of the table under ``d``: written to a
    pid-keyed tmp file, then renamed into place, so a reader never sees a
    torn file and two writers of one bucket never share a tmp. A bucket no
    row hashed to is never written."""
    import pyarrow.parquet as pq

    path = _bucket_path(d, b)
    tmp = os.path.join(d, f".tmp.{os.path.basename(path)}.{os.getpid()}")
    pq.write_table(t, tmp)
    os.replace(tmp, path)


_BUCKET_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_BUCKET_CACHE_MAX = 16


def read_bucket(d: str, b: int, load):
    """``load(table)`` of bucket ``b`` under ``d`` through a bounded
    per-worker LRU (``_BUCKET_CACHE_MAX`` loaded buckets per process, so
    worker memory stays bounded at any table size). Keyed by the file's
    path and identity (inode, mtime_ns, size) as well as ``load``: a table
    rebuilt at the same path is never served from an earlier build. A
    missing file is a bucket with no rows: ``load(None)`` must return the
    empty value. Callers group a batch's rows by bucket and read each
    bucket once per batch (one ``os.stat`` each)."""
    path = _bucket_path(d, b)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return load(None)
    key = (path, load, st.st_ino, st.st_mtime_ns, st.st_size)
    v = _BUCKET_CACHE.get(key)
    if v is not None:
        _BUCKET_CACHE.move_to_end(key)
        return v
    import pyarrow.parquet as pq

    v = _BUCKET_CACHE[key] = load(pq.read_table(path))
    while len(_BUCKET_CACHE) > _BUCKET_CACHE_MAX:
        _BUCKET_CACHE.popitem(last=False)
    return v
