"""Per-url capture dedup: keep the latest ``warc_ts`` (SURVEY.md D1).

The reference has no dedup (one file = one document); the north rule adds
dedup by url keeping the latest capture BEFORE extraction. The key and the
order column are fixed (``KEY``, ``TS``), and every kernel here is the
hash-bucketed layer of ``stages/bucketed.py``:

* ``dedup_latest`` — the exact shuffle dedup over a Dataset
  (``bucketed.keep_latest``: in-batch keep-latest, one hash shuffle on the
  int bucket of the url, keep-latest per bucket). The wide ``html`` column
  crosses the shuffle once, only for rows that survive the in-batch step.
* winner sets — a narrow key pass builds the set of winning (url hash,
  ``warc_ts``[, ``pos``]) rows (``winner_set``: on the driver, or bucketed
  past ``_DRIVER_WINNER_ROWS`` input rows), and the full read is filtered
  against it (``winner_keep``), so the payload of a stale capture never
  moves at all. Parquet input (``winner_probe``): ``dedup_latest_prefilter``
  and ``run_extract_job``. WARC input (``sources/warc.py``): the flagship
  ``extract_pages_warc``, whose key rows carry ``pos``, the capture's
  input position, so exactly one capture per url wins.
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
# winner sets: the 100 TB path — the wide payload never crosses a shuffle
# ---------------------------------------------------------------------------

_DRIVER_WINNER_ROWS = 5_000_000
POS = "pos"


def winner_keys(t: pa.Table) -> pa.Table:
    """The key rows of a winner set: ``h`` (``hash64`` of the url),
    ``warc_ts`` and, where the input carries it, ``pos`` — the capture's
    input position, which breaks a ``warc_ts`` tie (WARC input: segment
    rank and record ordinal, ``sources/warc.py``)."""
    cols = {"h": pa.array(hash64(t[KEY]), pa.uint64()), TS: t[TS]}
    if POS in t.column_names:
        cols[POS] = t[POS]
    return pa.table(cols)


def latest_keys(keys: pa.Table) -> pa.Table:
    """One row per ``h`` of a ``winner_keys`` table, sorted by ``h``: the
    largest (``warc_ts``, ``pos``), where a null ``warc_ts`` never wins
    (polars sort with nulls first, then the last row of each key)."""
    import polars as pl

    order = [c for c in (TS, POS) if c in keys.column_names]
    df = pl.from_arrow(keys).sort(["h", *order], maintain_order=True)
    return df.unique("h", keep="last", maintain_order=True).to_arrow()


def parquet_keys(path) -> pa.Table:
    """The ``winner_keys`` rows of parquet input ``path``: only (url,
    warc_ts) is read (parquet column pruning), the wide html column never
    moves."""
    import pyarrow.dataset as pads

    return winner_keys(pads.dataset(path, format="parquet").to_table(
        columns=[KEY, TS]))


def compute_winners(path) -> pa.Table:
    """The driver winner table of parquet input ``path``: ``latest_keys``
    of its ``parquet_keys`` — what ``winner_probe`` builds up to
    ``_DRIVER_WINNER_ROWS`` input rows, kept as a function of its own for
    perfbench's ``dedup.winners_s`` probe."""
    return latest_keys(parquet_keys(path))


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


def winner_bucket(h: np.ndarray, pos: np.ndarray | None) -> np.ndarray:
    """The bucket a winner-set row is filed under and probed in: the hash
    bucket of ``h``, or, for key rows that carry ``pos`` (WARC input), the
    segment rank ``pos >> 32`` — a WARC read task walks one segment, so it
    probes one bucket file, which the per-worker ``read_bucket`` cache
    then holds for the whole segment."""
    if pos is None:
        return hash_buckets(h)
    return (pos >> 32).astype(np.int32)


def compute_winners_bucketed(keys: "ray.data.Dataset", out_dir: str,
                             fingerprint: str) -> str:
    """The winner set past driver memory: per-block ``latest_keys`` of
    ``keys`` (a Dataset of ``winner_keys`` blocks) → ONE hash shuffle on
    the bucket of ``h`` → per-bucket ``latest_keys`` → one
    ``write_bucket`` file of key rows per ``winner_bucket``. Rows that
    carry ``pos`` are filed by segment rank, which takes a second narrow
    shuffle of the winners (a url's captures must first meet in one hash
    bucket). The driver never materializes a winner; only key rows cross
    the shuffles. Built once per input ``fingerprint`` (``build_once``).
    ``out_dir`` must be shared storage on a multi-node cluster (object
    store / NFS), same as any shuffle spill target."""

    def _filed(t: pa.Table) -> pa.Table:
        pos = t[POS].to_numpy() if POS in t.column_names else None
        b = winner_bucket(t["h"].to_numpy(), pos)
        return t.append_column("__bucket", pa.array(b, pa.int32()))

    def _write(g: pa.Table) -> pa.Table:
        b = int(g["__bucket"][0].as_py())
        write_bucket(out_dir, b, g.drop_columns(["__bucket"]))
        return pa.Table.from_pydict(
            {"bucket": pa.array([b], pa.int32()),
             "n_keys": pa.array([g.num_rows], pa.int64())}
        )

    def _local(t: pa.Table) -> pa.Table:
        t = latest_keys(t)
        b = hash_buckets(t["h"].to_numpy())
        return t.append_column("__bucket", pa.array(b, pa.int32()))

    def _reduce_bucket(g: pa.Table) -> pa.Table:
        win = _filed(latest_keys(g.drop_columns(["__bucket"])))
        return win if POS in win.column_names else _write(win)

    def _build() -> None:
        wins = (keys.map_batches(_local, batch_format="pyarrow")
                .groupby("__bucket")
                .map_groups(_reduce_bucket, batch_format="pyarrow"))
        if POS in keys.schema().names:  # filed by segment rank
            wins = wins.groupby("__bucket").map_groups(
                _write, batch_format="pyarrow")
        wins.materialize()  # drive the writes; the summary itself is tiny

    # "_WINNERS": the marker name of sets built before ``build_once``
    build_once(
        out_dir, fingerprint,
        lambda f: f.startswith(("bucket-", ".tmp.bucket-", "_WINNERS")),
        _build)
    return out_dir


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
    hashes: np.ndarray, vals: dict[str, np.ndarray],
    wh: np.ndarray, wvals: dict[str, np.ndarray],
) -> np.ndarray:
    """Vectorized winner test: row i survives iff its key hash is a winner
    AND every order column the winner set carries (``wvals``: ``warc_ts``,
    and ``pos`` where present) equals the row's (``vals``). ``wh`` must be
    sorted ascending."""
    mask = np.zeros(len(hashes), dtype=bool)
    hit, wpos = sorted_hits(hashes, wh)
    ok = np.ones(len(hit), dtype=bool)
    for c, w in wvals.items():
        ok &= w[wpos] == vals[c][hit]
    mask[hit] = ok
    return mask


def _eq_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Order column → numpy for vectorized equality. Null-free columns
    take the no-boxing ``to_numpy`` path (int64/str in C); columns WITH
    nulls fall back to object dtype via ``to_pylist`` so a null compares
    as Python ``None`` on both sides (``to_numpy`` would turn a null int
    into NaN, and NaN != NaN would silently drop every null-ts winner)."""
    if col.null_count == 0:
        # numeric/bool dtypes compare exactly; anything else (strings,
        # dates) already lands as object
        return col.to_numpy(zero_copy_only=False)
    return np.array(col.to_pylist(), dtype=object)


def _load_winners(t: pa.Table | None) -> tuple[np.ndarray, dict]:
    """(h sorted ascending, {order column: aligned values}) of a winner
    table (the driver set or one bucket file) — arrays, not a dict, so
    the probe is one ``searchsorted`` per batch. None (a bucket no key
    hashed to) holds no winners."""
    if t is None:
        return np.empty(0, dtype=np.uint64), {}
    h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.argsort(h, kind="stable")
    return h[order], {c: _eq_np(t[c])[order] for c in (TS, POS)
                      if c in t.column_names}


def winner_set(n_rows: int, keys, key_blocks, inputs,
               winner_dir: str | None = None) -> tuple:
    """The one size pick of a keep-latest winner set over ``n_rows`` input
    rows, in the form ``winner_keep`` reads. Up to ``_DRIVER_WINNER_ROWS``
    the driver builds it (``latest_keys(keys())``, ``keys()`` a
    ``winner_keys`` table) and broadcasts it once by ``ray.put`` →
    ``("driver", ref)``; past that, bucketed (``winner_bucket``) winner
    parquet under ``winner_dir`` from ``key_blocks()``, a Dataset of
    ``winner_keys`` blocks (``compute_winners_bucketed``; default dir a
    scratch dir keyed by ``inputs``, the input listing whose
    ``input_fingerprint`` marks the build) → ``("bucketed", winner_dir)``,
    read through the bounded per-worker ``read_bucket``. Both filter to
    the same rows. The ref rides inside a tuple, so a Ray task receiving
    the probe as an argument does not resolve it at invocation —
    ``winner_keep`` deserializes it once per worker."""
    if n_rows <= _DRIVER_WINNER_ROWS:
        return ("driver", ray.put(_load_winners(latest_keys(keys()))))
    if winner_dir is None:
        import hashlib

        from datacat_ray.scratch import scratch_path

        digest = hashlib.sha1(str(inputs).encode()).hexdigest()[:12]
        winner_dir = scratch_path(f"datacat_winners_{digest}")
    return ("bucketed", compute_winners_bucketed(
        key_blocks(), winner_dir, input_fingerprint(inputs)))


def winner_probe(path, winner_dir: str | None = None) -> tuple:
    """The ``winner_set`` of parquet input ``path``, sized by its row count
    (parquet metadata); only (url, warc_ts) is read."""
    import pyarrow.dataset as pads

    return winner_set(
        pads.dataset(path, format="parquet").count_rows(),
        lambda: parquet_keys(path),
        lambda: ray.data.read_parquet(path, columns=[KEY, TS]).map_batches(
            winner_keys, batch_format="pyarrow"),
        path, winner_dir)


def winner_keep(batch: pa.Table, probe: tuple) -> np.ndarray:
    """The one winner filter: the mask of the rows of ``batch`` (url,
    warc_ts and, where the set carries it, pos) that hold their url's
    winning values in the ``winner_set`` ``probe``. A bucketed set is
    probed bucket by bucket (``winner_bucket``), each bucket read once per
    batch."""
    kind, arg = probe
    hashes = hash64(batch[KEY])
    vals = {c: _eq_np(batch[c]) for c in (TS, POS)
            if c in batch.column_names}
    if kind == "driver":
        return winner_mask(hashes, vals, *cached_ref(arg))
    mask = np.zeros(batch.num_rows, dtype=bool)
    buckets = winner_bucket(hashes, vals.get(POS))
    for b in np.unique(buckets):
        sel = np.flatnonzero(buckets == b)
        mask[sel] = winner_mask(
            hashes[sel], {c: v[sel] for c, v in vals.items()},
            *read_bucket(arg, int(b), _load_winners))
    return mask


def apply_winners(batch: pa.Table, probe: tuple) -> pa.Table:
    """The rows of parquet pages ``batch`` that ``winner_keep`` keeps, kept
    latest within the batch — the winner filter of
    ``dedup_latest_prefilter`` and of every ``run_extract_job``
    partition (a parquet set carries no ``pos``, so a same-``warc_ts`` tie
    passes the filter)."""
    mask = winner_keep(batch, probe)
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
