"""Deduplication family over the ``documents`` / ``events`` / ``embeddings``
tables (training-data ops; SURVEY.md D1 generalized).

Every variant follows the same scale shape: a vectorized per-batch
signature stage (map_batches, no shuffle), ONE hash shuffle on the
signature key (groupby), and per-bucket candidate verification — never an
all-pairs pass. Partitioning key choices and small-side broadcasts are
documented per operator.

- exact dedup: content hash → groupby(hash) → min(doc_id)
- latest-per-key (events): the D1 pattern — groupby(user_id), max(ts)
- MinHash + LSH near-dup: char-shingles → 128 minhashes → 16 bands × 8 rows
  → band-bucket groupby → signature-estimated Jaccard pairs
- SimHash near-dup: token 3-grams → 64-bit simhash → 4×16-bit band blocking
  → Hamming-verified pairs
- n-gram Jaccard: MinHash candidates verified with EXACT shingle Jaccard
- embedding near-dup: random-hyperplane LSH buckets → exact cosine

The four near-duplicate pair ops share one pair layer. ``bucket_pairs``
turns one bucket's ids into pairs (all pairs up to a cap, star pairs
around the min id above it, one logged warning); ``candidate_pairs`` is
the candidate build (bucket groupby → ``bucket_pairs`` → pair dedup);
``verify_pairs`` verifies candidates with an op's batch kernel over
``(a, b, value_a, value_b)``, broadcasting the candidate ids' values up to
``_CAND_BROADCAST_MAX`` pairs and hash-joining the value table past it
(``bucketed.hash_join``). MinHash, n-gram Jaccard and embedding pairs go
through all three; SimHash keeps its in-bucket Hamming check over
``bucket_pairs``.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Min

from datacat_ray.stages.bucketed import hash64


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _content_hash_batch(batch: pa.Table) -> pa.Table:
    # vectorized 64-bit content hash (one polars call per batch — a Python
    # per-byte FNV loop here cost ~600 iterations/doc). The hash never
    # leaves the pipeline: every consumer groups equal texts by it, so any
    # deterministic 64-bit hash preserves the semantics.
    col = pc.fill_null(batch["text"].combine_chunks(), "")
    h = hash64(col).view(np.int64)
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "text_hash": pa.array(h, type=pa.int64())}
    )


def exact_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Survivor doc_ids after exact-content dedup (keep min doc_id per
    identical text). The shuffle moves only (doc_id, hash) pairs — the text
    itself never crosses the exchange."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(_content_hash_batch, batch_format="pyarrow")
    out = ds.groupby("text_hash").aggregate(Min("doc_id", alias_name="doc_id"))
    return out.select_columns(["doc_id"])


# ---------------------------------------------------------------------------
# latest-per-key over events (D1 pattern, SQL-checkable)
# ---------------------------------------------------------------------------


def latest_events(sf_dir: str) -> "ray.data.Dataset":
    """One row per user_id: the event with max (ts, event_id) — the
    keep-latest dedup the flagship pipeline applies to url captures
    (``bucketed.keep_latest``: O(buckets) Python calls, not O(distinct
    users))."""
    from datacat_ray.stages.bucketed import keep_latest

    return keep_latest(ray.data.read_parquet(f"{sf_dir}/events.parquet"),
                       "user_id", ["ts", "event_id"])


def duplicate_clusters(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, cluster_id) for EVERY doc: cluster_id = min doc_id among
    byte-identical texts (the assignment view of exact dedup — what a
    training-data pipeline joins back to pick canonical docs).

    Shape: content hash per batch, ONE shuffle on an int bucket of the
    hash, then a vectorized min-per-run kernel over the sorted bucket —
    no per-key Python calls (stages/bucketed.py pattern)."""
    import pyarrow.compute as _pc

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _hash(b: pa.Table) -> pa.Table:
        return add_bucket(_content_hash_batch(b), "text_hash")

    def _assign(g: pa.Table) -> pa.Table:
        order = _pc.sort_indices(
            g, sort_keys=[("text_hash", "ascending"), ("doc_id", "ascending")]
        )
        h = _pc.take(g["text_hash"], order).combine_chunks().to_numpy()
        d = _pc.take(g["doc_id"], order).combine_chunks().to_numpy()
        starts = sorted_key_bounds(h)
        if len(starts) == 0:
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64())}
            )
        counts = np.diff(np.append(starts, len(h)))
        cluster = np.repeat(d[starts], counts)  # min doc_id per run
        return pa.Table.from_pydict(
            {"doc_id": pa.array(d), "cluster_id": pa.array(cluster)}
        )

    ds = ds.map_batches(_hash, batch_format="pyarrow")
    return ds.groupby("__bucket").map_groups(
        lambda g: _assign(g.drop_columns(["__bucket"])), batch_format="pyarrow"
    )


DUPLICATE_CLUSTERS_SQL = """
    SELECT doc_id, MIN(doc_id) OVER (PARTITION BY text) AS cluster_id
    FROM documents
"""


# ---------------------------------------------------------------------------
# incremental dedup (Bloom prefilter vs an ingested snapshot)
# ---------------------------------------------------------------------------

INCR_SNAPSHOT_DOCS = 300  # doc_ids [0, 300) stand in for the prior snapshot
_BLOOM_CAND_MAX = 2_000_000  # candidate-hash broadcast cap (16 MB)
_BLOOM_TEXT_BYTES_MAX = 128 * 1024 * 1024  # candidate-TEXT broadcast cap


def _text_hash64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Null-safe vectorized 64-bit content hash (same kernel family as
    ``_content_hash_batch``; nulls hash as empty text)."""
    return hash64(pc.fill_null(
        col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col, ""
    ))


def _bloom_of(ds, probe_ref=None, m_bits: int | None = None) -> "np.ndarray":
    """Stream a documents Dataset into ONE merged Bloom filter of
    ``m_bits`` (default BLOOM_BITS): per-batch partials, OR-folded by a
    tree of fold stages sized so each fold task holds ≤256 MB of partials
    and the driver sees a handful of rows even at 10^8 source batches.
    With ``probe_ref``, only rows that HIT that filter contribute (used to
    build the new-side candidate bloom of the join verify)."""
    from datacat_ray.functions.bloom import (
        BLOOM_BITS,
        bloom_add,
        bloom_maybe,
        bloom_merge,
        bloom_zeros,
    )
    from datacat_ray.stages.bucketed import cached_ref

    m = int(m_bits or BLOOM_BITS)

    def _partial(t: pa.Table) -> pa.Table:
        h = _text_hash64(t["text"])
        if probe_ref is not None:
            h = h[bloom_maybe(cached_ref(probe_ref), h)]
        bits = bloom_zeros(m)
        bloom_add(bits, h)
        return pa.Table.from_pydict(
            {"bloom": pa.array([bits.tobytes()], pa.binary())}
        )

    def _fold(t: pa.Table) -> pa.Table:
        merged = bloom_merge(
            [np.frombuffer(b, np.uint64) for b in t["bloom"].to_pylist()]
        )
        return pa.Table.from_pydict(
            {"bloom": pa.array([merged.tobytes()], pa.binary())}
        )

    out = ds.map_batches(_partial, batch_format="pyarrow")
    # fold width bounded by a 256 MB per-task partial budget; enough
    # levels that width^levels covers 10^9 source batches — at small scale
    # the extra levels are single-task pass-throughs
    width = max(4, min(64, (1 << 28) // (m // 8)))
    levels = max(4, int(np.ceil(np.log(1e9) / np.log(width))))
    for _ in range(levels):
        out = out.map_batches(_fold, batch_format="pyarrow", batch_size=width)
    folded = out.take_all()
    return bloom_merge([np.frombuffer(r["bloom"], np.uint64) for r in folded])


def incremental_dedup(
    sf_dir: str,
    snapshot_docs: int = INCR_SNAPSHOT_DOCS,
) -> "ray.data.Dataset":
    """doc_ids of NEW documents (doc_id >= ``snapshot_docs``) whose text
    does not already appear in the ingested snapshot (doc_id <
    ``snapshot_docs``) — the incremental-crawl hygiene step: filter each
    new dump against everything ingested so far WITHOUT re-shuffling or
    re-broadcasting the snapshot.

    Scale shape (functions/bloom.py): the snapshot streams ONCE into
    per-batch Bloom partials merged by a tree fold (bitwise OR). The
    filter is SIZED to the snapshot row count (parquet-metadata count →
    ``bloom_bits_for``: 16 bits/key ≈ 0.14% FP, clamped to a 16 MB
    broadcast) — fixed-size per key budget, unlike the
    snapshot-proportional broadcast set in ``decontaminate``. The new side
    probes the filter vectorized; only Bloom-POSITIVE rows (true dups +
    the FP tail) reach the exact verify, so the output is EXACT (text
    equality, nulls == empty), byte-matching the SQL anti-join oracle.
    Past ~38M snapshot keys even the max filter saturates (``bloom_fp`` >
    25% needs n > 0.28·m; at 8M keys the max filter is still at ~0.14%):
    the prefilter is then SKIPPED and the operator runs the plain bucketed
    anti-join — the classic exact shape at that scale — rather than
    paying for a no-op prune.

    Verify: the matching snapshot TEXTS are fetched by a
    membership-filtered second snapshot pass and broadcast (O(candidates)
    driver memory), capped BOTH on candidate count (``_BLOOM_CAND_MAX``)
    and on text BYTES (``_BLOOM_TEXT_BYTES_MAX`` — a few huge duplicate
    documents must not OOM the driver). Past either cap, or with the
    prefilter skipped, the verify is a join instead: both sides'
    bloom-positive rows shuffle ONCE on an int bucket of the text hash and
    each bucket runs a vectorized ``pc.is_in`` anti-join — nothing
    candidate-proportional ever sits on the driver; the snapshot side is
    pruned by a SECOND bloom built over the new side's positives before
    the exchange. Both verifies are pinned equal in tests (test_bloom).

    Operational note: this standalone form reads the snapshot's text
    twice (bloom build + text fetch) plus one NARROW doc_id-column count
    scan for the filter sizing (row-group-stat prunable, no text bytes).
    A pipeline that OWNS ingestion would persist the snapshot's
    (content-hash) column as a narrow parquet sidecar at ingest time,
    making the sizing count and the bloom build read the sidecar instead
    of the full table — the code shape here is unchanged, only the
    ``_snap()`` source swaps."""
    import pyarrow.dataset as pads

    from datacat_ray.functions.bloom import (
        bloom_bits_for,
        bloom_fp,
        bloom_maybe,
    )
    from datacat_ray.stages.bucketed import cached_ref

    path = f"{sf_dir}/documents.parquet"
    fld = pads.field("doc_id")

    def _snap():
        return ray.data.read_parquet(
            path, columns=["doc_id", "text"], filter=fld < snapshot_docs
        )

    new = ray.data.read_parquet(
        path, columns=["doc_id", "text"], filter=fld >= snapshot_docs
    )

    n_snap = pads.dataset(path, format="parquet").count_rows(
        filter=fld < snapshot_docs
    )
    m_bits = bloom_bits_for(n_snap)
    use_bloom = bloom_fp(n_snap, m_bits) <= 0.25
    bits_ref = (
        ray.put(_bloom_of(_snap(), m_bits=m_bits)) if use_bloom else None
    )

    def _join_verify() -> "ray.data.Dataset":
        from datacat_ray.stages.bucketed import add_bucket

        # prune the snapshot shuffle side with a bloom over the NEW
        # side's positives (saturation only weakens the prune, never
        # correctness); both sides then exchange (text, …) on an int
        # bucket of the text hash. With the prefilter skipped (saturated
        # snapshot), both sides ship whole — the plain bucketed anti-join.
        nb_ref = (
            ray.put(_bloom_of(new, probe_ref=bits_ref, m_bits=m_bits))
            if use_bloom
            else None
        )

        def _side(t: pa.Table, probe, src: int) -> pa.Table:
            kept = pa.Table.from_pydict(
                {
                    "doc_id": t["doc_id"],
                    "text": pc.fill_null(t["text"].combine_chunks(), ""),
                    "src": pa.array(
                        np.full(t.num_rows, src, dtype=np.int8), pa.int8()
                    ),
                }
            )
            if probe is not None:
                h = _text_hash64(t["text"])
                kept = kept.filter(pa.array(bloom_maybe(cached_ref(probe), h)))
            return add_bucket(kept, "text")

        def _anti(g: pa.Table) -> pa.Table:
            src = g["src"].combine_chunks().to_numpy(zero_copy_only=False)
            snap_texts = g["text"].filter(pa.array(src == 0))
            new_rows = g.filter(pa.array(src == 1))
            if len(snap_texts) == 0:
                return new_rows.select(["doc_id"])
            keep = pc.invert(
                pc.is_in(new_rows["text"], value_set=snap_texts.combine_chunks())
            )
            return new_rows.select(["doc_id"]).filter(keep)

        shuffled = (
            new.map_batches(
                lambda t: _side(t, bits_ref, 1), batch_format="pyarrow"
            )
            .union(
                _snap().map_batches(
                    lambda t: _side(t, nb_ref, 0), batch_format="pyarrow"
                )
            )
            .groupby("__bucket")
            .map_groups(
                lambda g: _anti(g.drop_columns(["__bucket"])),
                batch_format="pyarrow",
            )
        )

        if not use_bloom:
            # every new row went through the shuffle; there is no
            # bloom-negative clean path to union back
            return shuffled

        def _clean(t: pa.Table) -> pa.Table:
            keep = ~bloom_maybe(cached_ref(bits_ref), _text_hash64(t["text"]))
            return pa.Table.from_pydict({"doc_id": t["doc_id"]}).filter(
                pa.array(keep, pa.bool_())
            )

        return new.map_batches(_clean, batch_format="pyarrow").union(shuffled)

    if not use_bloom:
        return _join_verify()

    # phase 2: new side probes the filter; DISTINCT positive hashes out
    def _cand(t: pa.Table) -> pa.Table:
        h = _text_hash64(t["text"])
        m = bloom_maybe(cached_ref(bits_ref), h)
        return pa.Table.from_pydict(
            {"h": pa.array(np.unique(h[m]).view(np.int64), pa.int64())}
        )

    cand: set[int] = set()
    for b in new.map_batches(_cand, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        cand.update(b["h"].to_pylist())
        if len(cand) > _BLOOM_CAND_MAX:
            break
    if len(cand) > _BLOOM_CAND_MAX:
        return _join_verify()
    cand_sorted = np.sort(
        np.fromiter(cand, dtype=np.int64, count=len(cand)).view(np.uint64)
    )
    cand_ref = ray.put(cand_sorted)

    # phase 3: snapshot texts behind the candidate hashes (small: only
    # texts that SOME new doc bloom-hit), broadcast for the exact compare
    def _snap_texts(t: pa.Table) -> pa.Table:
        h = _text_hash64(t["text"])
        keep = np.isin(h, cached_ref(cand_ref))
        return pa.Table.from_pydict(
            {
                "text": pc.fill_null(t["text"].combine_chunks(), "").filter(
                    pa.array(keep, pa.bool_())
                )
            }
        )

    # the broadcast is the candidate TEXTS, not their hashes — cap on
    # BYTES too (a few huge duplicate documents must not OOM the driver)
    texts: list[str] = []
    nbytes = 0
    for b in _snap().map_batches(
        _snap_texts, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        nbytes += b["text"].nbytes
        if nbytes > _BLOOM_TEXT_BYTES_MAX:
            break
        texts.extend(b["text"].to_pylist())
    if nbytes > _BLOOM_TEXT_BYTES_MAX:
        return _join_verify()
    texts_ref = ray.put(frozenset(texts))

    def _final(t: pa.Table) -> pa.Table:
        h = _text_hash64(t["text"])
        keep = ~bloom_maybe(cached_ref(bits_ref), h)
        hits = np.flatnonzero(~keep)
        if hits.size:
            # exact byte compare only for bloom-positive rows (the small
            # fraction); removes both bloom FPs and 64-bit hash collisions
            seen = cached_ref(texts_ref)
            tx = pc.fill_null(t["text"].combine_chunks(), "")
            for i in hits:
                keep[i] = tx[int(i)].as_py() not in seen
        return pa.Table.from_pydict({"doc_id": t["doc_id"]}).filter(
            pa.array(keep, pa.bool_())
        )

    return new.map_batches(_final, batch_format="pyarrow")


INCREMENTAL_DEDUP_SQL = f"""
    SELECT doc_id FROM documents d
    WHERE doc_id >= {INCR_SNAPSHOT_DOCS}
      AND NOT EXISTS (
          SELECT 1 FROM documents s
          WHERE s.doc_id < {INCR_SNAPSHOT_DOCS}
            AND coalesce(s.text, '') = coalesce(d.text, '')
      )
"""


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

N_PERM = 128
N_BANDS = 16
ROWS_PER_BAND = N_PERM // N_BANDS  # 8
SHINGLE_K = 5
_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(20260817)
_MH_A = _rng.randint(1, _MERSENNE, size=N_PERM, dtype=np.int64).astype(np.uint64)
_MH_B = _rng.randint(0, _MERSENNE, size=N_PERM, dtype=np.int64).astype(np.uint64)


_POLY_B = np.uint64(1099511628211)  # FNV prime as polynomial base


def char_shingles(text: str, k: int = SHINGLE_K) -> np.ndarray:
    """Deterministic uint64 hashes of the k-byte shingles of the lowercased,
    whitespace-collapsed UTF-8 text — fully vectorized: one shifted-add
    polynomial pass over the byte array (k vector ops total) instead of a
    Python hash loop per shingle (which dominated the whole MinHash
    pipeline at 5k docs). Returns the sorted distinct hash set."""
    s = " ".join((text or "").lower().split())
    b = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
    if len(b) < k:
        b = np.concatenate([b, np.full(k - len(b), ord("_"), dtype=np.uint8)])
    b = b.astype(np.uint64)
    n = len(b) - k + 1
    h = np.zeros(n, dtype=np.uint64)
    for i in range(k):  # k=5 iterations of whole-array ops
        h = h * _POLY_B + b[i : i + n]
    return np.unique(h)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """128 minhashes via (a*x+b) mod p over the shingle-hash set."""
    x = (shingles % _MERSENNE)[None, :]
    vals = (_MH_A[:, None] * x + _MH_B[:, None]) % _MERSENNE
    return vals.min(axis=1)


_BAND_PRIME = np.uint64(1099511628211)  # FNV prime as the lane-fold base
_FNV_OFF64 = np.uint64(14695981039346656037)


def band_keys_matrix(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, N_BANDS) signed-int64 bucket keys — an FNV-style fold over
    each band's 8 uint64 lanes, vectorized across the whole batch (the
    per-doc/per-band Python byte loop it replaces was 16 small hashes per
    doc). Key values are internal: bands bucket by EQUALITY of the 8-row
    chunk, which any injective-enough mix preserves."""
    n = sigs.shape[0]
    out = np.empty((n, N_BANDS), dtype=np.uint64)
    for b in range(N_BANDS):
        h = np.full(n, _FNV_OFF64 ^ np.uint64(b), dtype=np.uint64)
        chunk = sigs[:, b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
        for j in range(ROWS_PER_BAND):
            h = (h ^ chunk[:, j]) * _BAND_PRIME
        out[:, b] = h
    return out.view(np.int64)


def _sig_rows(batch: pa.Table) -> pa.Table:
    """documents batch → (doc_id, sig): the 128-minhash signature as ONE
    fixed 1 KB little-endian binary blob (an Arrow list<int64> would pay
    per-element Python conversion at both ends of every exchange; an opaque
    byte blob is a single buffer copy). Computed ONCE per doc and reused by
    the band explode and both verification join sides."""
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    sigs = [
        minhash_signature(char_shingles(t)).astype("<u8").tobytes()
        for t in texts
    ]
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "sig": pa.array(sigs, type=pa.binary()),
        }
    )


def _band_rows(batch: pa.Table) -> pa.Table:
    """sig rows → exploded NARROW (bucket, doc_id) band rows, 16 per doc.
    The 1 KB signature deliberately does NOT ride along: shipping it with
    every band row multiplied shuffle volume ×16 (16 KB/doc); the verify
    phase joins the sig table once per pair side instead."""
    blobs = batch["sig"].to_pylist()
    if not blobs:
        return pa.Table.from_pydict(
            {"bucket": pa.array([], pa.int64()),
             "doc_id": pa.array([], pa.int64())}
        )
    sigs = np.frombuffer(b"".join(blobs), dtype="<u8").reshape(
        len(blobs), N_PERM
    )
    keys = band_keys_matrix(sigs)  # (n_docs, N_BANDS), one vector pass
    doc_ids = batch["doc_id"].combine_chunks().to_numpy()
    return pa.Table.from_pydict(
        {
            "bucket": pa.array(keys.ravel(), type=pa.int64()),
            "doc_id": pa.array(
                np.repeat(doc_ids, N_BANDS), type=pa.int64()),
        }
    )


MAX_BUCKET = 64  # skew guard: above this a bucket is boilerplate-like and
# all-pairs would be O(n²); such buckets degrade to STAR pairs (see below)


# ---------------------------------------------------------------------------
# the near-duplicate pair layer: MinHash, n-gram Jaccard, embedding and
# SimHash pairs all go bucket rows → ``bucket_pairs`` → (for the verifying
# ops) ``candidate_pairs`` → ``verify_pairs``
# ---------------------------------------------------------------------------


def bucket_pairs(ids: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids of one LSH bucket → candidate pairs (a, b), a < b, over the
    DISTINCT ids (a repeated id counts once).

    ≤ ``cap`` ids: all pairs. A hot bucket (boilerplate-heavy cluster)
    emits STAR pairs around its min id instead — O(n) rows that keep the
    cluster CONNECTED for component-style dedup rather than silently
    dropping it; the degradation is logged."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    n = len(ids)
    if n > cap:
        import logging

        logging.getLogger(__name__).warning(
            "hot LSH bucket: %d members > cap %d — emitting %d star pairs "
            "around id %d instead of %d all-pairs",
            n, cap, n - 1, ids[0], n * (n - 1) // 2,
        )
        return np.full(n - 1, ids[0]), ids[1:]
    ii, jj = np.triu_indices(n, k=1)
    return ids[ii], ids[jj]


def _pair_cols(col: str) -> tuple[str, str]:
    """Pair-side names of an id or value column: doc_id → doc_a/doc_b,
    vec_id → vec_a/vec_b, sig → sig_a/sig_b."""
    base = col.removesuffix("_id")
    return f"{base}_a", f"{base}_b"


def candidate_pairs(bands, id_col: str, cap: int) -> "ray.data.Dataset":
    """(bucket, ``id_col``) band rows → the distinct candidate pairs
    (``<id>_a``, ``<id>_b``): bucket groupby → ``bucket_pairs`` → pair
    dedup groupby. Only the narrow band rows cross the first shuffle;
    the result is materialized (one row per candidate pair, read again by
    the verify)."""
    from ray.data.aggregate import Count

    a, b = _pair_cols(id_col)

    def _pairs(g: pa.Table) -> pa.Table:
        x, y = bucket_pairs(g[id_col].to_numpy(), cap)
        return pa.Table.from_pydict(
            {a: pa.array(x, pa.int64()), b: pa.array(y, pa.int64())})

    return (
        bands.groupby("bucket")
        .map_groups(_pairs, batch_format="pyarrow")
        .groupby([a, b])
        .aggregate(Count(alias_name="__nb"))
        .select_columns([a, b])
        .materialize()
    )


_CAND_BROADCAST_MAX = 2_000_000  # pairs; above this, verify via join


class BroadcastIdSetTooLarge(RuntimeError):
    """The candidate-ID set outgrew the broadcast bound mid-accumulation;
    ``verify_pairs`` falls back to the join."""


# distinct ids allowed on the driver by the broadcast verify. The pair
# count alone is a bad proxy (a star-shaped pair list has ~n_pairs ids; a
# matching-shaped one has 2×), so the accumulation itself is capped too.
_CAND_ID_BROADCAST_MAX = 4_000_000


def _fetch_candidate_values(
    cands: "ray.data.Dataset",
    id_cols: tuple[str, str],
    source_ds: "ray.data.Dataset",
    id_col: str,
    val_col: str,
):
    """Broadcast verify's fetch: membership-filter ``source_ds`` down to
    the ids appearing in the candidate pairs (ONE streaming pass — never a
    full driver-side read) and broadcast the {id: value} map via
    ``ray.put``. Driver memory is O(candidate ids), enforced: the id-set
    accumulation raises ``BroadcastIdSetTooLarge`` past
    ``_CAND_ID_BROADCAST_MAX`` (read at call time) so ``verify_pairs``
    switches to the join (the bound is on IDS, not pairs — the quantity
    that actually sits on the driver). Consumers read the returned ref
    through ``bucketed.cached_ref`` (one deserialization per worker, not
    per batch)."""
    from datacat_ray.stages.bucketed import cached_ref

    wanted: set = set()
    for b in cands.iter_batches(batch_format="pyarrow"):
        for c in id_cols:
            wanted.update(b[c].to_pylist())
        if len(wanted) > _CAND_ID_BROADCAST_MAX:
            raise BroadcastIdSetTooLarge(
                f"candidate id set exceeded {_CAND_ID_BROADCAST_MAX} "
                f"({len(wanted)} ids and counting)"
            )
    # broadcast as a SORTED int array: the per-batch membership test is
    # one vectorized searchsorted-based np.isin, not a Python `in` per row
    ids_ref = ray.put(np.sort(np.fromiter(wanted, dtype=np.int64,
                                          count=len(wanted))))

    def _member(t: pa.Table) -> pa.Table:
        w = cached_ref(ids_ref)
        col = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        return t.filter(pa.array(np.isin(col, w, assume_unique=False)))

    out: dict = {}
    for b in source_ds.map_batches(_member, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        out.update(zip(b[id_col].to_pylist(), b[val_col].to_pylist()))
    return ray.put(out)


def verify_pairs(
    cands: "ray.data.Dataset",
    source: "ray.data.Dataset",
    id_col: str,
    val_col: str,
    kernel,
) -> "ray.data.Dataset":
    """Verify candidate pairs (``<id>_a``, ``<id>_b``) with
    ``kernel(a, b, value_a, value_b)`` — the id arrays and the two value
    lists of one batch — where the values are ``source``'s ``val_col``
    keyed by ``id_col``. The verify is picked by size:

    * up to ``_CAND_BROADCAST_MAX`` candidate pairs, ONLY the candidate
      ids' values are fetched (``_fetch_candidate_values``) and broadcast;
      driver memory is O(candidate ids), and an id set past
      ``_CAND_ID_BROADCAST_MAX`` falls back to the join mid-stream;
    * past it, ``source`` is hash-joined once per pair side — nothing
      pair-related sits on the driver (the 10^12-doc path).

    No candidates verify to the kernel's own empty table: an empty
    candidate set reaches the join as schema-less shuffle blocks, which
    the join cannot finalize."""
    from datacat_ray.stages.bucketed import cached_ref, hash_join

    a, b = _pair_cols(id_col)
    va, vb = _pair_cols(val_col)
    n = cands.count()
    if n == 0:
        none = pa.array([], pa.int64())
        return ray.data.from_arrow(kernel(none, none, [], []))
    if n <= _CAND_BROADCAST_MAX:
        try:
            ref = _fetch_candidate_values(cands, (a, b), source, id_col, val_col)
        except BroadcastIdSetTooLarge:
            pass
        else:
            def _broadcast(t: pa.Table) -> pa.Table:
                m = cached_ref(ref)
                return kernel(t[a], t[b], [m[x] for x in t[a].to_pylist()],
                              [m[y] for y in t[b].to_pylist()])

            return cands.map_batches(_broadcast, batch_format="pyarrow")

    def _side(i: str, v: str) -> "ray.data.Dataset":
        return source.map_batches(
            lambda t: t.select([id_col, val_col]).rename_columns([i, v]),
            batch_format="pyarrow",
        )

    joined = hash_join(hash_join(cands, _side(a, va), a), _side(b, vb), b)
    return joined.map_batches(
        lambda t: kernel(t[a], t[b], t[va].to_pylist(), t[vb].to_pylist()),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# MinHash pairs
# ---------------------------------------------------------------------------


def _est_jaccard(a, b, sig_a: list, sig_b: list, threshold: float) -> pa.Table:
    """Pairs whose signature-estimated Jaccard is ≥ threshold, fully
    vectorized (one stacked equality over all pairs). ``match_lanes`` is
    the integer count of agreeing signature lanes (``est_jaccard`` ×
    N_PERM) — the exact-integer surface the SQL oracle compares on (a
    float column would drag round-half-to-even divergence into the value
    hash)."""
    x = np.frombuffer(b"".join(sig_a), dtype="<u8").reshape(len(sig_a), N_PERM)
    y = np.frombuffer(b"".join(sig_b), dtype="<u8").reshape(len(sig_b), N_PERM)
    eq = x == y
    jac = eq.mean(axis=1)
    keep = np.flatnonzero(jac >= threshold)
    return pa.Table.from_pydict(
        {
            "doc_a": pc.take(a, pa.array(keep)),
            "doc_b": pc.take(b, pa.array(keep)),
            "est_jaccard": pa.array(
                np.round(jac[keep], 6), type=pa.float64()),
            "match_lanes": pa.array(
                eq.sum(axis=1)[keep].astype(np.int64), type=pa.int64()),
        }
    )


def minhash_sig_cache_dir(sf_dir: str) -> str:
    """On-disk location of the sig cache for ``sf_dir`` — the ONE
    place the path scheme lives (bench.py clears it through this helper, so
    a scheme change can never silently turn its cold numbers warm). Rooted
    at the shared scratch root (``DATACAT_SCRATCH`` /
    ``PipelineConfig.scratch_root``); on a >1-node cluster the node-local
    tempdir fallback raises (datacat_ray/scratch.py)."""
    import hashlib

    from datacat_ray.scratch import scratch_path

    digest = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    return scratch_path(f"datacat_sigs_{digest}")


def minhash_sigs_parquet(sf_dir: str) -> str:
    """Write the (doc_id, sig) MinHash signature table to parquet ONCE per
    input fingerprint and return the data directory — "write sigs once,
    read three times" (band explode + both join-verify sides). Pinning the
    sig table in the object store via ``materialize()`` instead would hold
    ~1 KB/doc for the whole run (~1 PB at 10^12 docs); on disk it is a
    narrow columnar table every pass streams with backpressure, and a
    resumed run skips the build entirely (``dedup.build_once``, the
    protocol of the winner set and the IVF index). The cache lives in
    ``minhash_sig_cache_dir``."""
    import os

    from datacat_ray.stages.dedup import build_once, input_fingerprint

    src = f"{sf_dir}/documents.parquet"
    sig_dir = minhash_sig_cache_dir(sf_dir)
    data_dir = os.path.join(sig_dir, "data")

    def _build() -> None:
        ray.data.read_parquet(src, columns=["doc_id", "text"]).map_batches(
            _sig_rows, batch_format="pyarrow").write_parquet(data_dir)

    # "_SIGS": the marker name of caches built before ``build_once``
    build_once(sig_dir, input_fingerprint(src),
               lambda f: f == "data" or f.startswith("_SIGS"), _build)
    return data_dir


def minhash_candidate_pairs(
    sf_dir: str, threshold: float = 0.7
) -> "ray.data.Dataset":
    """Near-duplicate pairs by MinHash-LSH — two-phase scale shape:

    1. signature pass (map_batches, once per doc) → narrow (bucket, doc_id)
       band rows → ``candidate_pairs`` (star-capped hot buckets, pair
       dedup). Only 16 B/row crosses the band shuffle.
    2. ``verify_pairs`` with the vectorized signature-Jaccard kernel: the
       candidate docs' signatures are broadcast, or, past the size pick,
       the sig table joins each pair side once (2 × 1 KB per CANDIDATE,
       not 16 KB per doc).

    The sig table is written to parquet once per input fingerprint
    (``minhash_sigs_parquet``) and READ by the band explode and each
    verify pass — nothing sig-sized is ever pinned in the object store."""
    sigs = ray.data.read_parquet(minhash_sigs_parquet(sf_dir))
    cands = candidate_pairs(
        sigs.map_batches(_band_rows, batch_format="pyarrow"), "doc_id",
        MAX_BUCKET)
    return verify_pairs(
        cands, sigs, "doc_id", "sig",
        lambda a, b, x, y: _est_jaccard(a, b, x, y, threshold))


def minhash_pairs_query(
    sf_dir: str, threshold: float = 0.7
) -> "ray.data.Dataset":
    """Driver-registry surface of ``minhash_candidate_pairs``: the
    all-integer (doc_a, doc_b, match_lanes) projection the SQL oracle
    replays exactly (``est_jaccard`` is match_lanes / N_PERM — a float
    whose round-half-to-even formatting is oracle-hostile, so it stays an
    internal column)."""
    return minhash_candidate_pairs(sf_dir, threshold).select_columns(
        ["doc_a", "doc_b", "match_lanes"]
    )


def minhash_pairs_sql(threshold: float = 0.7) -> str:
    """Full DuckDB replay of the MinHash-LSH candidate pipeline — every
    stage bit-exact against the Ray side, because all the arithmetic is
    deterministic public constants:

    * normalize (lower + whitespace-collapse, '_'-pad under k chars) and
      hash each k-char shingle with the same base-``_POLY_B`` Horner
      polynomial mod 2^64 (``char_shingles``; chars == bytes on the ASCII
      driver corpus — the one caveat, same as ``ngram_jaccard_sql``),
    * the 128 ``(a·x + b)`` permutations with numpy's uint64 WRAP
      semantics (mod 2^64 after the multiply and the add, then mod
      2^61−1), constants embedded from the fixed-seed arrays,
    * LSH bands grouped by the literal 8-value tuple (the Ray side folds
      the tuple through FNV only to NAME the bucket; membership is tuple
      equality on both sides, so the fold never needs replaying),
    * the ``MAX_BUCKET`` star-cap and pair-dedup,
    * lane-match verify: ``match_lanes ≥`` the smallest integer whose
      /128 ratio clears the float threshold (computed here with the same
      float compare numpy uses).
    """
    thr_lanes = next(
        k for k in range(N_PERM + 1) if k / N_PERM >= threshold
    )
    w = 1 << 64
    horner = "0"
    for i in range(1, SHINGLE_K + 1):
        horner = (
            f"(({horner}) * {int(_POLY_B)}"
            f" + ascii(substr(g, {i}, 1))) % {w}"
        )
    perm_rows = ",".join(
        f"({j},{int(a)},{int(b)})"
        for j, (a, b) in enumerate(zip(_MH_A.tolist(), _MH_B.tolist()))
    )
    p = int(_MERSENNE)
    return rf"""
        WITH norm AS (
            SELECT doc_id,
                   coalesce(lower(list_aggregate(list_filter(
                       regexp_split_to_array(coalesce(text, ''), '\s+'),
                       x -> x <> ''), 'string_agg', ' ')), '') AS s
            FROM documents
        ), sh AS (
            SELECT DISTINCT doc_id, {horner} AS h
            FROM (SELECT doc_id,
                         substr(s || repeat('_', {SHINGLE_K}),
                                CAST(i AS INT), {SHINGLE_K}) AS g
                  FROM (SELECT doc_id, s,
                               unnest(range(1, greatest(
                                   len(s) - {SHINGLE_K - 1}, 1) + 1)) AS i
                        FROM norm))
        ), perms(j, a, b) AS (VALUES {perm_rows}),
        sig AS (
            SELECT sh.doc_id, perms.j,
                   MIN(((CAST(perms.a AS HUGEINT) * (h % {p})) % {w}
                        + perms.b) % {w} % {p}) AS v
            FROM sh, perms
            GROUP BY sh.doc_id, perms.j
        ),
        bands AS (
            SELECT doc_id,
                   CAST(j // {ROWS_PER_BAND} AS VARCHAR) || ':' ||
                       string_agg(CAST(v AS VARCHAR), ',' ORDER BY j) AS bk
            FROM sig GROUP BY doc_id, j // {ROWS_PER_BAND}
        ),
        sized AS (
            SELECT bk, COUNT(*) AS n, MIN(doc_id) AS rep
            FROM bands GROUP BY bk
        ),
        cand AS (
            SELECT DISTINCT doc_a, doc_b FROM (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
                FROM bands a
                JOIN bands b ON a.bk = b.bk AND a.doc_id < b.doc_id
                JOIN sized s ON s.bk = a.bk
                WHERE s.n <= {MAX_BUCKET}
                UNION ALL
                SELECT s.rep AS doc_a, c.doc_id AS doc_b
                FROM sized s
                JOIN bands c ON c.bk = s.bk AND c.doc_id > s.rep
                WHERE s.n > {MAX_BUCKET}
            )
        )
        SELECT c.doc_a, c.doc_b,
               CAST(SUM(CASE WHEN sa.v = sb.v THEN 1 ELSE 0 END) AS BIGINT)
                   AS match_lanes
        FROM cand c
        JOIN sig sa ON sa.doc_id = c.doc_a
        JOIN sig sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
        GROUP BY c.doc_a, c.doc_b
        HAVING SUM(CASE WHEN sa.v = sb.v THEN 1 ELSE 0 END) >= {thr_lanes}
    """


# -- distributed connected components (iterative min-label propagation) ----
#
# The pair graph usually fits the driver (it already passed LSH banding +
# signature verify), but a boilerplate-heavy crawl emits pair lists
# proportional to corpus size -- so past _UF_MAX_PAIRS the components run as
# rounds of hash-partitioned min-label exchange with O(1) driver state (a
# per-round (bucket, n_changed) fold, <= DEFAULT_BUCKETS rows). Each round the
# current (node -> label) pointers are fed back in as extra edges, which is
# the Hash-to-Min acceleration: label trees flatten as they spread, so
# rounds grow with log(component diameter), not diameter.

_UF_MAX_PAIRS = 2_000_000  # pairs; above this, label propagation
_I64MAX = np.iinfo(np.int64).max


def _lp_init_rows(t: pa.Table) -> pa.Table:
    """Round-0 fold input straight from the edge list: each endpoint is
    proposed min(a, b); its old label is its own id."""
    a = t["doc_a"].to_numpy()
    b = t["doc_b"].to_numpy()
    m = np.minimum(a, b)
    return pa.Table.from_pydict(
        {
            "node": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "cand": pa.array(np.concatenate([m, m]), type=pa.int64()),
            "old": pa.array(np.concatenate([a, b]), type=pa.int64()),
        }
    )


def _lp_edge_rows(t: pa.Table) -> pa.Table:
    """Symmetric scatter rows for static edges: (key, nbr, lab=+inf)."""
    a = t["doc_a"].to_numpy()
    b = t["doc_b"].to_numpy()
    n = len(a)
    return pa.Table.from_pydict(
        {
            "key": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "nbr": pa.array(np.concatenate([b, a]), type=pa.int64()),
            "lab": pa.array(np.full(2 * n, _I64MAX, np.int64), type=pa.int64()),
        }
    )


def _lp_label_rows(t: pa.Table) -> pa.Table:
    """Holder rows (nbr == -1, lab = current label) plus -- where the label
    is a different node -- symmetric label-pointer edges (Hash-to-Min)."""
    node = t["node"].to_numpy()
    lab = t["label"].to_numpy()
    ptr = lab != node
    pn, pl = node[ptr], lab[ptr]
    return pa.Table.from_pydict(
        {
            "key": pa.array(np.concatenate([node, pn, pl]), type=pa.int64()),
            "nbr": pa.array(
                np.concatenate([np.full(len(node), -1, np.int64), pl, pn]),
                type=pa.int64(),
            ),
            "lab": pa.array(
                np.concatenate([lab, np.full(2 * len(pn), _I64MAX, np.int64)]),
                type=pa.int64(),
            ),
        }
    )


def _lp_scatter(g: pa.Table) -> pa.Table:
    """Per-bucket scatter: each key's current min label is proposed to
    every neighbor and back to the key itself. Vectorized -- one
    ``np.unique`` + two ``np.minimum.at`` per bucket, no per-row Python."""
    key = g["key"].to_numpy()
    nbr = g["nbr"].to_numpy()
    lab = g["lab"].to_numpy()
    uk, inv = np.unique(key, return_inverse=True)
    holder = nbr == -1
    cur = np.full(len(uk), _I64MAX, np.int64)
    np.minimum.at(cur, inv[holder], lab[holder])
    cur = np.minimum(cur, uk)  # a node's own id is always a valid label
    m = cur[inv]
    e = ~holder
    return pa.Table.from_pydict(
        {
            "node": pa.array(np.concatenate([uk, nbr[e]]), type=pa.int64()),
            "cand": pa.array(np.concatenate([cur, m[e]]), type=pa.int64()),
            "old": pa.array(
                np.concatenate([cur, np.full(int(e.sum()), _I64MAX, np.int64)]),
                type=pa.int64(),
            ),
        }
    )


def _lp_fold_factory(round_dir: str):
    """Per-bucket fold: new label = min proposal per node, written as one
    bucket file (``write_bucket``); returns only (bucket, n, n_changed)."""
    from datacat_ray.stages.bucketed import write_bucket

    def _fold(g: pa.Table) -> pa.Table:
        b = int(g["__bucket"][0].as_py())
        node = g["node"].to_numpy()
        uk, inv = np.unique(node, return_inverse=True)
        newl = np.full(len(uk), _I64MAX, np.int64)
        np.minimum.at(newl, inv, g["cand"].to_numpy())
        oldl = np.full(len(uk), _I64MAX, np.int64)
        np.minimum.at(oldl, inv, g["old"].to_numpy())
        changed = int((newl < oldl).sum())
        t = pa.Table.from_pydict(
            {"node": pa.array(uk, type=pa.int64()),
             "label": pa.array(newl, type=pa.int64())}
        )
        write_bucket(round_dir, b, t)
        return pa.Table.from_pydict(
            {"bucket": pa.array([b], pa.int32()),
             "n": pa.array([len(uk)], pa.int64()),
             "n_changed": pa.array([changed], pa.int64())}
        )

    return _fold


def _lp_scatter_from(edges, round_dir: str):
    """The next round's scatter input: static edges + the checkpointed
    label table of ``round_dir`` (holder rows + Hash-to-Min label links),
    bucketed by key."""
    from datacat_ray.stages.bucketed import add_bucket

    return (
        edges.map_batches(_lp_edge_rows, batch_format="pyarrow")
        .union(
            ray.data.read_parquet(round_dir).map_batches(
                _lp_label_rows, batch_format="pyarrow"
            )
        )
        .map_batches(lambda t: add_bucket(t, "key"), batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_lp_scatter, batch_format="pyarrow")
    )


def label_propagation_parquet(
    edges_path: str, work_dir: str, max_rounds: int = 64
) -> str | None:
    """Connected components over an edge-list parquet (doc_a, doc_b) as
    iterative distributed min-label propagation; returns the directory of
    the converged (node, label) bucket-parquet table, or None for an empty
    edge list. Per round: one bucket exchange to gather labels and scatter
    proposals, one to fold minima and checkpoint the new label table to
    parquet. The driver holds one (bucket, n_changed) row per bucket per
    round.

    RESUMABLE: each completed round publishes a ``_ROUND_OK`` marker
    carrying its changed-count; a re-run over the same ``work_dir`` (same
    edge list) starts from the last complete round — a converged
    checkpoint short-circuits entirely, an interrupted run (crash, or a
    too-small ``max_rounds``) continues instead of restarting."""
    import os
    import shutil

    from datacat_ray.stages.bucketed import add_bucket

    edges = ray.data.read_parquet(edges_path)

    # resume scan: the latest round with a published marker is authoritative
    start = 0
    rows = edges.map_batches(_lp_init_rows, batch_format="pyarrow")
    prev_dir: str | None = None
    if os.path.isdir(work_dir):
        done = sorted(
            d for d in os.listdir(work_dir)
            if d.startswith("round-")
            and os.path.exists(os.path.join(work_dir, d, "_ROUND_OK"))
        )
        if done:
            last = os.path.join(work_dir, done[-1])
            with open(os.path.join(last, "_ROUND_OK")) as fh:
                last_changed = int(fh.read().strip())
            if last_changed == 0:
                return last
            start = int(done[-1].rsplit("-", 1)[1]) + 1
            prev_dir = last
            rows = _lp_scatter_from(edges, last)

    for r in range(start, max_rounds):
        round_dir = os.path.join(work_dir, f"round-{r:03d}")
        shutil.rmtree(round_dir, ignore_errors=True)
        os.makedirs(round_dir, exist_ok=True)
        stats = (
            rows.map_batches(
                lambda t: add_bucket(t, "node"), batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(_lp_fold_factory(round_dir), batch_format="pyarrow")
            .take_all()  # <= DEFAULT_BUCKETS tiny rows: all driver state
        )
        if not stats:  # no edges at all: every doc is a singleton
            return None
        changed = sum(s["n_changed"] for s in stats)
        tmp = os.path.join(round_dir, "._ROUND_OK.tmp")
        with open(tmp, "w") as fh:
            fh.write(str(changed))
        os.replace(tmp, os.path.join(round_dir, "_ROUND_OK"))
        if prev_dir is not None:
            shutil.rmtree(prev_dir, ignore_errors=True)
        prev_dir = round_dir
        if changed == 0:
            return round_dir
        rows = _lp_scatter_from(edges, round_dir)
    raise RuntimeError(f"label propagation did not converge in {max_rounds} rounds")


def _load_labels(t: pa.Table | None) -> tuple[np.ndarray, np.ndarray]:
    """(nodes sorted ascending, aligned labels) of one converged label
    bucket — callers probe with ONE ``searchsorted`` per (batch, bucket)."""
    if t is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    return nodes[order], labels[order]


def sorted_hits(
    keys: np.ndarray, sorted_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership probe against a sorted array: returns (row indices of
    ``keys`` found in ``sorted_keys``, their positions in ``sorted_keys``)
    — the searchsorted+clamp+equality probe of the LP label assignment
    (``neardup_clusters``) against a ``_load_labels`` bucket."""
    if sorted_keys.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    pos = np.searchsorted(sorted_keys, keys)
    pos_c = np.minimum(pos, sorted_keys.size - 1)
    hit = np.flatnonzero(sorted_keys[pos_c] == keys)
    return hit, pos_c[hit]


def neardup_clusters_sql(threshold: float = 0.7) -> str:
    """Connected-components oracle over the SQL-replayed MinHash pair
    graph (``minhash_pairs_sql``): a recursive min-label closure —
    ``reach(node, lab)`` holds every label reachable from a node through
    verified near-dup edges, MIN per node is the component id, docs with
    no edge stay their own singleton via the LEFT JOIN. Exactly
    ``neardup_clusters``' contract (cluster_id = min doc_id in the
    component), so both the driver union-find and the distributed
    label-propagation paths are pinned against plain ANSI SQL. The closure
    is O(component² ) rows — an ORACLE shape (fine at driver scale), not
    the engine's (Hash-to-Min rounds with O(1) driver state)."""
    pairs = minhash_pairs_sql(threshold)
    return f"""
        WITH RECURSIVE pairs AS MATERIALIZED ({pairs}),
        sym AS MATERIALIZED (
            SELECT doc_a AS a, doc_b AS b FROM pairs
            UNION
            SELECT doc_b AS a, doc_a AS b FROM pairs
        ),
        reach(node, lab) AS (
            SELECT a AS node, a AS lab FROM (SELECT DISTINCT a FROM sym)
            UNION
            SELECT s.a, r.lab FROM reach r JOIN sym s ON s.b = r.node
        )
        SELECT d.doc_id, coalesce(c.cluster_id, d.doc_id) AS cluster_id
        FROM documents d LEFT JOIN (
            SELECT node, MIN(lab) AS cluster_id FROM reach GROUP BY node
        ) c ON c.node = d.doc_id
    """


def neardup_clusters(
    sf_dir: str,
    threshold: float = 0.7,
    work_dir: str | None = None,
    resume: bool = False,
) -> "ray.data.Dataset":
    """(doc_id, cluster_id) for EVERY doc: connected components over the
    MinHash near-dup pair graph, cluster_id = min doc_id in the component;
    docs with no near-dup edge are singletons (their own id). This is the
    end-to-end consumer of the pair list -- keep ``doc_id == cluster_id``
    rows to deduplicate a corpus.

    The candidate-pair list is ALWAYS spilled straight to ``edges``
    parquet (streaming write, never pinned in the object store — pairs are
    corpus-proportional in exactly the regime the distributed path exists
    for); the path-picking count comes from parquet metadata and both
    paths read the spilled files, so the pair pipeline runs once.

    Picked by the pair count: up to ``_UF_MAX_PAIRS`` pairs, union-find
    over streamed edge batches + broadcast root map on the driver --
    O(pairs) driver memory, right while pairs are much smaller than the
    corpus. Past it, components via ``label_propagation_parquet`` (O(1)
    driver state), assignment via a map-only pass reading the converged
    label buckets through ``bucketed.read_bucket`` -- the 10^12-doc path,
    pinned equal to the driver path in tests (test_neardup_lp).

    ``resume=True`` keeps the existing ``work_dir`` checkpoints (edge list
    + ``_ROUND_OK`` rounds) so a crashed distributed run continues
    instead of restarting — but ONLY with an explicit ``work_dir``: the
    default dir is keyed by THIS process's pid, so a crash-restarted
    process resolves a fresh dir and can never find the old checkpoints
    (a warning is emitted for that combination). The default (``resume=False``) clears checkpoints
    through the content-guarded ``clear_cache_dir``, never a blind rmtree
    of a caller path.

    Hot-bucket caveat: star-capped buckets (>MAX_BUCKET) only stay
    connected through star links whose signature Jaccard ALSO clears the
    threshold; borderline members of a capped cluster can fall out as
    singletons."""
    from datacat_ray.stages.bucketed import (
        cached_ref,
        int_bucket_codes,
        read_bucket,
    )

    import os

    import pyarrow.dataset as pads

    from datacat_ray.stages.dedup import clear_cache_dir, pid_scratch_dir

    _is_lp = lambda f: f == "edges" or f.startswith("round-")  # noqa: E731
    # spill the edge list straight to parquet (streaming write — the pair
    # list is corpus-proportional in the regime that matters, so it is
    # never pinned in the object store); the count that picks the path
    # comes from parquet METADATA, and both paths read the spilled
    # files, so the pair pipeline executes exactly once
    if work_dir is None:
        # per-PROCESS scratch (paired bench probes run concurrently):
        # cross-process resume needs an explicit work_dir
        if resume:
            import warnings

            warnings.warn(
                "neardup_clusters(resume=True) without an explicit "
                "work_dir resolves a pid-keyed scratch dir — a "
                "crash-restarted process gets a NEW pid, so there are no "
                "checkpoints to resume from and the run recomputes from "
                "scratch. Pass work_dir= to make resume effective.",
                stacklevel=2,
            )
        work_dir = pid_scratch_dir("datacat_lp_", f"{sf_dir}:{threshold}",
                                   _is_lp)
    edges_path = os.path.join(work_dir, "edges")

    def _has_edges() -> bool:
        return os.path.isdir(edges_path) and any(
            f.endswith(".parquet") for f in os.listdir(edges_path)
        )

    if resume:
        # keep checkpoints; only the edge list is rebuilt if missing
        os.makedirs(edges_path, exist_ok=True)
        if not _has_edges():
            minhash_candidate_pairs(sf_dir, threshold).select_columns(
                ["doc_a", "doc_b"]
            ).write_parquet(edges_path)
    else:
        if os.path.isdir(work_dir):
            # refuse to clear anything that is not LP artifacts — a
            # blind rmtree of a caller-supplied path is how unrelated
            # data gets destroyed (same guard as every other cache dir)
            clear_cache_dir(work_dir, _is_lp)
        os.makedirs(edges_path, exist_ok=True)
        minhash_candidate_pairs(sf_dir, threshold).select_columns(
            ["doc_a", "doc_b"]
        ).write_parquet(edges_path)

    n_pairs = (
        pads.dataset(edges_path, format="parquet").count_rows()
        if _has_edges()
        else 0
    )
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    if n_pairs > _UF_MAX_PAIRS:
        lab_dir = label_propagation_parquet(edges_path, work_dir)

        def _assign_lp(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
            cluster = ids.astype(np.int64)  # astype copies
            if lab_dir is not None:
                # group rows by bucket: each bucket's label file is
                # read ONCE per batch and probed with one vectorized
                # searchsorted (a per-row lookup thrashes the LRU — the
                # Knuth hash interleaves sequential doc_ids across all
                # buckets within a batch)
                codes = int_bucket_codes(ids)
                for bc in np.unique(codes):
                    nodes, labels = read_bucket(lab_dir, int(bc), _load_labels)
                    sel = np.flatnonzero(codes == bc)
                    hit, npos = sorted_hits(cluster[sel], nodes)
                    cluster[sel[hit]] = labels[npos]
            return pa.Table.from_pydict(
                {"doc_id": t["doc_id"],
                 "cluster_id": pa.array(cluster, type=pa.int64())}
            )

        return docs.map_batches(_assign_lp, batch_format="pyarrow")

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    if n_pairs:
        for b in ray.data.read_parquet(edges_path).iter_batches(
            batch_format="pyarrow"
        ):
            for a, bb in zip(b["doc_a"].to_pylist(), b["doc_b"].to_pylist()):
                ra, rb = find(a), find(bb)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    root = {x: find(x) for x in list(parent)}
    ref = ray.put(root)

    def _assign(t: pa.Table) -> pa.Table:
        r = cached_ref(ref)
        ids = t["doc_id"].to_pylist()
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "cluster_id": pa.array(
                    [r.get(d, d) for d in ids], type=pa.int64()),
            }
        )

    return docs.map_batches(_assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
_BIT_WEIGHTS = (np.uint64(1) << _BIT_SHIFTS).astype(np.uint64)


def _gram_list(text: str) -> list[str]:
    words = (text or "").lower().split()
    if len(words) >= 3:
        return [" ".join(words[i : i + 3]) for i in range(len(words) - 2)]
    return [" ".join(words)] if words else [""]


_GRAM_HASH_MAXLEN = 64  # bytes hashed per gram; both sides truncate here


def _gram_hashes(grams: list[str]) -> np.ndarray:
    """Vectorized uint64 gram hashes: the same shifted-add polynomial as
    ``char_shingles`` (base ``_POLY_B``, mod 2^64) over each gram's first
    ``_GRAM_HASH_MAXLEN`` UTF-8 bytes — deterministic, public, and
    SQL-replayable (``simhash_pairs_sql`` replays it term-by-term with a
    B^e-mod-2^64 power table), unlike the polars/ahash call it replaces.
    Vectorized as ≤ max-gram-len masked Horner steps over the whole batch
    (never a Python loop per gram). Hash values feed the bit votes;
    SimHash's locality property holds for any injective-enough 64-bit mix,
    and word trigrams are long enough (≥ 3 bytes wraps the base past
    2^64) that the high bits are live."""
    n = len(grams)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    bs = [g.encode("utf-8")[:_GRAM_HASH_MAXLEN] for g in grams]
    lens = np.fromiter((len(b) for b in bs), dtype=np.int64, count=n)
    m = int(lens.max())
    h = np.zeros(n, dtype=np.uint64)
    if m == 0:
        return h
    mat = np.zeros((n, m), dtype=np.uint64)
    flat = np.frombuffer(b"".join(bs), dtype=np.uint8)
    rows = np.repeat(np.arange(n), lens)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    cols = np.arange(len(flat)) - np.repeat(starts, lens)
    mat[rows, cols] = flat
    for i in range(m):  # ≤ 64 whole-array Horner steps
        step = h * _POLY_B + mat[:, i]
        h = np.where(lens > i, step, h)
    return h


def _simhash_batch(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pylist()
    if not texts:
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"],
             "simhash": pa.array([], pa.int64())}
        )
    grams_all: list[str] = []
    counts: list[int] = []
    for t in texts:
        g = _gram_list(t)
        grams_all.extend(g)
        counts.append(len(g))
    hs = _gram_hashes(grams_all)
    # one (G × 64) bit unpack + segmented vote sum for the whole batch
    signs = (
        2 * ((hs[:, None] >> _BIT_SHIFTS) & np.uint64(1)).astype(np.int64)
        - 1
    )
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    votes = np.add.reduceat(signs, starts, axis=0)
    vals = ((votes > 0) * _BIT_WEIGHTS).sum(axis=1, dtype=np.uint64)
    out = (vals ^ np.uint64(1 << 63)).view(np.int64)  # == v - 2^63
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "simhash": pa.array(out, pa.int64())}
    )


def simhash_signatures(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(_simhash_batch, batch_format="pyarrow")


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    hashes = batch["simhash"].to_pylist()
    rows = {"bucket": [], "doc_id": [], "simhash": []}
    for d, h in zip(doc_ids, hashes):
        u = h + (1 << 63)
        for b in range(4):
            band_bits = (u >> (16 * b)) & 0xFFFF
            rows["bucket"].append((b << 16) | band_bits)
            rows["doc_id"].append(d)
            rows["simhash"].append(h)
    return pa.Table.from_pydict(
        {
            "bucket": pa.array(rows["bucket"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "simhash": pa.array(rows["simhash"], type=pa.int64()),
        }
    )


def _simhash_bucket_pairs(group: pa.Table, max_hamming: int) -> pa.Table:
    """One band bucket → its ``bucket_pairs`` whose simhashes differ in at
    most ``max_hamming`` bits."""
    ids = group["doc_id"].to_numpy()
    a, b = bucket_pairs(ids, MAX_BUCKET)
    uniq, first = np.unique(ids, return_index=True)
    hs = group["simhash"].to_numpy()[first]
    x = hs[np.searchsorted(uniq, a)] ^ hs[np.searchsorted(uniq, b)]
    ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    keep = ham <= max_hamming
    return pa.Table.from_pydict(
        {
            "doc_a": pa.array(a[keep], type=pa.int64()),
            "doc_b": pa.array(b[keep], type=pa.int64()),
            "hamming": pa.array(ham[keep], type=pa.int64()),
        }
    )


def simhash_pairs(sf_dir: str, max_hamming: int = 3) -> "ray.data.Dataset":
    bands = simhash_signatures(sf_dir).map_batches(
        _simhash_band_rows, batch_format="pyarrow"
    )
    pairs = bands.groupby("bucket").map_groups(
        lambda g: _simhash_bucket_pairs(g, max_hamming), batch_format="pyarrow"
    )
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


def simhash_pairs_sql(max_hamming: int = 3) -> str:
    """Full DuckDB replay of the SimHash pipeline, bit-exact against
    ``simhash_pairs`` (ASCII caveat as in ``minhash_pairs_sql``):

    * word trigrams with MULTIPLICITY (position-indexed unnest — the bit
      votes weight repeated grams, so DISTINCT would diverge),
    * the gram polynomial hash as a power-table sum: Horner mod 2^64
      ≡ Σ byte_j · B^(L−j) mod 2^64 (each term reduced before the ≤64-term
      sum, so everything fits HUGEINT),
    * per-bit ±1 votes → the 64-bit SimHash (unsigned sum shifted into the
      int64 carrier exactly as the numpy view does),
    * the 4 × 16-bit banding with the same (band << 16) | bits bucket key,
      the ``MAX_BUCKET`` star-cap, XOR/bit_count Hamming (two's-complement
      BIGINT has the same bit pattern as the uint64 pair), and the
      min-per-pair fold.
    """
    w = 1 << 64
    maxl = _GRAM_HASH_MAXLEN
    pow_b = ",".join(
        f"({e},{pow(int(_POLY_B), e, w)})" for e in range(maxl)
    )
    pow_2 = ",".join(f"({b},{1 << b})" for b in range(64))
    shift_rows = ",".join(f"({b},{1 << (16 * b)})" for b in range(4))
    return rf"""
        WITH words AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(
                       lower(coalesce(text, '')), '\s+'),
                       x -> x <> '') AS w
            FROM documents
        ), gl AS (
            SELECT doc_id,
                   CASE WHEN len(w) >= 3 THEN
                       list_transform(range(1, len(w) - 1),
                           i -> w[CAST(i AS INT)] || ' ' ||
                                w[CAST(i + 1 AS INT)] || ' ' ||
                                w[CAST(i + 2 AS INT)])
                   WHEN len(w) >= 1 THEN [array_to_string(w, ' ')]
                   ELSE [''] END AS gs
            FROM words
        ), g AS (
            SELECT doc_id, CAST(i AS INT) AS gi, gs[CAST(i AS INT)] AS gram
            FROM (SELECT doc_id, gs, unnest(range(1, len(gs) + 1)) AS i
                  FROM gl)
        ), pow_b(e, p) AS (VALUES {pow_b}),
        pow_2(b, p2) AS (VALUES {pow_2}),
        shifts(band, sh) AS (VALUES {shift_rows}),
        gh AS (
            SELECT g.doc_id, g.gi, coalesce(s.h, 0) AS h
            FROM g LEFT JOIN (
                SELECT doc_id, gi,
                       SUM((ascii(substr(gram, CAST(j AS INT), 1))
                            * CAST(pb.p AS HUGEINT)) % {w}) % {w} AS h
                FROM (SELECT doc_id, gi, gram, l,
                             unnest(range(1, l + 1)) AS j
                      FROM (SELECT doc_id, gi, gram,
                                   least(len(gram), {maxl}) AS l
                            FROM g))
                JOIN pow_b pb ON pb.e = l - j
                GROUP BY doc_id, gi
            ) s USING (doc_id, gi)
        ),
        votes AS (
            SELECT doc_id, pow_2.b,
                   SUM(CASE WHEN (h // pow_2.p2) % 2 = 1
                            THEN 1 ELSE -1 END) AS v
            FROM gh CROSS JOIN pow_2
            GROUP BY doc_id, pow_2.b
        ),
        sims AS (
            SELECT doc_id,
                   SUM(CASE WHEN v > 0 THEN pow_2.p2 ELSE 0 END) AS u
            FROM votes JOIN pow_2 USING (b)
            GROUP BY doc_id
        ),
        bandrows AS (
            SELECT doc_id,
                   CAST(u - 9223372036854775808 AS BIGINT) AS simhash,
                   band * 65536 + CAST((u // sh) % 65536 AS BIGINT)
                       AS bucket
            FROM sims CROSS JOIN shifts
        ),
        sized AS (
            SELECT bucket, COUNT(*) AS n, MIN(doc_id) AS rep
            FROM bandrows GROUP BY bucket
        ),
        rawpairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   bit_count(xor(a.simhash, b.simhash)) AS hamming
            FROM bandrows a
            JOIN bandrows b ON a.bucket = b.bucket AND a.doc_id < b.doc_id
            JOIN sized s ON s.bucket = a.bucket
            WHERE s.n <= {MAX_BUCKET}
            UNION ALL
            SELECT s.rep, c.doc_id, bit_count(xor(r.simhash, c.simhash))
            FROM sized s
            JOIN bandrows c ON c.bucket = s.bucket AND c.doc_id > s.rep
            JOIN bandrows r ON r.bucket = s.bucket AND r.doc_id = s.rep
            WHERE s.n > {MAX_BUCKET}
        )
        SELECT doc_a, doc_b, CAST(MIN(hamming) AS BIGINT) AS hamming
        FROM rawpairs
        WHERE hamming <= {max_hamming}
        GROUP BY doc_a, doc_b
    """


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact verification of MinHash candidates)
# ---------------------------------------------------------------------------


def _exact_jaccard(a, b, text_a: list, text_b: list,
                   threshold: float) -> pa.Table:
    """Pairs whose EXACT shingle Jaccard meets the threshold. All
    arithmetic stays in integers (the threshold test is ``inter * 1e6 >=
    threshold_micros * union`` and the reported value is half-up-rounded
    micros) so the result is bit-identical to the SQL oracle — no
    float-division or round-half-to-even divergence."""
    thr_micros = int(round(threshold * 1_000_000))
    keep_a, keep_b, jac = [], [], []
    for x, y, ta, tb in zip(a.to_pylist(), b.to_pylist(), text_a, text_b):
        sa = set(char_shingles(ta).tolist())
        sb = set(char_shingles(tb).tolist())
        inter, uni = len(sa & sb), len(sa | sb)
        if uni and inter * 1_000_000 >= thr_micros * uni:
            keep_a.append(x)
            keep_b.append(y)
            jac.append((2 * inter * 1_000_000 + uni) // (2 * uni))
    return pa.Table.from_pydict(
        {
            "doc_a": pa.array(keep_a, type=pa.int64()),
            "doc_b": pa.array(keep_b, type=pa.int64()),
            "jaccard_micros": pa.array(jac, type=pa.int64()),
        }
    )


def ngram_jaccard_sql(threshold: float = 0.6, k: int = SHINGLE_K) -> str:
    """Exact all-pairs shingle-Jaccard oracle. The Ray pipeline verifies
    only MinHash-LSH candidates, so Ray == oracle iff LSH recall is 100 %
    at the threshold — which holds deterministically on the driver corpus:
    every true pair there has J ≥ 0.92, where the 16-band × 8-row miss
    probability is (1 - 0.92⁸)¹⁶ ≈ 1e-5 per pair, and the fixed hash seeds
    make the outcome reproducible, not probabilistic. Jaccard is computed
    over distinct k-char shingles of the lowercased whitespace-collapsed
    text (set-identical to ``char_shingles``'s 64-bit hash set, collisions
    aside); the <k-char '_'-padding branch is not mirrored (no driver doc
    is that short). Integer threshold test + half-up micros match the Ray
    side bit-for-bit."""
    thr_micros = int(round(threshold * 1_000_000))
    return rf"""
        WITH norm AS (
            SELECT doc_id,
                   lower(list_aggregate(list_filter(
                       regexp_split_to_array(text, '\s+'), x -> x <> ''),
                       'string_agg', ' ')) AS s
            FROM documents
        ), sh AS (
            SELECT DISTINCT doc_id, substr(s, CAST(i AS INT), {k}) AS g
            FROM (SELECT doc_id, s,
                         unnest(range(1, greatest(len(s) - {k - 1}, 1) + 1)) AS i
                  FROM norm)
        ), pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS inter
            FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
            GROUP BY 1, 2
        )
        SELECT doc_a, doc_b,
               CAST((2 * inter * 1000000 + (sa.n + sb.n - inter))
                    // (2 * (sa.n + sb.n - inter)) AS BIGINT) AS jaccard_micros
        FROM pairs
        JOIN (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY 1) sa
             ON doc_a = sa.doc_id
        JOIN (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY 1) sb
             ON doc_b = sb.doc_id
        WHERE inter * 1000000 >= {thr_micros} * (sa.n + sb.n - inter)
    """


def ngram_jaccard_pairs(
    sf_dir: str, threshold: float = 0.6
) -> "ray.data.Dataset":
    """MinHash-LSH candidates (threshold 0.5) re-verified with EXACT
    shingle Jaccard through ``verify_pairs`` — the documents' texts are
    broadcast for the candidate ids, or, past the size pick, the documents
    table is hash-joined on doc_id once per pair side.

    The candidate list spills to per-process parquet scratch (same pattern
    as the neardup edge list): it is read three times (size count, id
    collect, verify) but is corpus-proportional in exactly the regime the
    join exists for, so pinning it in the object store would double its
    footprint at scale; the size count comes from parquet METADATA."""
    import os

    from datacat_ray.stages.dedup import clear_cache_dir, pid_scratch_dir

    _is_pq = lambda f: f.endswith(".parquet")  # noqa: E731
    spill = pid_scratch_dir("datacat_njp_", f"{sf_dir}:{threshold}", _is_pq)
    if os.path.isdir(spill):
        clear_cache_dir(spill, _is_pq)
    os.makedirs(spill, exist_ok=True)
    minhash_candidate_pairs(sf_dir, threshold=0.5).select_columns(
        ["doc_a", "doc_b"]).write_parquet(spill)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return verify_pairs(
        ray.data.read_parquet(spill), docs, "doc_id", "text",
        lambda a, b, x, y: _exact_jaccard(a, b, x, y, threshold))


# ---------------------------------------------------------------------------
# embedding near-dup (cosine LSH)
# ---------------------------------------------------------------------------

N_PLANES = 5  # planes per LSH table
N_TABLES = 10  # independent tables: P(cand) = 1-(1-p^r)^B, p = 1-θ/π
_EMB_SEED = 20260818


def _hyperplanes(dim: int) -> np.ndarray:
    """(tables*planes, dim) — one stacked matmul signs all tables at once."""
    return np.random.RandomState(_EMB_SEED).standard_normal(
        (N_TABLES * N_PLANES, dim)
    )


def _unit_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, unit-normalized matrix) from a RAW embeddings batch — the
    one normalization implementation, shared by the band pass and the
    verify pass so their float ops (and thus LSH sign bits) can never
    diverge."""
    from datacat_ray.pipelines.similarity import vec_matrix

    vec_ids = np.array(batch["vec_id"].to_pylist(), dtype=np.int64)
    embs = vec_matrix(batch["embedding"])
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vec_ids, embs / norms


def _unit_rows(batch: pa.Table) -> pa.Table:
    """(vec_id, unit): unit-normalized vectors, streamed from the raw read
    by the verify phase (never materialized — the 'sig table' of this
    family lives in the source parquet, re-normalized on demand). Each
    vector is ONE little-endian float64 binary blob, as the MinHash sig
    is: a join cannot carry a list column as a non-key field."""
    vec_ids, unit = _unit_matrix(batch)
    unit = np.ascontiguousarray(unit, dtype="<f8")
    return pa.Table.from_pydict(
        {
            "vec_id": pa.array(vec_ids),
            "unit": pa.array([r.tobytes() for r in unit], type=pa.binary()),
        }
    )


def _embed_band_rows(batch: pa.Table) -> pa.Table:
    """Each vector lands in one bucket PER TABLE (multi-table random-
    hyperplane LSH: with r=5 planes × B=10 tables, candidate recall at
    cosine 0.45 is ~0.7 and rises steeply with similarity — single-table
    sign LSH has ~zero recall at moderate thresholds). Takes RAW embedding
    rows and normalizes inline, so the band pass streams straight off the
    parquet read. Band rows are NARROW (bucket, vec_id): shipping the unit
    vector with every one of the B band rows multiplied shuffle volume
    ×10; verification fetches vectors once per candidate instead."""
    vec_ids, unit = _unit_matrix(batch)
    bits = (unit @ _hyperplanes(unit.shape[1]).T) > 0  # (n, B*r)
    bits = bits.reshape(len(unit), N_TABLES, N_PLANES)
    table_keys = bits @ (1 << np.arange(N_PLANES))  # (n, B)
    keys = (np.arange(N_TABLES)[None, :] << N_PLANES) | table_keys
    n, B = keys.shape
    return pa.Table.from_pydict(
        {
            "bucket": pa.array(keys.reshape(-1).astype(np.int64)),
            "vec_id": pa.array(np.repeat(vec_ids, B)),
        }
    )


EMBED_MAX_BUCKET = 4096  # above this a cell is degenerate (all-same spam);
# degrade to star pairs around min vec_id (logged) instead of dropping


def _cosine(a, b, unit_a: list, unit_b: list, threshold: float) -> pa.Table:
    """Pairs whose unit vectors (``_unit_rows`` blobs) have cosine ≥
    threshold."""
    n = len(unit_a)
    x = np.frombuffer(b"".join(unit_a), dtype="<f8")
    y = np.frombuffer(b"".join(unit_b), dtype="<f8")
    dim = len(x) // n if n else 0
    cos = np.einsum("ij,ij->i", x.reshape(n, dim), y.reshape(n, dim))
    keep = np.flatnonzero(cos >= threshold)
    return pa.Table.from_pydict(
        {
            "vec_a": pc.take(a, pa.array(keep)),
            "vec_b": pc.take(b, pa.array(keep)),
            "cosine": pa.array(np.round(cos[keep], 6), type=pa.float64()),
        }
    )


def embedding_neardup_pairs(
    sf_dir: str, threshold: float = 0.45
) -> "ray.data.Dataset":
    """Near-duplicate embedding pairs: multi-table random-hyperplane LSH
    buckets over NARROW (bucket, vec_id) band rows, ``candidate_pairs``
    deduped across tables, then exact-cosine ``verify_pairs`` over unit
    vectors — the same two-phase shape as MinHash. NOTHING
    row-count-proportional is ever pinned: the band pass normalizes
    inline off the parquet read, and the verify streams a fresh
    ``_unit_rows`` pass (re-normalizing a candidate vector costs ~nothing
    next to re-reading it; at 100 TB the alternative — a unit-vector
    ``materialize()`` — would pin the whole embeddings table). Recall < 1
    by construction (tune N_TABLES/N_PLANES to the threshold; the driver
    testdata's max off-diagonal cosine is ~0.51, so a 0.9-style threshold
    would be vacuous there)."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cands = candidate_pairs(
        ds.map_batches(_embed_band_rows, batch_format="pyarrow"), "vec_id",
        EMBED_MAX_BUCKET)
    return verify_pairs(
        cands, ds.map_batches(_unit_rows, batch_format="pyarrow"), "vec_id",
        "unit", lambda a, b, x, y: _cosine(a, b, x, y, threshold))


# ---------------------------------------------------------------------------
# paragraph-level dedup (Dolma-style span removal)
# ---------------------------------------------------------------------------

PARA_W = 5  # words per segment (the "paragraph" unit on newline-free corpora)
_SEG_STRIDE = 1 << 20  # global segment key = doc_id * stride + seg_id


def _doc_segments(text: str, w: int = PARA_W) -> list[str]:
    """Non-overlapping ``w``-word segments in document order (last one may
    be short). Splits on single spaces — the exact inverse of the space
    join used to rebuild, so dedup_text round-trips byte-identically when
    nothing is dropped."""
    words = text.split(" ")
    return [" ".join(words[i : i + w]) for i in range(0, len(words), w)]


def paragraph_dedup(
    sf_dir: str,
    w: int = PARA_W,
    drop_dir: str | None = None,
) -> "ray.data.Dataset":
    """Dolma-style paragraph dedup: every segment keeps only its FIRST
    corpus-wide occurrence (order = (doc_id, seg_id)); later occurrences
    are cut out of their documents. Returns (doc_id, dedup_text, n_segs,
    n_dropped) per document — dedup_text is null when every segment was a
    duplicate. Newline-delimited corpora would swap ``_doc_segments`` for a
    '\\n' split; the pipeline shape is identical.

    Scale shape (two narrow exchanges, the wide text column never crosses
    any exchange — the same design as the flagship's winner-parquet dedup,
    stages/dedup.py):
      1. explode to (seg_hash:int64, seg_key:int64) — 16 bytes/segment,
         regardless of segment text width;
      2. one hash shuffle on a bucket of seg_hash; per-bucket vectorized
         min-per-run kernel emits only the DROPPED keys (duplicate volume,
         not corpus volume);
      3. the dropped keys land in doc-bucket-partitioned parquet under
         ``drop_dir`` (second narrow shuffle, atomic rename per bucket),
         and the rebuild is a MAP-ONLY pass over documents that loads its
         buckets' drop sets through the per-worker ``read_bucket`` LRU.
    ``drop_dir`` must be shared storage on a multi-node cluster; it is
    cleared (content-guarded, ``clear_cache_dir``) before the decision
    build. Without one, a pid-keyed scratch dir is resolved
    (``dedup.pid_scratch_dir``; dead owners' dirs are reaped).
    Dolma itself uses a bloom filter for step 2's membership test; the
    exact min-key exchange here is deterministic (oracle-able) and its
    shuffle volume is bounded by segment count, not text bytes. 64-bit
    segment hashes stand in for segment text equality (collision odds at
    10^12 segments ~ 3e-6 per corpus; step 2 could carry the text for
    exactness at 10x exchange width)."""
    import os

    from datacat_ray.stages.bucketed import (
        add_bucket,
        int_bucket_codes,
        read_bucket,
        sorted_key_bounds,
        write_bucket,
    )
    from datacat_ray.stages.dedup import clear_cache_dir, pid_scratch_dir

    src = f"{sf_dir}/documents.parquet"
    _is_drop = lambda f: f.startswith(("bucket-", ".tmp.bucket-"))  # noqa: E731
    if drop_dir is None:
        drop_dir = pid_scratch_dir("datacat_para_", f"{sf_dir}:{w}", _is_drop)
    if os.path.isdir(drop_dir):
        # a bucket with zero drops is never written, so an earlier run's
        # file for it must not survive into this one
        clear_cache_dir(drop_dir, _is_drop)
    os.makedirs(drop_dir, exist_ok=True)

    def _explode(t: pa.Table) -> pa.Table:
        segs: list[str] = []
        keys: list[int] = []
        for doc_id, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            d = _doc_segments(text or "", w)
            # key = doc_id * stride + seg_id is only injective while
            # seg_id < stride; a >1M-segment doc (~5.2M words at w=5) would
            # silently bleed into the next doc_id's key range
            if len(d) >= _SEG_STRIDE:
                raise ValueError(
                    f"doc {doc_id}: {len(d)} segments >= _SEG_STRIDE "
                    f"{_SEG_STRIDE}; widen the key to (doc_id, seg_id)"
                )
            segs.extend(d)
            base = doc_id * _SEG_STRIDE
            keys.extend(range(base, base + len(d)))
        # ONE vectorized 64-bit hash over the whole batch's segments (a
        # per-segment Python FNV byte-loop here was the stage's hot path);
        # the hash only buckets equal segments together — the oracle's
        # semantics group by segment TEXT, so any deterministic hash works
        h = hash64(segs).view(np.int64)
        return add_bucket(
            pa.Table.from_pydict(
                {"h": pa.array(h, type=pa.int64()),
                 "key": pa.array(keys, type=pa.int64())}
            ),
            "h",
        )

    def _dropped(g: pa.Table) -> pa.Table:
        # sort by (h, key); within each h-run the first key is the keeper
        order = pc.sort_indices(
            g, sort_keys=[("h", "ascending"), ("key", "ascending")]
        )
        h = pc.take(g["h"], order).combine_chunks().to_numpy()
        k = pc.take(g["key"], order).combine_chunks().to_numpy()
        if len(h) == 0:
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], pa.int64()),
                 "seg_id": pa.array([], pa.int64())}
            )
        starts = sorted_key_bounds(h)
        keep = np.zeros(len(h), dtype=bool)
        keep[starts] = True
        drop = k[~keep]
        return pa.Table.from_pydict(
            {"doc_id": pa.array(drop // _SEG_STRIDE),
             "seg_id": pa.array(drop % _SEG_STRIDE)}
        )

    docs = ray.data.read_parquet(src, columns=["doc_id", "text"])
    dropped = (
        docs.map_batches(_explode, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda g: _dropped(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )

    def _write_bucket(g: pa.Table) -> pa.Table:
        b = int(g["__bucket"][0].as_py())
        t = g.drop_columns(["__bucket"]).sort_by(
            [("doc_id", "ascending"), ("seg_id", "ascending")]
        )
        write_bucket(drop_dir, b, t)
        return pa.Table.from_pydict(
            {"bucket": pa.array([b], pa.int32()),
             "n": pa.array([t.num_rows], pa.int64())}
        )

    # materialize the decision build before the rebuild pass reads it
    (
        dropped.map_batches(
            lambda t: add_bucket(t, "doc_id"), batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_write_bucket, batch_format="pyarrow")
    ).count()

    def _rebuild(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        bcodes = int_bucket_codes(ids)
        drops = {bc: read_bucket(drop_dir, bc, _load_drops)
                 for bc in np.unique(bcodes).tolist()}
        out_text: list[str | None] = []
        n_segs: list[int] = []
        n_drop: list[int] = []
        for doc_id, bc, text in zip(
            ids.tolist(), bcodes.tolist(), t["text"].to_pylist()
        ):
            segs = _doc_segments(text or "", w)
            dset = drops[bc].get(doc_id, frozenset())
            kept = [s for i, s in enumerate(segs) if i not in dset]
            out_text.append(" ".join(kept) if kept else None)
            n_segs.append(len(segs))
            n_drop.append(len(dset))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "dedup_text": pa.array(out_text, type=pa.string()),
                "n_segs": pa.array(n_segs, type=pa.int64()),
                "n_dropped": pa.array(n_drop, type=pa.int64()),
            }
        )

    return docs.map_batches(_rebuild, batch_format="pyarrow")


PARAGRAPH_DEDUP_SQL = f"""
    WITH words AS (
        -- coalesce: NULL text must yield the same single-empty-segment row
        -- the Ray path's ``text or ""`` produces (string_split(NULL) would
        -- make ns NULL and the generate_series join emit no segments)
        SELECT doc_id, string_split(coalesce(text, ''), ' ') AS w,
               CAST(ceil(len(string_split(coalesce(text, ''), ' '))
                         / {PARA_W}.0) AS BIGINT) AS ns
        FROM documents
    ),
    segs AS (
        SELECT doc_id, i AS seg_id,
               array_to_string(w[(i*{PARA_W}+1):(i*{PARA_W}+{PARA_W})], ' ')
                   AS seg
        -- series bound: generate_series is evaluated once; 4096 segments
        -- covers any fixture doc (max ~100 words / {PARA_W} per doc) and the
        -- i < ns predicate prunes the rest
        FROM words JOIN generate_series(0, 4095) AS t(i)
            ON t.i < words.ns
    ),
    first_occ AS (
        SELECT seg, MIN(doc_id * {_SEG_STRIDE} + seg_id) AS first_key
        FROM segs GROUP BY seg
    ),
    kept AS (
        SELECT s.doc_id, s.seg_id, s.seg,
               (s.doc_id * {_SEG_STRIDE} + s.seg_id) = f.first_key AS keep
        FROM segs s JOIN first_occ f USING (seg)
    )
    SELECT doc_id,
           string_agg(CASE WHEN keep THEN seg END, ' ' ORDER BY seg_id)
               AS dedup_text,
           COUNT(*) AS n_segs,
           CAST(SUM(CASE WHEN keep THEN 0 ELSE 1 END) AS BIGINT) AS n_dropped
    FROM kept GROUP BY doc_id
"""


def _load_drops(t: pa.Table | None) -> dict[int, set[int]]:
    """{doc_id: dropped seg_ids} of one decision bucket file (written
    doc-sorted)."""
    from datacat_ray.stages.bucketed import sorted_key_bounds

    d: dict[int, set[int]] = {}
    if t is None:
        return d
    dids = t["doc_id"].to_numpy()
    sids = t["seg_id"].to_numpy()
    starts = sorted_key_bounds(dids)
    ends = np.append(starts[1:], len(dids))
    for a, e in zip(starts, ends):
        d[int(dids[a])] = set(sids[a:e].tolist())
    return d
