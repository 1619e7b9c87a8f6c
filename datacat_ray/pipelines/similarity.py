"""Similarity search over the ``embeddings`` table (training-data ops).

- Brute-force cosine top-k: the baseline — a numpy matmul per batch against
  a broadcast query matrix (``ray.put`` once, read per task), then a
  distributed top-k (per-batch local top-k → global sort-limit on the tiny
  candidate set). Never materializes the full similarity column.
- IVF-style variant: the scale path — vectors are bucketed by a coarse
  deterministic quantizer (sign pattern over the leading dimensions); the
  query probes only matching buckets. Recall < 1 by construction; the
  partitioning assumption (bucket key reused across queries) is the point.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data


def vec_matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column WITHOUT building
    per-row Python lists: ``flatten()`` hands back the child values buffer
    (offset-aware), ``to_numpy`` views it zero-copy, and the only copy is
    the one vectorized float32→float64 cast the math needs. ~10× cheaper
    than ``np.array(col.to_pylist())`` on wide batches."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if arr.null_count:
        # flatten() drops null slots, which would silently misalign the
        # reshape — fail loudly like the old to_pylist path did
        raise ValueError(f"vector column has {arr.null_count} null rows")
    v = arr.flatten().to_numpy(zero_copy_only=False)
    return v.astype(np.float64, copy=False).reshape(n, -1)


def _load_query_rows(sf_dir: str, query_vec_ids) -> pa.Table:
    """Pushdown-filtered read of JUST the query rows: the predicate prunes
    parquet row groups via statistics, so the driver never materializes the
    embeddings table (the table is the thing being searched — at 10^12
    vectors a full read for one query row is the anti-pattern)."""
    import pyarrow.dataset as pads

    dset = pads.dataset(f"{sf_dir}/embeddings.parquet", format="parquet")
    return dset.to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(list(query_vec_ids)),
    )


def _load_query_vec(sf_dir: str, query_vec_id: int) -> np.ndarray:
    t = _load_query_rows(sf_dir, [query_vec_id])
    v = np.array(t["embedding"][0].as_py(), dtype=np.float64)
    n = np.linalg.norm(v)
    return v / (n if n else 1.0)


def brute_force_topk(
    sf_dir: str, query_vec_id: int = 0, k: int = 10
) -> pa.Table:
    """(vec_id, rank): the k nearest vectors to the query by cosine
    similarity (the query itself excluded). Ties broken by vec_id ascending
    — deterministic and mirrored in the oracle SQL."""
    q = _load_query_vec(sf_dir, query_vec_id)
    q_ref = ray.put(q)

    def _local_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = batch["vec_id"].combine_chunks().to_numpy(zero_copy_only=False)
        embs = vec_matrix(batch["embedding"])
        norms = np.linalg.norm(embs, axis=1)
        norms[norms == 0] = 1.0
        sims = (embs @ qv) / norms
        mask = ids != query_vec_id
        ids, sims = ids[mask], sims[mask]
        if len(ids) > k:
            part = np.argpartition(-sims, k)[:k]
            ids, sims = ids[part], sims[part]
        return pa.Table.from_pydict(
            {"vec_id": pa.array(ids), "sim": pa.array(sims)}
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_local_topk, batch_format="pyarrow")
    # global merge: candidates are ≤ k per batch — tiny
    top = ds.sort(["sim", "vec_id"], descending=[True, False]).limit(k)
    rows = top.take_all()
    return pa.Table.from_pydict(
        {
            "vec_id": pa.array([r["vec_id"] for r in rows], type=pa.int64()),
            "rank": pa.array(list(range(1, len(rows) + 1)), type=pa.int64()),
        }
    )


def multi_query_topk(
    sf_dir: str, query_vec_ids: tuple[int, ...] = (0, 1, 2, 3), k: int = 5
) -> "ray.data.Dataset":
    """Batched similarity search: one (Q, dim) query matrix broadcast via
    ``ray.put``, ONE numpy matmul per data batch against all queries
    simultaneously, per-query local top-k → tiny global merge. This is the
    scale shape for model-training retrieval (Q in the thousands): the data
    side streams once regardless of Q.

    Returns (query_vec_id, vec_id, rank) with rank ties broken by vec_id —
    mirrored in the oracle SQL."""
    t = _load_query_rows(sf_dir, query_vec_ids)
    by_id = dict(zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist()))
    Q = np.array([by_id[q] for q in query_vec_ids], dtype=np.float64)
    Qn = np.linalg.norm(Q, axis=1, keepdims=True)
    Qn[Qn == 0] = 1.0
    q_ref = ray.put(Q / Qn)
    qids = np.array(query_vec_ids, dtype=np.int64)

    def _local(batch: pa.Table) -> pa.Table:
        Qm = ray.get(q_ref)  # (Q, dim)
        ids = batch["vec_id"].combine_chunks().to_numpy(zero_copy_only=False)
        embs = vec_matrix(batch["embedding"])
        norms = np.linalg.norm(embs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (embs / norms) @ Qm.T  # (n, Q)
        out_q, out_v, out_s = [], [], []
        for qi in range(Qm.shape[0]):
            col = sims[:, qi]
            mask = ids != qids[qi]
            cids, csims = ids[mask], col[mask]
            if len(cids) > k:
                part = np.argpartition(-csims, k)[:k]
                cids, csims = cids[part], csims[part]
            out_q.extend([int(qids[qi])] * len(cids))
            out_v.extend(cids.tolist())
            out_s.extend(csims.tolist())
        return pa.Table.from_pydict(
            {
                "query_vec_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_local, batch_format="pyarrow")
    # distributed merge: hash-bucket the (already ≤ Q*k per batch) candidate
    # set on query id, then ONE vectorized rank kernel per bucket — stays
    # distributed at Q in the thousands instead of a driver-side to_pandas
    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    def _rank_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = pc.sort_indices(
            g, sort_keys=[("query_vec_id", "ascending"), ("sim", "descending"),
                          ("vec_id", "ascending")]
        )
        q = pc.take(g["query_vec_id"], order).combine_chunks().to_numpy()
        v = pc.take(g["vec_id"], order).combine_chunks().to_numpy()
        n = len(q)
        if n == 0:
            return pa.Table.from_pydict(
                {"query_vec_id": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "rank": pa.array([], pa.int64())}
            )
        starts = sorted_key_bounds(q)
        counts = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, counts) + 1
        keep = rank <= k
        return pa.Table.from_pydict(
            {
                "query_vec_id": pa.array(q[keep], type=pa.int64()),
                "vec_id": pa.array(v[keep], type=pa.int64()),
                "rank": pa.array(rank[keep], type=pa.int64()),
            }
        )

    ds = ds.map_batches(
        lambda t: add_bucket(t, "query_vec_id"), batch_format="pyarrow"
    )
    out = ds.groupby("__bucket").map_groups(
        lambda g: _rank_bucket(g.drop_columns(["__bucket"])),
        batch_format="pyarrow",
    )
    return out


# IVF coarse quantization (spherical k-means centroids) ------------------------

IVF_K = 32  # coarse cells
IVF_NPROBE = 4  # cells read per query
_IVF_SAMPLE = 2048  # training sample rows
_IVF_ITERS = 10
_IVF_SEED = 20260819


def train_ivf_centroids(unit_sample: np.ndarray, k: int = IVF_K) -> np.ndarray:
    """Spherical k-means on a unit-vector sample: argmax-cosine assignment,
    mean + renormalize update, deterministic seed. Returns (k, dim)."""
    rng = np.random.RandomState(_IVF_SEED)
    n = len(unit_sample)
    cent = unit_sample[rng.choice(n, size=min(k, n), replace=False)].copy()
    for _ in range(_IVF_ITERS):
        assign = (unit_sample @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                v = unit_sample[m].mean(axis=0)
                nv = np.linalg.norm(v)
                if nv:
                    cent[c] = v / nv
    return cent


def ivf_bucket_of(unit: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid (max cosine) cell per unit vector."""
    return (unit @ centroids.T).argmax(axis=1).astype(np.int64)


def _unit_rows(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    embs = vec_matrix(t["embedding"])
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, embs / norms


def build_ivf_index(sf_dir: str, index_dir: str | None = None) -> str:
    """One-time IVF index build (the real thing, not a filtered scan):

    1. TRAIN: spherical k-means centroids on a small streamed sample.
    2. ASSIGN: every vector unit-normalized and routed to its nearest
       centroid in one streaming ``map_batches`` pass (centroids broadcast
       via ``ray.put``).
    3. LAYOUT: bucket-partitioned parquet (``bucket=N/`` hive dirs, one per
       coarse cell), plus ``centroids.npy``.

    Probes then READ ONLY the top-nprobe matching partitions — the
    brute-force scan disappears at the filesystem level, which is the whole
    point of an IVF layout at 10^12 vectors. Built once per input
    fingerprint (``dedup.build_once``)."""
    import os

    from datacat_ray.stages.dedup import build_once, input_fingerprint

    if index_dir is None:
        import hashlib

        from datacat_ray.scratch import scratch_path

        digest = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
        index_dir = scratch_path(f"datacat_ivf_{digest}")

    def _build() -> None:
        src = ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        sample = src.limit(_IVF_SAMPLE).take_all()
        s = np.array([r["embedding"] for r in sample], dtype=np.float64)
        sn = np.linalg.norm(s, axis=1, keepdims=True)
        sn[sn == 0] = 1.0
        cent = train_ivf_centroids(s / sn)
        np.save(os.path.join(index_dir, "centroids.npy"), cent)
        cent_ref = ray.put(cent)

        def _assign(t: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            ids, unit = _unit_rows(t)
            return pa.Table.from_pydict(
                {
                    "vec_id": pa.array(ids),
                    "unit": pa.array(unit.tolist(),
                                     type=pa.list_(pa.float64())),
                    "bucket": pa.array(ivf_bucket_of(unit, c)),
                }
            )

        src.map_batches(_assign, batch_format="pyarrow").write_parquet(
            index_dir, partition_cols=["bucket"]
        )

    # index artifacts only: Ray writes uniquely-named files, so a rebuild on
    # top of leftovers would DUPLICATE vectors per bucket. "nprobe" covers
    # nprobe.json + crashed-run .tmp files: the cached selection belongs to
    # the index being cleared (stale after a rebuild), and refusing it would
    # brick the dir; "_BUILT" also covers the marker of earlier layouts
    build_once(index_dir, input_fingerprint(f"{sf_dir}/embeddings.parquet"),
               lambda f: f.startswith(
                   ("bucket=", "_BUILT", "centroids", "nprobe")),
               _build)
    return index_dir


def ivf_topk(
    sf_dir: str, query_vec_id: int = 0, k: int = 10,
    index_dir: str | None = None, nprobe: int | str = IVF_NPROBE,
    target_recall: float = 0.8, n_queries: int = 16,
) -> pa.Table:
    """Approximate top-k over the bucket-partitioned IVF index: the probe
    reads ONLY the ``nprobe`` cells whose centroids are closest to the
    query (4 of 32 partitions by default) — a partition-pruned read, not a
    full scan with a filter. ``nprobe="auto"`` makes the knob a CONTRACT:
    ``select_nprobe`` picks the smallest nprobe whose measured recall@k on
    a held-out query sample meets ``target_recall`` (selection cached with
    the index). Recall vs brute force is recorded in BASELINE.md; results
    within the probed cells are exact (stored unit vectors, one matmul per
    batch)."""
    import os

    from datacat_ray.stages.dedup import list_fragments

    index_dir = build_ivf_index(sf_dir, index_dir)
    if nprobe == "auto":
        # n_queries threads through so the cached selection key matches
        # whatever sample size the caller contracted select_nprobe with
        nprobe, _ = select_nprobe(
            sf_dir, target_recall=target_recall, k=k, index_dir=index_dir,
            n_queries=n_queries,
        )
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    q = _load_query_vec(sf_dir, query_vec_id)
    probe = np.argsort(-(cent @ q))[:nprobe].tolist()
    probe_dirs = [
        d for d in (os.path.join(index_dir, f"bucket={b}") for b in sorted(probe))
        if os.path.isdir(d)
    ]
    # explicit file list: read_parquet takes dirs only as a single root path
    probe_dirs = list_fragments(probe_dirs)
    if not probe_dirs:
        # every probed centroid is a dead (never-written) cell — an empty
        # result, not a crash on read_parquet([])
        return pa.Table.from_pydict(
            {"vec_id": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64())}
        )
    q_ref = ray.put(q)

    def _probe_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = batch["vec_id"].combine_chunks().to_numpy(zero_copy_only=False)
        unit = vec_matrix(batch["unit"])
        mask = ids != query_vec_id
        ids, unit = ids[mask], unit[mask]
        sims = unit @ qv
        if len(ids) > k:
            part = np.argpartition(-sims, k)[:k]
            ids, sims = ids[part], sims[part]
        return pa.Table.from_pydict({"vec_id": pa.array(ids), "sim": pa.array(sims)})

    ds = ray.data.read_parquet(probe_dirs, columns=["vec_id", "unit"]).map_batches(
        _probe_topk, batch_format="pyarrow"
    )
    rows = ds.sort(["sim", "vec_id"], descending=[True, False]).limit(k).take_all()
    return pa.Table.from_pydict(
        {
            "vec_id": pa.array([r["vec_id"] for r in rows], type=pa.int64()),
            "rank": pa.array(list(range(1, len(rows) + 1)), type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# per-label embedding centroids (distributed vector mean)
# ---------------------------------------------------------------------------


def ivf_recall_curve(
    sf_dir: str, k: int = 10, n_queries: int = 16,
    index_dir: str | None = None,
) -> np.ndarray:
    """Measured recall@k for EVERY nprobe in one streaming pass: element
    ``p-1`` is the mean (over a deterministic query sample) fraction of
    true top-k neighbors living in the query's ``p`` closest cells.

    The trick that makes the whole curve cost ONE pass over the index
    (instead of nprobe × queries probe runs): the pass computes, per
    query, the exact brute-force top-k AND each neighbor's cell (recomputed
    from the broadcast centroids — the same ``ivf_bucket_of`` the build
    used, so it cannot diverge from the layout). A neighbor is recalled at
    nprobe=p iff its cell ranks < p in the query's centroid ordering —
    pure driver-side arithmetic on Q×k tiny rows. Scale shape: one matmul
    per batch against a broadcast (Q, dim) matrix, ≤ Q×k rows per block to
    the merge."""
    import os

    index_dir = build_ivf_index(sf_dir, index_dir)
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    src = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qs = src.limit(n_queries).take_all()
    q_ids = np.array([r["vec_id"] for r in qs], dtype=np.int64)
    Q = np.array([r["embedding"] for r in qs], dtype=np.float64)
    qn = np.linalg.norm(Q, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    Q = Q / qn
    state_ref = ray.put((q_ids, Q, cent))

    def _local(batch: pa.Table) -> pa.Table:
        qids, qmat, c = ray.get(state_ref)
        ids, unit = _unit_rows(batch)
        sims = unit @ qmat.T  # (n, Q)
        buckets = ivf_bucket_of(unit, c)
        qi_col, id_col, sim_col, b_col = [], [], [], []
        for qi in range(len(qids)):
            mask = ids != qids[qi]
            s = sims[mask, qi]
            sel = np.flatnonzero(mask)
            if len(sel) > k:
                part = np.argpartition(-s, k)[:k]
                sel, s = sel[part], s[part]
            qi_col.append(np.full(len(sel), qi, dtype=np.int64))
            id_col.append(ids[sel])
            sim_col.append(s)
            b_col.append(buckets[sel])
        return pa.Table.from_pydict(
            {
                "qi": pa.array(np.concatenate(qi_col)),
                "vec_id": pa.array(np.concatenate(id_col)),
                "sim": pa.array(np.concatenate(sim_col)),
                "bucket": pa.array(np.concatenate(b_col)),
            }
        )

    # ≤ Q×k rows per block survive the local stage — the driver merge is tiny
    cand = src.map_batches(_local, batch_format="pyarrow").take_all()
    n_cells = len(cent)
    hits = np.zeros((len(q_ids), n_cells), dtype=np.int64)
    denom = np.zeros(len(q_ids), dtype=np.int64)
    by_q: dict[int, list] = {}
    for r in cand:
        by_q.setdefault(r["qi"], []).append(r)
    for qi, rows in by_q.items():
        rows.sort(key=lambda r: (-r["sim"], r["vec_id"]))
        top = rows[:k]
        denom[qi] = len(top)
        # rank of each cell in this query's centroid ordering
        order = np.argsort(-(cent @ Q[qi]), kind="stable")
        cell_rank = np.empty(n_cells, dtype=np.int64)
        cell_rank[order] = np.arange(n_cells)
        for r in top:
            hits[qi, cell_rank[r["bucket"]]] += 1
    denom[denom == 0] = 1
    per_q = np.cumsum(hits, axis=1) / denom[:, None]
    return per_q.mean(axis=0)


def select_nprobe(
    sf_dir: str, target_recall: float = 0.8, k: int = 10,
    n_queries: int = 16, index_dir: str | None = None,
) -> tuple[int, float]:
    """The nprobe CONTRACT: smallest nprobe whose measured recall@k on the
    query sample meets ``target_recall`` (falls back to every cell — exact
    search — if the curve never does). Returns (nprobe, measured_recall).
    The selection is cached next to the index keyed by its parameters, so
    repeated probes pay zero passes."""
    import json
    import os

    index_dir = build_ivf_index(sf_dir, index_dir)
    cache = os.path.join(index_dir, "nprobe.json")
    key = f"k={k},q={n_queries},t={target_recall}"
    if os.path.exists(cache):
        with open(cache) as fh:
            d = json.load(fh)
        if key in d:
            return int(d[key][0]), float(d[key][1])
    else:
        d = {}
    curve = ivf_recall_curve(sf_dir, k=k, n_queries=n_queries,
                             index_dir=index_dir)
    meets = np.flatnonzero(curve >= target_recall)
    p = int(meets[0]) + 1 if len(meets) else len(curve)
    # re-read just before writing and MERGE: two concurrent processes
    # selecting under different (k, q, target) keys would otherwise
    # last-writer-wins each other's entries out of the cache, forcing a
    # redundant recall-curve pass later. The curve is deterministic per
    # key, so merge order doesn't matter for same-key races.
    if os.path.exists(cache):
        try:
            with open(cache) as fh:
                d = json.load(fh)
        except (json.JSONDecodeError, OSError):
            d = {}
    d[key] = [p, float(curve[p - 1])]
    tmp = cache + f".tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(d, fh)
    os.replace(tmp, cache)
    return p, float(curve[p - 1])


def label_centroids(sf_dir: str) -> pa.Table:
    """Mean embedding per label, exploded to (label, dim, centroid_micros)
    rows — the distributed vector-aggregation shape (class prototypes /
    cluster seeding).

    Map-side combiner: each batch reduces to ≤ |labels| partial rows of
    (label, count, sum-vector); the groupby exchanges label-count×dim
    floats, never row-count. Numerics: float32 components are EXACT in
    float64, and a sum of ~2^13 of them needs ≤ 40 mantissa bits — the
    float64 accumulation is exact and therefore ORDER-INDEPENDENT, which is
    what makes the micros output reproducible across any batch split and
    bit-equal to the SQL oracle (which also sums component-exact doubles).
    """
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def _partials(t: pa.Table) -> pa.Table:
        labels = np.asarray(t["label"].to_pylist(), dtype=np.int64)
        mat = vec_matrix(t["embedding"])
        uids, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uids), mat.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, mat)
        return pa.Table.from_pydict(
            {
                "label": pa.array(uids, pa.int64()),
                "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "vsum": pa.array(
                    list(sums), type=pa.list_(pa.float64())
                ),
            }
        )

    rows = (
        ds.map_batches(_partials, batch_format="pyarrow")
        .groupby("label")
        .map_groups(
            # |labels| is a closed small set (16 here): per-key map_groups
            # is O(labels) Python calls by construction, not O(rows)
            lambda g: pa.Table.from_pydict(
                {
                    "label": g["label"][:1],
                    "n": pa.array(
                        [int(sum(g["n"].to_pylist()))], pa.int64()
                    ),
                    "vsum": pa.array(
                        [np.sum(
                            np.array(g["vsum"].to_pylist(), dtype=np.float64),
                            axis=0,
                        ).tolist()],
                        type=pa.list_(pa.float64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .take_all()  # |labels| rows
    )

    out_label, out_dim, out_val = [], [], []
    for r in sorted(rows, key=lambda r: r["label"]):
        mean = np.asarray(r["vsum"], dtype=np.float64) / r["n"]
        for d, v in enumerate(mean):
            out_label.append(r["label"])
            out_dim.append(d)
            out_val.append(int(np.floor(v * 1_000_000 + 0.5)))
    return pa.Table.from_pydict(
        {
            "label": pa.array(out_label, pa.int64()),
            "dim": pa.array(out_dim, pa.int64()),
            "centroid_micros": pa.array(out_val, pa.int64()),
        }
    )


LABEL_CENTROIDS_SQL = """
    SELECT CAST(label AS BIGINT) AS label,
           CAST(dim - 1 AS BIGINT) AS dim,
           CAST(FLOOR(AVG(v) * 1000000 + 0.5) AS BIGINT) AS centroid_micros
    FROM (
        SELECT label,
               unnest(embedding::DOUBLE[]) AS v,
               generate_subscripts(embedding, 1) AS dim
        FROM embeddings
    )
    GROUP BY label, dim
"""


# ---------------------------------------------------------------------------
# distributed k-means (Lloyd's iterations over the full table)
# ---------------------------------------------------------------------------

KMEANS_K = 16
KMEANS_ITERS = 5


def kmeans_clusters(
    sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS
) -> "ray.data.Dataset":
    """(vec_id, cluster): Lloyd's k-means assignments after ``iters``
    rounds over the FULL embeddings table — the distributed companion to
    ``train_ivf_centroids`` (which trains on a driver-side sample).

    Each round is one streaming pass: centroids broadcast via ``ray.put``,
    per-batch vectorized assign (one matmul), map-side reduction to ≤ k
    partial rows of (cluster, count, sum-vector), tiny ``groupby(cluster)``
    merge, driver centroid update — the exchange is k×dim floats per
    round, never row-count. float32 components sum EXACTLY in float64, so
    the per-round centroid UPDATE is deterministic for any batch split /
    worker count; the assignment matmul goes through BLAS, whose reduction
    order can vary with batch row-count, so a distance tie at the last ulp
    could in principle flip an argmin across different batch splits (exact
    ties between distinct float centroids are measure-zero on this data;
    tests pin assignments against a fixed-order numpy reference).
    Init: the k lowest-vec_id vectors (pushdown-filtered read). Empty
    clusters keep their previous centroid. Ties go to the lowest cluster
    id (np.argmin convention, documented so reruns match)."""
    import pyarrow.dataset as pads

    from ray.data.aggregate import Sum

    path = f"{sf_dir}/embeddings.parquet"
    seed_t = (
        pads.dataset(path, format="parquet")
        .to_table(columns=["vec_id", "embedding"],
                  filter=pads.field("vec_id") < k)
        .sort_by("vec_id")
    )
    cent = vec_matrix(seed_t["embedding"])

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])

    def _assign_mat(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
        # ||x-c||² = ||x||² - 2x·c + ||c||²; ||x||² is rank-constant
        d2 = -2.0 * (mat @ c.T) + (c * c).sum(axis=1)[None, :]
        return np.argmin(d2, axis=1)

    for _ in range(iters):
        c_ref = ray.put(cent)

        def _partials(t: pa.Table) -> pa.Table:
            from datacat_ray.stages.bucketed import cached_ref

            c = cached_ref(c_ref)
            mat = vec_matrix(t["embedding"])
            a = _assign_mat(mat, c)
            uids, inv = np.unique(a, return_inverse=True)
            sums = np.zeros((len(uids), mat.shape[1]), dtype=np.float64)
            np.add.at(sums, inv, mat)
            return pa.Table.from_pydict(
                {
                    "cluster": pa.array(uids, pa.int64()),
                    "n": pa.array(np.bincount(inv).astype(np.int64)),
                    "vsum": pa.array(list(sums), type=pa.list_(pa.float64())),
                }
            )

        # fold the ≤ k-rows-per-batch partials on the driver: k × n_batches
        # tiny rows stream in (at 10^5 batches × k=16 that is ~1.6M int+vec
        # rows — still no row-count term), saving a full shuffle per round
        sums = np.zeros_like(cent)
        counts = np.zeros(len(cent), dtype=np.int64)
        for b in ds.map_batches(_partials, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=4096
        ):
            cl = b["cluster"].to_numpy(zero_copy_only=False)
            nn = b["n"].to_numpy(zero_copy_only=False)
            vs = np.array(b["vsum"].to_pylist(), dtype=np.float64)
            np.add.at(sums, cl, vs)
            np.add.at(counts, cl, nn)
        nonzero = counts > 0
        cent[nonzero] = sums[nonzero] / counts[nonzero, None]

    final_ref = ray.put(cent)

    def _final(t: pa.Table) -> pa.Table:
        from datacat_ray.stages.bucketed import cached_ref

        c = cached_ref(final_ref)
        mat = vec_matrix(t["embedding"])
        return pa.Table.from_pydict(
            {
                "vec_id": t["vec_id"],
                "cluster": pa.array(
                    _assign_mat(mat, c).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(_final, batch_format="pyarrow")
