"""Distributed connected components (min-label propagation) for
neardup_clusters, pinned equal to the driver union-find, plus the
near-duplicate pair layer: the bucket-pair kernel, the candidate-id
broadcast cap, and the verify sides of the pair ops."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datacat_ray.pipelines import dedup_ops
from datacat_ray.pipelines.dedup_ops import (
    BroadcastIdSetTooLarge,
    _fetch_candidate_values,
    bucket_pairs,
    label_propagation_parquet,
    neardup_clusters,
)

SF = "/root/testdata/sf0.001"


def _uf_reference(edges: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = {n for e in edges for n in e}
    return {n: find(n) for n in nodes}


def _run_lp(tmp_path, edges: list[tuple[int, int]]) -> dict[int, int]:
    edir = str(tmp_path / "edges")
    os.makedirs(edir, exist_ok=True)
    pq.write_table(
        pa.Table.from_pydict(
            {
                "doc_a": pa.array([a for a, _ in edges], pa.int64()),
                "doc_b": pa.array([b for _, b in edges], pa.int64()),
            }
        ),
        os.path.join(edir, "part-0.parquet"),
    )
    lab_dir = label_propagation_parquet(edir, str(tmp_path / "lp"))
    assert lab_dir is not None
    got: dict[int, int] = {}
    for f in sorted(os.listdir(lab_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(lab_dir, f))
        got.update(zip(t["node"].to_pylist(), t["label"].to_pylist()))
    return got


def test_lp_chain_clique_and_isolated_pair(ray_session, tmp_path):
    # a long chain (multi-round convergence), a clique, a 2-cycle, and a
    # disjoint pair with non-contiguous ids
    chain = [(i, i + 1) for i in range(100, 120)]
    clique = [(a, b) for a in (7, 8, 9, 10) for b in (7, 8, 9, 10) if a < b]
    extra = [(500, 42), (9000, 8999)]
    edges = chain + clique + extra
    got = _run_lp(tmp_path, edges)
    assert got == _uf_reference(edges)
    # every chain member collapses to the chain min, not a neighbor's id
    assert all(got[i] == 100 for i in range(100, 121))


def test_lp_empty_edge_list(ray_session, tmp_path):
    edir = str(tmp_path / "edges")
    os.makedirs(edir, exist_ok=True)
    pq.write_table(
        pa.Table.from_pydict(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
        ),
        os.path.join(edir, "part-0.parquet"),
    )
    assert label_propagation_parquet(edir, str(tmp_path / "lp")) is None


def test_neardup_clusters_distributed_equals_driver(ray_session, tmp_path,
                                                    monkeypatch):
    drv = {
        r["doc_id"]: r["cluster_id"]
        for r in neardup_clusters(SF).take_all()
    }
    # label propagation runs past _UF_MAX_PAIRS pairs (read on the driver)
    monkeypatch.setattr(dedup_ops, "_UF_MAX_PAIRS", -1)
    dist = {
        r["doc_id"]: r["cluster_id"]
        for r in neardup_clusters(SF, work_dir=str(tmp_path / "lp")).take_all()
    }
    assert os.path.isdir(tmp_path / "lp" / "edges")
    assert any(d.startswith("round-") for d in os.listdir(tmp_path / "lp"))
    assert drv == dist
    assert len(drv) > 0
    # at least one real (non-singleton) cluster exists in the fixture corpus
    assert any(d != c for d, c in drv.items())


def test_fetch_candidate_values_id_cap(ray_session, monkeypatch):
    import ray.data

    cands = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"doc_a": pa.array([1, 2, 3], pa.int64()),
             "doc_b": pa.array([4, 5, 6], pa.int64())}
        )
    )
    src = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"doc_id": pa.array(range(10), pa.int64()),
             "text": [f"t{i}" for i in range(10)]}
        )
    )
    monkeypatch.setattr(dedup_ops, "_CAND_ID_BROADCAST_MAX", 3)
    with pytest.raises(BroadcastIdSetTooLarge):
        _fetch_candidate_values(
            cands, ("doc_a", "doc_b"), src, "doc_id", "text"
        )


def test_bucket_pairs_all_pairs_star_pairs_and_repeated_ids(caplog):
    """The one bucket → pairs kernel of the four pair ops: all pairs up to
    the cap, star pairs around the min id above it (with one warning), a
    repeated id counted once."""
    import logging

    def pairs(ids, cap):
        a, b = bucket_pairs(np.array(ids, dtype=np.int64), cap)
        return list(zip(a.tolist(), b.tolist()))

    with caplog.at_level(logging.WARNING, logger=dedup_ops.__name__):
        assert pairs([9, 4, 7, 4], 3) == [(4, 7), (4, 9), (7, 9)]
        assert pairs([5], 3) == [] and pairs([5, 5], 3) == []
        assert not caplog.records
        assert pairs([9, 4, 7, 4, 12], 3) == [(4, 7), (4, 9), (4, 12)]
    assert len(caplog.records) == 1
    assert "star pairs" in caplog.records[0].getMessage()


PAIR_OPS = ("minhash_candidate_pairs", "ngram_jaccard_pairs",
            "embedding_neardup_pairs")


@pytest.mark.parametrize("op", PAIR_OPS)
def test_pair_verify_sides_equal(ray_session, monkeypatch, op):
    """The join verify returns the broadcast verify's rows, whether it is
    picked up front by the candidate-pair count or reached by the
    mid-stream overflow of the candidate-id accumulation (both caps are
    read on the driver)."""
    def rows():
        return sorted(tuple(sorted(r.items()))
                      for r in getattr(dedup_ops, op)(SF).take_all())

    base = rows()
    assert len(base) > 0
    for cap, value in (("_CAND_BROADCAST_MAX", -1),
                       ("_CAND_ID_BROADCAST_MAX", 1)):
        with monkeypatch.context() as m:
            m.setattr(dedup_ops, cap, value)
            assert rows() == base, cap


@pytest.mark.parametrize("op,cols", [
    ("minhash_candidate_pairs", ["doc_a", "doc_b", "est_jaccard",
                                 "match_lanes"]),
    ("ngram_jaccard_pairs", ["doc_a", "doc_b", "jaccard_micros"]),
    ("embedding_neardup_pairs", ["vec_a", "vec_b", "cosine"]),
])
def test_pair_ops_empty_candidate_set(ray_session, tmp_path, monkeypatch,
                                      op, cols):
    """A duplicate-free corpus has no candidate pairs: both verify sides
    return zero rows with the op's own columns (the join side used to
    fail on the schema-less blocks of the empty candidate shuffle)."""
    rng = np.random.RandomState(3)
    words = [f"w{i}x" for i in range(5000)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(30), pa.int64()),
                  "text": [" ".join(rng.choice(words, 40))
                           for _ in range(30)]}),
        str(tmp_path / "documents.parquet"),
    )
    v = rng.standard_normal(16)  # v and -v never share an LSH cell
    pq.write_table(
        pa.table({"vec_id": pa.array([0, 1], pa.int64()),
                  "embedding": pa.array([v.tolist(), (-v).tolist()],
                                        pa.list_(pa.float32())),
                  "label": pa.array([0, 0], pa.int32())}),
        str(tmp_path / "embeddings.parquet"),
    )
    for value in (dedup_ops._CAND_BROADCAST_MAX, -1):
        monkeypatch.setattr(dedup_ops, "_CAND_BROADCAST_MAX", value)
        ds = getattr(dedup_ops, op)(str(tmp_path))
        assert ds.take_all() == [], value
        assert ds.schema().names == cols, value


def test_lp_resume_from_checkpoint(ray_session, tmp_path):
    chain = [(i, i + 1) for i in range(0, 40)]  # needs several rounds
    edir = str(tmp_path / "edges")
    os.makedirs(edir, exist_ok=True)
    pq.write_table(
        pa.Table.from_pydict(
            {"doc_a": pa.array([a for a, _ in chain], pa.int64()),
             "doc_b": pa.array([b for _, b in chain], pa.int64())}
        ),
        os.path.join(edir, "part-0.parquet"),
    )
    work = str(tmp_path / "lp")
    # interrupt: too-small round budget raises but leaves checkpoints
    with pytest.raises(RuntimeError):
        label_propagation_parquet(edir, work, max_rounds=1)
    done = [d for d in os.listdir(work) if d.startswith("round-")]
    assert done, "interrupted run must leave a checkpointed round"
    # resume: picks up from the checkpoint and converges correctly
    lab_dir = label_propagation_parquet(edir, work, max_rounds=64)
    got: dict[int, int] = {}
    for f in sorted(os.listdir(lab_dir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(lab_dir, f))
            got.update(zip(t["node"].to_pylist(), t["label"].to_pylist()))
    assert got == _uf_reference(chain)
    # converged checkpoint short-circuits: same dir comes straight back
    assert label_propagation_parquet(edir, work, max_rounds=64) == lab_dir


def test_neardup_distributed_refuses_foreign_work_dir(ray_session, tmp_path,
                                                      monkeypatch):
    work = tmp_path / "lp"
    work.mkdir()
    (work / "precious_data.txt").write_text("do not delete")
    monkeypatch.setattr(dedup_ops, "_UF_MAX_PAIRS", -1)
    with pytest.raises(ValueError, match="refusing to clear"):
        neardup_clusters(SF, work_dir=str(work)).take_all()
    assert (work / "precious_data.txt").exists()
