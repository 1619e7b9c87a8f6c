"""Bloom-prefiltered incremental dedup (functions/bloom.py +
dedup_ops.incremental_dedup). The sf fixtures carry no cross-boundary
duplicate texts, so the drop path is pinned here on a synthetic corpus
with known snapshot/new duplicates, against the same DuckDB anti-join the
retired-oracle harness replays."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datacat_ray.functions.bloom import (
    BLOOM_K,
    bloom_add,
    bloom_maybe,
    bloom_merge,
    bloom_zeros,
)


def test_bloom_kernels():
    rng = np.random.RandomState(7)
    added = rng.randint(0, 2**63, size=5000).astype(np.uint64)
    other = rng.randint(0, 2**63, size=5000).astype(np.uint64)
    other = other[~np.isin(other, added)]

    bits = bloom_zeros()
    bloom_add(bits, added)
    assert bloom_maybe(bits, added).all()  # no false negatives, ever
    fp = bloom_maybe(bits, other).mean()
    assert fp < 0.01  # 5k keys in 2^20 bits, k=5 → well under 1%

    # merge(partials) == add-all (the tree-fold identity)
    b1, b2 = bloom_zeros(), bloom_zeros()
    bloom_add(b1, added[:2500])
    bloom_add(b2, added[2500:])
    assert (bloom_merge([b1, b2]) == bits).all()

    # empty probes
    assert bloom_maybe(bits, np.array([], dtype=np.uint64)).shape == (0,)
    assert BLOOM_K >= 1


def test_bloom_sizing():
    from datacat_ray.functions.bloom import (
        BLOOM_MAX_BITS,
        bloom_bits_for,
        bloom_fp,
    )

    assert bloom_bits_for(1) == 1 << 20
    assert bloom_bits_for(100_000) == 1 << 21  # 16 bits/key, next pow2
    assert bloom_bits_for(10**12) == BLOOM_MAX_BITS  # clamped
    assert bloom_fp(100_000, 1 << 21) < 0.01
    assert bloom_fp(10**9, BLOOM_MAX_BITS) > 0.25  # saturation detectable

    # a non-default m round-trips through add/maybe (m inferred from bits)
    # AND through merge — the fold must take its width from the partials,
    # not the default constant (regression: sized partials crashed merge)
    rng = np.random.RandomState(3)
    keys = rng.randint(0, 2**63, size=1000).astype(np.uint64)
    bits = bloom_zeros(1 << 22)
    bloom_add(bits, keys)
    assert bloom_maybe(bits, keys).all()
    p1, p2 = bloom_zeros(1 << 22), bloom_zeros(1 << 22)
    bloom_add(p1, keys[:500])
    bloom_add(p2, keys[500:])
    assert (bloom_merge([p1, p2]) == bits).all()
    assert bloom_merge([]).size == bloom_zeros().size


def _write_docs(path, ids, texts):
    pq.write_table(
        pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "text": pa.array(texts, pa.string())}
        ),
        path,
    )


@pytest.fixture()
def dup_corpus(tmp_path):
    """600 docs; snapshot = [0, 300). New docs 3xx duplicate snapshot
    texts on a known pattern; one null text on each side (null == empty ==
    duplicate); the rest unique."""
    n = 600
    ids = list(range(n))
    texts: list[str | None] = [f"unique text number {i}" for i in ids]
    texts[10] = None   # snapshot null (hashes/compares as '')
    for i in range(300, 360):  # 60 new docs duplicate snapshot docs
        texts[i] = texts[i - 300]  # incl. 310 = None (null dup)
    texts[400] = None  # null matches snapshot null (coalesce to '')
    texts[401] = ""    # and '' matches null too
    _write_docs(str(tmp_path / "documents.parquet"), ids, texts)
    expected = sorted(
        i for i in range(300, n)
        if i not in range(300, 360) and i not in (400, 401)
    )
    return str(tmp_path), expected


def test_incremental_dedup_drops_cross_boundary_dups(ray_session, dup_corpus):
    import duckdb

    from datacat_ray.pipelines.dedup_ops import (
        INCREMENTAL_DEDUP_SQL,
        incremental_dedup,
    )

    sf, expected = dup_corpus
    got = sorted(r["doc_id"] for r in incremental_dedup(sf).take_all())
    assert got == expected

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    want = sorted(x[0] for x in con.execute(INCREMENTAL_DEDUP_SQL).fetchall())
    assert got == want


def _verify_sides(monkeypatch):
    """Run the caller's block once per verify of ``incremental_dedup``:
    the broadcast (default caps) and the join (candidate cap forced below
    any candidate count — the cap is read on the driver)."""
    from datacat_ray.pipelines import dedup_ops

    for side, cap in (("broadcast", dedup_ops._BLOOM_CAND_MAX), ("join", -1)):
        monkeypatch.setattr(dedup_ops, "_BLOOM_CAND_MAX", cap)
        yield side


def test_incremental_dedup_join_mode_pinned_equal(ray_session, dup_corpus,
                                                  monkeypatch):
    from datacat_ray.pipelines import dedup_ops

    sf, expected = dup_corpus
    monkeypatch.setattr(dedup_ops, "_BLOOM_CAND_MAX", -1)
    got = sorted(
        r["doc_id"] for r in dedup_ops.incremental_dedup(sf).take_all()
    )
    assert got == expected


def test_reap_stale_scratch(tmp_path, monkeypatch):
    """Dead-owner pid-keyed scratch dirs are reaped; live-pid and
    foreign-content dirs are left alone."""
    import os

    from datacat_ray.scratch import ENV_VAR
    from datacat_ray.stages.dedup import reap_stale_scratch

    # the variable outranks every other scratch root, so the test's root
    # holds whatever the caller's environment sets
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    dead = tmp_path / "datacat_njp_abc123_999999999"
    dead.mkdir()
    (dead / "part-0.parquet").write_bytes(b"x")
    live = tmp_path / f"datacat_njp_abc123_{os.getpid()}"
    live.mkdir()
    (live / "part-0.parquet").write_bytes(b"x")
    foreign = tmp_path / "datacat_njp_zzz_888888888"
    foreign.mkdir()
    (foreign / "precious.txt").write_bytes(b"x")  # content guard skips

    reap_stale_scratch("datacat_njp_", lambda f: f.endswith(".parquet"))
    assert not dead.exists()
    assert live.exists()
    assert foreign.exists()


def test_incremental_dedup_edges(ray_session, tmp_path, monkeypatch):
    """Empty snapshot (snapshot_docs=0 → nothing filtered), all-dup new
    side (everything dropped), both verifies."""
    from datacat_ray.pipelines.dedup_ops import incremental_dedup

    d1 = tmp_path / "empty_snap"
    d1.mkdir()
    _write_docs(str(d1 / "documents.parquet"),
                [300, 301, 302], ["a", "b", "a"])
    for m in _verify_sides(monkeypatch):
        got = sorted(r["doc_id"] for r in
                     incremental_dedup(str(d1)).take_all())
        assert got == [300, 301, 302], m  # no snapshot rows → all survive

    d2 = tmp_path / "all_dup"
    d2.mkdir()
    _write_docs(str(d2 / "documents.parquet"),
                [0, 1, 300, 301], ["x", "y", "x", "y"])
    for m in _verify_sides(monkeypatch):
        got = [r["doc_id"] for r in incremental_dedup(str(d2)).take_all()]
        assert got == [], m


def test_incremental_dedup_candidate_cap(ray_session, dup_corpus, monkeypatch):
    from datacat_ray.pipelines import dedup_ops

    sf, expected = dup_corpus
    monkeypatch.setattr(dedup_ops, "_BLOOM_CAND_MAX", 3)
    # falls back to the bucketed anti-join at the cap — same rows
    got = sorted(
        r["doc_id"] for r in dedup_ops.incremental_dedup(sf).take_all()
    )
    assert got == expected


def test_incremental_dedup_text_bytes_cap(ray_session, dup_corpus,
                                          monkeypatch):
    """The TEXT broadcast is byte-capped independently of the hash-count
    cap: past it the verify falls back to the join."""
    from datacat_ray.pipelines import dedup_ops

    sf, expected = dup_corpus
    monkeypatch.setattr(dedup_ops, "_BLOOM_TEXT_BYTES_MAX", 8)
    got = sorted(
        r["doc_id"] for r in dedup_ops.incremental_dedup(sf).take_all()
    )
    assert got == expected


def test_incremental_dedup_sized_filter_end_to_end(
    ray_session, dup_corpus, monkeypatch
):
    """The whole partial→tree-fold→broadcast path runs with a NON-default
    filter size (regression: sized partials crashed bloom_merge's
    default-width output)."""
    import datacat_ray.functions.bloom as B
    from datacat_ray.pipelines import dedup_ops

    sf, expected = dup_corpus
    monkeypatch.setattr(B, "bloom_bits_for", lambda n, max_bits=0: 1 << 22)
    for m in _verify_sides(monkeypatch):
        got = sorted(
            r["doc_id"] for r in dedup_ops.incremental_dedup(sf).take_all()
        )
        assert got == expected, m


def test_incremental_dedup_saturated_bloom_skips_prefilter(
    ray_session, dup_corpus, monkeypatch
):
    """When even the max filter would saturate, the prefilter is skipped
    and the plain bucketed anti-join runs (every row would be a candidate,
    so the broadcast verify is never tried) — same rows."""
    import datacat_ray.functions.bloom as B
    from datacat_ray.pipelines import dedup_ops

    sf, expected = dup_corpus
    monkeypatch.setattr(B, "bloom_fp", lambda n, m: 1.0)
    got = sorted(
        r["doc_id"] for r in dedup_ops.incremental_dedup(sf).take_all()
    )
    assert got == expected
