"""Sequence packing + per-source cap + repetition stats: the round-2
training-data ops, checked against brute-force Python references and the
driver testdata."""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# keep_first_k kernel (stages/bucketed.py) vs brute force
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 50)),
        min_size=0,
        max_size=60,
    ),
    st.integers(0, 5),
)
def test_keep_first_k_matches_brute_force(rows, k):
    from datacat_ray.stages.bucketed import keep_first_k

    t = pa.Table.from_pydict(
        {
            "source": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    out = keep_first_k(t, "source", ["doc_id"], k)
    got = sorted(zip(out["source"].to_pylist(), out["doc_id"].to_pylist()))
    per_key: dict[int, list[int]] = {}
    for s, d in rows:
        per_key.setdefault(s, []).append(d)
    want = sorted(
        (s, d) for s, ds in per_key.items() for d in sorted(ds)[:k]
    )
    assert got == want


# ---------------------------------------------------------------------------
# repetition stats row kernel vs Counter reference
# ---------------------------------------------------------------------------


def test_repetition_stats_row():
    from datacat_ray.pipelines.text_analysis import repetition_stats_row

    assert repetition_stats_row(None) == (0, 0, 0, 0, 0)
    assert repetition_stats_row("   ") == (0, 0, 0, 0, 0)
    assert repetition_stats_row("one") == (1, 1, 1, 0, 0)
    # "a b a b a": words=5, distinct=2, top word a×3, bigrams=4,
    # top bigram (a,b)×2
    assert repetition_stats_row("a b a b a") == (5, 2, 3, 4, 2)
    # whitespace runs collapse exactly like the oracle's \s+ split
    assert repetition_stats_row("x\t\tx\n x") == (3, 1, 3, 2, 2)


# ---------------------------------------------------------------------------
# pack_sequences: global prefix-sum placement over the driver testdata
# ---------------------------------------------------------------------------


def test_pack_sequences_matches_serial_scan(ray_session, monkeypatch):
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.packing import pack_sequences
    from datacat_ray.pipelines.text_analysis import ascii_tokens
    from datacat_ray.stages import bucketed

    seq_len = 512
    monkeypatch.setattr(bucketed, "DEFAULT_BUCKETS", 7)
    out = pack_sequences(SF, seq_len=seq_len).take_all()
    got = {
        r["doc_id"]: (r["n_tokens"], r["chunk_id"], r["chunk_pos"])
        for r in out
    }

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    rows = sorted(
        zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    )
    acc = 0
    want = {}
    for doc_id, text in rows:
        n = len(ascii_tokens(text))
        want[doc_id] = (n, acc // seq_len, acc % seq_len)
        acc += n
    assert got == want


def test_pack_sequences_bucket_count_invariant(ray_session, monkeypatch):
    """Placement must be independent of the partition count P."""
    from datacat_ray.pipelines.packing import pack_sequences
    from datacat_ray.stages import bucketed

    def run(p):
        monkeypatch.setattr(bucketed, "DEFAULT_BUCKETS", p)
        return sorted(
            map(tuple, (r.values() for r in pack_sequences(SF).take_all()))
        )

    assert run(3) == run(64)


# ---------------------------------------------------------------------------
# source cap sampler over the driver testdata
# ---------------------------------------------------------------------------


def test_source_cap_sample(ray_session):
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.text_analysis import source_cap_sample

    k = 3
    out = source_cap_sample(SF, k=k).take_all()
    per: dict[str, list[int]] = {}
    for r in out:
        per.setdefault(r["source"], []).append(r["doc_id"])

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "source"])
    full: dict[str, list[int]] = {}
    for d, s in zip(t["doc_id"].to_pylist(), t["source"].to_pylist()):
        full.setdefault(s, []).append(d)
    for s, ids in full.items():
        assert sorted(per.get(s, [])) == sorted(ids)[:k], s


# ---------------------------------------------------------------------------
# dup_ngram_fraction vs brute-force corpus scan
# ---------------------------------------------------------------------------


def test_dup_ngram_fraction_matches_brute_force(
    ray_session, tmp_path, monkeypatch
):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.text_analysis import (
        ascii_tokens,
        dup_ngram_fraction,
    )
    from datacat_ray.stages import bucketed

    n = 3
    texts = [
        "a b c d e",          # shares "a b c"/"b c d" tails with doc 1
        "a b c d x",
        "zz",                 # too short for any 3-gram
        "a b c a b c a b c",  # internal repeats are ONE distinct gram
        "q w e r t y",        # unique
        None,
        "",
    ]
    tbl = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    monkeypatch.setattr(bucketed, "DEFAULT_BUCKETS", 4)
    out = {
        r["doc_id"]: (r["n_ngrams"], r["n_dup"], r["dup_frac_micros"])
        for r in dup_ngram_fraction(str(d), n=n).take_all()
    }

    grams = [
        {tuple(ws[i : i + n]) for i in range(len(ws) - n + 1)}
        for ws in (ascii_tokens(t) for t in texts)
    ]
    for i, gs in enumerate(grams):
        dup = sum(
            1 for g in gs if any(g in o for j, o in enumerate(grams) if j != i)
        )
        ng = len(gs)
        micros = 0 if ng == 0 else (2 * dup * 1_000_000 + ng) // (2 * ng)
        assert out[i] == (ng, dup, micros), i
    assert len(out) == len(texts)


# ---------------------------------------------------------------------------
# tfidf_top_terms vs hand-computed scores
# ---------------------------------------------------------------------------


def test_tfidf_top_terms(ray_session, tmp_path):
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.text_analysis import tfidf_top_terms

    texts = [
        "apple apple banana common",
        "banana cherry common",
        "cherry cherry cherry common",
    ]
    tbl = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(3), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    out = tfidf_top_terms(str(d), k=2).take_all()
    got = {
        (r["doc_id"], r["rank"]): (r["term"], r["score_micros"]) for r in out
    }

    def s(tf, df):
        return int(math.floor(tf * math.log(3 / df) * 1_000_000 + 0.5))

    # doc 0: apple tf2 df1 → 2·ln3; banana tf1 df2 → ln1.5; common df3 → 0
    assert got[(0, 1)] == ("apple", s(2, 1))
    assert got[(0, 2)] == ("banana", s(1, 2))
    # doc 2: cherry tf3 df2; common score 0 still ranks 2nd of its terms
    assert got[(2, 1)] == ("cherry", s(3, 2))
    assert got[(2, 2)] == ("common", 0)
    assert len(out) == 6


# ---------------------------------------------------------------------------
# term_postings vs brute force (with forced multi-batch input)
# ---------------------------------------------------------------------------


def test_term_postings_matches_brute_force(ray_session, monkeypatch):
    import collections

    import pyarrow.parquet as pq
    from ray.data import DataContext

    from datacat_ray.pipelines.text_analysis import (
        ascii_tokens,
        term_postings,
    )
    from datacat_ray.stages import bucketed

    cap = 3
    monkeypatch.setattr(bucketed, "DEFAULT_BUCKETS", 8)
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 16 * 1024  # many batches → real merges
        out = {
            r["term"]: (r["df"], r["postings"])
            for r in term_postings(SF, cap=cap).take_all()
        }
    finally:
        ctx.target_max_block_size = old

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    want: dict[str, list[int]] = collections.defaultdict(list)
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for w in set(ascii_tokens(x)):
            want[w].append(d)
    assert out == {
        w: (len(ds), ",".join(map(str, sorted(ds)[:cap])))
        for w, ds in want.items()
    }


def test_corpus_gate_reasons(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.text_analysis import corpus_gate

    rows = [
        (0, " ".join(f"v{i}" for i in range(30)), "en", 150, True, "ok"),
        (1, "short text", "en", 10, False, "too_short"),
        (2, "x " * 25, "en", 50, False, "dup_words"),  # 25 dups of one word
        (3, " ".join(f"v{i}" for i in range(30)), "zh", 150, False, "lang"),
        (4, " ".join(f"w{i}" for i in range(30)), "en", 200_000, False,
         "too_long"),
        (5, None, "en", 0, False, "too_short"),
    ]
    tbl = pa.Table.from_pydict(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array(["s"] * len(rows), pa.string()),
            "n_chars": pa.array([r[3] for r in rows], pa.int64()),
        }
    )
    d = tmp_path / "g"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    got = {r["doc_id"]: (r["keep"], r["reason"])
           for r in corpus_gate(str(d)).take_all()}
    for doc_id, _, _, _, keep, reason in rows:
        assert got[doc_id] == (keep, reason), doc_id
