"""Paragraph-level (segment) dedup: first corpus-wide occurrence wins,
later occurrences are cut from their documents (Dolma-style span removal
re-expressed over the newline-free fixture corpus; dedup_ops.paragraph_dedup)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datacat_ray.pipelines.dedup_ops import (
    PARA_W,
    _doc_segments,
    paragraph_dedup,
)


def _words(n, start=0):
    return " ".join(f"w{i}" for i in range(start, start + n))


def _write_docs(tmp_path, texts):
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["src0"] * len(texts)),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    return str(tmp_path)


def test_doc_segments_roundtrip():
    text = _words(2 * PARA_W + 3)  # last segment short
    segs = _doc_segments(text)
    assert len(segs) == 3
    assert " ".join(segs) == text


def test_paragraph_dedup(ray_session, tmp_path):
    base = _words(2 * PARA_W)  # segs A B
    texts = [
        base,                                   # doc0: keeps both
        _doc_segments(base)[0] + " " + _words(PARA_W, 100),  # doc1: A dup
        base,                                   # doc2: fully duplicate
    ]
    sf = _write_docs(tmp_path, texts)
    rows = {r["doc_id"]: r for r in paragraph_dedup(sf).take_all()}
    assert rows[0]["dedup_text"] == base and rows[0]["n_dropped"] == 0
    # doc1 loses its first segment (dup of doc0's A), keeps its unique tail
    assert rows[1]["dedup_text"] == _words(PARA_W, 100)
    assert rows[1]["n_dropped"] == 1 and rows[1]["n_segs"] == 2
    # doc2 is entirely duplicate → null text, all segments dropped
    assert rows[2]["dedup_text"] is None
    assert rows[2]["n_dropped"] == rows[2]["n_segs"] == 2


def test_paragraph_dedup_unique_corpus_identity(ray_session, tmp_path):
    texts = [_words(PARA_W * 2, 1000 * i) for i in range(4)]
    sf = _write_docs(tmp_path, texts)
    rows = {r["doc_id"]: r for r in paragraph_dedup(sf).take_all()}
    for i, text in enumerate(texts):
        assert rows[i]["dedup_text"] == text
        assert rows[i]["n_dropped"] == 0


def _sql_rows(sf):
    import duckdb

    from datacat_ray.pipelines.dedup_ops import PARAGRAPH_DEDUP_SQL

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    cur = con.execute(PARAGRAPH_DEDUP_SQL)
    names = [d[0] for d in cur.description]
    return {r[0]: dict(zip(names, r)) for r in cur.fetchall()}


def test_paragraph_dedup_drop_dir_matches_sql(ray_session, tmp_path):
    """An explicit drop_dir holds the decision buckets; the rows equal the
    SQL oracle, and a stale bucket file left in the dir by an earlier run
    is cleared instead of read."""
    base = _words(2 * PARA_W)
    texts = [
        base,
        _doc_segments(base)[0] + " " + _words(PARA_W, 100),
        base,
        _words(PARA_W * 3, 500),
    ]
    sf = _write_docs(tmp_path, texts)
    drop_dir = tmp_path / "drops"
    drop_dir.mkdir()
    # a leftover decision file dropping every segment of the unique doc 3,
    # in a bucket this run writes nothing to
    assert _bucket_of(3) not in {_bucket_of(1), _bucket_of(2)}
    pq.write_table(
        pa.Table.from_pydict({"doc_id": pa.array([3] * 3, pa.int64()),
                              "seg_id": pa.array([0, 1, 2], pa.int64())}),
        str(drop_dir / f"bucket-{_bucket_of(3):05d}.parquet"))
    rows = {r["doc_id"]: r
            for r in paragraph_dedup(sf, drop_dir=str(drop_dir)).take_all()}
    assert rows == _sql_rows(sf)
    assert rows[3]["dedup_text"] == texts[3]
    assert any(f.startswith("bucket-") for f in os.listdir(drop_dir))


def _bucket_of(doc_id):
    import numpy as np

    from datacat_ray.stages.bucketed import int_bucket_codes

    return int(int_bucket_codes(np.array([doc_id], np.int64))[0])


def test_paragraph_dedup_regenerated_corpus_gets_fresh_rows(ray_session,
                                                            tmp_path):
    """A corpus regenerated at the same path in one session is deduped
    afresh: cached drop sets of the first corpus (same drop dir) are not
    served for the second — in the workers and in this process's view of
    the same cache."""
    import time

    from datacat_ray.pipelines.dedup_ops import _load_drops
    from datacat_ray.stages.bucketed import read_bucket

    a = _words(2 * PARA_W)
    first = [a, a, _words(PARA_W, 300)]
    sf = _write_docs(tmp_path, first)
    drops = str(tmp_path / "drops")

    rows = {r["doc_id"]: r
            for r in paragraph_dedup(sf, drop_dir=drops).take_all()}
    assert rows[1]["dedup_text"] is None and rows[1]["n_dropped"] == 2
    assert read_bucket(drops, _bucket_of(1), _load_drops)[1] == {0, 1}
    time.sleep(0.01)  # the bucket-file identity reads mtime_ns
    second = [a, _words(2 * PARA_W, 900), a]
    _write_docs(tmp_path, second)
    rows = {r["doc_id"]: r
            for r in paragraph_dedup(sf, drop_dir=drops).take_all()}
    assert rows == _sql_rows(sf)
    assert rows[1]["dedup_text"] == second[1] and rows[1]["n_dropped"] == 0
    assert rows[2]["dedup_text"] is None
    assert 1 not in read_bucket(drops, _bucket_of(1), _load_drops)
    # the default drop dir (pid-keyed scratch) serves the same fresh rows
    assert {r["doc_id"]: r for r in paragraph_dedup(sf).take_all()} == rows
