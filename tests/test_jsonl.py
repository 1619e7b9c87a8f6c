"""JSONL documents source/sink round-trip + operator applicability."""


def test_jsonl_roundtrip_and_ops(ray_session, tmp_path):
    import pyarrow as pa

    from datacat_ray.sources.jsonl import (
        documents_parquet_to_jsonl,
        read_documents_jsonl,
    )

    out = str(tmp_path / "jsonl")
    documents_parquet_to_jsonl("/root/testdata/sf0.001", out)
    ds = read_documents_jsonl(out)
    rows = ds.take_all()
    assert len(rows) == 500

    import pyarrow.parquet as pq

    want = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    want_map = dict(zip(want["doc_id"].to_pylist(), want["text"].to_pylist()))
    got_map = {r["doc_id"]: r["text"] for r in rows}
    assert got_map == want_map  # text survives JSON round-trip byte-exactly

    # the per-batch text kernels run over the JSONL-sourced Dataset directly
    from datacat_ray.pipelines.text_analysis import _TOKENS, _doc_columns

    counts = ds.map_batches(
        _doc_columns(_TOKENS), batch_format="pyarrow").take_all()
    assert len(counts) == 500 and all(c["n_tokens"] >= 0 for c in counts)


def test_jsonl_missing_fields_null_filled(ray_session, tmp_path):
    import json

    from datacat_ray.sources.jsonl import read_documents_jsonl

    p = tmp_path / "part.jsonl"
    p.write_text(
        json.dumps({"doc_id": 1, "text": "hello world"}) + "\n"
        + json.dumps({"doc_id": 2, "text": "two words here", "extra": 5}) + "\n"
    )
    rows = sorted(read_documents_jsonl(str(p)).take_all(),
                  key=lambda r: r["doc_id"])
    assert rows[0]["lang"] is None and rows[0]["n_chars"] == 11
    assert rows[1]["n_chars"] == 14 and "extra" not in rows[1]
