"""End-to-end cascade on the seeded fixture corpus (SURVEY.md §5):

- byte-identical ``extracted_text`` / ``tei`` / ``tei_body`` per url against
  the committed goldens (the reference's fixture-test analogue);
- per-url dedup: exactly one output row per unique url;
- determinism across parallelism: a second run with a different batch size
  produces identical bytes (single-host evidence for the north rule's
  cluster-size-independence).
"""

import os

import pyarrow.parquet as pq
import pytest

from datacat_ray.config import PipelineConfig, StageConfig
from datacat_ray.fixtures import write_pages_parquet
from datacat_ray.pipelines.extract import extract_pages

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "extract_smoke.parquet")
N_URLS, SEED = 60, 42


@pytest.fixture(scope="module")
def pages_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages"))
    write_pages_parquet(d, n_urls=N_URLS, seed=SEED, rows_per_file=17)
    return d


def _run(pages_dir, cfg=None):
    rows = extract_pages(pages_dir, cfg).take_all()
    rows.sort(key=lambda r: r["url"])
    return rows


@pytest.fixture(scope="module")
def result_rows(pages_dir):
    return _run(pages_dir)


def test_one_row_per_url(result_rows):
    urls = [r["url"] for r in result_rows]
    assert len(urls) == len(set(urls)) == N_URLS


def test_no_unexpected_errors(result_rows):
    for r in result_rows:
        if r["error"]:
            assert r["error"].startswith(("TOO_MANY_TOKENS", "TOO_MANY_BLOCKS")), r


def test_byte_identity_vs_golden(result_rows):
    golden = pq.read_table(GOLDEN).to_pylist()
    assert len(golden) == len(result_rows)
    for g, r in zip(golden, result_rows):
        assert g["url"] == r["url"]
        assert r["extracted_text"] == g["extracted_text"], r["url"]
        assert r["tei"] == g["tei"], r["url"]
        assert r["tei_body"] == g["tei_body"], r["url"]
        assert len(r["zones"]) == g["n_zones"]
        assert len(r["entries"]) == g["n_entries"]


def test_zone_spans_tile_token_stream(result_rows):
    for r in result_rows:
        zones = r["zones"]
        if not zones:
            continue
        assert zones[0]["start"] == 0
        assert zones[-1]["end"] == r["n_tokens"]
        for a, b in zip(zones, zones[1:]):
            assert a["end"] == b["start"]


def test_determinism_across_parallelism(pages_dir, result_rows):
    # the fused stage's batch size is also its lockstep CRF decode width
    cfg = PipelineConfig(
        segmenter=StageConfig(batch_size=5),
    )
    again = _run(pages_dir, cfg)
    for a, b in zip(result_rows, again):
        assert a["url"] == b["url"]
        assert a["extracted_text"] == b["extracted_text"]
        assert a["tei"] == b["tei"]
        assert a["tei_body"] == b["tei_body"]
        assert a["zones"] == b["zones"]
        assert a["entries"] == b["entries"]
        assert a["lexical"] == b["lexical"]


def test_page_range_limit(pages_dir):
    """O4: start/end-page slice (reference fromPdf start/end args). Page 0
    only → fewer tokens than the unbounded run, never more."""
    full = _run(pages_dir)
    limited = _run(pages_dir, PipelineConfig(start_page=0, end_page=0))
    by_url = {r["url"]: r for r in full}
    for r in limited:
        f = by_url[r["url"]]
        assert r["n_tokens"] <= f["n_tokens"]
        if f["n_lines"] > 40:  # doc spans multiple pseudo-pages (40 lines/page)
            assert r["n_lines"] <= 40


def test_features_debug_decodes_invalid_utf8_like_the_stage(ray_session,
                                                            monkeypatch):
    """``features_debug`` decodes html with the stage's rule (invalid bytes
    become U+FFFD): a row with an invalid byte yields the feature lines of
    its replaced text instead of failing the query, and a valid row's
    lines are unchanged."""
    import datetime

    import pyarrow as pa

    import datacat_ray.pipelines.queries as queries
    from datacat_ray.fixtures import PAGES_SCHEMA

    def page(body: bytes) -> bytes:
        return (b"<html><body><nav><a href='/'>Home</a></nav><h1>Vente du 3 mai"
                b" 1901</h1><p>12. Monnaies grecques: " + body
                + b" ; 5 pieces. AR.</p></body></html>")

    def debug_rows(htmls):
        n = len(htmls)
        table = pa.Table.from_pydict(
            {"url": [f"https://docs.example.org/{i}" for i in range(n)],
             "warc_ts": [datetime.datetime(2024, 1, 1)] * n,
             "html": htmls, "text": [None] * n, "lang": ["fr"] * n},
            schema=PAGES_SCHEMA)
        monkeypatch.setattr(queries, "pages_from_documents", lambda _: table)
        rows = queries.features_debug("unused").take_all()
        return sorted((r["doc_id"], r["line_id"], r["serialized"])
                      for r in rows)

    got = debug_rows([page(b"oboles"), page(b"ob\xffoles")])
    assert [r for r in got if r[0] == 0] == debug_rows([page(b"oboles")])
    replaced = debug_rows([page(b"oboles"), page("ob�oles".encode())])
    assert got == replaced and len(got) == 4
