"""Round-trip contract of the training-pair export command: export on
fixtures, re-ingest through the trainer's tolerant alignment, zero
invalid alignments (the reference's createTraining* workflow,
EngineDatacat.java:166-330)."""

from __future__ import annotations

import os

from datacat_ray.fixtures import write_pages_parquet
from datacat_ray.pipelines.create_training import (
    create_training_pairs,
    load_exported_pairs,
)


def test_create_training_roundtrip(ray_session, tmp_path):
    pages_dir = write_pages_parquet(
        str(tmp_path / "pages"), n_urls=25, seed=11, rows_per_file=10
    )
    out_dir = str(tmp_path / "bootstrap")
    manifest = create_training_pairs(pages_dir, out_dir).take_all()

    assert len(manifest) == 25
    assert all(r["error"] is None for r in manifest)
    # a nav-only page can legitimately strip to zero main-content lines;
    # the corpus as a whole must not
    assert sum(r["n_lines"] for r in manifest) > 0
    assert sum(1 for r in manifest if r["n_lines"] > 0) >= 20
    for r in manifest:
        assert os.path.exists(r["tei_path"])
        assert os.path.exists(r["raw_path"])
        # raw file: one 33-field line per layout line + trailing newline
        with open(r["raw_path"], encoding="utf-8") as fh:
            raw = fh.read()
        assert raw.endswith("\n")
        lines = [ln for ln in raw.split("\n") if ln]
        assert len(lines) == r["n_lines"]
        assert all(len(ln.split(" ")) == 33 for ln in lines)

    # re-ingest: every exported pair must align with ZERO invalid tokens —
    # the TEI and the raw features describe the same line sequence
    pairs = load_exported_pairs(out_dir)
    assert len(pairs) == 25
    for p in pairs:
        assert p["n_invalid"] == 0, p["stem"]
        assert len(p["aligned"]) == p["n_lines"]
        assert all(lb.startswith("<") for _, lb in p["aligned"])


def test_create_training_idempotent_rerun(ray_session, tmp_path):
    pages_dir = write_pages_parquet(
        str(tmp_path / "pages"), n_urls=5, seed=3, rows_per_file=5
    )
    out_dir = str(tmp_path / "bootstrap")
    first = create_training_pairs(pages_dir, out_dir).take_all()
    snap = {
        r["tei_path"]: open(r["tei_path"], encoding="utf-8").read()
        for r in first
    }
    second = create_training_pairs(pages_dir, out_dir).take_all()
    assert {r["stem"] for r in first} == {r["stem"] for r in second}
    for path, content in snap.items():
        assert open(path, encoding="utf-8").read() == content


def test_create_training_body_and_blank_variants(ray_session, tmp_path):
    from datacat_ray.stages.tei import parse_segmenter_tei

    pages_dir = write_pages_parquet(
        str(tmp_path / "pages"), n_urls=8, seed=21, rows_per_file=8
    )
    # body (labeled): raw = token features, TEI = entry-tagged body
    out_b = str(tmp_path / "body")
    mb = create_training_pairs(
        pages_dir, out_b, model="body"
    ).take_all()
    assert all(r["error"] is None for r in mb)
    labeled = [r for r in mb if r["n_lines"] > 0]
    assert labeled
    for r in labeled:
        assert r["raw_path"].endswith(".training.bodySegmentation.datacat.text")
        assert r["tei_path"].endswith(
            ".training.bodySegmentation.datacat.text.tei.xml")
        tei = open(r["tei_path"], encoding="utf-8").read()
        assert "<entry>" in tei or "<note" in tei or "<title" in tei
        raw = open(r["raw_path"], encoding="utf-8").read()
        n_feat_lines = len([ln for ln in raw.split("\n") if ln])
        assert n_feat_lines == r["n_lines"]

    # segmenter blank: TEI has the text but NO zone tags
    out_s = str(tmp_path / "seg_blank")
    ms = create_training_pairs(
        pages_dir, out_s, blank=True
    ).take_all()
    assert all(r["error"] is None for r in ms)
    r = next(r for r in ms if r["n_lines"] > 0)
    assert r["tei_path"].endswith(".training.datacat.blank.tei.xml")
    tei = open(r["tei_path"], encoding="utf-8").read()
    assert "<lb/>" in tei
    assert parse_segmenter_tei(tei) == []  # no zone tags to parse
    for z in ("<front>", "<body>", "<back>", "<annex>"):
        assert z not in tei

    # body blank: untagged body token stream
    out_bb = str(tmp_path / "body_blank")
    mbb = create_training_pairs(
        pages_dir, out_bb, model="body", blank=True
    ).take_all()
    assert all(r["error"] is None for r in mbb)
    r = next(r for r in mbb if r["n_lines"] > 0)
    assert r["tei_path"].endswith(
        ".training.bodySegmentation.datacat.text.blank.tei.xml")
    tei = open(r["tei_path"], encoding="utf-8").read()
    assert "<entry>" not in tei and "<note" not in tei


def test_create_training_cli_exports_each_urls_latest_capture(
        ray_session, tmp_path, capsys):
    """``create-training`` over captures of a url split across fragments:
    exactly one exported pair per url, whose raw and TEI files come from
    its latest capture; a same-``warc_ts`` tie across fragments goes to
    the later fragment, the flagship rule."""
    import datetime
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datacat_ray.cli import main
    from datacat_ray.fixtures import PAGES_SCHEMA
    from datacat_ray.stages.tei import doc_id

    d = datetime.datetime
    fragments = [
        [("https://x.org/a", d(2020, 1, 1), "Stale alpha page"),
         ("https://x.org/b", d(2020, 1, 5), "Latest bravo page"),
         ("https://x.org/c", d(2020, 1, 2), "Earlier charlie page")],
        [("https://x.org/a", d(2020, 1, 3), "Latest alpha page"),
         ("https://x.org/b", d(2020, 1, 4), "Stale bravo page"),
         ("https://x.org/c", d(2020, 1, 2), "Later charlie page")],
        [("https://x.org/a", d(2020, 1, 2), "Middle alpha page")],
    ]
    pages = tmp_path / "pages"
    pages.mkdir()
    for i, rows in enumerate(fragments):
        pq.write_table(pa.Table.from_pydict(
            {"url": [r[0] for r in rows], "warc_ts": [r[1] for r in rows],
             "html": [None] * len(rows), "text": [r[2] for r in rows],
             "lang": ["fr"] * len(rows)}, schema=PAGES_SCHEMA),
            str(pages / f"part-{i}.parquet"))
    out = tmp_path / "bootstrap"

    assert main(["create-training", str(pages), str(out)]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])[
        "n_docs"] == 3
    want = {"https://x.org/a": "Latest alpha page",
            "https://x.org/b": "Latest bravo page",
            "https://x.org/c": "Later charlie page"}
    assert sorted(os.listdir(out / "tei")) == sorted(
        f"{doc_id(u)}.training.datacat.tei.xml" for u in want)
    assert sorted(os.listdir(out / "raw")) == sorted(
        f"{doc_id(u)}.training.datacat" for u in want)
    for url, text in want.items():
        tei = (out / "tei" / f"{doc_id(url)}.training.datacat.tei.xml"
               ).read_text(encoding="utf-8")
        raw = (out / "raw" / f"{doc_id(url)}.training.datacat"
               ).read_text(encoding="utf-8")
        assert text in tei
        assert [ln.split(" ")[0] for ln in raw.splitlines()] == [
            text.split(" ")[0]]


def test_create_training_files_equal_the_per_document_value_path(
        monkeypatch, tmp_path):
    """All four exports (segmenter and body, labeled and blank) of one
    batch write, for every page, the files of the per-document value path
    (value columns, string-path decode, the TEI assemblers). A poison row
    gets one error manifest row and writes nothing; a page over the
    extraction's token cap still exports."""
    import random

    import pyarrow as pa
    from export_oracle import training_pair

    import datacat_ray.pipelines.extract as extract
    from datacat_ray.config import PipelineConfig
    from datacat_ray.fixtures import PAGES_SCHEMA, make_catalogue_html
    from datacat_ray.pipelines.create_training import TrainingExportStage
    from datacat_ray.stages.dom import parse_main_blocks
    from datacat_ray.stages.tei import doc_id
    from datacat_ray.stages.tokenizer import tokenize_document

    line_codes = extract.line_codes

    def poisoned_lines(lines, fields):
        if any("POISON" in t for ls in lines for t in ls.text):
            raise RuntimeError("poisoned lines")
        return line_codes(lines, fields)

    monkeypatch.setattr(extract, "line_codes", poisoned_lines)
    rng = random.Random(17)

    def page(extra: str = "", n: int = 6) -> bytes:
        html, _ = make_catalogue_html(rng, n_entries=n)
        return html.replace("</body>", f"<p>{extra}</p></body>").encode()

    big = page(n=1500)
    _, plain = make_catalogue_html(rng, n_entries=4)
    rows = [(page(), None), (page("POISON"), None), (big, None),
            (None, plain), (None, None), (page(n=9), None)]
    batch = pa.Table.from_pydict(
        {"url": [f"https://x.org/{i}" for i in range(len(rows))],
         "warc_ts": [None] * len(rows), "html": [h for h, _ in rows],
         "text": [t for _, t in rows], "lang": ["fr", "en", None, "fr",
                                                "fr", "fr"]},
        schema=PAGES_SCHEMA)
    _, big_tokens, _ = tokenize_document(parse_main_blocks(big.decode()))
    assert len(big_tokens) > PipelineConfig().max_tokens

    for model in ("segmenter", "body"):
        for blank in (False, True):
            out = tmp_path / f"{model}_{blank}"
            got = TrainingExportStage(str(out), model, blank)(batch)
            want: dict[str, str] = {}
            for i, r in enumerate(got.to_pylist()):
                assert r["url"] == f"https://x.org/{i}"
                assert r["stem"] == doc_id(r["url"])
                if i == 1:
                    assert (r["tei_path"], r["raw_path"], r["n_lines"],
                            r["error"]) == ("", "", 0,
                                            "RuntimeError: poisoned lines")
                    continue
                files = training_pair(r["url"], batch["lang"][i].as_py(),
                                      *rows[i], model, blank)
                want.update(files)
                tei, raw = files
                n_lines = sum(1 for ln in files[raw].split("\n") if ln)
                assert (r["tei_path"], r["raw_path"], r["n_lines"],
                        r["error"]) == (str(out / tei), str(out / raw),
                                        n_lines, None)
            written = {str(p.relative_to(out)): p.read_text(encoding="utf-8")
                       for p in out.rglob("*") if p.is_file()}
            assert written.keys() == want.keys(), (model, blank)
            for name, content in want.items():
                assert written[name] == content, (model, blank, name)


def test_labeled_body_export_encodes_body_tokens_once(monkeypatch, tmp_path):
    """A labeled body export encodes a batch's body tokens once: the body
    level's emissions and the raw files read the same ``body_codes`` call
    (all 24 token fields), and the files still equal the per-document
    value path."""
    import pyarrow as pa
    from export_oracle import training_pair

    import datacat_ray.pipelines.create_training as ct
    import datacat_ray.pipelines.extract as extract
    from datacat_ray.fixtures import make_pages_table

    calls = []
    body_codes = extract.body_codes

    def counted(*args):
        calls.append(len(args[0]))
        return body_codes(*args)

    monkeypatch.setattr(extract, "body_codes", counted)
    monkeypatch.setattr(ct, "body_codes", counted)
    pages = make_pages_table(6, seed=4)
    latest = {r["url"]: r for r in pages.to_pylist()}  # one page per url
    batch = pa.Table.from_pylist(
        [r for r in latest.values() if r["html"] is not None][:5],
        schema=pages.schema)
    assert len(batch) >= 3
    out = tmp_path / "body"
    got = ct.TrainingExportStage(str(out), "body", False)(batch).to_pylist()
    assert calls == [len(batch)]
    assert all(r["error"] is None for r in got)
    for r, page in zip(got, batch.to_pylist()):
        files = training_pair(page["url"], page["lang"], page["html"],
                              page["text"], "body", False)
        for name, content in files.items():
            assert (out / name).read_text(encoding="utf-8") == content
