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
    import ray.data

    pages_dir = write_pages_parquet(
        str(tmp_path / "pages"), n_urls=25, seed=11, rows_per_file=10
    )
    pages = ray.data.read_parquet(
        pages_dir, columns=["url", "warc_ts", "lang", "html", "text"]
    )
    out_dir = str(tmp_path / "bootstrap")
    manifest = create_training_pairs(pages, out_dir).take_all()

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
    import ray.data

    pages_dir = write_pages_parquet(
        str(tmp_path / "pages"), n_urls=5, seed=3, rows_per_file=5
    )
    pages = ray.data.read_parquet(
        pages_dir, columns=["url", "warc_ts", "lang", "html", "text"]
    )
    out_dir = str(tmp_path / "bootstrap")
    first = create_training_pairs(pages, out_dir).take_all()
    snap = {
        r["tei_path"]: open(r["tei_path"], encoding="utf-8").read()
        for r in first
    }
    second = create_training_pairs(pages, out_dir).take_all()
    assert {r["stem"] for r in first} == {r["stem"] for r in second}
    for path, content in snap.items():
        assert open(path, encoding="utf-8").read() == content


def test_create_training_body_and_blank_variants(ray_session, tmp_path):
    import ray.data

    from datacat_ray.stages.tei import parse_segmenter_tei

    pages_dir = write_pages_parquet(
        str(tmp_path / "pages"), n_urls=8, seed=21, rows_per_file=8
    )
    pages = ray.data.read_parquet(
        pages_dir, columns=["url", "warc_ts", "lang", "html", "text"]
    )
    # body (labeled): raw = token features, TEI = entry-tagged body
    out_b = str(tmp_path / "body")
    mb = create_training_pairs(
        pages, out_b, model="body"
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
        pages, out_s, blank=True
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
        pages, out_bb, model="body", blank=True
    ).take_all()
    assert all(r["error"] is None for r in mbb)
    r = next(r for r in mbb if r["n_lines"] > 0)
    assert r["tei_path"].endswith(
        ".training.bodySegmentation.datacat.text.blank.tei.xml")
    tei = open(r["tei_path"], encoding="utf-8").read()
    assert "<entry>" not in tei and "<note" not in tei
