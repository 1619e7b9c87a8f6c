"""Checkpoint manifest + resume semantics (SURVEY.md §5 resume test:
kill after partition k, resume from manifest, outputs identical)."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from datacat_ray.fixtures import write_pages_parquet
from datacat_ray.state.manifest import (
    completed_partitions,
    run_extract_job,
)


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    p = tmp_path_factory.mktemp("pages")
    write_pages_parquet(str(p), n_urls=60, seed=11, rows_per_file=20)
    return str(p)


def _read_all(out_dir: str) -> dict[str, str]:
    rows: dict[str, str] = {}
    for f in sorted(os.listdir(out_dir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(out_dir, f), columns=["url", "extracted_text"])
            rows.update(zip(t["url"].to_pylist(), t["extracted_text"].to_pylist()))
    return rows


def test_job_writes_partitions_and_manifest(ray_session, tmp_path, pages_dir):
    out = str(tmp_path / "out")
    summary = run_extract_job(pages_dir, out)
    assert summary["skipped"] == 0
    assert summary["processed"] == summary["partitions_total"] >= 2
    done = completed_partitions(out)
    assert len(done) == summary["partitions_total"]
    rec = done[0]
    # lineage record: inputs, counts, digests, versions all present
    for k in ("inputs", "rows_in", "rows_out", "rows_rejected", "output_bytes",
              "output_sha256_16", "engine_version", "model_hash", "wall_sec"):
        assert k in rec, k
    # one row per url across all parts (dedup happened)
    rows = _read_all(out)
    assert len(rows) == 60


def test_resume_skips_done_and_rebuilds_missing(ray_session, tmp_path, pages_dir):
    out = str(tmp_path / "out")
    first = run_extract_job(pages_dir, out)
    baseline = _read_all(out)
    n_parts = first["partitions_total"]

    # simulate crash: partition 1 fully lost (data + manifest), partition 2
    # torn (data written but manifest missing — rename happened, record not)
    os.unlink(os.path.join(out, "part-00001.parquet"))
    os.unlink(os.path.join(out, "_manifest", "part-00001.json"))
    os.unlink(os.path.join(out, "_manifest", "part-00002.json"))
    # and a torn tmp from a dying writer
    open(os.path.join(out, ".tmp.part-00001.parquet.999"), "w").close()

    second = run_extract_job(pages_dir, out)
    assert second["partitions_total"] == n_parts
    assert second["skipped"] == n_parts - 2
    assert second["processed"] == 2
    assert _read_all(out) == baseline  # byte-identical per url after resume
    assert not any(f.startswith(".tmp.") for f in os.listdir(out))


def test_two_runs_identical(ray_session, tmp_path, pages_dir):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_extract_job(pages_dir, out_a)
    run_extract_job(pages_dir, out_b)
    a, b = completed_partitions(out_a), completed_partitions(out_b)
    assert {k: v["output_sha256_16"] for k, v in a.items()} == {
        k: v["output_sha256_16"] for k, v in b.items()
    }


def test_fragments_per_part_grouping(ray_session, tmp_path, pages_dir):
    """Grouping 2 fragments per partition halves the partition count and
    produces the same row set."""
    import math

    from datacat_ray.stages.dedup import list_fragments

    n_frags = len(list_fragments(pages_dir))
    out = str(tmp_path / "grouped")
    s = run_extract_job(pages_dir, out, fragments_per_part=2)
    assert s["partitions_total"] == math.ceil(n_frags / 2) < n_frags
    assert len(_read_all(out)) == 60


def test_job_bucketed_winner_path_identical(ray_session, tmp_path, pages_dir):
    """Forcing the >driver-memory winner path (hash-bucketed winner parquet
    + per-worker filter) must produce byte-identical job output to the
    driver-dict path."""
    import pyarrow.parquet as pq
    import pytest

    from datacat_ray.stages import dedup as D

    out_a = str(tmp_path / "driver")
    out_b = str(tmp_path / "bucketed")
    run_extract_job(pages_dir, out_a)
    import unittest.mock as mock

    with mock.patch.object(D, "_DRIVER_WINNER_ROWS", 0):
        s = run_extract_job(pages_dir, out_b)
    assert (tmp_path / "bucketed" / "_winners" / "_BUILT_OK").exists()

    def rows(d):
        import os

        parts = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        t = pq.read_table([f"{d}/{p}" for p in parts])
        return sorted(zip(t["url"].to_pylist(), t["main_text"].to_pylist()))

    assert rows(out_a) == rows(out_b)
    assert s["rows_out"] > 0


def test_resume_refuses_config_change(ray_session, tmp_path, pages_dir):
    """The output dir is bound to its extraction-config identity: resuming
    with different tei_coordinates (or another model artifact) must fail
    loudly instead of mixing configs across partitions."""
    import pytest

    out = str(tmp_path / "out_cfg")
    run_extract_job(pages_dir, out)
    # same config resumes fine (no-op: everything done)
    s = run_extract_job(pages_dir, out)
    assert s["processed"] == 0
    with pytest.raises(ValueError, match="different extraction config"):
        run_extract_job(pages_dir, out, tei_coordinates=True)


def test_resume_refuses_other_caps(ray_session, tmp_path, pages_dir):
    """The token and block caps change output through the ``TOO_MANY_*``
    rejects, so resuming with other caps fails loudly; the default caps
    stamp nothing, so manifests written before the caps were stamped stay
    resumable."""
    out = str(tmp_path / "out_caps")
    run_extract_job(pages_dir, out)
    with open(os.path.join(out, "_manifest", "_JOB_CONFIG.json")) as fh:
        stamped = json.load(fh)
    assert "max_tokens" not in stamped and "max_blocks" not in stamped
    with pytest.raises(ValueError, match="different extraction config"):
        run_extract_job(pages_dir, out, max_tokens=50)
    with pytest.raises(ValueError, match="different extraction config"):
        run_extract_job(pages_dir, out, max_blocks=7)
    assert run_extract_job(pages_dir, out)["processed"] == 0


def test_body_corpus_loads_with_begin_states():
    """Trainer-path body corpora carry I- begin states so a deployed model
    can mark entry starts (body_label_runs splits only on I-)."""
    import os

    from datacat_ray.pipelines.reference_eval import REF_BODY, load_body_pairs

    if not os.path.isdir(REF_BODY):
        import pytest

        pytest.skip("reference checkout absent")
    flat = load_body_pairs("corpus", limit=2)
    iob = load_body_pairs("corpus", limit=2, begin_states=True)
    for (_, _, g_flat), (_, _, g_iob) in zip(flat, iob):
        assert len(g_flat) == len(g_iob)
        assert not any(lb.startswith("I-") for lb in g_flat)
        begins = [lb for lb in g_iob if lb.startswith("I-")]
        assert begins, "begin states must appear"
        # stripping I- recovers the flat labels exactly
        from datacat_ray.stages.crf import strip_begin_prefix

        assert [strip_begin_prefix(x) for x in g_iob] == g_flat


def test_model_hash_covers_all_three_models(monkeypatch):
    """The lineage hash changes with a lexical weight (the lexical level
    produces every part file's ``lexical`` column), and is computed once
    per process."""
    import dataclasses

    from datacat_ray.stages import models
    from datacat_ray.state.manifest import model_hash

    model_hash.cache_clear()
    base = model_hash()
    assert model_hash() == base and model_hash.cache_info().hits == 1
    lex = models.LEXICAL_MODEL
    changed = dataclasses.replace(
        lex, weights={**lex.weights, "Ulow:ar": {"<material>": 3.25}})
    monkeypatch.setattr(models, "LEXICAL_MODEL", changed)
    assert model_hash() == base  # cached for the process
    model_hash.cache_clear()
    try:
        assert model_hash() != base
    finally:
        monkeypatch.undo()
        model_hash.cache_clear()
    assert model_hash() == base
