"""Checkpoint manifest + resume semantics (SURVEY.md §5 resume test:
kill after partition k, resume from manifest, outputs identical)."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from datacat_ray.fixtures import write_pages_parquet
from datacat_ray.pipelines.extract import _fused_task as _FUSED_TASK
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


@pytest.fixture(scope="module")
def run_pages(tmp_path_factory):
    """Four fragments: 140 winners (more than one slice), 10 captures that
    are all stale (their urls' later captures are in fragment 2), 20
    winners of which one is a poison page, 15 winners."""
    import datetime

    import pyarrow as pa

    from datacat_ray.fixtures import PAGES_SCHEMA, make_pages_table

    latest = list({r["url"]: r for r in make_pages_table(
        175, seed=23).to_pylist()}.values())
    poison = next(i for i in range(140, 160) if latest[i]["html"])
    latest[poison]["html"] = latest[poison]["html"].replace(
        b"</body>", b"<p>POISON</p></body>")
    stale = [{**r, "warc_ts": r["warc_ts"] - datetime.timedelta(seconds=1),
              "html": b"<html><body><p>stale</p></body></html>"}
             for r in latest[140:150]]
    d = tmp_path_factory.mktemp("run_pages")
    for i, rows in enumerate((latest[:140], stale, latest[140:160],
                              latest[160:175])):
        pq.write_table(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA),
                       str(d / f"pages-{i:05d}.parquet"))
    return str(d)


class _InProcess:
    """Stands in for the run task: runs it in this process, so a test's
    hooks reach the kernel and the publication."""

    def remote(self, *args):
        import ray

        from datacat_ray.state import manifest

        return ray.put(manifest._run_partitions(*args))


_FIXED = ("inputs", "rows_in", "rows_out", "rows_rejected", "output",
          "output_bytes", "output_sha256_16", "engine_version", "model_hash")


def _outputs(out_dir: str) -> dict:
    """Each partition's record fields that do not depend on timing, and its
    part file's bytes."""
    res = {}
    for k, rec in completed_partitions(out_dir).items():
        with open(os.path.join(out_dir, rec["output"]), "rb") as fh:
            res[k] = ({f: rec[f] for f in _FIXED}, fh.read())
    return res


def _in_process(monkeypatch, cut, poison=True) -> list[int]:
    """Make ``run_extract_job`` cut its runs by ``cut`` (``_runs``'s
    signature) and run them in process; with ``poison``, a batch holding
    the poison page fails its line encode. Returns the list the width of
    every kernel call is appended to."""
    import datacat_ray.pipelines.extract as extract
    from datacat_ray.stages.line_features import line_codes
    from datacat_ray.state import manifest

    widths: list[int] = []

    def poisoned(lines, fields):
        if poison and any("POISON" in t for ls in lines for t in ls.text):
            raise RuntimeError("poisoned lines")
        return line_codes(lines, fields)

    def counted(batch, **kw):
        widths.append(batch.num_rows)
        return _FUSED_TASK(batch, **kw)

    monkeypatch.setattr(extract, "line_codes", poisoned)
    monkeypatch.setattr(extract, "_fused_task", counted)
    monkeypatch.setattr(manifest, "_run_task", _InProcess())
    monkeypatch.setattr(manifest, "_runs", cut)
    return widths


def _singletons(rows, width, floor):
    return [[i] for i in range(len(rows))]


def _one_run(rows, width, floor):
    return [list(range(len(rows)))]


def test_runs_do_not_move_outputs(ray_session, monkeypatch, tmp_path,
                                  run_pages):
    """Part files and records are the same whether every partition is its
    own run or all share one: a partition over the slice width is sliced,
    a partition of stale captures gets an empty part file with the result
    schema, the poison page costs only its own row, and a resume skips a
    run's middle partition without republishing it."""
    from datacat_ray.pipelines.extract import RESULT_SCHEMA
    from datacat_ray.state import manifest

    widths = _in_process(monkeypatch, _singletons)
    each = str(tmp_path / "each")
    assert run_extract_job(run_pages, each)["runs"] == 4
    assert widths == [128, 12, 20, 15]  # the stale partition runs nothing
    widths.clear()
    monkeypatch.setattr(manifest, "_runs", _one_run)
    one = str(tmp_path / "one")
    assert run_extract_job(run_pages, one)["runs"] == 1
    assert widths == [128, 47]  # slices cross partition boundaries
    assert _outputs(one) == _outputs(each)

    recs = completed_partitions(one)
    assert [recs[k]["rows_in"] for k in range(4)] == [140, 10, 20, 15]
    assert [recs[k]["rows_out"] for k in range(4)] == [140, 0, 20, 15]
    stale = pq.read_table(os.path.join(one, recs[1]["output"]))
    assert stale.num_rows == 0 and stale.schema.equals(RESULT_SCHEMA)

    # resume with partitions 0 and 2 lost: one run of them, 1 untouched
    kept = {k: os.stat(os.path.join(one, recs[k]["output"])).st_mtime_ns
            for k in (1, 3)}
    for k in (0, 2):
        os.unlink(os.path.join(one, recs[k]["output"]))
        os.unlink(os.path.join(one, "_manifest", f"part-{k:05d}.json"))
    widths.clear()
    s = run_extract_job(run_pages, one)
    assert (s["skipped"], s["processed"], s["runs"]) == (2, 2, 1)
    assert widths == [128, 32]
    assert _outputs(one) == _outputs(each)
    again = completed_partitions(one)
    for k in (1, 3):
        assert again[k] == recs[k]
        assert os.stat(os.path.join(one, recs[k]["output"])).st_mtime_ns \
            == kept[k]

    # the poison page costs its own row: every other row equals a clean run
    _in_process(monkeypatch, _one_run, poison=False)
    clean = str(tmp_path / "clean")
    run_extract_job(run_pages, clean)
    got = pq.read_table(os.path.join(one, recs[2]["output"])).to_pylist()
    want = pq.read_table(os.path.join(
        clean, recs[2]["output"])).to_pylist()
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(bad) == 1 and got[bad[0]]["error"] == (
        "RuntimeError: poisoned lines")
    assert (recs[2]["rows_rejected"]
            == completed_partitions(clean)[2]["rows_rejected"] + 1)


def test_a_run_in_a_ray_worker(ray_session, monkeypatch, tmp_path,
                               run_pages):
    """One run of every partition, in a Ray worker, publishes what a run
    per partition does in process."""
    from datacat_ray.state import manifest

    ray_out = str(tmp_path / "ray")
    monkeypatch.setattr(manifest, "_runs", _one_run)
    assert run_extract_job(run_pages, ray_out)["runs"] == 1
    _in_process(monkeypatch, _singletons, poison=False)
    each = str(tmp_path / "each")
    run_extract_job(run_pages, each)
    assert _outputs(ray_out) == _outputs(each)


def test_failure_drill_after_a_published_partition(ray_session, monkeypatch,
                                                   tmp_path, run_pages):
    """A run's task dies while publishing its second partition, after its
    first is published; a re-invoked job publishes each remaining
    partition once, skips the published one, leaves no ``.tmp.`` file,
    and ends with the bytes and records of a clean run."""
    import collections

    from datacat_ray.state import manifest

    _in_process(monkeypatch, _one_run)
    clean = str(tmp_path / "clean")
    run_extract_job(run_pages, clean)

    published: collections.Counter = collections.Counter()
    publish, write_table = manifest._publish, pq.write_table

    def counted(out_dir, part_id, *args):
        rec = publish(out_dir, part_id, *args)
        published[part_id] += 1
        return rec

    def dying(table, where, *args, **kwargs):
        write_table(table, where, *args, **kwargs)
        if published:  # the tmp file is written, the rename never happens
            raise RuntimeError("task killed")

    monkeypatch.setattr(manifest, "_publish", counted)
    monkeypatch.setattr(manifest.pq, "write_table", dying)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="task killed"):
        run_extract_job(run_pages, out)
    assert dict(published) == {0: 1}
    assert any(f.startswith(".tmp.") for f in os.listdir(out))

    monkeypatch.setattr(manifest.pq, "write_table", write_table)
    s = run_extract_job(run_pages, out)
    assert (s["skipped"], s["processed"]) == (1, 3)
    assert dict(published) == {0: 1, 1: 1, 2: 1, 3: 1}
    for d in (out, os.path.join(out, "_manifest")):
        assert not any(f.startswith(".tmp.") for f in os.listdir(d))
    assert _outputs(out) == _outputs(clean)


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
