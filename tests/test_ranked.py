"""The run read every flagship shares (``sources/ranked.slices`` under
``read_runs``), the run cut (``_runs``) and the row counts it cuts by
(``winner_rows``)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from datacat_ray.sources.ranked import _runs, slices, winner_rows


def test_run_cut():
    """A run closes once it holds the slice width; a CPU floor halves the
    largest runs until there is a run per core; runs are consecutive and
    cover every partition once."""
    assert _runs([25] * 7, 128, 1) == [[0, 1, 2, 3, 4, 5], [6]]
    assert _runs([300, 5, 5], 128, 1) == [[0], [1, 2]]
    assert _runs([], 128, 0) == []
    for rows in ([25] * 7, [300, 5, 5, 40, 1, 90], [1] * 20, [200] * 3):
        for floor in range(len(rows) + 1):
            runs = _runs(rows, 128, floor)
            assert [i for run in runs for i in run] == list(range(len(rows)))
            assert len(runs) >= floor
    assert _runs([25] * 7, 128, 7) == [[i] for i in range(7)]
    assert len(_runs([25] * 7, 128, 4)) == 4
    # no run without rows: a zero-row tail joins the run before it, and
    # the CPU floor does not split off a half without rows
    assert _runs([128, 0], 128, 1) == [[0, 1]]
    assert _runs([100, 0, 0], 128, 2) == [[0, 1, 2]]
    assert _runs([0, 0], 128, 2) == [[0, 1]]
    assert _runs([0, 128, 0, 5], 128, 2) == [[0, 1], [2, 3]]


def test_runs_cut_by_winners(ray_session):
    """A driver winner set sizes each file by its winners (the ranks of
    the broadcast positions), so stale captures do not close a run; no
    winner set, or a bucketed one, sizes it by its input rows."""
    rows = [30, 30, 30, 30, 30, 30, 30]
    winners = [22, 0, 25, 18, 20, 24, 19]  # 128 in all
    pos = np.sort(np.concatenate([(np.int64(r) << 32) + np.arange(n)
                                  for r, n in enumerate(winners)]))
    probe = ("driver", ray_session.put(pos))
    assert winner_rows(probe, rows) == winners
    assert _runs(winner_rows(probe, rows), 128, 1) == [list(range(7))]
    assert _runs(rows, 128, 1) == [[0, 1, 2, 3, 4], [5, 6]]
    assert winner_rows(None, rows) == rows
    assert winner_rows(("bucketed", "/nonexistent"), rows) == rows
    # a file past the last winner's rank still gets its zero
    assert winner_rows(("driver", ray_session.put(pos[:22])), rows) == [
        22, 0, 0, 0, 0, 0, 0]


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.lists(st.integers(0, 40), max_size=4), max_size=8),
       width=st.integers(1, 200))
def test_slices_property(sizes, width):
    """Files of tables of any sizes, empty ones included: the slices
    concatenate to the input in order, hold ``width`` rows but the last
    (at most ``width``), count each file's rows, and report every file
    done exactly once, after its last row."""
    tables = [[pa.table({"f": [i] * n, "r": range(n)}) for n in file]
              for i, file in enumerate(sizes)]
    files = [(rank, f"file-{rank}") for rank in range(len(sizes))]
    got = list(slices(files, lambda rank, path: iter(tables[rank]), width))
    rows = [(i, r) for i, file in enumerate(sizes) for n in file
            for r in range(n)]
    assert [(d["f"], d["r"]) for pages, _, _ in got
            for d in pages.to_pylist()] == rows
    assert all(pages.num_rows == width for pages, _, _ in got[:-1])
    assert got[-1][0].num_rows <= width
    seen = [0] * len(sizes)
    done = []
    for pages, counts, finished in got:
        assert list(counts) == sorted({d["f"] for d in pages.to_pylist()})
        for i, n in counts.items():
            assert i not in done
            seen[i] += n
        done.extend(finished)
    assert seen == list(map(sum, sizes))
    assert done == list(range(len(sizes)))


def test_dataset_runs_read_no_file_without_rows(ray_session):
    """``read_runs`` does not read a file of size 0, but for the first of
    a run without rows, which types the run's empty slice."""
    from datacat_ray.sources.ranked import read_runs

    def read(rank, path):  # one row naming each file read
        yield pa.table({"path": [path]})

    def paths(sizes):
        files = [f"f{i}" for i in range(len(sizes))]
        return sorted(r["path"] for r in read_runs(
            files, read, sizes, 128).take_all())

    assert paths([0, 3, 0, 2]) == ["f1", "f3"]
    assert paths([0, 0]) == ["f0"]


def _pages(tmp_path) -> str:
    """130 urls with stale captures among them, in 7 fragments."""
    from datacat_ray.fixtures import make_pages_table, write_pages_parquet

    n = make_pages_table(130, 3).num_rows
    return write_pages_parquet(str(tmp_path / "pages"), n_urls=130, seed=3,
                               rows_per_file=-(-n // 7))


def test_parquet_flagship_plan_is_one_operator_a_task_per_run(
        ray_session, tmp_path, monkeypatch):
    """``extract_pages`` and ``create_training_pairs`` execute as one
    operator each: the kernel map fused into the run reads, with no
    ``SplitBlocks``, one task per run."""
    from datacat_ray.pipelines.create_training import create_training_pairs
    from datacat_ray.pipelines.extract import extract_pages
    from datacat_ray.sources import ranked as R

    pages = _pages(tmp_path)
    assert len(os.listdir(pages)) == 7
    for runs, cut in ((4, R._runs),  # the CPU floor: a run per core
                      (1, lambda rows, width, floor: [
                          list(range(len(rows)))])):
        monkeypatch.setattr(R, "_runs", cut)
        for ds, fn in ((extract_pages(pages), "_fused_task"),
                       (create_training_pairs(pages, str(tmp_path / "ex")),
                        "_export_task")):
            stats = ds.materialize().stats()
            ops = [ln for ln in stats.splitlines()
                   if ln.startswith("Operator ")]
            assert len(ops) == 1 and ops[0].startswith(
                f"Operator 1 ReadRuns->MapBatches({fn}): {runs} tasks "
                "executed,"), stats
            assert "SplitBlocks" not in stats


def test_parquet_kernel_calls_are_bounded_by_the_batch_size(
        ray_session, tmp_path, monkeypatch):
    """With ``segmenter.batch_size`` 7, ``extract_pages`` reaches the
    kernel in calls of at most 7 rows, and all 13 columns equal the part
    files of ``run_extract_job`` over the same pages."""
    import dataclasses

    import pyarrow.parquet as pq

    import datacat_ray.pipelines.extract as extract
    from datacat_ray.config import PipelineConfig
    from datacat_ray.pipelines.extract import RESULT_SCHEMA, extract_pages
    from datacat_ray.state.manifest import run_extract_job

    pages = _pages(tmp_path)
    log = str(tmp_path / "widths.txt")
    fused = extract._fused_task

    def counted(batch, **kw):
        with open(log, "a") as fh:
            fh.write(f"{batch.num_rows}\n")
        return fused(batch, **kw)

    cfg = PipelineConfig()
    cfg7 = dataclasses.replace(cfg, segmenter=dataclasses.replace(
        cfg.segmenter, batch_size=7))
    # ``counted`` ships ``fused`` by value with the globals it reads: an
    # empty stage cache, not the stages earlier in-process runs left here
    monkeypatch.setattr(extract, "_TASK_STAGE_CACHE", {})
    monkeypatch.setattr(extract, "_fused_task", counted)
    narrow = extract_pages(pages, cfg7).take_all()
    with open(log) as fh:
        widths = [int(x) for x in fh.read().split()]
    assert max(widths) <= 7 and sum(widths) == 130
    monkeypatch.setattr(extract, "_fused_task", fused)

    out = str(tmp_path / "job")
    run_extract_job(pages, out)
    job = [r for f in sorted(os.listdir(out)) if f.endswith(".parquet")
           for r in pq.read_table(os.path.join(out, f)).to_pylist()]
    assert len(narrow) == 130
    assert sorted(narrow, key=lambda r: r["url"]) == sorted(
        job, key=lambda r: r["url"])
    assert list(narrow[0]) == RESULT_SCHEMA.names
