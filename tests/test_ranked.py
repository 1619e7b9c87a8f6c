"""The run cut the flagship jobs share (``sources/ranked._runs``) and the
row counts it cuts by (``winner_rows``)."""

from __future__ import annotations

import numpy as np

from datacat_ray.sources.ranked import _runs, winner_rows


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
