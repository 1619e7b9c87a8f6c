"""The read side of the keep-latest rule (``stages/dedup.py``): the parquet
fragment source whose read tasks know each file's rank, the index of the
file in the list the key pass ranked, and the ordinal of each row they
read, so they keep only each url's winning capture by its position
(``dedup.winner_keep``) when ``winners`` holds a ``dedup.winner_set``; the
one run cut of the flagship jobs (``_runs`` over ``winner_rows``), which
``state/manifest.run_extract_job`` and ``sources/warc.extract_pages_warc``
both use; and ``Runs``, the one-task-per-run read of the WARC flagship."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, FileBasedDatasource, ReadTask

import ray

from datacat_ray.stages.dedup import winner_keep

_ROWS_PER_BATCH = 1024


class ParquetFragments(FileBasedDatasource):
    """The fragments of a ``dedup.list_fragments`` listing as a Dataset of
    their ``columns``, each read by ``read_fragment``."""

    _FILE_EXTENSIONS = None  # accept any listed path
    columns = None  # the columns read out, None: all
    winners = None
    _ranks = None

    def _rank(self, path: str) -> int:
        if self._ranks is None:
            self._ranks = {p: i for i, p in enumerate(self._paths())}
        return self._ranks[path]

    def _open_input_source(self, filesystem, path, **open_args):
        return filesystem.open_input_file(path)  # parquet needs seeks

    def _read_stream(self, f, path):
        pf = pq.ParquetFile(f)
        empty = True
        for t in read_fragment(pf, self._rank(path), self.winners,
                               self.columns):
            if t.num_rows:
                empty = False
                yield t
        if empty:
            # a typed empty block, not none: a read task with no rows
            # still carries the Dataset's schema
            yield pf.schema_arrow.empty_table().select(
                self.columns or pf.schema_arrow.names)


def read_fragment(pf: pq.ParquetFile, rank: int, probe,
                  columns: list[str] | None = None):
    """The one per-fragment parquet read: the ``rank``-th fragment ``pf``
    streamed one record batch at a time (a table each, maybe empty), with
    only the rows that are their url's winner in ``probe`` (None: every
    row) and only ``columns`` (default all)."""
    start = 0
    for rb in pf.iter_batches(_ROWS_PER_BATCH, columns=columns):
        t = pa.Table.from_batches([rb])
        if probe is not None:
            t = t.filter(pa.array(winner_keep(rank, start, rb.num_rows,
                                              probe)))
        start += rb.num_rows
        yield t


class Runs(Datasource):
    """A Dataset read as one task per run: ``reads`` holds each run's read
    function (no arguments, yields Arrow tables). Read with
    ``override_num_blocks=len(reads)`` it stays one task per run, with no
    ``SplitBlocks``, so a ``map_batches`` without ``batch_size`` fuses into
    those tasks."""

    def __init__(self, reads: list) -> None:
        self._reads = reads

    def estimate_inmemory_data_size(self) -> None:
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        meta = BlockMetadata(num_rows=None, size_bytes=None,
                             input_files=None, exec_stats=None)
        return [ReadTask(read, meta) for read in self._reads]


def winner_rows(winners: tuple | None, rows: list[int]) -> list[int]:
    """The rows each input file sends to the kernel, the sizes ``_runs``
    cuts by: its winners when ``winners`` is a driver winner set (a
    ``np.bincount`` of the broadcast positions' ranks), else its input
    rows ``rows`` (no dedup, or a bucketed set, whose positions stay in
    their bucket files)."""
    if winners is None or winners[0] != "driver":
        return list(rows)
    ranks = ray.get(winners[1]) >> 32
    return np.bincount(ranks, minlength=len(rows)).tolist()


def _runs(rows: list[int], width: int, floor: int) -> list[list[int]]:
    """Cut consecutive inputs (``rows``: each one's row count) into runs,
    as lists of indexes: a run closes once it holds ``width`` rows. While
    there are fewer than ``floor`` runs (at most ``len(rows)``), the run
    of several inputs holding the most rows is halved, so a cluster keeps
    a task per core."""
    runs: list[list[int]] = []
    cur: list[int] = []
    n = 0
    for i, r in enumerate(rows):
        cur.append(i)
        n += r
        if n >= width:
            runs.append(cur)
            cur, n = [], 0
    if cur:
        runs.append(cur)
    while len(runs) < floor:
        k = max((k for k, run in enumerate(runs) if len(run) > 1),
                key=lambda k: sum(rows[i] for i in runs[k]))
        half = len(runs[k]) // 2
        runs[k:k + 1] = [runs[k][:half], runs[k][half:]]
    return runs
