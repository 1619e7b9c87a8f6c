"""The one run read under every flagship. A run is consecutive input files
(parquet fragments or WARC segments) ranked by their index in the key
pass's listing; ``slices`` reads them through a per-file winner reader
(``read_fragment`` or ``sources/warc.segment_winners``, both filtering by
``dedup.winner_keep``) into pages slices of ``segmenter.batch_size`` rows.
The parquet job (``state/manifest._run_partitions``) runs it in its
tasks; ``read_runs``, a Dataset of one task per run, feeds
``extract_pages``, ``create_training_pairs`` and ``extract_pages_warc``.
The run cut is ``_runs`` over ``winner_rows``."""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

import ray

from datacat_ray.stages.dedup import winner_keep

_ROWS_PER_BATCH = 1024
_FILE = "__file"  # the index in its run of the file a row came from


def read_fragment(rank: int, path: str, probe,
                  columns: list[str] | None = None):
    """The one per-fragment parquet read, the reader of parquet runs: the
    ``rank``-th fragment ``path`` streamed one record batch at a time (a
    table each, maybe empty, the first one typed and empty), with only the
    rows that are their url's winner in ``probe`` (None: every row) and
    only ``columns`` (default all)."""
    pf = pq.ParquetFile(path)
    yield pf.schema_arrow.empty_table().select(
        columns or pf.schema_arrow.names)
    start = 0
    for rb in pf.iter_batches(_ROWS_PER_BATCH, columns=columns):
        t = pa.Table.from_batches([rb])
        if probe is not None:
            t = t.filter(pa.array(winner_keep(rank, start, rb.num_rows,
                                              probe)))
        start += rb.num_rows
        yield t


def slices(files: list[tuple[int, str]], read, width: int):
    """The one run read: a run's ``files``, (rank, path) each, through
    ``read(rank, path)`` (yields the file's winners as tables), as slices
    (``pages``, ``counts``, ``done``): ``pages`` is ``width`` rows across
    file boundaries, the last slice the rest (empty only in a run without
    rows, then typed like the tables read); ``counts`` maps each file
    index in ``pages`` to its rows, in row order; ``done`` ranges over the
    files whose last row has now left, each file (an empty one too) once."""
    rest = pa.table({_FILE: pa.array([], pa.int32())})  # rows not yet out
    out = 0  # files reported done

    def cut(n: int, read_to: int) -> tuple:
        """The first ``n`` rows; the files before ``read_to`` are read."""
        nonlocal rest, out
        pages, rest = rest.slice(0, n), rest.slice(n)
        ids, rows = np.unique(pages[_FILE].to_numpy(), return_counts=True)
        first, out = out, min(read_to, rest[_FILE][0].as_py()
                              if rest.num_rows else read_to)
        return (pages.drop_columns([_FILE]),
                dict(zip(ids.tolist(), rows.tolist())), range(first, out))

    for i, (rank, path) in enumerate(files):
        for t in read(rank, path):
            rest = pa.concat_tables([rest, t.append_column(
                _FILE, pa.array(np.full(t.num_rows, i, np.int32)))],
                promote_options="default")
            while rest.num_rows > width:  # the last slice is never empty
                yield cut(width, i)
    yield cut(rest.num_rows, len(files))


def _run_pages(files: list[tuple[int, str]], read, width: int):
    """The read task of one run: the pages of its ``slices``."""
    return (pages for pages, _, _ in slices(files, read, width))


class Runs(Datasource):
    """One read task per run's read function in ``reads`` (yields Arrow
    tables): with ``override_num_blocks=len(reads)`` there is no
    ``SplitBlocks``, so a ``map_batches`` without ``batch_size`` fuses in."""

    def __init__(self, reads: list) -> None:
        self._reads = reads

    def estimate_inmemory_data_size(self) -> None:
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        meta = BlockMetadata(num_rows=None, size_bytes=None,
                             input_files=None, exec_stats=None)
        return [ReadTask(read, meta) for read in self._reads]


def read_runs(files: list[str], read, sizes: list[int],
              width: int) -> "ray.data.Dataset":
    """The flagship read as a Dataset: ``files`` cut into runs by ``sizes``
    (``_runs`` at ``width``, at least min(files, cluster CPUs) runs), one
    ``Runs`` task per run yielding its ``slices`` through ``read``. A file
    of size 0 is not read, but for the first of a run without rows, which
    types the run's one empty slice."""
    runs = _runs(sizes, width,
                 min(len(files), int(ray.cluster_resources()["CPU"])))
    reads = []
    for run in runs:
        run = [i for i in run if sizes[i]] or run[:1]
        reads.append(functools.partial(
            _run_pages, [(i, files[i]) for i in run], read, width))
    return ray.data.read_datasource(Runs(reads),
                                    override_num_blocks=len(reads))


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
    as lists of indexes: a run closes once it holds ``width`` rows, and a
    tail holding no rows joins the run before it. While there are fewer
    than ``floor`` runs (at most ``len(rows)``), the run of several inputs
    holding the most rows is halved, so a cluster keeps a task per core,
    unless a half would hold no rows: a run holds rows if any input does."""
    runs: list[list[int]] = []
    cur: list[int] = []
    n = 0
    for i, r in enumerate(rows):
        cur.append(i)
        n += r
        if n >= width:
            runs.append(cur)
            cur, n = [], 0
    if cur and runs and not n:
        runs[-1].extend(cur)
    elif cur:
        runs.append(cur)
    while len(runs) < floor:
        k = max((k for k, run in enumerate(runs) if len(run) > 1),
                key=lambda k: sum(rows[i] for i in runs[k]))
        half = len(runs[k]) // 2
        if not all(sum(rows[i] for i in h) for h in (runs[k][:half],
                                                      runs[k][half:])):
            break
        runs[k:k + 1] = [runs[k][:half], runs[k][half:]]
    return runs
