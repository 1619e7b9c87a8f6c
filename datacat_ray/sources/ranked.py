"""The read side of the keep-latest rule (``stages/dedup.py``): file
sources whose read tasks know each file's rank, the index of the file in
the list the key pass ranked, and the ordinal of each row they read, so
they keep only each url's winning capture by its position
(``dedup.winner_keep``) when ``winners`` holds a ``dedup.winner_set``."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.datasource import FileBasedDatasource

from datacat_ray.stages.dedup import winner_keep

_ROWS_PER_BATCH = 1024


class RankedDatasource(FileBasedDatasource):
    """The base of ``ParquetFragments`` and ``sources.warc.WarcDatasource``:
    the ``winners`` slot and the rank lookup."""

    _FILE_EXTENSIONS = None  # accept any listed path
    winners = None
    _ranks = None

    def _rank(self, path: str) -> int:
        if self._ranks is None:
            self._ranks = {p: i for i, p in enumerate(self._paths())}
        return self._ranks[path]


class ParquetFragments(RankedDatasource):
    """The fragments of a ``dedup.list_fragments`` listing as a Dataset of
    their ``columns``, each read by ``read_fragment``."""

    columns = None  # the columns read out, None: all

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
