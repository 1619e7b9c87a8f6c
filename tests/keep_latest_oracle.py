"""Polars reference of the keep-latest rule, the oracle of the row-set
property tests of both flagships (parquet and WARC input)."""

from __future__ import annotations


def latest_rows(captures: list[tuple]) -> set[tuple]:
    """The winning rows of ``captures``, (url, warc_ts, rank, ordinal)
    tuples of every capture the reader can read: per url the largest
    (warc_ts, file rank, ordinal in the file), a null warc_ts never
    winning (polars sorts nulls first)."""
    import polars as pl

    df = pl.DataFrame(captures, schema=["url", "ts", "rank", "idx"],
                      orient="row")
    return set(df.sort(["url", "ts", "rank", "idx"])
               .group_by("url", maintain_order=True).last().iter_rows())
