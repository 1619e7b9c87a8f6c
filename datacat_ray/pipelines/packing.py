"""Sequence packing: assign documents to fixed-length training sequences.

The GPT-style pretraining layout concatenates the token stream of all
documents in a fixed global order (doc_id) and slices it into ``seq_len``-
token sequences; each document's placement is fully determined by the
EXCLUSIVE prefix sum of token counts over all earlier documents. This is
the one training-data op whose result depends on a *global scan*, so its
distributed shape matters more than most. It is ``bucketed.running_sum``
(shared with ``text_analysis.deterministic_shuffle`` and
``token_budget_head``) over:

- **Count pass** (narrow): tokenize each doc once, emit
  ``(doc_id, n_tokens, __bucket)`` where the bucket is a CONTIGUOUS
  doc_id range (``doc_id * P // (max_id + 1)`` — range partitioning, not
  hash, because prefix order must be preserved across buckets; P is
  ``bucketed.DEFAULT_BUCKETS``). Max doc_id comes from parquet row-group
  statistics — metadata only, no data read. The narrow count table is
  materialized, so the text is tokenized exactly once.
- **Bucket subtotals, exclusive scan on the driver** — P numbers, O(P)
  work regardless of corpus size.
- **Placement pass**: one shuffle of the narrow counts on ``__bucket``,
  then a vectorized per-bucket kernel (sort by doc_id, ``np.cumsum``, add
  the bucket's scan offset). O(P) Python calls.

The reference has no packing op (its corpus loop is one-file-one-doc,
``EngineDatacat.java:135-144``); this is part of the beyond-reference
LLM-pipeline family (driver query ``pack_sequences``, DuckDB window-sum
oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from datacat_ray.stages import bucketed

DEFAULT_SEQ_LEN = 2048


def max_doc_id(path: str, column: str = "doc_id") -> int:
    """Max of an int column from parquet row-group statistics (metadata
    pages only — nothing is decoded). Falls back to a narrow scan if a
    writer omitted statistics."""
    import pyarrow.parquet as pq

    from datacat_ray.stages.dedup import list_fragments

    best: int | None = None
    for f in list_fragments(path):
        md = pq.ParquetFile(f).metadata
        idx = md.schema.to_arrow_schema().get_field_index(column)
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                import pyarrow.dataset as pads

                t = pads.dataset(files, format="parquet").to_table(
                    columns=[column])
                return int(pc.max(t[column]).as_py())
            best = st.max if best is None else max(best, st.max)
    if best is None:
        raise ValueError(f"no rows found for max({column}) under {path}")
    return int(best)


def pack_sequences(
    sf_dir: str, seq_len: int = DEFAULT_SEQ_LEN
) -> "ray.data.Dataset":
    """(doc_id, n_tokens, chunk_id, chunk_pos): each doc's target training
    sequence (``chunk_id``) and token offset within it (``chunk_pos``)
    under concat-and-slice packing in doc_id order at ``seq_len`` tokens
    per sequence. Token counts use the whitespace tokenizer shared with
    ``token_count`` (identical to the oracle's regexp split)."""
    from datacat_ray.pipelines.text_analysis import ascii_tokens

    path = f"{sf_dir}/documents.parquet"
    hi = max_doc_id(path)
    n_buckets = bucketed.DEFAULT_BUCKETS

    def _count(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        counts = np.fromiter(
            (len(ascii_tokens(x)) for x in t["text"].to_pylist()),
            dtype=np.int64, count=t.num_rows,
        )
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(counts, pa.int64()),
                # contiguous doc-id ranges: order-preserving across buckets
                "__bucket": pa.array(
                    (ids * n_buckets // (hi + 1)).astype(np.int32)),
            }
        )

    def _place(t: pa.Table, cum: np.ndarray) -> pa.Table:
        before = cum - t["n_tokens"].to_numpy()  # exclusive prefix sum
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "chunk_id": pa.array(before // seq_len, pa.int64()),
                "chunk_pos": pa.array(before % seq_len, pa.int64()),
            }
        )

    counts = ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(_count, batch_format="pyarrow")
    return bucketed.running_sum(counts, n_buckets, "n_tokens", ["doc_id"],
                                _place)


def pack_sequences_sql(seq_len: int = DEFAULT_SEQ_LEN) -> str:
    return rf"""
        WITH t AS (
            SELECT doc_id,
                   len(list_filter(
                       regexp_split_to_array(coalesce(text, ''), '\s+'),
                       x -> x <> '')) AS n_tokens
            FROM documents
        ), c AS (
            SELECT doc_id, n_tokens,
                   COALESCE(SUM(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS before
            FROM t
        )
        SELECT doc_id, n_tokens,
               CAST(before // {seq_len} AS BIGINT) AS chunk_id,
               CAST(before % {seq_len} AS BIGINT)  AS chunk_pos
        FROM c
    """
