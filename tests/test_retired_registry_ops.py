"""Oracle parity for operators retired from the driver registry by the
slot-50 budget (consolidated into token_counts / top_grams / doc_profile
or redundant with a surviving entry), and for the registry entries of the
text ops (``text_analysis`` and ``packing``). Retirement must not lose
correctness coverage: every retired op is still compared against its
DuckDB oracle here, at sf0.001, with the driver's compare semantics
(sort columns by name, sort rows, exact values)."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from datacat_ray.pipelines import packing, text_analysis
from datacat_ray.pipelines.queries import (
    build_oracle_sql,
    build_queries,
    build_retired_oracles,
)

SF = "/root/testdata/sf0.001"
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def _to_df(res) -> pd.DataFrame:
    # pa.Table and ray Dataset both expose to_pandas()
    return res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    yield c
    c.close()


def _assert_matches(con, name, fn, sql):
    got = _canon(_to_df(fn(SF)))
    want = _canon(con.execute(sql).df())
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), name
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, check_exact=True
    )


@pytest.mark.parametrize("name", sorted(build_retired_oracles()))
def test_retired_op_matches_oracle(ray_session, con, name):
    _assert_matches(con, name, *build_retired_oracles()[name])


def _text_op_entries() -> list[str]:
    """Registry entries whose operator lives in ``text_analysis`` or
    ``packing`` (each entry is named after its operator) and that have an
    oracle."""
    return sorted(
        name for name in build_oracle_sql()
        if name in build_queries()
        and (hasattr(text_analysis, name) or hasattr(packing, name))
    )


@pytest.mark.parametrize("name", _text_op_entries())
def test_text_op_matches_registry_oracle(ray_session, con, name):
    """The text ops' registry entries against their registry oracles, so
    the oracle comparison runs in the test suite and not only in
    ``scripts/check_oracles.py``."""
    _assert_matches(con, name, build_queries()[name], build_oracle_sql()[name])


def test_r5_mixing_ops_non_vacuous(ray_session):
    """The oracle-equality pin above would pass even if both sides were
    identity; assert the r5 ops actually DO something on the driver
    corpus: n-gram decontamination drops contaminated train docs beyond
    the eval cut, and temperature mixing downsamples every source at a
    per-source rate."""
    from datacat_ray.pipelines.text_analysis import (
        DECONTAM_EVAL_DOCS,
        ngram_decontaminate,
        temperature_mix,
    )

    kept = {r["doc_id"] for r in ngram_decontaminate(SF).take_all()}
    assert all(d >= DECONTAM_EVAL_DOCS for d in kept)
    n_train = 500 - DECONTAM_EVAL_DOCS
    assert 0 < len(kept) < n_train  # some contamination found, not all

    mixed = temperature_mix(SF).take_all()
    assert 0 < len(mixed) < 500  # non-vacuous downsampling
    srcs = {r["source"] for r in mixed}
    assert len(srcs) > 1  # no source is wiped out entirely


def test_ngram_decontaminate_edges(ray_session, tmp_path):
    """Edge corpus: zero-gram (short) docs keep, null text keeps,
    eval-overlapping text drops — Ray and the SQL oracle agree on all of
    it (including the empty-batch-safe segment fold)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.text_analysis import (
        ngram_decontaminate,
        ngram_decontaminate_sql,
    )

    t = pa.table({
        "doc_id": pa.array(list(range(25)), pa.int64()),
        "text": pa.array(
            (["eval words " * 5] * 20)
            + ["tiny", "a b c",
               "eval words " * 5,  # contaminated train doc
               "completely different content sharing nothing with the "
               "eval set across all its words here",
               None]),
        "lang": pa.array(["en"] * 25),
        "source": pa.array(["s"] * 25),
        "n_chars": pa.array([10] * 25, pa.int64()),
    })
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = sorted(r["doc_id"] for r in ngram_decontaminate(str(tmp_path)).take_all())
    assert got == [20, 21, 23, 24]
    import duckdb

    c2 = duckdb.connect()
    c2.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    assert sorted(
        x[0] for x in c2.execute(ngram_decontaminate_sql()).fetchall()
    ) == got
