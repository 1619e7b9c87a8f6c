"""Token-budget corpus head (text_analysis.token_budget_head)."""

from datacat_ray.pipelines.text_analysis import (
    deterministic_shuffle,
    token_budget_head,
    token_budget_head_sql,
)

SF = "/root/testdata/sf0.001"


def test_budget_is_prefix_of_shuffle_order(ray_session):
    rows = token_budget_head(SF, budget=5000).take_all()
    assert rows, "5k tokens should admit at least one doc"
    kept = {r["doc_id"] for r in rows}
    rank = {
        r["doc_id"]: r["shuffle_rank"]
        for r in deterministic_shuffle(SF).take_all()
    }
    # the kept set is exactly the first len(kept) docs of the shuffle order
    cut = sorted(rank[d] for d in kept)
    assert cut == list(range(1, len(kept) + 1))
    # running total is consistent and within budget
    by_rank = sorted(rows, key=lambda r: rank[r["doc_id"]])
    acc = 0
    for r in by_rank:
        acc += r["n_tokens"]
        assert r["cum_tokens"] == acc
    assert acc <= 5000


def test_budget_extremes(ray_session):
    assert token_budget_head(SF, budget=0).count() == 0
    all_rows = token_budget_head(SF, budget=1 << 40).take_all()
    assert len(all_rows) == 500  # whole corpus fits


def test_budget_zero_token_doc_at_the_cut(ray_session, tmp_path):
    """A zero-token doc whose running total equals the budget keeps, as in
    the SQL oracle's QUALIFY, also when it opens a later md5 bucket: doc 1
    (md5 '14..') fills the budget, doc 0 (md5 'ab..', empty text) starts
    a bucket whose offset equals the budget."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": ["", "a b c"]}),
        tmp_path / "documents.parquet",
    )
    got = sorted(
        (r["doc_id"], r["n_tokens"], r["cum_tokens"])
        for r in token_budget_head(str(tmp_path), budget=3).take_all()
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = sorted(con.execute(token_budget_head_sql(budget=3)).fetchall())
    assert got == want == [(0, 0, 3), (1, 3, 3)]
