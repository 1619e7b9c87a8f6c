"""Generic relational operators over the TPC-H-ish driver tables.

These exercise the engine's wide operations (groupby-aggregate with partial
pre-aggregation, sort/top-k, broadcast join, distinct) against DuckDB
oracles. Patterns, not one-offs: every aggregate is named identically in the
Ray code and the oracle SQL so the driver's column-sorted value-hash
matches.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from datacat_ray.stages.bucketed import cached_ref, hash_join


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def scale_to_int64(
    ds: "ray.data.Dataset", scales: dict[str, int]
) -> "ray.data.Dataset":
    """Post-aggregation: ``col -> round(col * scale)`` as int64. Float sums
    are summation-order-dependent (~1e-9 relative noise); snapping to an
    integer grid far above the noise floor makes the value-hash bitwise
    stable, and integers stringify identically in Ray and DuckDB (a rounded
    DOUBLE does not — repr noise like 441279287.59000003)."""

    def _scale(t: pa.Table) -> pa.Table:
        for col, s in scales.items():
            i = t.schema.get_field_index(col)
            v = pc.round(pc.multiply(t[col], pa.scalar(float(s))))
            t = t.set_column(i, col, pc.cast(v, pa.int64()))
        return t

    return ds.map_batches(_scale, batch_format="pyarrow")


SHIP_CUTOFF = "2000-09-02"  # inside the generated l_shipdate range (1999-2001)


def pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q1-shaped: per (l_returnflag, l_linestatus) sums/avg/count over
    lineitem shipped before SHIP_CUTOFF. The revenue column is computed
    vectorized per batch; the groupby runs over pre-projected columns only."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )
    cutoff = pa.scalar(SHIP_CUTOFF).cast(pa.timestamp("us"))

    def _prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_shipdate"], cutoff))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.Table.from_pydict(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "l_quantity": t["l_quantity"],
                "l_extendedprice": t["l_extendedprice"],
                "revenue": rev,
            }
        )

    def _prep_partial(t: pa.Table) -> pa.Table:
        # map-side combiner (SURVEY.md §4): fused with the filter/projection
        # so no extra stage boundary; pyarrow's C++ group_by collapses each
        # batch to ≤6 partial rows — the shuffle exchanges group partials,
        # not 600k fact rows
        return _prep(t).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("revenue", "sum"), ([], "count_all")]
        )

    ds = ds.map_batches(_prep_partial, batch_format="pyarrow")
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("l_quantity_sum", alias_name="sum_qty"),
        Sum("l_extendedprice_sum", alias_name="sum_base_price_cents"),
        Sum("revenue_sum", alias_name="sum_revenue_cents"),
        Sum("count_all", alias_name="count_order"),
    )

    def _finish(t: pa.Table) -> pa.Table:
        avg = pc.divide(t["sum_qty"], pc.cast(t["count_order"], pa.float64()))
        return t.append_column("avg_qty_micros", avg)

    out = out.map_batches(_finish, batch_format="pyarrow")
    return scale_to_int64(
        out,
        {"sum_qty": 1, "sum_base_price_cents": 100, "sum_revenue_cents": 100,
         "avg_qty_micros": 1_000_000},
    )


def filter_project(sf_dir: str) -> "ray.data.Dataset":
    """Row-level filter + projection: lineitem rows with quantity > 45."""
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_shipdate"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], pa.scalar(45.0))),
        batch_format="pyarrow",
    )


def top_orders(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Top-k orders by totalprice (deterministic orderkey tie-break)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)


def _broadcast_inner_join(t: pa.Table, dim: pa.Table, key: str) -> pa.Table:
    """Vectorized batch ⋈ broadcast-dim inner join (polars hash join — no
    per-row Python lookup)."""
    import polars as pl

    left = pl.from_arrow(t.replace_schema_metadata(None))
    right = pl.from_arrow(dim.replace_schema_metadata(None))
    return left.join(right, on=key, how="inner").to_arrow()


def revenue_by_segment(sf_dir: str) -> "ray.data.Dataset":
    """Broadcast hash join: orders ⋈ customer (small side shipped once via
    ``ray.put``, hash-joined vectorized per batch — no shuffle join), then
    groupby mktsegment."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["o_custkey", "c_mktsegment"])
    seg_ref = ray.put(cust)

    def _join(t: pa.Table) -> pa.Table:
        joined = _broadcast_inner_join(t, cached_ref(seg_ref), "o_custkey")
        return joined.select(["c_mktsegment", "o_totalprice"])

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    ds = ds.map_batches(_join, batch_format="pyarrow")
    out = ds.groupby("c_mktsegment").aggregate(
        Sum("o_totalprice", alias_name="total_revenue_cents"),
        Count(alias_name="n_orders"),
    )
    return scale_to_int64(out, {"total_revenue_cents": 100})


def events_per_user_day(sf_dir: str) -> "ray.data.Dataset":
    """Windowed-by-day aggregate: events per (user_id, day) with value
    stats. The tumbling window is a truncation of ts — no ordering
    assumption needed (pure groupby)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def _day(t: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(t["ts"], unit="day"), format="%Y-%m-%d")
        return pa.Table.from_pydict(
            {"user_id": t["user_id"], "day": day, "value": t["value"]}
        )

    def _day_partial(t: pa.Table) -> pa.Table:
        # map-side combiner fused with the day projection
        return _day(t).group_by(["user_id", "day"]).aggregate(
            [("value", "sum"), ("value", "min"), ("value", "max"),
             ([], "count_all")]
        )

    ds = ds.map_batches(_day_partial, batch_format="pyarrow")
    out = ds.groupby(["user_id", "day"]).aggregate(
        Sum("count_all", alias_name="n_events"),
        Sum("value_sum", alias_name="sum_value_micros"),
        Min("value_min", alias_name="min_value"),
        Max("value_max", alias_name="max_value"),
    )
    return scale_to_int64(out, {"sum_value_micros": 1_000_000})


SESSION_GAP_MIN = 30


def user_sessions(sf_dir: str, gap_min: int = SESSION_GAP_MIN) -> "ray.data.Dataset":
    """Sessionization (stateful order-sensitive window op): per user, events
    sorted by (ts, event_id); a new session starts when the gap to the
    previous event exceeds ``gap_min`` minutes. Returns per-user session
    count + event count.

    Shape (stages/bucketed.py): ONE hash shuffle on an int bucket of
    user_id, then the session walk runs vectorized over the WHOLE bucket —
    one sort by (user_id, ts, event_id), one np.diff, per-user sums via
    ``np.add.reduceat`` at key boundaries. O(buckets) Python calls, not
    O(distinct users); within-key ordering is established inside the
    bucket, never globally."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    gap_us = gap_min * 60_000_000

    def _sessions_bucket(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                          ("event_id", "ascending")]
        )
        uid = pc.take(g["user_id"], order).combine_chunks().to_numpy()
        ts = pc.take(g["ts"], order).combine_chunks().cast(pa.int64()).to_numpy()
        n = len(uid)
        if n == 0:
            return pa.Table.from_pydict(
                {"user_id": pa.array([], pa.int64()),
                 "n_sessions": pa.array([], pa.int64()),
                 "n_events": pa.array([], pa.int64())}
            )
        starts = sorted_key_bounds(uid)
        new_sess = np.empty(n, dtype=bool)
        new_sess[0] = True
        new_sess[1:] = (ts[1:] - ts[:-1]) > gap_us
        new_sess[starts] = True  # a key change always opens a session
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[starts], type=pa.int64()),
                "n_sessions": pa.array(
                    np.add.reduceat(new_sess.astype(np.int64), starts)),
                "n_events": pa.array(np.diff(np.append(starts, n))),
            }
        )

    ds = ds.map_batches(lambda t: add_bucket(t, "user_id"), batch_format="pyarrow")
    return ds.groupby("__bucket").map_groups(
        lambda g: _sessions_bucket(g.drop_columns(["__bucket"])),
        batch_format="pyarrow",
    )


def user_sessions_sql(gap_min: int = SESSION_GAP_MIN) -> str:
    return f"""
        WITH marked AS (
            SELECT user_id,
                   CASE WHEN ts - lag(ts) OVER w > INTERVAL {gap_min} MINUTE
                         OR lag(ts) OVER w IS NULL
                        THEN 1 ELSE 0 END AS new_session
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT user_id,
               CAST(SUM(new_session) AS BIGINT) AS n_sessions,
               COUNT(*)                         AS n_events
        FROM marked GROUP BY user_id
    """


def asof_purchase_attribution(sf_dir: str) -> "ray.data.Dataset":
    """AS-OF JOIN (an operator Ray Data lacks; SURVEY.md §2.9 custom-op
    path (a) — composition of map_batches + groupby.map_groups): each
    'purchase' event joins the LATEST strictly-earlier 'click' by the same
    user. Partitioning assumption: both sides co-partition on the join key
    (user_id) — every row of a user lands in the same bucket, so the merge
    needs no global sort. Purchases with no prior click drop (inner as-of),
    mirroring DuckDB's ASOF JOIN oracle.

    Shape (stages/bucketed.py): ONE hash shuffle on an int bucket of
    user_id, then the whole bucket is merged in ONE ``np.searchsorted``
    over composite (user, ts-rank) keys — ts is densified to its rank
    within the bucket so user*span+rank fits int64 with no overflow, and a
    strictly-smaller composite is exactly "same user, strictly earlier
    click" after the user-equality mask. O(buckets) Python calls, not
    O(distinct users)."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def _sides(t: pa.Table) -> pa.Table:
        keep = pc.is_in(
            t["event_type"], value_set=pa.array(["purchase", "click"])
        )
        return add_bucket(t.filter(keep), "user_id")

    _EMPTY = pa.Table.from_pydict(
        {"purchase_id": pa.array([], pa.int64()),
         "click_id": pa.array([], pa.int64()),
         "gap_us": pa.array([], pa.int64())}
    )

    def _attr_bucket(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                          ("event_id", "ascending")]
        )
        g = g.take(order)
        uid = g["user_id"].combine_chunks().to_numpy()
        ts = g["ts"].combine_chunks().cast(pa.int64()).to_numpy()  # µs
        ids = g["event_id"].combine_chunks().to_numpy()
        click_mask = pc.equal(g["event_type"], "click").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        # densify ts to its rank so the composite key fits int64
        _, ts_rank = np.unique(ts, return_inverse=True)
        _, uid_code = np.unique(uid, return_inverse=True)
        span = np.int64(ts_rank.max() + 2) if len(ts) else np.int64(1)
        comp = uid_code.astype(np.int64) * span + ts_rank
        c_comp, c_ids, c_ts, c_uid = (
            comp[click_mask], ids[click_mask], ts[click_mask],
            uid_code[click_mask],
        )
        p_mask = ~click_mask
        p_comp, p_ids, p_ts, p_uid = (
            comp[p_mask], ids[p_mask], ts[p_mask], uid_code[p_mask]
        )
        if len(c_comp) == 0 or len(p_comp) == 0:
            return _EMPTY
        # last click with comp strictly below the purchase's: same user ⇒
        # strictly-earlier ts (equal ts has equal rank ⇒ equal comp)
        pos = np.searchsorted(c_comp, p_comp, side="left") - 1
        ok = (pos >= 0) & (c_uid[np.maximum(pos, 0)] == p_uid)
        return pa.Table.from_pydict(
            {
                "purchase_id": pa.array(p_ids[ok], type=pa.int64()),
                "click_id": pa.array(c_ids[pos[ok]], type=pa.int64()),
                "gap_us": pa.array(p_ts[ok] - c_ts[pos[ok]], type=pa.int64()),
            }
        )

    return (
        ds.map_batches(_sides, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda g: _attr_bucket(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )


ASOF_PURCHASE_SQL = """
    SELECT l.event_id AS purchase_id,
           r.event_id AS click_id,
           CAST(epoch_us(l.ts) - epoch_us(r.ts) AS BIGINT) AS gap_us
    FROM (SELECT * FROM events WHERE event_type = 'purchase') l
    ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') r
      ON l.user_id = r.user_id AND l.ts > r.ts
"""


def distinct_event_types(sf_dir: str) -> pa.Table:
    """Distinct values of a column (shuffle-distinct)."""
    ds = _read(sf_dir, "events", ["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pa.Table.from_pydict({"event_type": pa.array(vals, type=pa.string())})


def revenue_by_region_nation(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q5-shape: lineitem revenue rolled up to (region, nation) via a
    CASCADE of broadcast dimension joins — supplier→nation→region are tiny,
    so the composed suppkey→(region_name, nation_name) map ships once via
    ``ray.put`` and the fact table never shuffles until the final small
    groupby. This is the star-schema pattern for the 100 TB case: dimension
    joins are lookups, only the rollup exchanges data."""
    import pyarrow.parquet as pq

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    n_name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    n_reg = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_regionkey"].to_pylist()))
    r_name = dict(zip(reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist()))
    # compose the 3-level dim cascade into ONE (suppkey → region, nation)
    # table on the driver (supplier/nation/region are tiny), broadcast once
    sks = sup["s_suppkey"].to_pylist()
    nks = sup["s_nationkey"].to_pylist()
    dim = pa.Table.from_pydict(
        {
            "l_suppkey": pa.array(sks, pa.int64()),
            "r_name": pa.array([r_name[n_reg[nk]] for nk in nks], pa.string()),
            "n_name": pa.array([n_name[nk] for nk in nks], pa.string()),
        }
    )
    ref = ray.put(dim)

    def _join(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        fact = pa.Table.from_pydict(
            {"l_suppkey": t["l_suppkey"], "revenue": rev}
        )
        joined = _broadcast_inner_join(fact, cached_ref(ref), "l_suppkey")
        return joined.select(["r_name", "n_name", "revenue"])

    def _join_partial(t: pa.Table) -> pa.Table:
        return _join(t).group_by(["r_name", "n_name"]).aggregate(
            [("revenue", "sum"), ([], "count_all")]
        )

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])
    out = (
        ds.map_batches(_join_partial, batch_format="pyarrow")
        .groupby(["r_name", "n_name"])
        .aggregate(
            Sum("revenue_sum", alias_name="revenue_cents"),
            Sum("count_all", alias_name="n_items"),
        )
    )
    return scale_to_int64(out, {"revenue_cents": 100})


REVENUE_BY_REGION_NATION_SQL = """
    SELECT r_name, n_name,
           CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 100) AS BIGINT)
               AS revenue_cents,
           COUNT(*) AS n_items
    FROM lineitem
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation   ON s_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
    GROUP BY r_name, n_name
"""


def rolling_user_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Trailing-window aggregate (an operator Ray Data lacks; custom-op
    path (a)): per (user_id, day), the event count and value sum over the
    trailing 7 days. Values are scaled to int cents BEFORE any summation so
    both sides add exact integers (float window sums are order-dependent).

    Shape: per-batch partial (user, day) aggregation fused with the
    projection, ONE hash shuffle on an int bucket of user_id, then a
    vectorized whole-bucket kernel: combine partial runs with
    ``np.add.reduceat``, then one composite-key ``searchsorted`` finds each
    row's window start and prefix sums give the window totals. O(buckets)
    Python calls."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    _DAY_SPAN = 1 << 20  # composite key stride (day ints are ~2*10^4)

    def _daily_partial(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.date32())
        # floor(x+0.5), not round(): pc.round ties half-to-even while the
        # SQL side's ROUND ties half-away — identical-formula flooring is
        # the tie-safe discipline (same as order_lineitem_join). Null
        # values count as 0 cents on BOTH sides (the SQL COALESCEs) —
        # floor(NaN).astype(int64) would otherwise poison the sum
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.where(np.isnan(v), 0.0, v)
        cents = pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64))
        p = pa.Table.from_pydict(
            {"user_id": t["user_id"],
             "day": pc.cast(day, pa.int32()),
             "cents": cents}
        ).group_by(["user_id", "day"]).aggregate(
            [("cents", "sum"), ([], "count_all")]
        )
        return add_bucket(p, "user_id")

    def _window_bucket(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("user_id", "ascending"), ("day", "ascending")]
        )
        uid = pc.take(g["user_id"], order).combine_chunks().to_numpy()
        day = pc.take(g["day"], order).combine_chunks().to_numpy().astype(np.int64)
        cents = pc.take(g["cents_sum"], order).combine_chunks().to_numpy()
        n = pc.take(g["count_all"], order).combine_chunks().to_numpy()
        if len(uid) == 0:
            return pa.Table.from_pydict(
                {"user_id": pa.array([], pa.int64()),
                 "day": pa.array([], pa.string()),
                 "n_7d": pa.array([], pa.int64()),
                 "sum_7d_cents": pa.array([], pa.int64())}
            )
        # combine same-(user, day) partials from different input batches
        _, ucode = np.unique(uid, return_inverse=True)
        comp = ucode.astype(np.int64) * _DAY_SPAN + day
        starts = sorted_key_bounds(comp)
        comp_u = comp[starts]
        cents_u = np.add.reduceat(cents, starts)
        n_u = np.add.reduceat(n, starts)
        uid_u, day_u = uid[starts], day[starts]
        # trailing window: first index with comp >= (user, day-6)
        lo = np.searchsorted(comp_u, comp_u - 6, side="left")
        cs_c = np.concatenate([[0], np.cumsum(cents_u)])
        cs_n = np.concatenate([[0], np.cumsum(n_u)])
        idx = np.arange(len(comp_u))
        out_day = [
            (np.datetime64("1970-01-01") + np.timedelta64(int(d), "D"))
            .astype(str) for d in day_u
        ]
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid_u, type=pa.int64()),
                "day": pa.array(out_day, type=pa.string()),
                "n_7d": pa.array(cs_n[idx + 1] - cs_n[lo], type=pa.int64()),
                "sum_7d_cents": pa.array(cs_c[idx + 1] - cs_c[lo],
                                         type=pa.int64()),
            }
        )

    ds = ds.map_batches(_daily_partial, batch_format="pyarrow")
    return ds.groupby("__bucket").map_groups(
        lambda g: _window_bucket(g.drop_columns(["__bucket"])),
        batch_format="pyarrow",
    )


ROLLING_USER_REVENUE_SQL = """
    WITH d AS (
        SELECT user_id, date_trunc('day', ts) AS day,
               COUNT(*) AS n,
               SUM(CAST(FLOOR(COALESCE(value, 0) * 100 + 0.5) AS BIGINT))
                   AS cents
        FROM events GROUP BY 1, 2
    )
    SELECT user_id, strftime(day, '%Y-%m-%d') AS day,
           CAST(SUM(n) OVER w AS BIGINT) AS n_7d,
           CAST(SUM(cents) OVER w AS BIGINT) AS sum_7d_cents
    FROM d
    WINDOW w AS (PARTITION BY user_id ORDER BY day
                 RANGE BETWEEN INTERVAL 6 DAY PRECEDING AND CURRENT ROW)
"""


def value_percentiles(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type exact p50/p95 of value (linear interpolation — the
    same formula as DuckDB ``quantile_cont`` and ``np.percentile``).
    ``groupby(event_type).map_groups`` is fine HERE because the key space
    is a small closed vocabulary (5 event types), not a data-scaled key —
    the per-key-UDF hazard applies to unbounded keys."""
    import numpy as np

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _pct(g: pa.Table) -> pa.Table:
        v = g["value"].combine_chunks().to_numpy()
        p50, p95 = np.percentile(v, [50, 95], method="linear")
        # floor(x+0.5): Python round() ties half-to-even, SQL ROUND ties
        # half-away — identical-formula flooring on both sides instead
        return pa.Table.from_pydict(
            {
                "event_type": [g["event_type"][0].as_py()],
                "p50_micros": pa.array(
                    [int(np.floor(p50 * 1e6 + 0.5))], pa.int64()),
                "p95_micros": pa.array(
                    [int(np.floor(p95 * 1e6 + 0.5))], pa.int64()),
                "n": pa.array([g.num_rows], pa.int64()),
            }
        )

    return ds.groupby("event_type").map_groups(_pct, batch_format="pyarrow")


VALUE_PERCENTILES_SQL = """
    SELECT event_type,
           CAST(FLOOR(quantile_cont(value, 0.5) * 1000000 + 0.5) AS BIGINT)
               AS p50_micros,
           CAST(FLOOR(quantile_cont(value, 0.95) * 1000000 + 0.5) AS BIGINT)
               AS p95_micros,
           COUNT(*) AS n
    FROM events GROUP BY event_type
"""


def order_lineitem_join(sf_dir: str) -> "ray.data.Dataset":
    """Big-big SHUFFLE hash join (``Dataset.join``): per-order lineitem
    revenue joined to the orders table — the one join family where neither
    side broadcasts. The lineitem side is pre-aggregated per orderkey with
    a map-side combiner BEFORE the join, so the exchange moves one row per
    order, not one per item (``bucketed.hash_join``)."""
    import numpy as np

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    def _rev_partial(t: pa.Table) -> pa.Table:
        # item-level int cents FIRST (floor(x+0.5) — both engines compute
        # the identical double, so the tie behavior matches; summing AFTER
        # rounding keeps the aggregate exact integers, where rounding a
        # float sum flips half-to-even vs half-away ties per association)
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        ).to_numpy(zero_copy_only=False)
        cents = np.floor(rev * 100.0 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {"o_orderkey": t["l_orderkey"],
             "cents": pa.array(cents)}
        ).group_by(["o_orderkey"]).aggregate(
            [("cents", "sum"), ([], "count_all")]
        )

    per_order = (
        li.map_batches(_rev_partial, batch_format="pyarrow")
        .groupby("o_orderkey")
        .aggregate(
            Sum("cents_sum", alias_name="revenue_cents"),
            Sum("count_all", alias_name="n_items"),
        )
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    joined = hash_join(orders, per_order, "o_orderkey")

    def _project(t: pa.Table) -> pa.Table:
        tp = t["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "o_orderkey": t["o_orderkey"],
                "o_totalprice_cents": pa.array(
                    np.floor(tp * 100.0 + 0.5).astype(np.int64)),
                "revenue_cents": t["revenue_cents"],
                "n_items": t["n_items"],
            }
        )

    return joined.map_batches(_project, batch_format="pyarrow")


ORDER_LINEITEM_JOIN_SQL = """
    SELECT o_orderkey,
           CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
               AS o_totalprice_cents,
           CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                         AS BIGINT)) AS BIGINT) AS revenue_cents,
           COUNT(*) AS n_items
    FROM orders JOIN lineitem ON o_orderkey = l_orderkey
    GROUP BY o_orderkey, o_totalprice
"""


def top_orders_by_segment(sf_dir: str, k: int = 3) -> "ray.data.Dataset":
    """Group-wise top-k: the k highest-value orders PER market segment
    (broadcast dim join + per-batch local top-k, then one tiny
    ``map_groups`` per segment — the key space is a closed 5-value
    vocabulary, so per-key calls are bounded). Rank ties break by
    o_orderkey ascending, mirrored in the window-function oracle."""
    import numpy as np
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["o_custkey", "c_mktsegment"])
    ref = ray.put(cust)

    def _join_local_topk(t: pa.Table) -> pa.Table:
        j = _broadcast_inner_join(t, cached_ref(ref), "o_custkey")
        # local top-k per segment inside the batch: only ≤ 5*k rows leave
        out = []
        for seg in set(j["c_mktsegment"].to_pylist()):
            sub = j.filter(pc.equal(j["c_mktsegment"], seg))
            order = pc.sort_indices(
                sub, sort_keys=[("o_totalprice", "descending"),
                                ("o_orderkey", "ascending")]
            )
            out.append(sub.take(order[: k]))
        return (
            pa.concat_tables(out) if out
            else j.slice(0, 0)
        ).select(["c_mktsegment", "o_orderkey", "o_totalprice"])

    def _final_topk(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("o_totalprice", "descending"),
                          ("o_orderkey", "ascending")]
        )
        g = g.take(order[: k])
        return pa.Table.from_pydict(
            {
                "c_mktsegment": g["c_mktsegment"],
                "o_orderkey": g["o_orderkey"],
                "rank": pa.array(np.arange(1, g.num_rows + 1), pa.int64()),
            }
        )

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return (
        ds.map_batches(_join_local_topk, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .map_groups(_final_topk, batch_format="pyarrow")
    )


def top_orders_by_segment_sql(k: int = 3) -> str:
    return f"""
        SELECT c_mktsegment, o_orderkey, rank FROM (
            SELECT c_mktsegment, o_orderkey,
                   row_number() OVER (
                       PARTITION BY c_mktsegment
                       ORDER BY o_totalprice DESC, o_orderkey ASC) AS rank
            FROM orders JOIN customer ON o_custkey = c_custkey
        ) WHERE rank <= {k}
    """


def docs_by_lang(sf_dir: str) -> "ray.data.Dataset":
    """Documents per lang with char-length stats (SQL-checkable)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="sum_chars"),
        Max("n_chars", alias_name="max_chars"),
    )


# ---------------------------------------------------------------------------
# global ranking (row_number over a corpus-wide total order)
# ---------------------------------------------------------------------------


def doc_length_ranks(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_chars, rank): every document's global rank under
    (n_chars DESC, doc_id ASC) — the distributed ``row_number()`` over a
    total order, which no single stage can see.

    Shape (same offset trick as ``packing.pack_sequences``): a map-side
    combined count per DISTINCT key value gives a small driver table
    (distinct lengths, not docs — ≤ ~10^6 ints at any corpus size); an
    exclusive prefix sum over the sorted keys yields each key's global
    starting rank, broadcast once; then ONE hash shuffle on the key and a
    vectorized per-bucket kernel ranks ties by doc_id and adds the
    offset. No global sort, no per-key Python."""
    import numpy as np
    import ray as _ray

    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def _key_partials(t: pa.Table) -> pa.Table:
        return t.group_by(["n_chars"]).aggregate([("doc_id", "count")])

    key_rows = (
        ds.map_batches(_key_partials, batch_format="pyarrow")
        .groupby("n_chars")
        .aggregate(Sum("doc_id_count", alias_name="n"))
        .take_all()  # one row per DISTINCT length
    )
    key_rows.sort(key=lambda r: -r["n_chars"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in key_rows:
        offsets[r["n_chars"]] = acc
        acc += r["n"]
    off_ref = _ray.put(offsets)

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    def _rank_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        off = cached_ref(off_ref)
        order = _pc.sort_indices(
            t, sort_keys=[("n_chars", "ascending"), ("doc_id", "ascending")]
        )
        t = t.take(order)
        nc = t["n_chars"].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(nc)
        starts = sorted_key_bounds(nc)
        run_len = np.diff(np.append(starts, n))
        within = np.arange(n, dtype=np.int64) - np.repeat(starts, run_len)
        base = np.array([off[int(v)] for v in nc[starts]], dtype=np.int64)
        rank = np.repeat(base, run_len) + within + 1
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
                "rank": pa.array(rank, pa.int64()),
            }
        )

    return (
        ds.map_batches(
            lambda t: add_bucket(t, "n_chars"), batch_format="pyarrow"
        )
        .groupby("__bucket")
        .map_groups(
            lambda g: _rank_bucket(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )


DOC_LENGTH_RANKS_SQL = """
    SELECT doc_id, n_chars,
           row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) AS rank
    FROM documents
"""


# ---------------------------------------------------------------------------
# interval self-join (events within a time window of anchor events)
# ---------------------------------------------------------------------------

WINDOW_SECONDS = 300


def error_window_counts(
    sf_dir: str, window_s: int = WINDOW_SECONDS, anchor: str = "error"
) -> "ray.data.Dataset":
    """(event_id, n_nearby): for every ``anchor``-type event, how many
    OTHER events the same user produced within ±``window_s`` seconds — the
    interval/range self-join (incident-context collection).

    Shape: one hash shuffle on the user bucket; inside each bucket the
    kernel sorts by (user, ts) once and answers every window with two
    ``searchsorted`` calls over a composite (local-user-code, ts) key —
    never the quadratic pairwise join the SQL oracle spells. Composite
    range: user codes are re-coded 0..u_b PER BUCKET, so the int64
    composite needs only (users/buckets) × (ts-span + 2·window); scaling
    the bucket count with the user count keeps it in range at any scale
    (documented partitioning assumption)."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    w_us = np.int64(window_s * 1_000_000)

    def _bucket_kernel(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        order = _pc.sort_indices(
            t, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                          ("event_id", "ascending")]
        )
        t = t.take(order)
        ts = _pc.cast(t["ts"], pa.int64()).combine_chunks().to_numpy()
        uid = t["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        etype = t["event_type"].to_pylist()
        eid = t["event_id"].combine_chunks().to_numpy(zero_copy_only=False)
        if not len(ts):
            return pa.Table.from_pydict(
                {"event_id": pa.array([], pa.int64()),
                 "n_nearby": pa.array([], pa.int64())}
            )
        _, ucode = np.unique(uid, return_inverse=True)
        t0 = ts.min()
        span = np.int64(ts.max() - t0 + 2 * w_us + 2)
        comp = ucode.astype(np.int64) * span + (ts - t0) + w_us + 1
        is_anchor = np.array([e == anchor for e in etype], dtype=bool)
        a_comp = comp[is_anchor]
        lo = np.searchsorted(comp, a_comp - w_us, side="left")
        hi = np.searchsorted(comp, a_comp + w_us, side="right")
        n = hi - lo - 1  # the anchor row itself always falls in its window
        return pa.Table.from_pydict(
            {
                "event_id": pa.array(eid[is_anchor], pa.int64()),
                "n_nearby": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(
            lambda t: add_bucket(t, "user_id"), batch_format="pyarrow"
        )
        .groupby("__bucket")
        .map_groups(
            lambda g: _bucket_kernel(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )


ERROR_WINDOW_COUNTS_SQL = f"""
    SELECT e.event_id,
           CAST(COUNT(o.event_id) AS BIGINT) AS n_nearby
    FROM events e
    LEFT JOIN events o
      ON o.user_id = e.user_id
     AND o.event_id <> e.event_id
     AND o.ts BETWEEN e.ts - INTERVAL {WINDOW_SECONDS} SECOND
                  AND e.ts + INTERVAL {WINDOW_SECONDS} SECOND
    WHERE e.event_type = 'error'
    GROUP BY 1
"""


def customers_without_urgent_orders(sf_dir: str) -> "ray.data.Dataset":
    """Big-big shuffle ANTI-join: customers with no '1-URGENT' order.

    Unlike ``decontaminate``'s broadcast anti-join (small probe side), here
    NEITHER side is assumed driver-sized. Shape: the probe side collapses to
    per-batch DISTINCT keys first (map-side combiner — shuffle volume is
    bounded by distinct custkeys per batch, not order rows), both sides get
    the same int hash bucket, and one union+groupby co-locates each key's
    build and probe rows; a vectorized per-bucket kernel keeps build rows
    whose key-run contains no probe marker (``np.maximum.reduceat`` over
    sorted runs). Semantics = SQL NOT EXISTS / anti hash join."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        lambda t: add_bucket(
            pa.Table.from_pydict(
                {"key": pc.cast(t["c_custkey"], pa.int64()),
                 "c_name": t["c_name"],
                 "probe": pa.array(
                     np.zeros(t.num_rows, dtype=np.int8), pa.int8())}
            ),
            "key",
        ),
        batch_format="pyarrow",
    )

    def _probe_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT")))
        keys = pc.unique(t["o_custkey"].combine_chunks())
        return add_bucket(
            pa.Table.from_pydict(
                {"key": pc.cast(keys, pa.int64()),
                 "c_name": pa.array([None] * len(keys), pa.string()),
                 "probe": pa.array(np.ones(len(keys), dtype=np.int8),
                                   pa.int8())}
            ),
            "key",
        )

    probe = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        _probe_keys, batch_format="pyarrow"
    )

    def _anti(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("key", "ascending")])
        k = pc.take(g["key"], order).combine_chunks().to_numpy()
        p = pc.take(g["probe"], order).combine_chunks().to_numpy()
        names = pc.take(g["c_name"], order)
        if not len(k):
            return pa.Table.from_pydict(
                {"c_custkey": pa.array([], pa.int64()),
                 "c_name": pa.array([], pa.string())}
            )
        starts = sorted_key_bounds(k)
        run_id = np.cumsum(np.isin(np.arange(len(k)), starts)) - 1
        hit = np.maximum.reduceat(p, starts)  # 1 iff run has a probe row
        keep = (p == 0) & (hit[run_id] == 0)
        return pa.Table.from_pydict(
            {"c_custkey": pa.array(k[keep], pa.int64()),
             "c_name": names.filter(pa.array(keep, pa.bool_()))}
        )

    return (
        cust.union(probe)
        .groupby("__bucket")
        .map_groups(
            lambda g: _anti(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )


CUSTOMERS_WITHOUT_URGENT_SQL = """
    SELECT c_custkey, c_name
    FROM customer c
    WHERE NOT EXISTS (
        SELECT 1 FROM orders o
        WHERE o.o_custkey = c.c_custkey
          AND o.o_orderpriority = '1-URGENT'
    )
"""


def revenue_rollup(sf_dir: str) -> "ray.data.Dataset":
    """Hierarchical ROLLUP (region, nation) in ONE scan: the fact table is
    aggregated once to the finest (r_name, n_name) level — same broadcast
    dim cascade + map-side combiner as ``revenue_by_region_nation`` — and
    the region subtotals and grand total are DERIVED from those ≤|region|×
    |nation| finest rows, never re-scanning the fact table. The finest
    level has dimension-bounded cardinality, so the derivation runs in a
    single block (``repartition(1)`` over ~25 rows) at any fact scale.
    Subtotal levels mark the rolled-up column with '' (the SQL mirrors via
    COALESCE), keeping the hash comparison null-free."""
    finest = revenue_by_region_nation(sf_dir)

    def _expand(t: pa.Table) -> pa.Table:
        lv0 = pa.Table.from_pydict(
            {"r_name": t["r_name"], "n_name": t["n_name"],
             "revenue_cents": t["revenue_cents"], "n_items": t["n_items"]}
        )
        lv1 = (
            lv0.group_by(["r_name"])
            .aggregate([("revenue_cents", "sum"), ("n_items", "sum")])
            .rename_columns(["r_name", "revenue_cents", "n_items"])
        )
        lv1 = lv1.add_column(
            1, "n_name", pa.array([""] * lv1.num_rows, pa.string()))
        tot = pa.Table.from_pydict(
            {"r_name": pa.array([""], pa.string()),
             "n_name": pa.array([""], pa.string()),
             "revenue_cents": pa.array(
                 [pc.sum(lv0["revenue_cents"]).as_py() or 0], pa.int64()),
             "n_items": pa.array(
                 [pc.sum(lv0["n_items"]).as_py() or 0], pa.int64())}
        )
        cols = ["r_name", "n_name", "revenue_cents", "n_items"]
        return pa.concat_tables([lv0.select(cols), lv1.select(cols), tot])

    return finest.repartition(1).map_batches(_expand, batch_format="pyarrow")


REVENUE_ROLLUP_SQL = """
    WITH fin AS (
        -- rounding happens ONCE at the finest level (as the engine does:
        -- subtotals are derived from the already-scaled finest ints);
        -- re-rounding region sums would diverge by up to n_nations/2 cents
        SELECT r_name, n_name,
               CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 100)
                    AS BIGINT) AS revenue_cents,
               COUNT(*) AS n_items
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation   ON s_nationkey = n_nationkey
        JOIN region   ON n_regionkey = r_regionkey
        GROUP BY r_name, n_name
    )
    SELECT COALESCE(r_name, '') AS r_name,
           COALESCE(n_name, '') AS n_name,
           CAST(SUM(revenue_cents) AS BIGINT) AS revenue_cents,
           CAST(SUM(n_items) AS BIGINT) AS n_items
    FROM fin GROUP BY ROLLUP (r_name, n_name)
"""


def user_value_median(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, p50_micros, n): exact per-user median event value — the
    per-group quantile at UNBOUNDED key cardinality (``value_percentiles``
    may map_groups because its key space is a closed 5-value vocabulary;
    a per-user grouping cannot). One hash shuffle on the user bucket, then
    a whole-bucket vectorized kernel: ONE lexsort by (user, value), run
    bounds via ``sorted_key_bounds``, and the linear-interpolation quantile
    evaluated for EVERY user at once from per-run positions — no per-key
    Python call. Nulls are dropped before ranking (quantile_cont
    semantics)."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    ds = _read(sf_dir, "events", ["user_id", "value"])

    def _median_bucket(g: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {"user_id": pa.array([], pa.int64()),
             "p50_micros": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())}
        )
        g = g.filter(pc.is_valid(g["value"]))
        if g.num_rows == 0:
            return empty
        uid = g["user_id"].combine_chunks().to_numpy()
        val = g["value"].combine_chunks().to_numpy()
        order = np.lexsort((val, uid))
        uid, val = uid[order], val[order]
        starts = sorted_key_bounds(uid)
        ends = np.append(starts[1:], len(uid))
        n = ends - starts
        # linear interpolation at q=0.5: position p = (n-1)/2 within the
        # sorted run → (1-frac)*v[floor] + frac*v[floor+1]
        pos = (n - 1) / 2.0
        lo = starts + np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, ends - 1)
        frac = pos - np.floor(pos)
        med = (1.0 - frac) * val[lo] + frac * val[hi]
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "p50_micros": pa.array(
                    np.floor(med * 1e6 + 0.5).astype(np.int64), pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(lambda t: add_bucket(t, "user_id"),
                       batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda g: _median_bucket(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )


USER_VALUE_MEDIAN_SQL = """
    SELECT user_id,
           CAST(FLOOR(quantile_cont(value, 0.5) * 1000000 + 0.5) AS BIGINT)
               AS p50_micros,
           CAST(COUNT(value) AS BIGINT) AS n
    FROM events
    WHERE value IS NOT NULL
    GROUP BY user_id
"""


def error_purchase_days(sf_dir: str) -> "ray.data.Dataset":
    """Distributed set INTERSECTION: the distinct (user_id, day) pairs on
    which a user produced BOTH an 'error' and a 'purchase' event.

    Shape: one events scan; the map side reduces each batch to distinct
    (user, day, side-bit) triples (combiner — exchange volume is bounded
    by distinct triples, not event rows); one hash shuffle on the user
    bucket; the per-bucket kernel ORs the side bits per composite
    (user, day) key with ``np.bitwise_or.reduceat`` and keeps keys whose
    mask is 3. The same union+bucket co-location as the anti-join
    (``customers_without_urgent_orders``), flipped from NOT EXISTS to
    EXISTS-in-both — together they cover the set-op family (SQL INTERSECT
    / EXCEPT) without ever shuffling payload columns."""
    import numpy as np

    from datacat_ray.stages.bucketed import add_bucket, sorted_key_bounds

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    _DAY_SPAN = 1 << 20

    def _sides(t: pa.Table) -> pa.Table:
        keep = pc.is_in(
            t["event_type"],
            value_set=pa.array(["error", "purchase"]),
        )
        t = t.filter(keep)
        day = pc.cast(
            pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.date32()),
            pa.int32(),
        )
        mark = pc.if_else(
            pc.equal(t["event_type"], pa.scalar("error")),
            pa.scalar(1, pa.int8()), pa.scalar(2, pa.int8()),
        )
        p = pa.Table.from_pydict(
            {"user_id": t["user_id"], "day": day, "mark": mark}
        ).group_by(["user_id", "day", "mark"]).aggregate([])
        return add_bucket(p, "user_id")

    def _intersect(g: pa.Table) -> pa.Table:
        uid = g["user_id"].combine_chunks().to_numpy()
        day = g["day"].combine_chunks().to_numpy().astype(np.int64)
        mark = g["mark"].combine_chunks().to_numpy()
        if not len(uid):
            return pa.Table.from_pydict(
                {"user_id": pa.array([], pa.int64()),
                 "day": pa.array([], pa.string())}
            )
        comp = uid.astype(np.int64) * _DAY_SPAN + day
        order = np.argsort(comp, kind="stable")
        comp, mark = comp[order], mark[order]
        starts = sorted_key_bounds(comp)
        both = np.bitwise_or.reduceat(mark, starts) == 3
        keys = comp[starts][both]
        out_day = [
            (np.datetime64("1970-01-01")
             + np.timedelta64(int(d % _DAY_SPAN), "D")).astype(str)
            for d in keys
        ]
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(keys // _DAY_SPAN, type=pa.int64()),
                "day": pa.array(out_day, type=pa.string()),
            }
        )

    return (
        ds.map_batches(_sides, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda g: _intersect(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )


ERROR_PURCHASE_DAYS_SQL = """
    SELECT user_id, strftime(day, '%Y-%m-%d') AS day FROM (
        SELECT user_id, date_trunc('day', ts) AS day
        FROM events WHERE event_type = 'error'
        INTERSECT
        SELECT user_id, date_trunc('day', ts) AS day
        FROM events WHERE event_type = 'purchase'
    )
"""
