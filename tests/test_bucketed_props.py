"""Property tests: the bucketed vectorized kernels must equal brute-force
per-key Python references on arbitrary data (hypothesis-generated)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),      # user
        st.integers(min_value=0, max_value=400),    # ts (small range → ties)
        st.integers(min_value=0, max_value=10_000), # event id / value
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_keep_last_matches_brute_force(rows):
    from datacat_ray.stages.bucketed import keep_last

    ids = list(range(len(rows)))
    t = pa.Table.from_pydict(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.int64()),
            "event_id": pa.array(ids, pa.int64()),
        }
    )
    out = keep_last(t, "user_id", ["ts", "event_id"])
    got = dict(zip(out["user_id"].to_pylist(), out["event_id"].to_pylist()))
    want = {}
    for i, (u, ts, _) in enumerate(rows):
        cur = want.get(u)
        if cur is None or (ts, i) > (rows[cur][1], cur):
            want[u] = i
    assert got == want
    assert out.num_rows == len(want)


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_session_kernel_matches_brute_force(rows):
    """The reduceat session counter inside user_sessions, checked against a
    per-user Python walk (gap > 100 units opens a session)."""
    from datacat_ray.stages.bucketed import sorted_key_bounds

    gap = 100
    t = pa.Table.from_pydict(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.int64()),
            "event_id": pa.array(list(range(len(rows))), pa.int64()),
        }
    )
    order = pc.sort_indices(
        t, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                      ("event_id", "ascending")]
    )
    uid = pc.take(t["user_id"], order).combine_chunks().to_numpy()
    ts = pc.take(t["ts"], order).combine_chunks().to_numpy()
    n = len(uid)
    got = {}
    if n:
        starts = sorted_key_bounds(uid)
        new_sess = np.empty(n, dtype=bool)
        new_sess[0] = True
        new_sess[1:] = (ts[1:] - ts[:-1]) > gap
        new_sess[starts] = True
        counts = np.add.reduceat(new_sess.astype(np.int64), starts)
        got = dict(zip(uid[starts].tolist(), counts.tolist()))
    want: dict[int, int] = {}
    per_user: dict[int, list[int]] = {}
    for u, ts_, _ in rows:
        per_user.setdefault(u, []).append(ts_)
    for u, tss in per_user.items():
        tss.sort()
        s = 1
        for a, b in zip(tss, tss[1:]):
            if b - a > gap:
                s += 1
        want[u] = s
    assert got == want


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_rolling_window_matches_brute_force(rows):
    """The composite-key searchsorted 7-day window against a quadratic
    per-(user, day) reference."""
    from datacat_ray.stages.bucketed import sorted_key_bounds

    # rows: (user, day, cents)
    agg: dict[tuple[int, int], list[int]] = {}
    for u, d, c in rows:
        k = (u, d % 30)
        e = agg.setdefault(k, [0, 0])
        e[0] += c
        e[1] += 1
    keys = sorted(agg)
    if not keys:
        return
    uid = np.array([k[0] for k in keys], dtype=np.int64)
    day = np.array([k[1] for k in keys], dtype=np.int64)
    cents = np.array([agg[k][0] for k in keys], dtype=np.int64)
    nn = np.array([agg[k][1] for k in keys], dtype=np.int64)
    _, ucode = np.unique(uid, return_inverse=True)
    comp = ucode.astype(np.int64) * (1 << 20) + day
    lo = np.searchsorted(comp, comp - 6, side="left")
    cs_c = np.concatenate([[0], np.cumsum(cents)])
    cs_n = np.concatenate([[0], np.cumsum(nn)])
    idx = np.arange(len(comp))
    got_c = cs_c[idx + 1] - cs_c[lo]
    got_n = cs_n[idx + 1] - cs_n[lo]
    for i, (u, d) in enumerate(keys):
        wc = sum(agg[(u2, d2)][0] for (u2, d2) in keys
                 if u2 == u and d - 6 <= d2 <= d)
        wn = sum(agg[(u2, d2)][1] for (u2, d2) in keys
                 if u2 == u and d - 6 <= d2 <= d)
        assert got_c[i] == wc and got_n[i] == wn


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_asof_composite_matches_brute_force(rows):
    """The single-searchsorted as-of merge against a quadratic per-purchase
    scan (alternating rows become clicks/purchases)."""
    if not rows:
        return
    uid = np.array([r[0] for r in rows], dtype=np.int64)
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    eid = np.arange(len(rows), dtype=np.int64)
    is_click = eid % 2 == 0
    order = np.lexsort((eid, ts, uid))
    uid, ts, eid, is_click = uid[order], ts[order], eid[order], is_click[order]
    _, ucode = np.unique(uid, return_inverse=True)
    _, ts_rank = np.unique(ts, return_inverse=True)
    span = np.int64(ts_rank.max() + 2)
    comp = ucode.astype(np.int64) * span + ts_rank
    c_comp, c_eid, c_u = comp[is_click], eid[is_click], ucode[is_click]
    p_comp, p_eid, p_u = comp[~is_click], eid[~is_click], ucode[~is_click]
    got = {}
    if len(c_comp) and len(p_comp):
        pos = np.searchsorted(c_comp, p_comp, side="left") - 1
        ok = (pos >= 0) & (c_u[np.maximum(pos, 0)] == p_u)
        got = dict(zip(p_eid[ok].tolist(), c_eid[pos[ok]].tolist()))
    want = {}
    for pe, pu, pts in zip(p_eid, p_u, ts[~is_click]):
        best = None
        for ce, cu, cts in zip(c_eid, c_u, ts[is_click]):
            if cu == pu and cts < pts:
                if best is None or (cts, ce) > best[:2]:
                    best = (cts, ce)
        if best is not None:
            want[int(pe)] = int(best[1])
    assert got == want


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_interval_window_kernel_matches_brute_force(rows):
    """The composite searchsorted ±W window count against a quadratic
    per-anchor scan (alternating rows become anchors)."""
    if not rows:
        return
    W = 50
    uid = np.array([r[0] for r in rows], dtype=np.int64)
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    eid = np.arange(len(rows), dtype=np.int64)
    order = np.lexsort((eid, ts, uid))
    uid, ts, eid = uid[order], ts[order], eid[order]
    is_anchor = eid % 2 == 0
    _, ucode = np.unique(uid, return_inverse=True)
    t0 = ts.min()
    span = np.int64(ts.max() - t0 + 2 * W + 2)
    comp = ucode.astype(np.int64) * span + (ts - t0) + W + 1
    a_comp = comp[is_anchor]
    lo = np.searchsorted(comp, a_comp - W, side="left")
    hi = np.searchsorted(comp, a_comp + W, side="right")
    got = dict(zip(eid[is_anchor].tolist(), (hi - lo - 1).tolist()))
    want = {}
    for ae, au, at in zip(eid[is_anchor], uid[is_anchor], ts[is_anchor]):
        want[int(ae)] = sum(
            1 for oe, ou, ot in zip(eid, uid, ts)
            if oe != ae and ou == au and at - W <= ot <= at + W
        )
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), max_size=60),
    st.lists(st.integers(min_value=0, max_value=50), max_size=40),
)
def test_sorted_hits_matches_brute_force(keys, pool):
    """sorted_hits == the obvious dict probe, any overlap/dup pattern —
    the membership kernel of the LP label assignment."""
    from datacat_ray.pipelines.dedup_ops import sorted_hits

    sorted_pool = np.array(sorted(set(pool)), dtype=np.int64)
    hit, pos = sorted_hits(np.array(keys, dtype=np.int64), sorted_pool)
    want_rows = [i for i, k in enumerate(keys) if k in set(pool)]
    assert hit.tolist() == want_rows
    assert all(sorted_pool[p] == keys[i] for i, p in zip(hit, pos))


_EDGES = [0, 1, 255, 256, 257, 1023, 1024, 1025, 2047, 2048]
_ORDINAL = st.one_of(st.integers(0, 2_100), st.sampled_from(_EDGES))


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 3), _ORDINAL), max_size=300),
    st.lists(st.tuples(st.integers(0, 4), _ORDINAL,
                       st.one_of(st.integers(0, 1_100),
                                 st.sampled_from([1, 256, 1024]))),
             min_size=1, max_size=8),
    st.booleans(),
)
def test_winner_keep_matches_isin(ray_session, winners, windows, key_rows):
    """``winner_keep(rank, start, n, probe)`` is the membership of the
    positions ``rank << 32 | start .. start + n`` in the winning positions,
    for both probe forms: the driver's sorted array and the bucket files
    (one per rank with winners; rank 4 has none). Windows cross the 1,024-
    and 256-row batch edges of the readers. ``key_rows``: the bucket files
    also carry ``h`` and ``warc_ts``, as winner sets built by older code
    do."""
    import tempfile

    from datacat_ray.stages.bucketed import write_bucket
    from datacat_ray.stages.dedup import winner_keep

    pos = np.array(sorted((r << 32) | o for r, o in winners), np.int64)
    with tempfile.TemporaryDirectory() as d:
        for r in range(4):
            mine = pos[(pos >> 32) == r]
            if mine.size:
                cols = {"pos": mine}
                if key_rows:
                    cols = {"h": np.zeros(mine.size, np.uint64),
                            "warc_ts": np.zeros(mine.size, np.int64), **cols}
                write_bucket(d, r, pa.table(cols))
        probes = [("driver", ray_session.put(pos)), ("bucketed", d)]
        for rank, start, n in windows:
            want = np.isin((rank << 32) | np.arange(start, start + n), pos)
            for probe in probes:
                got = winner_keep(rank, start, n, probe)
                assert got.dtype == bool and got.tolist() == want.tolist()
