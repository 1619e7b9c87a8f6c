"""D1 dedup: keep latest warc_ts per url."""

import os

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacat_ray.stages.bucketed import keep_last, keep_latest


def _table():
    return pa.Table.from_pydict(
        {
            "url": ["a", "b", "a", "a", "b", "c"],
            "warc_ts": [3, 10, 1, 7, 20, 5],
            "payload": ["a3", "b10", "a1", "a7", "b20", "c5"],
        }
    )


def test_dedup_batch_vectorized():
    out = keep_last(_table(), "url", ["warc_ts"])
    got = dict(zip(out["url"].to_pylist(), out["payload"].to_pylist()))
    assert got == {"a": "a7", "b": "b20", "c": "c5"}


def test_dedup_latest_global(ray_session):
    import ray.data

    # duplicates split ACROSS blocks → within-batch pre-dedup alone can't win
    ds = ray.data.from_arrow(_table()).repartition(3)
    out = keep_latest(ds, "url", ["warc_ts"]).take_all()
    got = {r["url"]: r["payload"] for r in out}
    assert got == {"a": "a7", "b": "b20", "c": "c5"}
    assert len(out) == 3


def test_dedup_null_ts_never_wins():
    t = pa.Table.from_pydict(
        {"url": ["a", "a", "b"], "warc_ts": pa.array([7, None, None], pa.int64()),
         "payload": ["a7", "aN", "bN"]}
    )
    out = keep_last(t, "url", ["warc_ts"])
    got = dict(zip(out["url"].to_pylist(), out["payload"].to_pylist()))
    assert got["a"] == "a7"  # non-null beats null
    assert got["b"] == "bN"  # all-null url still survives


def _winner_pos(t):
    """The set of winning positions of a winner table."""
    return set(t["pos"].to_pylist())


def _parquet_winners(winner_dir):
    """The set of winning positions of a ``compute_winners_bucketed``
    winner set."""
    import pyarrow.parquet as pq

    out = set()
    for f in sorted(os.listdir(winner_dir)):
        if f.startswith("bucket-"):
            out |= _winner_pos(pq.read_table(os.path.join(winner_dir, f)))
    return out


def test_compute_winners_distributed_path(ray_session, tmp_path, monkeypatch):
    """Force the distributed winner set (normally only above 5M rows,
    through ``_DRIVER_WINNER_ROWS``) and check it holds exactly the
    winners of the polars driver pass."""
    import pyarrow.parquet as pq

    from datacat_ray.stages import dedup as D
    from datacat_ray.fixtures import make_pages_table

    src = tmp_path / "pages"
    src.mkdir()
    pq.write_table(make_pages_table(50, seed=3), str(src / "pages.parquet"))
    fast = _winner_pos(D.compute_winners(str(src)))
    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    kind, wdir = D.winner_probe(str(src), str(tmp_path / "win"))
    assert kind == "bucketed"
    assert _parquet_winners(wdir) == fast


def test_hll_approx_distinct(ray_session):
    """HLL sketch: within the error bound of exact distinct, and register
    merge is order-insensitive."""
    import numpy as np

    import ray.data

    from datacat_ray.pipelines.sketches import (
        approx_distinct,
        hll_estimate,
        hll_merge,
        hll_registers,
    )
    import pyarrow as pa

    vals = pa.array([f"u{i}" for i in range(5000)] * 3)  # 5000 distinct
    regs = hll_registers(vals)
    est = hll_estimate(regs)
    assert abs(est - 5000) / 5000 < 0.05
    # split-merge == whole
    a = hll_registers(vals.slice(0, 7000))
    b = hll_registers(vals.slice(7000))
    assert np.array_equal(hll_merge([a, b]), regs)
    # distributed path over the driver table
    ds = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet",
                               columns=["user_id"])
    approx, err = approx_distinct(ds, "user_id")
    exact = len(ds.unique("user_id"))
    assert abs(approx - exact) / exact <= 3 * err + 0.02


def test_dedup_batch_property():
    """Property: keep-latest keeps exactly one row per key — the one with
    max ts (nulls lose), ties resolved to a stable winner."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.one_of(st.none(), st.integers(0, 20))),
                    min_size=0, max_size=40))
    def prop(rows):
        t = pa.Table.from_pydict({
            "url": [str(k) for k, _ in rows],
            "warc_ts": pa.array([ts for _, ts in rows], pa.int64()),
            "payload": [f"{i}" for i in range(len(rows))],
        })
        out = keep_last(t, "url", ["warc_ts"])
        keys = out["url"].to_pylist()
        assert len(keys) == len(set(keys)) == len({k for k, _ in rows})
        got_ts = dict(zip(keys, out["warc_ts"].to_pylist()))
        for k in set(k for k, _ in rows):
            tss = [ts for kk, ts in rows if kk == k]
            non_null = [x for x in tss if x is not None]
            want = max(non_null) if non_null else None
            assert got_ts[str(k)] == want

    prop()


def test_compute_winners_distributed_null_ts(ray_session, tmp_path, monkeypatch):
    """Both winner sets must not crash when a null warc_ts for a key
    arrives after (or before) a real one — None never beats a real ts,
    all-null keys survive with None."""
    import datetime

    import pyarrow.parquet as pq

    from datacat_ray.stages import dedup as D

    t1 = pa.Table.from_pydict(
        {"url": ["a", "b"],
         "warc_ts": pa.array([None, None], pa.timestamp("us"))}
    )
    t2 = pa.Table.from_pydict(
        {"url": ["a"],
         "warc_ts": pa.array([datetime.datetime(2020, 1, 1)], pa.timestamp("us"))}
    )
    src = tmp_path / "pages"
    src.mkdir()
    pq.write_table(t1, str(src / "p1.parquet"))
    pq.write_table(t2, str(src / "p2.parquet"))
    from datacat_ray.stages.bucketed import hash64

    h = hash64(pa.array(["a", "b"])).tolist()
    want = {h[0]: datetime.datetime(2020, 1, 1), h[1]: None}
    win = D.compute_winners(str(src))
    assert dict(zip(win["h"].to_pylist(), win["warc_ts"].to_pylist())) == want
    want_pos = {1 << 32, 1}  # a: p2 row 0; b: p1 row 1
    assert _winner_pos(win) == want_pos
    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    kind, wdir = D.winner_probe(str(src), str(tmp_path / "win"))
    assert kind == "bucketed" and _parquet_winners(wdir) == want_pos


def test_bucketed_kernels_key_boundaries():
    """The bucketed kernels must respect key boundaries inside a bucket:
    sessions never span users, keep_last picks per-key maxima."""
    import numpy as np

    from datacat_ray.stages.bucketed import keep_last, sorted_key_bounds

    t = pa.Table.from_pydict(
        {"user_id": [2, 1, 2, 1, 3], "ts": [5, 9, 7, 1, 4],
         "event_id": [0, 1, 2, 3, 4]}
    )
    out = keep_last(t, "user_id", ["ts", "event_id"])
    got = dict(zip(out["user_id"].to_pylist(), out["event_id"].to_pylist()))
    assert got == {1: 1, 2: 2, 3: 4}
    assert sorted_key_bounds(np.array([1, 1, 2, 3, 3])).tolist() == [0, 2, 3]
    assert sorted_key_bounds(np.array([], dtype=np.int64)).tolist() == []


def test_bucketed_asof_matches_duckdb(ray_session):
    """Bucketed composite-key as-of join equals DuckDB ASOF JOIN row-for-row
    (including same-ts click exclusion and multi-user buckets)."""
    import duckdb

    from datacat_ray.pipelines.relational import (
        ASOF_PURCHASE_SQL,
        asof_purchase_attribution,
    )

    sf = "/root/testdata/sf0.001"
    got = sorted(
        map(tuple, asof_purchase_attribution(sf).to_pandas().values.tolist())
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'"
    )
    want = sorted(map(tuple, con.execute(ASOF_PURCHASE_SQL).fetchall()))
    assert got == want and len(got) > 0


def test_bucketed_winner_prefilter_matches_driver(ray_session, tmp_path,
                                                  monkeypatch):
    """The >driver-memory winner path (bucketed winner parquet + per-worker
    LRU filter, forced through ``_DRIVER_WINNER_ROWS``) must produce
    exactly the rows the driver-dict path keeps, including null-ts keys, on
    a multi-fragment input with cross-fragment duplicates."""
    import datetime

    import pyarrow.parquet as pq

    from datacat_ray.stages import dedup as D

    d = datetime.datetime
    frags = [
        {"url": ["a", "b", "c"], "warc_ts": [d(2020, 1, 1), d(2020, 1, 5), None],
         "payload": ["a1", "b5", "cN"]},
        {"url": ["a", "b", "d"], "warc_ts": [d(2020, 1, 3), d(2020, 1, 2), None],
         "payload": ["a3", "b2", "dN"]},
        {"url": ["a", "c"], "warc_ts": [d(2020, 1, 2), d(2020, 1, 9)],
         "payload": ["a2", "c9"]},
    ]
    src = tmp_path / "pages"
    src.mkdir()
    for i, f in enumerate(frags):
        t = pa.Table.from_pydict(
            {"url": f["url"],
             "warc_ts": pa.array(f["warc_ts"], pa.timestamp("us")),
             "payload": f["payload"]}
        )
        pq.write_table(t, str(src / f"part-{i}.parquet"))

    def rows(ds):
        return sorted(
            (r["url"], r["payload"]) for r in ds.take_all()
        )

    driver = rows(D.dedup_latest_prefilter(str(src)))
    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    wdir = str(tmp_path / "win")
    bucketed = rows(D.dedup_latest_prefilter(str(src), winner_dir=wdir))
    assert os.path.exists(os.path.join(wdir, "_BUILT_OK"))
    assert driver == bucketed
    assert dict(driver) == {"a": "a3", "b": "b5", "c": "c9", "d": "dN"}


def test_fragment_without_winners_reads_a_typed_empty_block(
        ray_session, tmp_path):
    """A read task whose fragment holds no winner yields a typed empty
    block: the Dataset keeps the requested schema, and Ray logs no
    "different schema" warning for the task."""
    import logging

    import pyarrow.parquet as pq

    from datacat_ray.stages.dedup import dedup_latest_prefilter

    for i, ts in enumerate((10, 5)):  # every capture of part-1 is stale
        pq.write_table(pa.table({"url": ["a", "b"], "warc_ts": [ts, ts],
                                 "html": [b"x%d" % i, b"y%d" % i]}),
                       str(tmp_path / f"part-{i}.parquet"))
    seen: list[str] = []

    class Seen(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    handler = Seen(logging.WARNING)
    log.addHandler(handler)
    try:
        ds = dedup_latest_prefilter(str(tmp_path),
                                    columns=["html", "url"]).materialize()
    finally:
        log.removeHandler(handler)
    assert ds.schema().names == ["html", "url"]
    assert ds.schema().types == [pa.binary(), pa.string()]
    assert sorted(map(tuple, map(dict.values, ds.take_all()))) == [
        (b"x0", "a"), (b"y0", "b")]
    assert not [m for m in seen if "different schema" in m], seen


def test_manifest_partitions_and_prefilter_keep_the_same_winners(
        ray_session, tmp_path):
    """``run_extract_job``'s partitions and ``dedup_latest_prefilter``
    filter with one function and keep the same rows: a same-ts tie across
    fragments goes to the later fragment, a null ``warc_ts`` loses to any
    time, and an all-null url survives."""
    import datetime

    import pyarrow.parquet as pq

    from datacat_ray.fixtures import PAGES_SCHEMA
    from datacat_ray.stages.dedup import dedup_latest_prefilter
    from datacat_ray.state.manifest import run_extract_job

    d = datetime.datetime
    frags = [
        [("a", d(2020, 1, 2), "a first tie"), ("b", None, "b null"),
         ("c", d(2020, 1, 1), "c old")],
        [("b", d(2020, 1, 3), "b dated"), ("a", d(2020, 1, 2), "a second tie"),
         ("c", d(2020, 1, 4), "c new"), ("n", None, "n null only"),
         ("a", d(2020, 1, 1), "a old")],
    ]
    src = tmp_path / "pages"
    src.mkdir()
    for i, rows in enumerate(frags):
        pq.write_table(pa.Table.from_pydict(
            {"url": [r[0] for r in rows], "warc_ts": [r[1] for r in rows],
             "html": [None] * len(rows), "text": [r[2] for r in rows],
             "lang": ["fr"] * len(rows)}, schema=PAGES_SCHEMA),
            str(src / f"part-{i}.parquet"))

    prefilter = sorted((r["url"], r["warc_ts"], r["text"]) for r in
                       dedup_latest_prefilter(str(src)).take_all())
    out = tmp_path / "job"
    run_extract_job(str(src), str(out))
    job = pq.read_table(str(out), columns=["url", "warc_ts",
                                           "extracted_text"]).to_pylist()
    job = sorted((r["url"], r["warc_ts"], r["extracted_text"]) for r in job)
    assert prefilter == job == [
        ("a", d(2020, 1, 2), "a second tie"), ("b", d(2020, 1, 3), "b dated"),
        ("c", d(2020, 1, 4), "c new"), ("n", None, "n null only")]


_PAGE = st.tuples(
    st.integers(0, 5),  # url
    st.one_of(st.none(), st.integers(0, 3)),  # second: ties, null warc_ts
)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fragments=st.lists(st.lists(_PAGE, min_size=1, max_size=9),
                          min_size=1, max_size=4),
       repeat=st.booleans())
def test_parquet_row_set_property(ray_session, tmp_path, fragments, repeat):
    """The parquet paths keep exactly one row per url: the capture with
    the largest (warc_ts, fragment rank, row ordinal), a null ``warc_ts``
    never winning — the polars reference of the WARC flagship's property
    (``keep_latest_oracle``). ``dedup_latest_prefilter`` with the driver
    and the bucketed winner set, and ``run_extract_job``, over fragments
    of random sizes where same-second ties and null ``warc_ts`` are likely,
    the first fragment maybe listed twice (it is read once)."""
    import datetime
    import tempfile
    from unittest import mock

    import pyarrow.parquet as pq
    from keep_latest_oracle import latest_rows

    from datacat_ray.fixtures import PAGES_SCHEMA
    from datacat_ray.stages import dedup as D
    from datacat_ray.state.manifest import run_extract_job

    base = datetime.datetime(2020, 1, 1)
    d = tempfile.mkdtemp(dir=tmp_path)
    paths, ref = [], []
    for rank, caps in enumerate(fragments):
        urls = [f"https://p.example.org/{u}" for u, _ in caps]
        tss = [None if s is None else base + datetime.timedelta(seconds=s)
               for _, s in caps]
        ref += [(u, ts, rank, i) for i, (u, ts) in enumerate(zip(urls, tss))]
        paths.append(os.path.join(d, f"frag-{rank}.parquet"))
        pq.write_table(pa.Table.from_pydict(
            {"url": urls, "warc_ts": tss, "html": [None] * len(caps),
             "text": [f"cap {rank} {i}" for i in range(len(caps))],
             "lang": ["fr"] * len(caps)}, schema=PAGES_SCHEMA), paths[-1])
    want = latest_rows(ref)
    if repeat:
        paths.append(paths[0])

    def key_set(rows, col):
        got = [(r["url"], r["warc_ts"], *map(int, r[col].split()[1:]))
               for r in rows]
        assert len(got) == len({g[0] for g in got})  # one row per url
        return set(got)

    assert key_set(D.dedup_latest_prefilter(paths).take_all(), "text") == want
    with mock.patch.object(D, "_DRIVER_WINNER_ROWS", -1):
        bucketed = D.dedup_latest_prefilter(
            paths, winner_dir=tempfile.mkdtemp(dir=tmp_path))
        assert key_set(bucketed.take_all(), "text") == want
    out = tempfile.mkdtemp(dir=tmp_path)
    run_extract_job(paths, out)
    job = pq.read_table(out, columns=["url", "warc_ts", "extracted_text"])
    assert key_set(job.to_pylist(), "extracted_text") == want


def test_parquet_keys_keep_the_listing_order(tmp_path):
    """``parquet_keys`` reads every fragment in one ``to_table``, and takes
    ``pos`` from the fragments' footer row counts, so that read must keep
    the fragments in listing order: over a listing out of name order, with
    multi-row-group and empty fragments, its keys equal the keys read
    fragment by fragment."""
    import random

    import pyarrow.parquet as pq

    from datacat_ray.stages import dedup as D

    rng = random.Random(5)
    files = []
    for i in range(12):
        n = rng.choice([0, 1, 5, 23, 40])
        t = pa.table({"url": [f"u{rng.randint(0, 30)}" for _ in range(n)],
                      "warc_ts": pa.array(range(n), pa.int64())})
        files.append(str(tmp_path / f"f{i:02d}.parquet"))
        pq.write_table(t, files[-1], row_group_size=7)
    rng.shuffle(files)
    want = pa.concat_tables(D.fragment_keys(rank, f)[1]
                            for rank, f in enumerate(files))
    assert D.parquet_keys(files, D.fragment_rows(files)).equals(want)


def test_bucketed_parquet_winners_are_filed_by_fragment_rank(
        ray_session, tmp_path, monkeypatch):
    """Past the driver size the parquet winner set is filed by fragment
    rank (``dedup.winner_bucket``), as the WARC one is by segment rank: a
    read task probes the one bucket file of its fragment, holding only
    that fragment's winners."""
    import datetime

    import pyarrow.parquet as pq

    from datacat_ray.stages import dedup as D

    d = datetime.datetime
    src = tmp_path / "pages"
    src.mkdir()
    for name, n, ts in (("a", 6, d(2020, 1, 1)), ("b", 4, d(2020, 1, 2))):
        pq.write_table(pa.table(
            {"url": [f"u{i}" for i in range(n)],
             "warc_ts": pa.array([ts] * n, pa.timestamp("us"))}),
            str(src / f"{name}.parquet"))
    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    kind, wdir = D.winner_probe(str(src), str(tmp_path / "win"))
    assert kind == "bucketed"
    files = sorted(f for f in os.listdir(wdir) if f.startswith("bucket-"))
    assert files == ["bucket-00000.parquet", "bucket-00001.parquet"]
    for rank, f in enumerate(files):
        pos = pq.read_table(os.path.join(wdir, f))["pos"].to_numpy()
        assert sorted(pos >> 32) == [rank] * (2 if rank == 0 else 4)


def test_winner_dir_of_an_older_key_format_is_rebuilt(ray_session, tmp_path,
                                                      monkeypatch):
    """A job's bucketed winner dir built in the earlier key format — (h,
    warc_ts) rows, no ``pos``, filed by url hash — under the unchanged
    input fingerprint is rebuilt on resume, not served: the key-row format
    is part of the build fingerprint."""
    import datetime

    import pyarrow.parquet as pq

    from datacat_ray.fixtures import PAGES_SCHEMA
    from datacat_ray.stages import dedup as D
    from datacat_ray.stages.bucketed import hash_buckets, write_bucket
    from datacat_ray.state.manifest import run_extract_job

    d = datetime.datetime
    src = tmp_path / "pages"
    src.mkdir()
    for i, rows in enumerate([[("a", d(2020, 1, 1), "a old"),
                               ("b", d(2020, 1, 5), "b new")],
                              [("a", d(2020, 1, 3), "a new"),
                               ("b", d(2020, 1, 2), "b old")]]):
        pq.write_table(pa.Table.from_pydict(
            {"url": [r[0] for r in rows], "warc_ts": [r[1] for r in rows],
             "html": [None] * 2, "text": [r[2] for r in rows],
             "lang": ["fr"] * 2}, schema=PAGES_SCHEMA),
            str(src / f"part-{i}.parquet"))
    out = tmp_path / "job"
    wdir = out / "_winners"
    wdir.mkdir(parents=True)
    old = D.compute_winners(str(src))
    old = old.drop_columns(["pos"])
    buckets = hash_buckets(old["h"].to_numpy())
    for b in set(buckets.tolist()):
        write_bucket(str(wdir), b, old.filter(pa.array(buckets == b)))
    (wdir / D.BUILT_MARKER).write_text(D.input_fingerprint(str(src)) + "\n")

    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    run_extract_job(str(src), str(out))
    job = pq.read_table(str(out), columns=["url", "extracted_text"])
    assert sorted(job["extracted_text"].to_pylist()) == ["a new", "b new"]
    for f in os.listdir(wdir):
        if f.startswith("bucket-"):
            assert "pos" in pq.read_schema(str(wdir / f)).names


def test_minhash_hot_bucket_star_pairs(ray_session, tmp_path):
    """A near-dup cluster larger than MAX_BUCKET must still come out
    connected (star pairs around min doc_id) instead of being silently
    dropped by the old per-bucket cap."""
    import pyarrow.parquet as pq

    from datacat_ray.pipelines import dedup_ops as DO

    base = (
        "the quick brown fox jumps over the lazy dog and then runs far "
        "away into the deep green forest to hide from every hunter nearby "
    ) * 4
    n = DO.MAX_BUCKET + 16  # one mutually-similar cluster, > cap
    texts = [base + f" tail{i}" for i in range(n)] + [
        f"totally unrelated document number {i} with its own words {i*7}"
        for i in range(20)
    ]
    t = pa.Table.from_pydict(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    pairs = DO.minhash_candidate_pairs(str(tmp_path), threshold=0.7).to_pandas()
    # every cluster member must be reachable: star around doc 0 ⇒ all of
    # 1..n-1 appear in some pair (old code emitted ZERO pairs here)
    touched = set(pairs["doc_a"]) | set(pairs["doc_b"])
    assert set(range(n)) <= touched
    assert len(pairs) >= n - 1


def test_hot_url_pathological_skew(ray_session):
    """One url with thousands of captures spread over many blocks (the
    hot-key pathology): in-batch pre-dedup bounds what reaches the bucket
    shuffle to ≤ one row per block, and the result is still exactly one
    winner row."""
    import numpy as np

    import ray.data

    n = 20_000
    t = pa.Table.from_pydict(
        {
            "url": ["https://hot.example.org/"] * n + ["https://cold/1"],
            "warc_ts": pa.array(list(range(n)) + [5], pa.int64()),
            "payload": [f"p{i}" for i in range(n)] + ["cold"],
        }
    )
    ds = ray.data.from_arrow(t).repartition(16)
    out = keep_latest(ds, "url", ["warc_ts"]).take_all()
    got = {r["url"]: r["payload"] for r in out}
    assert got == {"https://hot.example.org/": f"p{n-1}",
                   "https://cold/1": "cold"}


def test_winner_cache_invalidated_on_input_change(ray_session, tmp_path,
                                                  monkeypatch):
    """Regenerating data at the same path must rebuild the cached bucketed
    winner set (fingerprint in the success marker), not serve stale
    winners."""
    import datetime

    import pyarrow.parquet as pq

    from datacat_ray.stages import dedup as D

    d = datetime.datetime
    src = tmp_path / "pages"
    src.mkdir()
    wdir = str(tmp_path / "win")

    def write(ts_map):
        for i, (url, ts) in enumerate(sorted(ts_map.items())):
            t = pa.Table.from_pydict(
                {"url": [url], "warc_ts": pa.array([ts], pa.timestamp("us")),
                 "payload": [f"{url}@{ts}"]}
            )
            pq.write_table(t, str(src / f"part-{i}.parquet"))

    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    write({"a": d(2020, 1, 1)})
    out1 = D.dedup_latest_prefilter(str(src), winner_dir=wdir).take_all()
    assert {r["url"] for r in out1} == {"a"}
    # regenerate with a LATER capture at the same path
    import time

    time.sleep(0.01)  # ensure mtime_ns moves
    write({"a": d(2021, 6, 1)})
    out2 = D.dedup_latest_prefilter(str(src), winner_dir=wdir).take_all()
    assert [r["payload"] for r in out2] == ["a@2021-06-01 00:00:00"]


def test_read_bucket_serves_the_current_file(tmp_path):
    """The shared bucket-file reader caches per worker but never serves a
    replaced file: a bucket rewritten at the same path, then deleted, then
    written again reads as it is on disk each time."""
    from datacat_ray.stages.bucketed import read_bucket, write_bucket

    d = str(tmp_path)
    loads = []

    def load(t):
        loads.append(t is not None)
        return [] if t is None else t["x"].to_pylist()

    write_bucket(d, 3, pa.table({"x": [1, 2]}))
    assert read_bucket(d, 3, load) == [1, 2]
    assert read_bucket(d, 3, load) == [1, 2]
    assert loads == [True]  # the second read is a cache hit
    write_bucket(d, 3, pa.table({"x": [7, 8, 9]}))
    assert read_bucket(d, 3, load) == [7, 8, 9]
    (name,) = os.listdir(d)  # published atomically: no tmp file left
    os.remove(os.path.join(d, name))
    assert read_bucket(d, 3, load) == []  # a missing bucket reads as empty
    write_bucket(d, 3, pa.table({"x": [4]}))
    assert read_bucket(d, 3, load) == [4]


def test_clear_cache_dir_refuses_foreign_dirs(tmp_path):
    """Cache rebuilds must never recursively delete a directory holding
    anything that is not a cache artifact."""
    import pytest

    from datacat_ray.stages.dedup import clear_cache_dir, input_fingerprint

    d = tmp_path / "shared"
    d.mkdir()
    (d / "precious.txt").write_text("keep me")
    with pytest.raises(ValueError):
        clear_cache_dir(str(d), lambda f: f.startswith("bucket-"))
    assert (d / "precious.txt").exists()
    # list-of-files inputs fingerprint cleanly (previously crashed)
    f1 = tmp_path / "a.parquet"
    f1.write_bytes(b"x")
    f2 = tmp_path / "b.parquet"
    f2.write_bytes(b"y")
    fp = input_fingerprint([str(f1), str(f2)])
    assert isinstance(fp, str) and len(fp) == 40


def test_neardup_clusters_components(ray_session, tmp_path):
    """Connected components over near-dup pairs: two synthetic clusters
    collapse to their min doc_id; unrelated docs stay singletons."""
    import pyarrow.parquet as pq

    from datacat_ray.pipelines.dedup_ops import neardup_clusters

    base_a = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
              "lambda mu nu xi omicron pi rho sigma tau upsilon ") * 5
    base_b = ("one two three four five six seven eight nine ten eleven "
              "twelve thirteen fourteen fifteen sixteen seventeen ") * 5
    import random as _rnd

    def _unique_text(i):
        r = _rnd.Random(1000 + i)
        words = [f"{r.randrange(10**6):x}{chr(97 + r.randrange(26))}"
                 for _ in range(40)]
        return " ".join(words)

    texts = (
        [base_a + f" v{i}" for i in range(4)]          # cluster 0-3
        + [base_b + f" w{i}" for i in range(3)]        # cluster 4-6
        + [_unique_text(i) for i in range(5)]          # true singletons
    )
    t = pa.Table.from_pydict(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = neardup_clusters(str(tmp_path), threshold=0.7).to_pandas()
    cl = dict(zip(out["doc_id"], out["cluster_id"]))
    assert all(cl[i] == 0 for i in range(4))
    assert all(cl[i] == 4 for i in range(4, 7))
    assert all(cl[i] == i for i in range(7, 12))


def test_skew_kill_bucketed_kernels(ray_session, tmp_path):
    """Adversarial skew kill-test (the reference's own guard motivation —
    DatacatSegmenterParser.java:140-142, 260-263: single pathological
    inputs must not ruin throughput): one url holds 40% of all captures
    INCLUDING the multi-MB html rows; one user holds 40% of all events.
    The balanced twin has identical row count and byte size, so the only
    difference is key distribution.

    The bucketed designs bound hot-key work structurally (in-batch
    pre-dedup caps shuffle rows at <=1 per block per key; the session
    walk is O(rows) per bucket regardless of key multiplicity; the winner
    filter probes sorted arrays), so skewed wall-time must stay within a
    small factor of balanced. Kill threshold 3x — looser than the ~2x
    design bar (scripts/skew_probe.py measures that in a controlled
    window for BASELINE.md) to absorb sandbox timing noise, but any real
    pathology (per-key Python loop, one-task serialization of the hot
    key) reads 10x+ here. Paired rounds; min ratio across rounds (a
    pathology is slow in EVERY round, noise isn't)."""
    import os
    import sys
    import time

    import ray.data

    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "scripts")
    )
    from skew_probe import CAPS_PER_URL, HOT_FRAC, write_captures, write_events

    from datacat_ray.pipelines.relational import user_sessions

    n_caps, n_evts = 24_000, 40_000
    dirs = {}
    for kind, skewed in (("bal", False), ("skew", True)):
        cdir = str(tmp_path / f"caps_{kind}")
        edir = str(tmp_path / f"evts_{kind}")
        write_captures(cdir, n_caps, skewed, n_big=2, big_mb=2)
        write_events(os.path.join(edir, "events.parquet"), n_evts, skewed)
        dirs[kind] = (cdir, edir)

    def run_dedup(kind):
        return keep_latest(ray.data.read_parquet(dirs[kind][0]), "url",
                           ["warc_ts"]).count()

    def run_sessions(kind):
        return user_sessions(dirs[kind][1]).count()

    # correctness under skew: exact distinct-key counts
    n_hot = int(n_caps * HOT_FRAC)
    assert run_dedup("skew") == 1 + (n_caps - n_hot) // CAPS_PER_URL
    assert run_dedup("bal") == n_caps // CAPS_PER_URL

    for name, fn in (("keep_latest", run_dedup),
                     ("user_sessions", run_sessions)):
        ratios = []
        for _ in range(2):
            pair = {}
            for kind in ("bal", "skew"):
                t0 = time.perf_counter()
                fn(kind)
                pair[kind] = time.perf_counter() - t0
            ratios.append(pair["skew"] / pair["bal"])
        assert min(ratios) < 3.0, (name, ratios)


def test_lsh_sql_oracles_bit_exact(ray_session):
    """The minhash/simhash SQL oracles replay the FULL signature
    arithmetic (Horner shingle hash mod 2^64, wrap-mod permutations,
    banding, star-cap, verify) — pinned bit-exact against the Ray
    pipelines at sf0.001 so a kernel or constant drift on either side
    fails CI, not the driver run (VERDICT r4 #3)."""
    import duckdb

    from datacat_ray.pipelines.dedup_ops import (
        minhash_pairs_query,
        minhash_pairs_sql,
        simhash_pairs,
        simhash_pairs_sql,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )

    def canon(df):
        df = df[sorted(df.columns)].astype("int64")
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    mh_ray = canon(minhash_pairs_query(sf, threshold=0.7).to_pandas())
    mh_sql = canon(con.sql(minhash_pairs_sql(threshold=0.7)).df())
    assert len(mh_ray) > 0
    assert mh_ray.equals(mh_sql)

    sh_ray = canon(simhash_pairs(sf, max_hamming=3).to_pandas())
    sh_sql = canon(con.sql(simhash_pairs_sql(max_hamming=3)).df())
    assert len(sh_ray) > 0
    assert sh_ray.equals(sh_sql)


def test_gram_hashes_polynomial():
    """_gram_hashes == per-gram Horner over UTF-8 bytes mod 2^64,
    truncated at _GRAM_HASH_MAXLEN; empty gram hashes to 0; ragged
    batches don't cross-contaminate."""
    import numpy as np

    from datacat_ray.pipelines.dedup_ops import (
        _GRAM_HASH_MAXLEN,
        _POLY_B,
        _gram_hashes,
    )

    def ref(g: str) -> int:
        h = 0
        for c in g.encode("utf-8")[:_GRAM_HASH_MAXLEN]:
            h = (h * int(_POLY_B) + c) % (1 << 64)
        return h

    grams = ["", "a", "the quick fox", "x" * 200, "word one two", "été gram"]
    got = _gram_hashes(grams)
    assert got.dtype == np.uint64
    assert got.tolist() == [ref(g) for g in grams]
    assert _gram_hashes([]).shape == (0,)
