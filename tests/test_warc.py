"""WARC source (ISO 28500 / Common-Crawl container): writer, parser, Ray
reader, and end-to-end extraction over WARC input."""

from __future__ import annotations

import functools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacat_ray.fixtures import make_catalogue_html
from datacat_ray.sources.warc import (
    parse_warc_bytes,
    read_warc,
    write_warc,
)


def _records(seed: int, n: int, base_ts: int = 1_700_000_000_000_000):
    rng = random.Random(seed)
    recs, mains = [], {}
    for i in range(n):
        html, main = make_catalogue_html(rng, n_entries=3)
        url = f"https://warc.example.org/{i}"
        recs.append(
            {"url": url, "warc_ts": base_ts + i * 1_000_000,
             "html": html.encode("utf-8")}
        )
        mains[url] = main
    return recs, mains


def test_warc_roundtrip_bytes(tmp_path):
    """write → parse round-trips url, timestamp, and html byte-exactly,
    gzipped (per-record members) and plain."""
    recs, _ = _records(3, 5)
    for compress in (True, False):
        p = str(tmp_path / f"t{compress}.warc.gz")
        write_warc(p, recs, compress=compress)
        got = parse_warc_bytes(open(p, "rb").read())
        assert [(r["url"], r["warc_ts"], r["html"]) for r in got] == [
            (r["url"], r["warc_ts"], r["html"]) for r in recs
        ]


def test_warc_parser_robustness():
    assert parse_warc_bytes(b"") == []
    assert parse_warc_bytes(b"not a warc at all") == []
    # a non-response record (warcinfo) is skipped
    info = (b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n"
            b"\r\nabcd\r\n\r\n")
    assert parse_warc_bytes(info) == []


def test_read_warc_dataset_and_extraction(ray_session, tmp_path):
    """Ray reader produces pages-schema rows; the flagship cascade over
    WARC input recovers the main text and keep-latest dedups duplicate
    captures across files."""
    from datacat_ray.sources.warc import extract_pages_warc

    recs, mains = _records(7, 6)
    f1 = str(tmp_path / "a.warc.gz")
    write_warc(f1, recs[:4])
    # second file re-captures url 0 LATER with different content
    rng = random.Random(99)
    html2, main2 = make_catalogue_html(rng, n_entries=2)
    recap = {"url": recs[0]["url"],
             "warc_ts": recs[0]["warc_ts"] + 50_000_000,
             "html": html2.encode("utf-8")}
    f2 = str(tmp_path / "b.warc.gz")
    write_warc(f2, recs[4:] + [recap])

    ds = read_warc([f1, f2])
    rows = ds.take_all()
    assert len(rows) == 7
    assert all(r["html"] for r in rows)

    out = extract_pages_warc([f1, f2]).take_all()
    assert len(out) == 6  # dedup: 7 captures → 6 urls
    got = {r["url"]: r["main_text"] for r in out}
    assert got[recs[0]["url"]] == main2  # latest capture wins
    for r in recs[1:]:
        assert got[r["url"]] == mains[r["url"]]


def test_wet_sink_roundtrip(ray_session, tmp_path):
    """WARC in → cascade → WET out: conversion records round-trip the
    extracted main text byte-exactly."""
    import glob
    import os

    from datacat_ray.sources.warc import (
        extract_pages_warc,
        parse_wet_bytes,
        write_wet,
    )

    recs, mains = _records(11, 5)
    f = str(tmp_path / "seg.warc.gz")
    write_warc(f, recs)
    out = str(tmp_path / "wet")
    ds = extract_pages_warc([f]).select_columns(["url", "warc_ts", "main_text"])
    shards = write_wet(ds, out)
    assert sum(s["n_records"] for s in shards) == 5
    got = {}
    for p in glob.glob(os.path.join(out, "*.warc.wet.gz")):
        for r in parse_wet_bytes(open(p, "rb").read()):
            got[r["url"]] = r["text"]
    assert got == mains


def test_warc_parser_fuzz_roundtrip():
    """Property: arbitrary (url, ts, binary html) records round-trip
    through write_warc/parse_warc_bytes, both compressions."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    url_st = st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                               exclude_characters=":"),
        min_size=1, max_size=30,
    ).map(lambda s: "https://h/" + s)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(url_st,
                      st.integers(min_value=0, max_value=2**40),
                      st.binary(max_size=500)),
            min_size=0, max_size=5,
        ),
        st.booleans(),
    )
    def prop(rows, compress):
        recs = [
            {"url": u, "warc_ts": (ts // 1_000_000) * 1_000_000, "html": h}
            for u, ts, h in rows
        ]
        import os
        import tempfile

        with tempfile.NamedTemporaryFile(delete=False) as fh:
            buf_path = fh.name
        try:
            write_warc(buf_path, recs, compress=compress)
            got = parse_warc_bytes(open(buf_path, "rb").read())
            assert [(r["url"], r["warc_ts"], r["html"]) for r in got] == [
                (r["url"], r["warc_ts"], r["html"]) for r in recs
            ]
        finally:
            os.unlink(buf_path)

    prop()


def test_streaming_datasource_matches_whole_file_parse(ray_session, tmp_path,
                                                      monkeypatch):
    """The streaming datasource (a small ``_RECORDS_PER_BLOCK`` forces
    multiple yielded blocks per file) produces exactly the records the
    whole-file parser sees."""
    from datacat_ray.sources import warc as W
    from datacat_ray.sources.warc import read_warc

    recs, _ = _records(19, 9)
    f = str(tmp_path / "big.warc.gz")
    write_warc(f, recs)
    f2 = str(tmp_path / "plain.warc")
    write_warc(f2, recs[:3], compress=False)

    monkeypatch.setattr(W, "_RECORDS_PER_BLOCK", 2)
    ds = read_warc([f, f2])
    rows = sorted(
        (r["url"], r["html"]) for r in ds.take_all()
    )
    want = sorted(
        [(r["url"], r["html"]) for r in recs]
        + [(r["url"], r["html"]) for r in recs[:3]]
    )
    assert rows == want


def test_warc_date_fractional_and_malformed_length():
    from datacat_ray.sources.warc import _parse_warc_date, parse_warc_bytes

    assert _parse_warc_date("2023-11-14T22:13:20Z") == 1_699_999_980 * 0 + \
        _parse_warc_date("2023-11-14T22:13:20.000000Z")
    assert (_parse_warc_date("2023-11-14T22:13:20.123Z")
            - _parse_warc_date("2023-11-14T22:13:20Z")) == 123_000
    # malformed Content-Length ends the file gracefully, keeping records
    # parsed so far
    good = (b"WARC/1.0\r\nWARC-Type: response\r\n"
            b"WARC-Target-URI: https://a\r\n"
            b"WARC-Date: 2020-01-01T00:00:00Z\r\n"
            b"Content-Length: 8\r\n\r\n\r\n\r\nBODY\r\n\r\n")
    bad = (b"WARC/1.0\r\nWARC-Type: response\r\n"
           b"Content-Length: 12ab\r\n\r\nxxxx\r\n\r\n")
    out = parse_warc_bytes(good + bad)
    assert len(out) == 1 and out[0]["html"] == b"BODY"


def test_wet_rerun_removes_stale_shards(ray_session, tmp_path):
    """A re-run with different block boundaries must not leave stale WET
    shards behind (manifest-driven cleanup)."""
    import glob
    import os

    import ray.data

    from datacat_ray.sources.warc import parse_wet_bytes, write_wet

    def pages(n):
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({
            "url": [f"https://u/{i}" for i in range(n)],
            "warc_ts": pa.array([1_700_000_000_000_000 + i for i in range(n)],
                                pa.int64()),
            "main_text": [f"text {i}" for i in range(n)],
        }))

    out = str(tmp_path / "wet")
    write_wet(pages(6).repartition(3), out)
    first = set(glob.glob(os.path.join(out, "*.warc.wet*")))
    write_wet(pages(6).repartition(2), out)  # different boundaries
    second = set(glob.glob(os.path.join(out, "*.warc.wet*")))
    got = {}
    for p in second:
        for r in parse_wet_bytes(open(p, "rb").read()):
            got[r["url"]] = r["text"]
    assert len(got) == 6  # every url exactly once — no stale duplicates
    assert not (first & second) or len(second) == 2


def test_ascii_ws_matches_re2_class():
    """\\x0b (vertical tab) is NOT RE2 whitespace — the shared tokenizer
    must agree with DuckDB's regexp split exactly."""
    import duckdb

    from datacat_ray.pipelines.text_analysis import ascii_tokens

    s = "a\x0bb c d"
    py = ascii_tokens(s)
    con = duckdb.connect()
    sql = [t for t in con.execute(
        r"SELECT regexp_split_to_array(?, '\s+')", [s]).fetchone()[0] if t]
    assert py == sql == ["a\x0bb", "c d"]


def test_warc_flagship_identity_pinned_to_parquet_path(ray_session, tmp_path):
    """VERDICT r4 #5: the Common-Crawl container path is held to the SAME
    byte-identity contract the driver hash-checks on the parquet path.
    The driver corpus (pages_from_documents over sf0.001) is wrapped into
    gzip WARC segments; extract_pages_warc must recover (a) exactly the
    source document text per doc (the extract_text_identity surface) and
    (b) the parquet-path pipeline's full row set column-for-column."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data

    from datacat_ray.fixtures import pages_from_documents
    from datacat_ray.pipelines.extract import build_extract_pipeline
    from datacat_ray.sources.warc import extract_pages_warc

    sf = "/root/testdata/sf0.001"
    pages = pages_from_documents(sf)

    # WARC wrap: 3 segments, record order scrambled deterministically (the
    # container must not rely on input order; crc32 — not hash(), whose
    # per-process salt would make the order unreproducible across runs)
    import zlib

    rows = list(
        zip(
            pages["url"].to_pylist(),
            pages["warc_ts"].to_pylist(),
            pages["html"].to_pylist(),
        )
    )
    rows.sort(key=lambda r: zlib.crc32(r[0].encode()) % 997)
    segs = []
    for k in range(3):
        recs = [
            {"url": u, "warc_ts": int(ts.timestamp() * 1_000_000), "html": h}
            for u, ts, h in rows[k::3]
        ]
        segs.append(
            write_warc(str(tmp_path / f"seg-{k}.warc.gz"), recs)
        )

    got = {
        r["url"]: r
        for r in extract_pages_warc(segs).take_all()
    }

    # (a) byte identity against the source documents
    docs = pq.read_table(f"{sf}/documents.parquet")
    for doc_id, text in zip(
        docs["doc_id"].to_pylist(), docs["text"].to_pylist()
    ):
        url = f"https://docs.example.org/{doc_id}"
        assert got[url]["error"] is None
        assert got[url]["main_text"] == text

    # (b) pinned equal to the parquet-path pipeline, column for column
    want = {
        r["url"]: r
        for r in build_extract_pipeline(
            ray.data.from_arrow(pages)
        ).take_all()
    }
    assert set(got) == set(want)
    # the WARC container carries no language metadata (the pages parquet
    # does), so the TEI xml:lang attribute differs by design — normalize
    # that one attribute and demand byte equality on everything else
    import re as _re

    def _no_lang(s: str) -> str:
        return _re.sub(r' xml:lang="[^"]*"', "", s)

    for url, w in want.items():
        g = got[url]
        for col in ("extracted_text", "main_text", "zones", "entries",
                    "n_lines", "n_tokens", "error"):
            assert g[col] == w[col], (url, col)
        for col in ("tei", "tei_body"):
            assert _no_lang(g[col]) == _no_lang(w[col]), (url, col)


def test_corrupt_gzip_segment_keeps_readable_prefix(ray_session, tmp_path):
    """A truncated or corrupt gzip member mid-segment (a real
    Common-Crawl failure mode) must not kill the read task: the readable
    prefix of the segment survives, the rest is dropped with a warning."""
    recs, _ = _records(31, 12)
    good = tmp_path / "good.warc.gz"
    write_warc(str(good), recs)
    data = good.read_bytes()

    # truncation: cut inside the LAST gzip member
    trunc = tmp_path / "trunc.warc.gz"
    trunc.write_bytes(data[: len(data) - 200])
    got = read_warc([str(trunc)]).take_all()
    assert 0 < len(got) < 12
    by_url = {r["url"]: r for r in got}
    for r in got:  # surviving records are intact
        assert by_url[r["url"]]["html"] == next(
            x["html"] for x in recs if x["url"] == r["url"]
        )

    # corruption: flip bytes mid-file (deflate stream breaks). The CC
    # layout is one gzip member per record, so the reader RESYNCS on the
    # next member magic — only the damaged member(s) are lost
    corr = bytearray(data)
    mid = len(data) // 2
    for i in range(mid, mid + 8):
        corr[i] ^= 0xFF
    bad = tmp_path / "bad.warc.gz"
    bad.write_bytes(bytes(corr))
    got2 = read_warc([str(bad)]).take_all()
    assert 0 < len(got2) < 12  # no raise; damaged member(s) dropped
    originals = {r["url"]: r["html"] for r in recs}
    intact = sum(1 for r in got2 if originals.get(r["url"]) == r["html"])
    assert intact >= 12 - 3  # resync recovered (nearly) everything else

    # a corrupt segment alongside a good one: the good one is unaffected
    both = read_warc([str(bad), str(good)]).take_all()
    assert len(both) >= 12


def test_garbage_framing_keeps_the_next_intact_member(ray_session, tmp_path):
    """A gzip member that decompresses cleanly to non-WARC bytes ends the
    record parse at a member boundary; the resync must start its scan at
    the intact member that follows (magic at offset 0), not skip it."""
    import gzip

    recs, _ = _records(37, 3)
    members = []
    for i, r in enumerate(recs):
        one = tmp_path / f"m{i}.warc.gz"
        write_warc(str(one), [r])
        members.append(one.read_bytes())
    garbage = gzip.compress(b"not a warc header\r\n\r\n")
    seg = tmp_path / "framing.warc.gz"
    seg.write_bytes(members[0] + garbage + members[1] + members[2])
    got = {r["url"]: r["html"] for r in read_warc([str(seg)]).take_all()}
    assert got == {r["url"]: r["html"] for r in recs}


def _member_bytes(recs):
    """The gzip member of each record, as ``write_warc`` lays them out."""
    import tempfile

    from datacat_ray.sources.warc import write_warc as _write

    out = []
    with tempfile.TemporaryDirectory() as d:
        for i, r in enumerate(recs):
            p = f"{d}/m{i}.warc.gz"
            _write(p, [r])
            with open(p, "rb") as fh:
                out.append(fh.read())
    return out


_DAMAGE_RECS, _ = _records(43, 10)
_DAMAGE_MEMBERS = _member_bytes(_DAMAGE_RECS)
_GARBAGE_MEMBER = __import__("gzip").compress(b"not a warc header\r\n\r\n")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_k_damaged_members_of_m_lose_exactly_k_records(data):
    """k damaged gzip members out of m cost exactly their k records, for
    damage anywhere past a member's header, any read-chunk alignment (a
    member magic split across reads included), and garbage-framing members
    (clean gzip, non-WARC content) between the records."""
    import io
    from unittest import mock

    from datacat_ray.sources import warc as W

    m = data.draw(st.integers(1, len(_DAMAGE_MEMBERS)), label="m")
    damaged = data.draw(st.sets(st.integers(0, m - 1)), label="damaged")
    parts = []
    for i in range(m):
        if data.draw(st.booleans(), label=f"garbage before {i}") and i:
            parts.append(_GARBAGE_MEMBER)
        mem = bytearray(_DAMAGE_MEMBERS[i])
        if i in damaged:
            # past the 10-byte gzip header: deflate data or the trailer
            at = data.draw(st.integers(10, len(mem) - 1), label="at")
            mem[at] ^= data.draw(st.integers(1, 255), label="xor")
        parts.append(bytes(mem))
    if data.draw(st.booleans(), label="garbage last"):
        parts.append(_GARBAGE_MEMBER)
    chunk = data.draw(st.sampled_from([2, 3, 7, 64, 1000, W._GzipMemberStream._CHUNK]),
                      label="chunk")
    with mock.patch.object(W._GzipMemberStream, "_CHUNK", chunk):
        got = list(W.segment_records(io.BytesIO(b"".join(parts)), "seg"))
    want = [r for i, r in enumerate(_DAMAGE_RECS[:m]) if i not in damaged]
    assert [(r["url"], r["html"]) for r in got] == [
        (r["url"], r["html"]) for r in want]


def test_damage_that_runs_on_into_the_next_member_costs_one_record():
    """A flipped BFINAL bit makes a member's decoder read its trailer and
    the next member as more deflate data, and its record is complete
    before the damage shows: the record is dropped unverified and the
    scan restarts just past the damaged member's magic, so the next
    member is still read."""
    import io
    from unittest import mock

    from datacat_ray.sources import warc as W

    first = bytearray(_DAMAGE_MEMBERS[0])
    first[10] ^= 1  # BFINAL of the member's only deflate block
    data = bytes(first) + b"".join(_DAMAGE_MEMBERS[1:3])
    for chunk in (2, 3, 7, 64, W._GzipMemberStream._CHUNK):
        with mock.patch.object(W._GzipMemberStream, "_CHUNK", chunk):
            got = [r["url"] for r in W.segment_records(io.BytesIO(data))]
        assert got == [_DAMAGE_RECS[i]["url"] for i in (1, 2)], chunk


def test_garbage_inside_a_multi_record_member_keeps_the_records_before_it():
    """A gzip member holding several records and then garbage framing (a
    non-CC layout): the rest of the member is checked before the resync,
    so the records ahead of the garbage are kept, and the next member is
    read."""
    import gzip
    import io
    from unittest import mock

    from datacat_ray.sources import warc as W

    plain = [gzip.decompress(m) for m in _DAMAGE_MEMBERS[:3]]
    data = (gzip.compress(plain[0] + plain[1] + b"garbage framing\r\n\r\n"
                          + plain[2]) + _DAMAGE_MEMBERS[3])
    for chunk in (3, 64, W._GzipMemberStream._CHUNK):
        with mock.patch.object(W._GzipMemberStream, "_CHUNK", chunk):
            got = [r["url"] for r in W.segment_records(io.BytesIO(data))]
        assert got == [_DAMAGE_RECS[i]["url"] for i in (0, 1, 3)], chunk


def test_member_stream_close_is_a_noop_across_resyncs():
    """Each resync drops its ``BufferedReader`` view; collecting that view
    closes its raw stream, and ``_GzipMemberStream.close()`` must leave
    the shared stream (and the file under it) readable for the next
    view."""
    import gc
    import io
    import zlib

    from datacat_ray.sources import warc as W

    members = [bytearray(m) for m in _DAMAGE_MEMBERS[:5]]
    members[1][2] = 0  # compression method: not deflate
    members[3][3] = 0xE0  # reserved header flags set
    raw = io.BytesIO(b"".join(members))
    gzraw = W._GzipMemberStream(raw)
    urls, resyncs = [], 0
    records = W._gz_record_iter(gzraw)
    while True:
        try:
            urls.append(next(records)[0]["url"])
        except StopIteration:
            break
        except zlib.error:
            del records
            gc.collect()  # the dropped view closes its raw: gzraw
            assert not gzraw.closed and not raw.closed
            assert gzraw.resync()
            resyncs += 1
            records = W._gz_record_iter(gzraw)
    assert resyncs == 2
    assert urls == [_DAMAGE_RECS[i]["url"] for i in (0, 2, 4)]
    gzraw.close()
    assert not gzraw.closed and not raw.closed


def _capture_member(url: str, ts: int, html: bytes, bad_date: bool) -> bytes:
    """One gzip member holding one response record (a malformed WARC-Date
    when ``bad_date``: the reader reads it as ``warc_ts`` 0)."""
    import gzip
    import re
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        p = f"{d}/one.warc"
        write_warc(p, [{"url": url, "warc_ts": ts, "html": html}],
                   compress=False)
        with open(p, "rb") as fh:
            rec = fh.read()
    if bad_date:
        rec = re.sub(rb"WARC-Date: [^\r]*", b"WARC-Date: not-a-date", rec)
    return gzip.compress(rec)


_CAPTURE = st.tuples(
    st.integers(0, 5),  # url
    st.integers(0, 3),  # whole second: same-second ties are likely
    st.integers(0, 9).map(lambda x: x == 0),  # malformed date
    st.integers(0, 9).map(lambda x: x == 0),  # damaged gzip member
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(segments=st.lists(st.lists(_CAPTURE, min_size=1, max_size=12),
                         min_size=1, max_size=4),
       hot=st.sampled_from([0, 0, 240]),
       xor_at=st.integers(10, 60),
       repeat=st.booleans())
def test_warc_flagship_row_set_property(ray_session, tmp_path, segments,
                                        hot, xor_at, repeat):
    """The WARC flagship keeps exactly one row per url: the capture with
    the largest (warc_ts, input position), where the position is (segment
    rank, record ordinal) — a polars reference of the rule over the
    records the reader can read (damaged members cost their own record;
    malformed dates read as 0). Same-url captures span segments, one hot
    url may hold hundreds of captures, ``_RECORDS_PER_BLOCK`` = 2 forces
    many blocks, and the first segment may be listed twice (it is read
    once). The bucketed winner set equals the driver one, and on tie-free
    inputs the rows equal those of the shuffle keep-latest
    (``bucketed.keep_latest``) over the plain read."""
    import datetime
    import os
    import tempfile
    from unittest import mock

    from keep_latest_oracle import latest_rows

    from datacat_ray.pipelines.extract import build_extract_pipeline
    from datacat_ray.sources import warc as W
    from datacat_ray.stages import dedup as D
    from datacat_ray.stages.bucketed import keep_latest

    base = 1_700_000_000_000_000
    segments = [list(s) for s in segments]
    for i in range(hot):  # the hot url, spread over every segment
        segments[i % len(segments)].append((99, i % 3, False, False))
    d = tempfile.mkdtemp(dir=tmp_path)
    paths, ref = [], []
    for rank, caps in enumerate(segments):
        members = []
        for idx, (u, sec, bad_date, damaged) in enumerate(caps):
            url = f"https://p.example.org/{u}"
            html = f"<html><body><p>cap {rank} {idx}</p></body></html>"
            mem = bytearray(_capture_member(url, base + sec * 1_000_000,
                                            html.encode(), bad_date))
            if damaged:
                mem[min(xor_at, len(mem) - 1)] ^= 0x5A
            else:
                ref.append((url, 0 if bad_date else base + sec * 1_000_000,
                            rank, idx))
            members.append(bytes(mem))
        paths.append(os.path.join(d, f"seg-{rank}.warc.gz"))
        with open(paths[-1], "wb") as fh:
            fh.write(b"".join(members))

    want = latest_rows(ref)
    if repeat:
        paths.append(paths[0])

    def rows(ds):
        out = ds.take_all()
        assert len(out) == len({r["url"] for r in out})  # one row per url
        return sorted(out, key=lambda r: r["url"])

    def key_set(out):
        epoch, us = datetime.datetime(1970, 1, 1), datetime.timedelta(
            microseconds=1)
        got = set()
        for r in out:
            _, rank, idx = r["main_text"].split()
            got.add((r["url"], (r["warc_ts"] - epoch) // us, int(rank),
                     int(idx)))
        return got

    with mock.patch.object(W, "_RECORDS_PER_BLOCK", 2), \
            mock.patch.dict(os.environ,
                            {"DATACAT_SCRATCH": str(tmp_path / "scratch")}):
        driver = rows(W.extract_pages_warc(paths))
        assert key_set(driver) == want
        with mock.patch.object(D, "_DRIVER_WINNER_ROWS", -1):
            assert rows(W.extract_pages_warc(paths)) == driver
        at_max = {(url, ts) for url, ts, _, _ in want}
        if sum((url, ts) in at_max for url, ts, _, _ in ref) == len(want):
            # tie-free: one capture at each max
            assert rows(build_extract_pipeline(keep_latest(
                W.read_warc(paths), "url", ["warc_ts"]))) == driver


def test_resync_warning_logged_once_per_job(ray_session, tmp_path, caplog):
    """The flagship walks each segment twice (the key pass, then the
    reader). The key pass is silent, so a damaged member's resync warning
    is logged once, by the reader; both passes see the same records."""
    import logging

    import pyarrow as pa

    from datacat_ray.sources import warc as W
    from datacat_ray.stages.dedup import winner_keys

    members = [bytearray(m) for m in _DAMAGE_MEMBERS[:5]]
    members[2][len(members[2]) // 2] ^= 0xFF
    seg = tmp_path / "damaged.warc.gz"
    seg.write_bytes(b"".join(members))
    src = W.WarcDatasource([str(seg)])
    (path,) = src._paths()

    with caplog.at_level(logging.WARNING, logger=W.__name__):
        n, keys = W.segment_keys(src, 0, path)
    assert n == 4 and caplog.records == []

    with caplog.at_level(logging.WARNING, logger=W.__name__):
        with src._open_input_source(src._filesystem, path) as f:
            read = [r for t in src._read_stream(f, path)
                    for r in t.to_pylist()]
    kept = [_DAMAGE_RECS[i] for i in (0, 1, 3, 4)]
    assert [r["url"] for r in read] == [r["url"] for r in kept]
    assert [r.getMessage().count("resynced") for r in caplog.records] == [1]
    want = winner_keys([r["url"] for r in kept],
                       pa.array([r["warc_ts"] for r in kept], pa.int64()), 0,
                       range(4))
    assert keys.equals(want)


def test_bucketed_warc_winners_are_filed_by_segment_rank(
        ray_session, tmp_path, monkeypatch):
    """Past the driver size the WARC winner set is filed by segment rank
    (``dedup.winner_bucket``): a read task probes the one bucket file of
    its segment, holding only that segment's winners."""
    import os

    import pyarrow.parquet as pq

    from datacat_ray.sources import warc as W
    from datacat_ray.stages import dedup as D

    recs, _ = _records(61, 6)
    later = [dict(r, warc_ts=r["warc_ts"] + 60_000_000) for r in recs[:4]]
    segs = [write_warc(str(tmp_path / "a.warc.gz"), recs),
            write_warc(str(tmp_path / "b.warc.gz"), later)]
    monkeypatch.setenv("DATACAT_SCRATCH", str(tmp_path / "scratch"))
    monkeypatch.setattr(D, "_DRIVER_WINNER_ROWS", -1)
    src = W.WarcDatasource(segs)
    (kind, wdir), rows = W.latest_captures(src)
    assert rows == [6, 4]
    assert kind == "bucketed"
    files = sorted(f for f in os.listdir(wdir) if f.startswith("bucket-"))
    assert files == ["bucket-00000.parquet", "bucket-00001.parquet"]
    for rank, f in enumerate(files):
        pos = pq.read_table(os.path.join(wdir, f))["pos"].to_numpy()
        assert sorted(pos >> 32) == [rank] * (2 if rank == 0 else 4)


def test_flagship_plan_is_one_operator_a_task_per_run(ray_session, tmp_path,
                                                      monkeypatch):
    """The executed flagship plan is one operator: the kernel map fused
    into the run reads, with no ``SplitBlocks``, one task per run."""
    from datacat_ray.sources import ranked as R
    from datacat_ray.sources import warc as W

    recs, _ = _records(71, 9)
    segs = [write_warc(str(tmp_path / f"s{k}.warc.gz"), recs[k::3])
            for k in range(3)]
    for runs, cut in ((3, R._runs),  # the CPU floor: a run per segment
                      (1, lambda rows, width, floor: [[0, 1, 2]])):
        monkeypatch.setattr(R, "_runs", cut)
        stats = W.extract_pages_warc(segs).materialize().stats()
        ops = [ln for ln in stats.splitlines() if ln.startswith("Operator ")]
        assert len(ops) == 1 and ops[0].startswith(
            f"Operator 1 ReadRuns->MapBatches(_fused_task): {runs} tasks "
            "executed,"), stats
        assert "SplitBlocks" not in stats


def test_kernel_calls_are_bounded_by_the_batch_size(ray_session, tmp_path,
                                                    monkeypatch):
    """With ``segmenter.batch_size`` 7, one segment of 70 winners (and
    stale captures among them) reaches the kernel in calls of at most 7
    rows, and all 13 columns equal the batch-128 run and the parquet
    path over the same pages."""
    import dataclasses

    import pyarrow as pa

    import ray.data

    import datacat_ray.pipelines.extract as extract
    from datacat_ray.config import PipelineConfig
    from datacat_ray.fixtures import PAGES_SCHEMA
    from datacat_ray.pipelines.extract import (
        RESULT_SCHEMA,
        build_extract_pipeline,
    )
    from datacat_ray.sources.warc import extract_pages_warc

    recs, _ = _records(73, 70)
    stale = [dict(r, warc_ts=r["warc_ts"] - 5_000_000,
                  html=b"<html><body><p>stale</p></body></html>")
             for r in recs[::9]]
    seg = write_warc(str(tmp_path / "one.warc.gz"), stale + recs)
    log = str(tmp_path / "widths.txt")
    fused = extract._fused_task

    def counted(batch, **kw):
        with open(log, "a") as fh:
            fh.write(f"{batch.num_rows}\n")
        return fused(batch, **kw)

    cfg = PipelineConfig()
    cfg7 = dataclasses.replace(cfg, segmenter=dataclasses.replace(
        cfg.segmenter, batch_size=7))
    monkeypatch.setattr(extract, "_fused_task", counted)
    narrow = extract_pages_warc([seg], cfg7).take_all()
    with open(log) as fh:
        widths = [int(x) for x in fh.read().split()]
    assert max(widths) <= 7 and sum(widths) == 70
    monkeypatch.setattr(extract, "_fused_task", fused)

    def by_url(rows):
        return sorted(rows, key=lambda r: r["url"])

    wide = extract_pages_warc([seg]).take_all()
    pages = pa.table({"url": [r["url"] for r in recs],
                      "warc_ts": pa.array([r["warc_ts"] for r in recs],
                                          pa.int64()),
                      "html": [r["html"] for r in recs],
                      "text": [None] * 70, "lang": [None] * 70}).cast(
                          PAGES_SCHEMA)
    parquet = build_extract_pipeline(ray.data.from_arrow(pages)).take_all()
    assert len(narrow) == 70
    for got in (wide, parquet):
        assert by_url(narrow) == by_url(got)
    assert set(narrow[0]) == set(RESULT_SCHEMA.names)


def test_a_run_of_stale_segments_reads_one_typed_empty_table(
        ray_session, tmp_path, monkeypatch):
    """A segment whose every capture is stale, cut into its own run, reads
    as one typed empty pages table, not as nothing; the Dataset keeps
    ``RESULT_SCHEMA`` and one row per url."""
    from datacat_ray.fixtures import PAGES_SCHEMA
    from datacat_ray.pipelines.extract import RESULT_SCHEMA
    from datacat_ray.sources import ranked as R
    from datacat_ray.sources import warc as W

    recs, mains = _records(79, 5)
    later = [dict(r, warc_ts=r["warc_ts"] + 60_000_000) for r in recs]
    segs = [write_warc(str(tmp_path / "old.warc.gz"), recs),
            write_warc(str(tmp_path / "new.warc.gz"), later)]
    src = W.WarcDatasource(segs)
    winners, rows = W.latest_captures(src)
    assert rows == [5, 5]
    assert R.winner_rows(winners, rows) == [0, 5]
    read = functools.partial(W.segment_winners, src, winners, 2)
    (old,) = list(R._run_pages([(0, src._paths()[0])], read, 128))
    assert old.equals(PAGES_SCHEMA.empty_table())

    monkeypatch.setattr(R, "_runs", lambda rows, width, floor: [
        [i] for i in range(len(rows))])
    ds = W.extract_pages_warc(segs).materialize()
    assert ": 2 tasks executed" in ds.stats()
    assert ds.schema().base_schema.equals(RESULT_SCHEMA)
    got = {r["url"]: r["main_text"] for r in ds.take_all()}
    assert got == mains
