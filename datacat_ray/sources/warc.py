"""WARC source: read Common-Crawl-style web archives into the pages schema.

WARC (ISO 28500, the public Common-Crawl container format) stores a
sequence of records, each a version line + header block + Content-Length
payload; ``response`` records carry an HTTP message whose body is the
page. This module provides:

- ``write_warc`` — fixture/test writer (gzip or plain),
- ``parse_warc_bytes`` — record parser (url, warc_ts µs, html bytes),
- ``read_warc`` — a Ray Dataset of pages-schema rows through the streaming
  ``WarcDatasource``: one read task per file walks its records
  (``segment_records``) and yields ``_RECORDS_PER_BLOCK``-row Arrow blocks,
  so a ~1 GB Common-Crawl segment never has to fit a worker heap,
- ``extract_pages_warc`` — the flagship over WARC input, shuffle-free: a
  narrow key pass over the segments builds the latest-capture winner set,
  and the run read every flagship shares (``sources/ranked.read_runs``)
  takes the segments through ``segment_winners`` into ONE Ray Data
  operator: read → winner filter → fused stage, one task per run of
  about ``segmenter.batch_size`` winners,
- ``write_wet`` — the WET sink (extracted plain text as WARC conversion
  records).

Every table read is in the pages schema, ``fixtures.PAGES_SCHEMA`` (url,
warc_ts, html, text, lang).
"""

from __future__ import annotations

import datetime
import functools
import gzip
import io
import itertools

import numpy as np
import pyarrow as pa

_CRLF = b"\r\n"


def _warc_date(ts_us: int) -> str:
    dt = datetime.datetime(1970, 1, 1) + datetime.timedelta(microseconds=ts_us)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> int:
    """WARC-Date → epoch µs; accepts WARC 1.0 whole-second and WARC 1.1
    fractional-second forms. Epoch math on naive datetimes — never
    ``.timestamp()``, which would shift by the host's local timezone."""
    s = s.strip()
    for fmt in ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S.%fZ"):
        try:
            dt = datetime.datetime.strptime(s, fmt)
        except ValueError:
            continue
        return (dt - datetime.datetime(1970, 1, 1)) // datetime.timedelta(
            microseconds=1
        )
    raise ValueError(f"unparseable WARC-Date: {s!r}")


def write_warc(path: str, records: list[dict], compress: bool = True) -> str:
    """Write (url, warc_ts µs, html bytes) records as WARC/1.0 responses.
    ``compress=True`` writes one gzip member per record (the Common-Crawl
    layout, readable by streaming decompressors member-by-member)."""
    out = io.BytesIO()
    for i, r in enumerate(records):
        http = (
            b"HTTP/1.1 200 OK" + _CRLF
            + b"Content-Type: text/html; charset=utf-8" + _CRLF
            + f"Content-Length: {len(r['html'])}".encode() + _CRLF
            + _CRLF
            + r["html"]
        )
        rec = (
            b"WARC/1.0" + _CRLF
            + b"WARC-Type: response" + _CRLF
            + f"WARC-Target-URI: {r['url']}".encode() + _CRLF
            + f"WARC-Date: {_warc_date(r['warc_ts'])}".encode() + _CRLF
            + f"WARC-Record-ID: <urn:uuid:rec-{i:08d}>".encode() + _CRLF
            + b"Content-Type: application/http; msgtype=response" + _CRLF
            + f"Content-Length: {len(http)}".encode() + _CRLF
            + _CRLF
            + http
            + _CRLF + _CRLF
        )
        out.write(gzip.compress(rec) if compress else rec)
    with open(path, "wb") as fh:
        fh.write(out.getvalue())
    return path


def parse_warc_bytes(data: bytes) -> list[dict]:
    """Parse WARC bytes (gzip members or plain) → list of
    {url, warc_ts (µs int), html (bytes)} from response records. Thin
    wrapper over the streaming iterator — ONE parser for both paths."""
    if data[:2] == b"\x1f\x8b":
        # concatenated gzip members: GzipFile reads through all of them
        return list(iter_warc_records(gzip.GzipFile(fileobj=io.BytesIO(data))))
    return list(iter_warc_records(io.BytesIO(data)))


def _read_exact(stream, n: int) -> bytes:
    """Read exactly n bytes (file-like objects may short-read)."""
    chunks = []
    while n > 0:
        b = stream.read(n)
        if not b:
            break
        chunks.append(b)
        n -= len(b)
    return b"".join(chunks)


def _read_header_block(stream) -> bytes | None:
    """Read lines up to the blank line ending a WARC header block
    (skipping leading record-separator blank lines); None at EOF."""
    while True:  # skip inter-record separators
        line = stream.readline()
        if not line:
            return None
        if line.strip():
            break
    lines = [line]
    while True:
        line = stream.readline()
        if not line or not line.strip():
            return b"".join(lines)
        lines.append(line)


def _iter_raw_records(stream):
    """Incrementally yield (headers dict, payload bytes) per WARC record
    from a DECOMPRESSED stream — constant memory per record. A malformed
    Content-Length ends the file gracefully (framing is unrecoverable
    past it) instead of raising out of the read task."""
    while True:
        head = _read_header_block(stream)
        if head is None:
            return
        lines = head.decode("utf-8", errors="replace").split("\r\n")
        if not lines[0].startswith("WARC/"):
            return
        hdr = {}
        for ln in lines[1:]:
            if ":" in ln:
                k, v = ln.split(":", 1)
                hdr[k.strip().lower()] = v.strip()
        try:
            length = int(hdr.get("content-length", "0"))
        except ValueError:
            return
        yield hdr, _read_exact(stream, length)


def iter_warc_records(stream):
    """Incrementally yield {url, warc_ts, html} response records from a
    DECOMPRESSED WARC byte stream (the single shared record parser)."""
    for hdr, payload in _iter_raw_records(stream):
        if hdr.get("warc-type") != "response":
            continue
        body_at = payload.find(_CRLF + _CRLF)
        html = payload[body_at + 4 :] if body_at >= 0 else b""
        try:
            ts = _parse_warc_date(hdr.get("warc-date", ""))
        except ValueError:
            ts = 0
        yield {
            "url": hdr.get("warc-target-uri", ""), "warc_ts": ts, "html": html
        }


class WarcDatasource:
    """Streaming WARC datasource: each file is read as a stream and
    records batch out incrementally (``_RECORDS_PER_BLOCK`` rows per Arrow
    block, read when the datasource is built), so a 1 GB Common-Crawl
    segment never has to fit a worker heap — the scale-true read path.
    Gzip (member-per-record, the CC layout) is detected by magic and
    decompressed on the fly."""

    def __new__(cls, paths):
        from ray.data.datasource import FileBasedDatasource

        per_block = _RECORDS_PER_BLOCK

        class _Impl(FileBasedDatasource):
            _FILE_EXTENSIONS = None  # accept any listed path

            def _open_input_source(self, filesystem, path, **open_args):
                # RAW bytes, always: the base class force-detects gzip
                # from the .gz extension and lets Arrow decompress, which
                # turns a damaged member into an opaque OSError — fatal
                # and indistinguishable from a retryable transport error.
                # Decompression lives in segment_records, where damage is
                # a typed, member-resyncable condition.
                open_args.pop("compression", None)
                buffer_size = open_args.pop("buffer_size", None)
                if buffer_size is None:
                    buffer_size = self._data_context.streaming_read_buffer_size
                return filesystem.open_input_stream(
                    path, buffer_size=buffer_size, compression=None,
                    **open_args,
                )

            def _read_stream(self, f, path):
                for _, chunk in _chunks(segment_records(f, path), per_block):
                    yield _records_table(chunk)

        return _Impl(paths)


_RECORDS_PER_BLOCK = 256


def _chunks(recs, per_block: int):
    """(ordinal of the first, records) per ``per_block`` records of
    ``recs``."""
    for start in itertools.count(0, per_block):
        chunk = list(itertools.islice(recs, per_block))
        if not chunk:
            return
        yield start, chunk


def segment_keys(src, rank: int, path: str) -> tuple[int, pa.Table]:
    """Pass 1 over one segment: (records read, their ``dedup.winner_keys``
    rows (h, warc_ts, pos)). The segment is opened the way ``src``, the
    reader's ``WarcDatasource``, opens it and walked by the same
    ``segment_records``, so the ordinals match the reader's, damage and
    resyncs included. Silent: the reader's pass logs the damage once."""
    from datacat_ray.stages.dedup import winner_keys

    urls: list = []
    tss: list = []
    with src._open_input_source(src._filesystem, path) as f:
        for rec in segment_records(f, path, warn=False):
            urls.append(rec["url"])
            tss.append(rec["warc_ts"])
    return len(urls), winner_keys(urls, pa.array(tss, pa.int64()), rank,
                                  np.arange(len(urls)))


def latest_captures(src) -> tuple[tuple, list[int]]:
    """The winner set of the WARC datasource ``src`` and the records read
    from each segment: pass 1 runs one plain Ray task per segment
    (``dedup.keys_by_file`` of ``segment_keys``), and ``dedup.winner_set``
    keeps each url's latest (``warc_ts``, ``pos``), over the records read.
    Only key rows move."""
    import ray
    import ray.data

    from datacat_ray.stages.dedup import keys_by_file, winner_set

    files = list(src._paths())
    counts, tables = keys_by_file(files, segment_keys, ray.put(src))
    counts = ray.get(counts)
    return winner_set(
        sum(counts),
        lambda: pa.concat_tables(ray.get(tables)),
        lambda: ray.data.from_arrow_refs(tables),
        files), counts


def segment_winners(src, winners: tuple, per_block: int, rank: int,
                    path: str):
    """The per-file reader of WARC runs: the ``rank``-th segment ``path``,
    opened through ``src`` (the ``WarcDatasource``), walked by
    ``segment_records`` in ``per_block`` chunks, each chunk's winners in
    ``winners`` (``dedup.winner_keep``) as one pages table (maybe empty),
    after one typed empty table."""
    from datacat_ray.stages.dedup import winner_keep

    yield _records_table([])
    with src._open_input_source(src._filesystem, path) as f:
        for start, chunk in _chunks(segment_records(f, path), per_block):
            yield _records_table(list(itertools.compress(chunk, winner_keep(
                rank, start, len(chunk), winners))))


def segment_records(f, path: str = "", warn: bool = True):
    """Yield the {url, warc_ts, html} response records of one WARC segment
    stream ``f`` (raw bytes). Gzip (member-per-record, the CC layout) is
    detected by magic and decompressed on the fly; a damaged member (or
    one that decompresses to garbage framing) costs only its own records:
    the stream resyncs to the next gzip member, with a warning naming
    ``path`` (unless ``warn`` is False). A gzip record is yielded only
    once every member it was read from has checked out, so a member
    damaged past its record's last byte still costs that record."""
    import collections
    import logging
    import zlib

    head = f.read(2)
    buffered = io.BufferedReader(_RawChain(head, f))
    is_gz = head == b"\x1f\x8b"
    gzraw = _GzipMemberStream(buffered) if is_gz else None
    records = (_gz_record_iter(gzraw) if is_gz
               else ((rec, 0) for rec in iter_warc_records(buffered)))
    pending: collections.deque = collections.deque()  # (record, end)
    n_ok = 0
    n_resync = 0
    log = logging.getLogger(__name__)

    def _try_resync(why: str) -> bool:
        nonlocal records, n_resync
        if not is_gz or n_resync >= _MAX_GZ_RESYNC or not gzraw.resync():
            return False
        n_resync += 1
        pending.clear()  # read from the damaged member
        if warn:
            log.warning("WARC segment %s: %s after %d records — resynced "
                        "to the next gzip member", path, why, n_ok)
        records = _gz_record_iter(gzraw)
        return True

    def _checked():
        nonlocal n_ok
        while pending and (not is_gz or pending[0][1] <= gzraw.verified):
            n_ok += 1
            yield pending.popleft()[0]

    while True:
        # deliberately NOT bare OSError: a transport I/O error (flaky FS /
        # object store) must fail the task so Ray retries it — only
        # decompression-level damage is a property of the data itself. The
        # CC layout is one gzip MEMBER per record, so everything after a
        # damaged member is independently decompressible.
        damage = None
        try:
            rec = next(records)
        except StopIteration:
            if not is_gz or gzraw.eof:
                break  # clean end
            # compressed input remains: a member decompressed to garbage
            # framing. Check the rest of it, then go on at the next member
            try:
                gzraw.finish_member()
            except (EOFError, zlib.error) as exc:
                damage = exc
        except (EOFError, zlib.error) as exc:
            damage = exc
        else:
            pending.append(rec)
            yield from _checked()
            continue
        yield from _checked()
        why = ("garbage record framing" if damage is None else
               f"damaged gzip member ({type(damage).__name__}: {damage})")
        if _try_resync(why):
            continue
        if damage is not None and warn:
            log.warning(
                "WARC segment %s truncated/corrupt after %d records "
                "(%s: %s) — keeping the readable prefix",
                path, n_ok, type(damage).__name__, damage)
        break
    yield from _checked()


_MAX_GZ_RESYNC = 1000  # runaway guard: a file of pure noise full of
# false \x1f\x8b magics must not spin forever


class _GzipMemberStream(io.RawIOBase):
    """Streaming multi-member gzip decompressor with BYTE-EXACT input
    tracking, built on ``zlib.decompressobj(31)``. ``gzip.GzipFile``
    buffers compressed input ahead internally, so after a mid-member
    error the underlying stream position is far past the damage and every
    member sitting in that lost read-ahead is unrecoverable; this class
    always knows exactly which compressed bytes are unconsumed
    (``unconsumed_tail``/``unused_data``) and keeps the ones the current
    member consumed, so ``resync()`` can scan from just past the damaged
    member's start for the next member magic and resume — the per-member
    framing of the Common-Crawl layout makes everything after a damaged
    member independently decompressible, even when the damage made its
    decoder run on into the members after it. Raises ``zlib.error`` on damage and
    ``EOFError`` on truncation; both are resync-able. ``tell()`` is the
    count of decompressed bytes handed out, ``verified`` the count up to
    the end of the last member whose CRC and length checked out: a
    member's bytes can be read before its trailer shows it damaged."""

    _CHUNK = 1 << 16
    _KEEP_MAX = 1 << 24

    def __init__(self, raw) -> None:
        self._raw = raw
        self._buf = b""  # compressed, fetched but not yet consumed
        self._obj: "zlib._Decompress | None" = None  # None = at boundary
        # compressed bytes the current member consumed (None past
        # _KEEP_MAX bytes: resync then scans the unconsumed bytes only)
        self._taken: list[bytes] | None = []
        self._taken_n = 0
        self.eof = False
        self._out = 0
        self.verified = 0

    def readable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._out

    def close(self) -> None:
        # intentionally a no-op: every resync discards its BufferedReader
        # view, whose GC would otherwise close this shared stream out from
        # under the replacement view ("readline of closed file"). The
        # underlying file's lifetime belongs to the datasource.
        pass

    def readinto(self, b) -> int:
        import zlib

        while True:
            if self.eof:
                return 0
            if self._obj is None:
                if not self._buf:
                    self._buf = self._raw.read(self._CHUNK) or b""
                if not self._buf:
                    self.eof = True
                    return 0
                self._obj = zlib.decompressobj(31)
                self._taken, self._taken_n = [], 0
            out = self._step(len(b))
            if out:
                n = len(out)
                b[:n] = out
                return n

    def _step(self, n: int) -> bytes:
        """Up to ``n`` decompressed bytes of the current member."""
        if not self._buf:
            self._buf = self._raw.read(self._CHUNK) or b""
        if not self._buf:
            # mid-member EOF: the member is truncated
            raise EOFError("truncated gzip member at EOF")
        inp = self._buf
        out = self._obj.decompress(inp, n)
        self._out += len(out)
        if self._obj.eof:  # member finished cleanly
            self._buf = self._obj.unused_data
            self._obj = None
            self.verified = self._out
        else:
            self._buf = self._obj.unconsumed_tail
        if self._taken is not None:
            self._taken.append(inp[:len(inp) - len(self._buf)])
            self._taken_n += len(self._taken[-1])
            if self._taken_n > self._KEEP_MAX:
                self._taken = None
        return out

    def finish_member(self) -> None:
        """Decompress and drop the rest of the current member, so its
        checks run (raises like ``readinto`` when they fail)."""
        while self._obj is not None:
            self._step(self._CHUNK)

    def resync(self) -> bool:
        """After a decode error: drop decoder state and advance the
        compressed stream to the next member magic. False at EOF."""
        # mid-member (a decompress call failed): the error-raising call left
        # self._buf unchanged (zlib consumed nothing on failure); put back
        # what the member consumed and scan from just past its magic. At a
        # member boundary (garbage record framing) the buffer starts at the
        # next member, whose magic at offset 0 must be kept
        skip = 0
        if self._obj is not None:
            skip = 1
            if self._taken is not None:
                self._buf = b"".join(self._taken) + self._buf
        self._obj = None
        self.eof = False
        while True:
            idx = self._buf.find(b"\x1f\x8b", skip)
            if idx >= 0:
                self._buf = self._buf[idx:]
                return True
            # keep a last byte that may open a magic split across reads
            tail = self._buf[max(skip, len(self._buf) - 1):]
            nxt = self._raw.read(self._CHUNK)
            if not nxt:
                self._buf = b""
                self.eof = True
                return False
            self._buf = tail + nxt
            skip = 0


def _gz_record_iter(gzraw: _GzipMemberStream):
    """(record, decompressed offset of its end) per record of
    iter_warc_records over a fresh buffered view of ``gzraw`` (the old
    view's decompressed read-ahead belongs to the damaged record)."""
    view = io.BufferedReader(gzraw)
    for rec in iter_warc_records(view):
        yield rec, view.tell()


class _RawChain(io.RawIOBase):
    """Prepend already-read sniff bytes back onto a stream; RawIOBase so
    ``io.BufferedReader`` supplies efficient read()/readline() on top."""

    def __init__(self, head: bytes, f):
        self._head = head
        self._f = f

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if self._head:
            n = min(len(b), len(self._head))
            b[:n] = self._head[:n]
            self._head = self._head[n:]
            return n
        data = self._f.read(len(b))
        if not data:
            return 0
        b[: len(data)] = data
        return len(data)


def _records_table(recs: list[dict]) -> pa.Table:
    from datacat_ray.fixtures import PAGES_SCHEMA

    return pa.Table.from_pydict(
        {
            "url": [r["url"] for r in recs],
            "warc_ts": [r["warc_ts"] for r in recs],
            "html": [r["html"] for r in recs],
            "text": [None] * len(recs),
            "lang": [None] * len(recs),
        },
        schema=PAGES_SCHEMA,
    )


def read_warc(paths) -> "ray.data.Dataset":
    """WARC file(s) → Dataset in the pages schema (url, warc_ts, html,
    text, lang), streamed record-by-record via ``WarcDatasource``."""
    import ray.data

    return ray.data.read_datasource(WarcDatasource(paths))


def extract_pages_warc(paths, cfg=None) -> "ray.data.Dataset":
    """Flagship cascade directly over WARC input, shuffle-free, as one Ray
    Data operator. A narrow key pass over the segments builds the winner
    set (``latest_captures``); the run read every flagship shares
    (``sources.ranked.read_runs`` of ``segment_winners``, slices of
    ``cfg.segmenter.batch_size`` rows) then takes each run of segments in
    one task, the fused kernel mapped into it (``extract.map_kernel``), so
    a stale capture never becomes an Arrow row and nothing crosses the
    object store between the read and the kernel. Exactly one row per url,
    the latest ``warc_ts``, a same-second tie going to the later input
    position (segment rank in the reader's file list, then record
    ordinal). A file listed twice (also through its directory) is read
    once. Lazy: the caller consumes the Dataset."""
    from datacat_ray.config import PipelineConfig
    from datacat_ray.pipelines.extract import map_kernel
    from datacat_ray.sources import ranked

    cfg = cfg or PipelineConfig()
    src = WarcDatasource(paths)
    files = list(dict.fromkeys(src._paths()))
    if len(files) < len(src._paths()):
        src = WarcDatasource(files)
    winners, rows = latest_captures(src)
    return map_kernel(ranked.read_runs(
        files, functools.partial(segment_winners, src, winners,
                                 _RECORDS_PER_BLOCK),
        ranked.winner_rows(winners, rows), cfg.segmenter.batch_size), cfg)


# ---------------------------------------------------------------------------
# WET sink: Common-Crawl's extracted-plain-text format (WARC conversion
# records) — the canonical output of a main-content extraction pipeline
# ---------------------------------------------------------------------------


def _wet_record(url: str, ts_us: int, text: str) -> bytes:
    body = text.encode("utf-8")
    return (
        b"WARC/1.0" + _CRLF
        + b"WARC-Type: conversion" + _CRLF
        + f"WARC-Target-URI: {url}".encode() + _CRLF
        + f"WARC-Date: {_warc_date(ts_us)}".encode() + _CRLF
        + b"Content-Type: text/plain" + _CRLF
        + f"Content-Length: {len(body)}".encode() + _CRLF
        + _CRLF
        + body
        + _CRLF + _CRLF
    )


def parse_wet_bytes(data: bytes) -> list[dict]:
    """WET bytes → [{url, warc_ts, text}] from conversion records (shared
    record parser, conversion filter + text decode)."""
    if data[:2] == b"\x1f\x8b":
        stream = gzip.GzipFile(fileobj=io.BytesIO(data))
    else:
        stream = io.BytesIO(data)
    out = []
    for hdr, payload in _iter_raw_records(stream):
        if hdr.get("warc-type") != "conversion":
            continue
        try:
            ts = _parse_warc_date(hdr.get("warc-date", ""))
        except ValueError:
            ts = 0
        out.append(
            {"url": hdr.get("warc-target-uri", ""), "warc_ts": ts,
             "text": payload.decode("utf-8", "replace")}
        )
    return out


_EPOCH = datetime.datetime(1970, 1, 1)


def write_wet(ds, out_dir: str, compress: bool = True) -> list[dict]:
    """Distributed WET sink: each Arrow block of (url, warc_ts, main_text)
    writes its own ``part-<sha>.warc.wet[.gz]`` shard (atomic rename,
    shard name derived from the block's url set). After all shards land, a
    ``wet_manifest.json`` is published atomically and any ``*.warc.wet*``
    file NOT in it is removed — a re-run with different block boundaries
    cannot leave stale shards that duplicate records. Returns the shard
    list."""
    import hashlib
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)

    def _write(t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        tss = t["warc_ts"].to_pylist()
        texts = t["main_text"].to_pylist()
        blob = io.BytesIO()
        for u, ts, tx in zip(urls, tss, texts):
            if hasattr(ts, "timestamp"):
                # naive UTC datetime: epoch math, never .timestamp()
                # (which reinterprets in the host's LOCAL timezone)
                ts_us = (ts - _EPOCH) // datetime.timedelta(microseconds=1)
            else:
                ts_us = int(ts or 0)
            rec = _wet_record(u, ts_us, tx or "")
            blob.write(gzip.compress(rec) if compress else rec)
        sha = hashlib.sha1("\n".join(sorted(urls)).encode()).hexdigest()[:12]
        ext = ".warc.wet.gz" if compress else ".warc.wet"
        name = f"part-{sha}{ext}"
        tmp = os.path.join(out_dir, f".tmp.{name}.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(blob.getvalue())
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.Table.from_pydict(
            {"shard": [name], "n_records": pa.array([len(urls)], pa.int64())}
        )

    shards = ds.map_batches(_write, batch_format="pyarrow").take_all()
    live = {s["shard"] for s in shards}
    mtmp = os.path.join(out_dir, f".tmp.wet_manifest.json.{os.getpid()}")
    with open(mtmp, "w") as fh:
        json.dump(sorted(live), fh, indent=1)
    os.replace(mtmp, os.path.join(out_dir, "wet_manifest.json"))
    for f in os.listdir(out_dir):
        if ".warc.wet" in f and f not in live and not f.startswith(".tmp."):
            os.unlink(os.path.join(out_dir, f))
    return shards
