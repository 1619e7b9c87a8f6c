"""Correctness gate, computed independently of the run it checks.

- The expected winner set comes from a polars group-by max of ``warc_ts``
  over the rows the program received.
- The expected outputs come from one single-process ``FusedExtractStage``
  pass over those winners (no Ray, no dedup code from the program).
- A url fails if it is missing, emitted more than once, differs from the
  reference on a contract column, or carries an ``error`` that is not a
  ``TOO_MANY_*`` cap reject. ``failed_frac`` = failed urls / expected urls.

Contract columns: url, warc_ts, extracted_text, main_text, tei, tei_body,
zones, entries, n_lines, n_tokens, error (``lexical`` is left out: it has no
reference counterpart). Paths that emit WET text instead of result rows are
compared on url, warc_ts and main_text.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.feather as feather

from workloads import RESULT_COLUMNS

_EPOCH = datetime.datetime(1970, 1, 1)


def _ts_us(v) -> int | None:
    if isinstance(v, datetime.datetime):
        return (v - _EPOCH) // datetime.timedelta(microseconds=1)
    return v


def row_key(row: dict, columns) -> str:
    vals = [_ts_us(row[c]) if c == "warc_ts" else row[c] for c in columns]
    blob = json.dumps(vals, sort_keys=True, ensure_ascii=False)
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def expected_winners(pages: pa.Table) -> pa.Table:
    """Latest capture per url, by polars group-by max — the keep-latest
    semantics the program's dedup must reproduce."""
    import polars as pl

    df = pl.from_arrow(pages)
    latest = df.group_by("url").agg(pl.col("warc_ts").max())
    win = df.join(latest, on=["url", "warc_ts"], how="inner").sort("url")
    if win.height != latest.height:
        raise ValueError("generated input has tied latest captures")
    return win.to_arrow().cast(pages.schema)


def fused_pass(winners: pa.Table) -> pa.Table:
    """One single-process ``FusedExtractStage`` pass (no Ray, no dedup)."""
    from datacat_ray.pipelines.extract import FusedExtractStage

    return FusedExtractStage()(winners)


def reject_reason(err: str | None) -> str | None:
    if not err:
        return None
    return err.split(":", 1)[0]


@dataclass
class Reference:
    winners: pa.Table
    result: pa.Table

    @classmethod
    def build(cls, pages: pa.Table, cache_dir: str | None = None,
              source_hash: str = "") -> "Reference":
        """With ``cache_dir``, the reference result is reused across runs
        whose winners are byte-identical under the same program source."""
        winners = expected_winners(pages)
        path = None
        if cache_dir:
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, winners.schema) as w:
                w.write_table(winners)
            h = hashlib.blake2b(source_hash.encode(), digest_size=16)
            h.update(sink.getvalue())
            path = os.path.join(cache_dir, f"ref-{h.hexdigest()}.arrow")
            if os.path.exists(path):
                return cls(winners, feather.read_table(path))
        result = fused_pass(winners)
        if path:
            os.makedirs(cache_dir, exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            feather.write_feather(result, tmp)
            os.replace(tmp, path)
        return cls(winners, result)

    @property
    def expected(self) -> int:
        return self.winners.num_rows

    def keys(self, columns) -> dict[str, str]:
        return {r["url"]: row_key(r, columns) for r in self.result.to_pylist()}

    def rejects(self) -> Counter:
        return Counter(
            reject_reason(e) for e in self.result["error"].to_pylist() if e
        )


class Gate:
    """Checks one run's emitted rows against the reference."""

    def __init__(self, ref: Reference) -> None:
        self.ref = ref
        self._keys: dict[tuple, dict[str, str]] = {}
        self._bad_error = {
            r["url"] for r in ref.result.select(["url", "error"]).to_pylist()
            if r["error"] and not r["error"].startswith("TOO_MANY_")
        }

    def check(self, rows: list[dict]) -> Counter:
        """Failure counts by kind; ``sum(...)`` is the failed-url count."""
        columns = (RESULT_COLUMNS if rows and "tei" in rows[0]
                   else ("url", "warc_ts", "main_text"))
        want = self._keys.get(columns)
        if want is None:
            want = self._keys[columns] = self.ref.keys(columns)
        seen = Counter(r["url"] for r in rows)
        fails: Counter = Counter()
        bad: set[str] = set()
        for url in want:
            if url not in seen:
                fails["missing"] += 1
                bad.add(url)
            elif seen[url] > 1:
                fails["duplicated"] += 1
                bad.add(url)
        for url in seen:
            if url not in want:
                fails["unexpected"] += 1
        for r in rows:
            url = r["url"]
            if url in bad or url not in want:
                continue
            if row_key(r, columns) != want[url]:
                fails["digest_mismatch"] += 1
                bad.add(url)
            elif url in self._bad_error:
                fails["error"] += 1
                bad.add(url)
        return fails
