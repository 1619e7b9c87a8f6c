"""Alternated A/B of both paths of every size-picked operator pair.

Seven operators pick between two paths only from a size they measure.
This script forces each side through that pair's threshold constant (read
on the driver), times both sides at the scale factors ``sf0.01`` and
``sf0.1`` of the test data, and checks that both sides return the same
rows:

    minhash_candidate_pairs   broadcast / join      _CAND_BROADCAST_MAX
    ngram_jaccard_pairs       broadcast / join      _CAND_BROADCAST_MAX
    embedding_neardup_pairs   broadcast / join      _CAND_BROADCAST_MAX
    incremental_dedup         broadcast / join      _BLOOM_CAND_MAX
    neardup_clusters          driver / distributed  _UF_MAX_PAIRS
    dedup_latest_prefilter    driver / bucketed     _DRIVER_WINNER_ROWS
      (keep the latest event per user: ``events.parquet`` as url
      captures, ``url`` = user_id, ``warc_ts`` = ts, in two fragments;
      the bucketed side files the winners by fragment rank, so a read
      task probes the one bucket file of its fragment)
    extract_pages_warc        driver / bucketed     _DRIVER_WINNER_ROWS
      (the same captures as four gzip WARC segments, one small page per
      event, through the whole WARC flagship; the bucketed side files
      the winners by segment rank, one bucket file per read task)

One untimed run of each side warms worker processes and caches; then
each round runs both sides of the pair, alternating which side goes
first. Each operator finishes all its rounds before the next one starts. A side
is timed from building its Dataset to the end of ``take_all``. The
bucketed winner side gets a fresh ``winner_dir`` (WARC: a fresh
``DATACAT_SCRATCH``) per run, so its winner parquet is rebuilt every time
like the driver side's winner map.

Usage (from the repository root, no options):

    python scripts/modes_ab.py

Prints one table per scale (per-side median seconds, ratio, rounds the
first side won, row digests equal), then one JSON line. Exits 1 if the
two sides of any pair return different row sets (order-insensitive).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import SF_DIR  # noqa: E402

DATA = os.path.dirname(SF_DIR)  # the test-data root (TESTDATA.md)
SCALES = ("sf0.01", "sf0.1")
ROUNDS = 5
NUM_CPUS = 4


def pairs(tmp: str):
    """(operator, module, constant, (side, value) × 2, run(sf) → Dataset)."""
    from datacat_ray.pipelines import dedup_ops as DO
    from datacat_ray.stages import dedup as D

    captures: dict[str, str] = {}

    segments: dict[str, list[str]] = {}

    def latest_event(sf):
        if sf not in captures:
            captures[sf] = _event_captures(sf, tmp)
        return D.dedup_latest_prefilter(
            captures[sf], winner_dir=tempfile.mkdtemp(dir=tmp))

    def latest_event_warc(sf):
        from datacat_ray.sources.warc import extract_pages_warc

        if sf not in segments:
            segments[sf] = _event_segments(sf, tmp)
        os.environ["DATACAT_SCRATCH"] = tempfile.mkdtemp(dir=tmp)
        return extract_pages_warc(segments[sf])

    return [
        ("minhash_candidate_pairs", DO, "_CAND_BROADCAST_MAX",
         (("broadcast", DO._CAND_BROADCAST_MAX), ("join", -1)),
         DO.minhash_candidate_pairs),
        ("ngram_jaccard_pairs", DO, "_CAND_BROADCAST_MAX",
         (("broadcast", DO._CAND_BROADCAST_MAX), ("join", -1)),
         DO.ngram_jaccard_pairs),
        ("embedding_neardup_pairs", DO, "_CAND_BROADCAST_MAX",
         (("broadcast", DO._CAND_BROADCAST_MAX), ("join", -1)),
         DO.embedding_neardup_pairs),
        ("incremental_dedup", DO, "_BLOOM_CAND_MAX",
         (("broadcast", DO._BLOOM_CAND_MAX), ("join", -1)),
         DO.incremental_dedup),
        ("neardup_clusters", DO, "_UF_MAX_PAIRS",
         (("driver", DO._UF_MAX_PAIRS), ("distributed", -1)),
         DO.neardup_clusters),
        ("dedup_latest_prefilter", D, "_DRIVER_WINNER_ROWS",
         (("driver", D._DRIVER_WINNER_ROWS), ("bucketed", -1)),
         latest_event),
        ("extract_pages_warc", D, "_DRIVER_WINNER_ROWS",
         (("driver", D._DRIVER_WINNER_ROWS), ("bucketed", -1)),
         latest_event_warc),
    ]


def _event_captures(sf: str, tmp: str) -> str:
    """``events.parquet`` rewritten as a url-capture table (the url dedup's
    fixed key and order columns), split over two fragments."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    ev = pq.read_table(f"{sf}/events.parquet")
    caps = pa.table({"url": pc.cast(ev["user_id"], pa.string()),
                     "warc_ts": ev["ts"], "event_id": ev["event_id"]})
    d = tempfile.mkdtemp(dir=tmp)
    half = caps.num_rows // 2
    pq.write_table(caps.slice(0, half), os.path.join(d, "a.parquet"))
    pq.write_table(caps.slice(half), os.path.join(d, "b.parquet"))
    return d


def _event_segments(sf: str, tmp: str, n_segments: int = 4) -> list[str]:
    """``events.parquet`` as gzip WARC segments: one response record per
    event (url = user_id, WARC-Date = ts to the second, a one-paragraph
    page naming the event), in ``n_segments`` contiguous slices."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datacat_ray.sources.warc import write_warc

    ev = pq.read_table(f"{sf}/events.parquet")
    ev = ev.set_column(1, "ts", ev["ts"].cast(pa.int64())).to_pylist()
    recs = [{"url": f"https://users.example.org/{e['user_id']}",
             "warc_ts": e["ts"],
             "html": (f"<html><body><p>{e['event_type']} {e['value']} "
                      f"{e['event_id']}</p></body></html>").encode()}
            for e in ev]
    d = tempfile.mkdtemp(dir=tmp)
    step = -(-len(recs) // n_segments)
    return [write_warc(os.path.join(d, f"seg-{k}.warc.gz"),
                       recs[k * step:(k + 1) * step])
            for k in range(n_segments)]


def digest(rows: list[dict]) -> str:
    """Order-insensitive digest of a row set."""
    lines = sorted(repr(sorted(r.items())) for r in rows)
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()[:16]


def run_side(mod, const: str, value, run, sf: str) -> tuple[float, str]:
    old = getattr(mod, const)
    setattr(mod, const, value)
    try:
        t0 = time.perf_counter()
        rows = run(sf).take_all()
        dt = time.perf_counter() - t0
    finally:
        setattr(mod, const, old)
    return dt, digest(rows)


def main() -> int:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    out: dict = {"rounds": ROUNDS, "num_cpus": NUM_CPUS, "scales": {}}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for scale in SCALES:
            sf = os.path.join(DATA, scale)
            res = {}
            for name, mod, const, sides, run in pairs(tmp):
                for _, value in sides:  # warm-up, untimed
                    run_side(mod, const, value, run, sf)
                times = {s: [] for s, _ in sides}
                digests = {s: set() for s, _ in sides}
                for r in range(ROUNDS):
                    order = sides if r % 2 == 0 else sides[::-1]
                    for side, value in order:
                        dt, d = run_side(mod, const, value, run, sf)
                        times[side].append(dt)
                        digests[side].add(d)
                (a, _), (b, _) = sides
                equal = len(digests[a] | digests[b]) == 1
                ok &= equal
                res[name] = {
                    "sides": [a, b],
                    "median_s": [round(statistics.median(times[a]), 3),
                                 round(statistics.median(times[b]), 3)],
                    "ratio": round(statistics.median(times[a])
                                   / statistics.median(times[b]), 3),
                    "first_side_wins": sum(x < y for x, y in
                                           zip(times[a], times[b])),
                    "rows_equal": equal,
                }
            out["scales"][scale] = res
            print(f"\n{scale} ({ROUNDS} alternated rounds, median s)")
            print(f"{'operator':26} {'side A':>22} {'side B':>24} "
                  f"{'A/B':>6} {'A wins':>7} {'equal':>6}")
            for name, r in res.items():
                a, b = r["sides"]
                ma, mb = r["median_s"]
                print(f"{name:26} {a:>12} {ma:9.3f} {b:>14} {mb:9.3f} "
                      f"{r['ratio']:6.3f} {r['first_side_wins']:>4}/{ROUNDS} "
                      f"{str(r['rows_equal']):>6}")
    ray.shutdown()
    print(json.dumps(out))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
