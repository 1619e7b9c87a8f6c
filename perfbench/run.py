"""Flagship extraction benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see ``perfbench/layers.json``):
``catalogue_job`` and ``warc_wet``.

``--trace 0`` (end to end): generate the input from the seed, then twice
set up Ray (``ray.init`` with ``num_cpus`` = what ``nproc`` prints,
the pipeline's data context, one warm-up job on a small input with other
page content) and time one job; more jobs follow until ``--seconds`` of
job time are measured. Every job's output goes through the correctness
gate, and every job is followed by the host-speed probe (``probe.py``).
Both timings are reported at the probe's reference host speed, because
the speed of a shared host's CPU swings by 15-40% over minutes, longer
than a run: ``docs_per_s_norm`` is the median over jobs of docs/s ×
(that job's probe seconds ÷ ``probe.REF_S``), and ``setup_s`` the median
set-up seconds × (``probe.REF_S`` ÷ the run's median probe seconds). The
unscaled figures are in the detail line. Also reported: the driver's and
Ray workers' peak RSS.

``--trace 1`` (per layer): one set-up, two Ray runs of the job, the layer
probes (dedup winners, WARC read, WET write, manifest), and a traced
single-process walk of the kernel checked against the untraced pass.

The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries the run's details
(``failed_frac``, ``host_burn_s``, per-repeat figures, operator tables).
Exit status is 0 when the outputs are correct, 1 when they are not, and 2
when the program is not in the working directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import time

import env
import probe

SETUPS = 2
MAX_REPEATS = 50
WARM_SCALE = 0.1  # warm-up input size relative to the measured input
WARM_SEED_OFFSET = 1_000_003
PAIR_ROWS = 32
PAIR_ROUNDS = 2



def _metric_units(kind: str) -> dict[str, str]:
    """Metric name → unit, from ``BENCHMARK.json`` (``end_to_end`` or
    ``per_layer``)."""
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _quantile(vals: list[float], q: float) -> float:
    vals = sorted(vals)
    if len(vals) == 1:
        return vals[0]
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _timed(fn, n: int = 5) -> float:
    """Median wall seconds of ``n`` calls."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


class Run:
    def __init__(self, args, work: str, session: env.RaySession) -> None:
        import gate
        import workloads

        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]
        self.work = work
        self.session = session
        self.inputs = self.wl.make_inputs(args.seed, args.scale,
                                          self._dir("in"))
        self.warm = self.wl.make_inputs(
            args.seed, args.scale * WARM_SCALE, self._dir("warm-in"),
            content_seed=workloads.FIXTURE_SEED + WARM_SEED_OFFSET)
        # timed runs may reuse a cached reference; a traced run computes its
        # own, which takes the process's cold start before the paired passes
        cache = None if args.trace else os.path.join(env.STATE_DIR, "cache")
        src = env.source_hash()
        self.ref = gate.Reference.build(self.inputs.pages, cache, src)
        self.gate = gate.Gate(self.ref)
        self.warm_gate = gate.Gate(
            gate.Reference.build(self.warm.pages, cache, src))
        self.attempted = 0
        self.fails: dict[str, int] = {}
        self.problems: list[str] = []
        self.detail: dict = {"workload": args.workload, "seed": args.seed,
                             "input_rows": self.inputs.pages.num_rows,
                             "expected_docs": self.ref.expected}
        self._n = 0

    def _dir(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _out(self, name: str) -> str:
        self._n += 1
        return self._dir(f"{name}-{self._n}")

    def check(self, job) -> None:
        rows = job.rows
        if self.args.corrupt and len(rows) > 1:
            # self-check hook: drop one emitted row, duplicate another
            rows = rows[1:] + rows[-1:]
        fails = self.gate.check(rows)
        self.attempted += self.ref.expected
        for k, v in fails.items():
            self.fails[k] = self.fails.get(k, 0) + v

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.session.start()
        warm = self.wl.run_job(self.warm, self._out("warm-out"))
        secs = time.perf_counter() - t0
        probe.probe_s()  # the probe's own first run starts its workers
        if sum(self.warm_gate.check(warm.rows).values()):
            self.problems.append("warm-up job output failed the gate")
        return secs

    # -- end to end ---------------------------------------------------------

    def repeat(self) -> dict:
        """One timed job on the measured input, gated, then the host-speed
        probe; peak RSS restarts before the job so each repeat reports its
        own peaks."""
        env.reset_peak_rss()
        for p in env.ray_worker_pids():
            env.reset_peak_rss(p)
        job = self.wl.run_job(self.inputs, self._out("out"))
        workers = [env.peak_rss_mb(p) for p in env.ray_worker_pids()]
        rep = {"docs": job.docs, "wall_s": job.wall_s,
               "docs_per_s": job.docs / job.wall_s,
               "driver_peak_rss_mb": env.peak_rss_mb(),
               "worker_peak_rss_mb": max(workers, default=0.0),
               "probe_s": probe.probe_s()}
        rep["docs_per_s_norm"] = rep["docs_per_s"] * rep["probe_s"] / probe.REF_S
        self.check(job)
        if not self.detail.get("repeats"):
            self.problems += self.wl.extra_checks(self.inputs, job)
        if job.out_dir:
            shutil.rmtree(job.out_dir, ignore_errors=True)
        self.detail.setdefault("repeats", []).append(rep)
        return rep

    def end_to_end(self) -> dict:
        """Two set-ups, each followed by half of ``--seconds`` of timed
        jobs, each job paired with a probe run right after it."""
        import ray  # noqa: F401 — import cost stays out of setup_s

        setups, reps = [], []
        for i in range(SETUPS):
            if i:
                self.session.stop()
            setups.append(self.setup())
            share = self.args.seconds * (i + 1) / SETUPS
            first = len(reps)
            while len(reps) == first or (
                    sum(r["wall_s"] for r in reps) < share
                    and len(reps) < MAX_REPEATS):
                reps.append(self.repeat())
        self.session.stop()
        self.detail["setup_runs_s"] = setups
        med = {k: statistics.median(r[k] for r in reps)
               for k in ("docs_per_s", "probe_s", "docs_per_s_norm",
                         "driver_peak_rss_mb", "worker_peak_rss_mb")}
        self.detail.update(docs_per_s=med["docs_per_s"],
                           setup_s=statistics.median(setups),
                           probe_s=med["probe_s"], probe_ref_s=probe.REF_S)
        return {"docs_per_s_norm": med["docs_per_s_norm"],
                "setup_s": statistics.median(setups) * probe.REF_S / med["probe_s"],
                "driver_peak_rss_mb": med["driver_peak_rss_mb"],
                "worker_peak_rss_mb": med["worker_peak_rss_mb"]}

    # -- per layer ----------------------------------------------------------

    def _parquet_form(self) -> str:
        """The input as parquet fragments (the WARC workload's own pages
        in 25-row fragments), for the probes that read parquet."""
        if isinstance(self.inputs.path, str):
            return self.inputs.path
        import workloads

        path = self._dir("parquet-form")
        n = self.inputs.pages.num_rows
        workloads.write_fragments(self.inputs.pages, path, [25] * (n // 25) + [n % 25])
        return path

    def _warc_form(self) -> list[str]:
        """The input as WARC segments, for the WARC-reader probe."""
        if not isinstance(self.inputs.path, str):
            return self.inputs.path
        import workloads

        return workloads.write_warc_segments(
            workloads.warc_records(self.inputs.pages), self._dir("warc-form"),
            workloads.WarcWet.segments)

    def layers(self) -> dict:
        import ray.data

        import gate
        import trace
        import workloads
        from datacat_ray.sources.warc import read_warc, write_wet
        from datacat_ray.stages.dedup import compute_winners
        from datacat_ray.state.manifest import completed_partitions

        m: dict[str, float] = {}
        parquet = self._parquet_form()
        warc = self._warc_form()
        self.detail["setup_runs_s"] = [self.setup()]

        # the workload's own Ray job, twice: the second run is measured (in
        # this mode the first job after the set-up reads about 0.5-1 s slow)
        for _ in range(2):
            job = self.wl.run_job(self.inputs, self._out("out"))
            self.check(job)
        ray_job_s = job.wall_s
        dataset, records = job.dataset, job.records
        if dataset is None:  # manifest job: Ray ops from the Dataset form
            ds_job = workloads.dataset_job(parquet)
            self.check(ds_job)
            dataset = ds_job.dataset
        else:  # Dataset job: manifest figures from the manifest job
            mjob = workloads.manifest_job(parquet, self._out("manifest-out"))
            self.check(mjob)
            records = mjob.records
            job = mjob
        ops = trace.operator_stats(dataset)
        self.detail["operators"] = ops
        m.update(trace.role_metrics(ops))

        walls = [r["wall_sec"] for r in records]
        m["manifest.partition_s_p50"] = _quantile(walls, 0.5)
        m["manifest.partition_s_p90"] = _quantile(walls, 0.9)
        m["manifest.output_bytes_per_doc"] = (
            sum(r["output_bytes"] for r in records)
            / max(1, sum(r["rows_out"] for r in records)))
        m["manifest.resume_scan_ms"] = 1000 * _timed(
            lambda: completed_partitions(job.out_dir))
        self.detail["manifest_partitions"] = len(records)

        winners = compute_winners(parquet)
        m["dedup.winners_s"] = _timed(lambda: compute_winners(parquet))
        m["dedup.kept_frac"] = len(winners) / self.inputs.pages.num_rows

        t0 = time.perf_counter()
        n = sum(b.num_rows for b in read_warc(warc).iter_batches(
            batch_format="pyarrow", batch_size=None))
        m["warc.read_records_per_s"] = n / (time.perf_counter() - t0)

        wet_dir = self._dir("wet-probe")
        t0 = time.perf_counter()
        write_wet(ray.data.from_arrow(
            self.ref.result.select(["url", "warc_ts", "main_text"])), wet_dir)
        m["wet.write_s"] = time.perf_counter() - t0
        m["wet.bytes_per_doc"] = sum(
            os.path.getsize(f) for f in glob.glob(os.path.join(wet_dir, "*.warc.wet*"))
        ) / self.ref.expected
        self.session.stop()

        # single-process kernel: traced walk and untraced fused stage,
        # alternating every PAIR_ROWS documents so host-load swings hit
        # both alike, PAIR_ROUNDS times over (fresh decoders each round; the
        # reference pass already took the process's cold start)
        tracer = trace.Tracer()
        traced_s = fused_s = 0.0
        cols = workloads.RESULT_COLUMNS
        for r in range(PAIR_ROUNDS):
            traced, t_s, plain, f_s, pos, st = trace.paired_passes(
                self.ref.winners, tracer, PAIR_ROWS, first_traced=bool(r % 2))
            traced_s += t_s
            fused_s += f_s
            if not r:
                positions, stage = pos, st
            if [gate.row_key(x, cols) for x in traced.to_pylist()] != \
                    [gate.row_key(x, cols) for x in plain.to_pylist()]:
                self.problems.append(
                    "traced walk output differs from the fused stage")
        docs = self.ref.expected * PAIR_ROUNDS
        self_ns = tracer.self_ns()
        layer_ms = 0.0
        for layer in trace.LAYERS:
            m[f"{layer}.ms_per_doc"] = self_ns.get(layer, 0) / 1e6 / docs
            layer_ms += m[f"{layer}.ms_per_doc"]
        m["extract.fused_ms_per_doc"] = 1000 * fused_s / docs
        m["extract.unattributed_ms_per_doc"] = m["extract.fused_ms_per_doc"] - layer_ms
        m["trace.overhead_frac"] = traced_s / fused_s - 1
        m["extract.ray_overhead_s"] = ray_job_s - fused_s / PAIR_ROUNDS
        for d in trace.DECODERS:
            m[f"crf.{d}.positions"] = positions[d]
            m[f"crf.{d}.emission_keys"] = len(getattr(stage, d)._ecache)
        rejects = self.ref.rejects()
        self.detail["rejects"] = dict(rejects)
        m["rejects.TOO_MANY_TOKENS"] = rejects.get("TOO_MANY_TOKENS", 0)
        m["rejects.TOO_MANY_BLOCKS"] = rejects.get("TOO_MANY_BLOCKS", 0)
        m["rejects.exception"] = sum(
            v for k, v in rejects.items() if not k.startswith("TOO_MANY_"))
        self.detail.update(ray_job_s=ray_job_s, fused_s=fused_s,
                           traced_s=traced_s, pair_rounds=PAIR_ROUNDS,
                           spans=len(tracer))

        out_dir = os.path.join(env.STATE_DIR, "traces")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"{self.args.workload}-seed{self.args.seed}.json")
        tracer.dump(path)
        self.detail["trace_file"] = os.path.relpath(path, env.ROOT)
        return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-check knobs (perfbench/selfcheck.py)
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    env.require_program()
    env.pin_cpus()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    burn = env.host_burn_s()
    work = env.make_work_dir(f"{args.workload}-s{args.seed}")
    session = env.RaySession()
    try:
        run = Run(args, work, session)
        if args.trace:
            values = run.layers()
            values["host.burn_s"] = burn
            run.detail["layers"] = values
            units = _metric_units("per_layer")
        else:
            values = run.end_to_end()
            units = _metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    finally:
        session.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(run.fails.values())
    correct = failed == 0 and not run.problems
    run.detail.update(host_burn_s=burn, failed_by_kind=run.fails,
                      failed_frac=failed / max(1, run.attempted),
                      problems=run.problems)
    print(json.dumps({"detail": run.detail}, default=str))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
