"""In-process A/B of the extraction kernel: ``FusedExtractStage`` of the
last commit (``HEAD``) against the working tree's, over the catalogue_job
winners of seed 1, at batch sizes 19 and 128, for 20 rounds each.

The last commit's package is written with ``git archive`` into a
temporary directory and imported under another name (``datacat_ray`` is
renamed ``datacat_ray_base`` in its sources), so both kernels run in one
process on the same inputs. Every round runs both sides over all batches
of the winners, alternating which side goes first, and reads the process
CPU time and the cyclic-GC time (``gc.callbacks``) of each side.

Before timing, both sides' outputs must be equal on all 13
``RESULT_SCHEMA`` columns at every batch size; the script exits 1 if any
column differs. It uses no network and writes only under a temporary
directory.

Usage (from the repository root):

    python scripts/kernel_ab.py

After the timed rounds, a second set of rounds runs with a timer around
each phase method of the stage, around the line-feature call
(``line_columns`` per document or ``line_codes`` per batch, whichever the
revision's stage module calls) and around each decoder's ``paths`` (the
names differ between revisions; each side reports the ones it has). A
timed call nests inside its phase: the line-feature call counts in
``_lines`` or ``_seg_emissions`` too. Prints one table per batch size,
then one JSON line.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_PKG = "datacat_ray_base"
BASE_REV = "HEAD"
BATCHES = (19, 128)
SEED = 1
ROUNDS = 20
# the leaf phase methods; a revision without one of them skips it (the
# entry spans ran inside ``_lexical_emissions`` before ``_body_spans``;
# ``_zones`` ran once per document before the zones came from one span
# decode of the batch, and ``_assemble`` built entry dicts for the TEI)
PHASES = ("_lines", "_seg_emissions", "_zones", "_body_emissions",
          "_body_spans", "_lexical_emissions", "_lexical_spans", "_assemble")
# the line-feature layer, a function of the stage's module
LINE_FEATURES = ("line_columns", "line_codes")


def load_base(tmp: str):
    """The last commit's ``pipelines.extract`` module, renamed."""
    blob = subprocess.run(["git", "archive", BASE_REV, "datacat_ray"],
                          cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(tmp, filter="data")
    os.rename(os.path.join(tmp, "datacat_ray"), os.path.join(tmp, BASE_PKG))
    word = re.compile(r"\bdatacat_ray\b")
    for d, _, files in os.walk(os.path.join(tmp, BASE_PKG)):
        for f in files:
            if f.endswith(".py"):
                p = os.path.join(d, f)
                with open(p, encoding="utf-8") as fh:
                    src = fh.read()
                with open(p, "w", encoding="utf-8") as fh:
                    fh.write(word.sub(BASE_PKG, src))
    sys.path.insert(0, tmp)
    import importlib

    return importlib.import_module(f"{BASE_PKG}.pipelines.extract")


def winners(tmp: str):
    """The catalogue_job winners (perfbench's input generator and
    keep-latest reference)."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gate
    import workloads

    d = tempfile.mkdtemp(dir=tmp)
    inputs = workloads.WORKLOADS["catalogue_job"].make_inputs(SEED, 1.0, d)
    return gate.expected_winners(inputs.pages)


def digests(table) -> dict[str, str]:
    return {c: hashlib.blake2b(json.dumps(
        table[c].to_pylist(), default=str, ensure_ascii=False).encode(),
        digest_size=16).hexdigest() for c in table.column_names}


class GCTimer:
    """Wall time spent in cyclic-GC collections while installed."""

    def __init__(self) -> None:
        self.ns = 0
        self._t0 = 0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._t0


def timed_pass(stage, batches, gct: GCTimer) -> tuple[float, float]:
    """(process CPU s, GC s) of one pass of ``stage`` over ``batches``."""
    g0 = gct.ns
    t0 = time.process_time()
    for b in batches:
        stage(b)
    return time.process_time() - t0, (gct.ns - g0) / 1e9


def instrument(module, stage, acc: dict) -> list:
    """Accumulate the CPU time of each phase method of ``stage``, of the
    line-feature call of its ``module`` and of its decoders' ``paths``
    into ``acc``. Returns the (module, name, function) of each module
    function it wrapped, to put back."""
    wrapped = []

    def wrap(name, fn):
        def timed(*a, **k):
            t0 = time.process_time()
            try:
                return fn(*a, **k)
            finally:
                acc[name] = acc.get(name, 0.0) + time.process_time() - t0
        return timed

    for name in PHASES:
        if hasattr(stage, name):
            setattr(stage, name, wrap(name, getattr(stage, name)))
    for name in LINE_FEATURES:
        if hasattr(module, name):
            wrapped.append((module, name, getattr(module, name)))
            setattr(module, name, wrap(name, getattr(module, name)))
    for level in ("seg", "body", "lexical"):
        dec = getattr(stage, level)
        dec.paths = wrap(f"{level}.paths", dec.paths)
    return wrapped


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base_ex = load_base(tmp)
        sys.path.insert(0, ROOT)
        import pyarrow as pa

        import datacat_ray.pipelines.extract as new_ex

        win = winners(tmp)
        n_docs = win.num_rows
        report = {"base": BASE_REV, "docs": n_docs, "rounds": ROUNDS,
                  "batches": {}}
        gct = GCTimer()
        gc.callbacks.append(gct)
        for bs in BATCHES:
            batches = [win.slice(i, bs) for i in range(0, n_docs, bs)]
            modules = {"base": base_ex, "new": new_ex}
            sides = {k: m.FusedExtractStage() for k, m in modules.items()}
            outs = {k: pa.concat_tables([st(b) for b in batches])
                    for k, st in sides.items()}
            want, got = digests(outs["base"]), digests(outs["new"])
            bad = [c for c in want if want[c] != got.get(c)]
            if len(want) != 13 or bad or set(want) != set(got):
                print(f"batch {bs}: outputs differ on {bad}", file=sys.stderr)
                return 1
            cpu = {k: [] for k in sides}
            gcs = {k: [] for k in sides}
            for r in range(ROUNDS):
                order = ("base", "new") if r % 2 == 0 else ("new", "base")
                for k in order:
                    c, g = timed_pass(sides[k], batches, gct)
                    cpu[k].append(1000 * c / n_docs)
                    gcs[k].append(1000 * g / n_docs)
            ratio = [n / b for n, b in zip(cpu["new"], cpu["base"])]
            q1, med, q3 = statistics.quantiles(ratio, n=4)
            row = {
                "cpu_ms_per_doc": {k: statistics.median(v)
                                   for k, v in cpu.items()},
                "gc_ms_per_doc": {k: statistics.median(v)
                                  for k, v in gcs.items()},
                "ratio_median": med, "ratio_iqr": q3 - q1,
                "wins": sum(x < 1 for x in ratio),
            }
            acc = {k: {} for k in sides}
            wrapped = [w for k, st in sides.items()
                       for w in instrument(modules[k], st, acc[k])]
            for r in range(ROUNDS):
                order = ("base", "new") if r % 2 == 0 else ("new", "base")
                for k in order:
                    timed_pass(sides[k], batches, gct)
            for module, name, fn in wrapped:
                setattr(module, name, fn)
            row["phase_ms_per_doc"] = {
                k: {p: 1000 * s / n_docs / ROUNDS
                    for p, s in v.items()} for k, v in acc.items()}
            report["batches"][bs] = row
            print(f"batch {bs}: {n_docs} docs, {ROUNDS} rounds, "
                  f"13/13 columns equal")
            print(f"  {'':22s}{'base':>10s}{'new':>10s}")
            for key in ("cpu_ms_per_doc", "gc_ms_per_doc"):
                print(f"  {key:22s}{row[key]['base']:10.4f}"
                      f"{row[key]['new']:10.4f}")
            print(f"  ratio median {med:.3f}  IQR {q3 - q1:.3f}  "
                  f"wins {row['wins']}/{ROUNDS}")
            for k, phases in row["phase_ms_per_doc"].items():
                print(f"  {k} phases: " + ", ".join(
                    f"{p} {v:.4f}" for p, v in phases.items()))
        gc.callbacks.remove(gct)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
