"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. Checks, on tiny inputs:

1. each workload's end-to-end run passes its gate and prints every
   end-to-end metric;
2. each workload's traced run passes and prints every per-layer metric;
3. a run whose output has one row dropped and one duplicated reports
   ``failed > 0``, ``correct: false`` and exits non-zero;
4. run from a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]


def _run(args: list[str], cwd: str = ROOT) -> tuple[int, dict | None]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args],
                       cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for tr in (0, 1):
            code, res = _run(["--workload", w, "--trace", str(tr), *TINY])
            expect(code == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] > 0
                   and set(res["metrics"]) == names[tr],
                   f"{w} --trace {tr}: correct, every metric present")

    code, res = _run(["--workload", "catalogue_job", "--trace", "0",
                      "--corrupt", *TINY])
    expect(code != 0 and res is not None and not res["correct"]
           and res["failed"] > 0,
           "dropped + duplicated output row is caught")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res = _run(["--workload", "catalogue_job", "--trace", "0",
                          *TINY], cwd=bare)
        expect(code != 0 and res is None,
               "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
