#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, emits exactly the
   named metrics with their units, matching BENCHMARK.json, and no
   failures.
2. With deliberately corrupted expected outputs, every workload reports
   failed > 0, correct = false and ok_ratio < 1.
3. In a directory holding only BENCHMARK.json and the benchmark's own
   files, run.py exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def bench(workload, trace=0, extra=(), cwd=run.ROOT, script=HERE / "run.py"):
    r = subprocess.run([sys.executable, str(script), "--workload", workload,
                        "--seed", "7", "--seconds", "1", "--trace", str(trace),
                        *extra], capture_output=True, text=True, cwd=cwd,
                       timeout=300)
    result = None
    lines = r.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return r.returncode, result, r.stderr


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def main():
    e2e, layers, workloads = declared()
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(layers == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check(set(workloads) <= set(run.WORKLOADS),
          "BENCHMARK.json workloads are run.py workloads")

    for workload in run.WORKLOADS:
        for trace, units in ((0, e2e), (1, layers)):
            rc, res, err = bench(workload, trace)
            what = f"{workload} --trace {trace}"
            check(rc == 0 and res is not None, f"{what}: exits 0 with a result")
            if res is None:
                sys.stderr.write(err[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result has exactly the four keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what}: correct, nothing failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units, f"{what}: every named metric with its unit")

    for workload in run.WORKLOADS:
        rc, res, _ = bench(workload, 0, ["--corrupt-expected"])
        check(rc == 0 and res is not None and res["failed"] > 0 and
              not res["correct"] and
              res["metrics"]["ok_ratio"]["value"] < 1.0,
              f"{workload}: corrupted expected output is counted as failed")

    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    rc, res, _ = bench("sweep-grid", cwd=bare, script=bare / HERE.name / "run.py")
    check(rc != 0 and res is None, "without the program's sources: non-zero "
          "exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
