#!/usr/bin/env python3
"""Benchmark regression gate (the CI bench-smoke job; run locally anytime).

Compares google-benchmark JSON result files against the checked-in
``BENCH_baseline.json`` and classifies every benchmark:

* ``error_occurred`` in a result (a ``Checked`` variant's in-loop assertion
  fired, e.g. a determinism mismatch) is always a **failure** — these
  benchmarks exist so that a correctness regression cannot hide behind a
  throughput number.
* A ``Checked`` benchmark slower than ``--fail-ratio`` (default 2.0x) of
  its baseline is a **failure**: the correctness-asserting variants are the
  ones whose runtime CI must keep honest.
* Any benchmark slower than ``--warn-ratio`` (default 1.25x) is a
  **warning** — reported, never fatal, because CI runners are noisy and the
  baseline was recorded on different hardware.  Faster is always fine.
* Benchmarks missing from the baseline are reported as new.
* ``RATIO_GATES`` below are **within-run** ratios between two benchmarks of
  the same results: both halves ran on the same host in the same job, so
  the gate does not depend on the hardware the baseline was recorded on.
  A ratio above its bound is a **failure**; a gate whose two benchmarks are
  not both in the results is skipped (reported, not fatal).

Usage::

    tools/bench_compare.py BENCH_baseline.json build/bench_*.json
    tools/bench_compare.py --update BENCH_baseline.json build/bench_*.json

``--update`` rewrites the baseline from the given results (run it on the
reference machine after an intentional performance change).
"""

from __future__ import annotations

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# (numerator, denominator, max ratio): fail when numerator / denominator
# from the same results exceeds the bound.
RATIO_GATES = [
    # Layout-on evaluation (analytic point + closed-form wire model) within
    # 10x of one analytic point.
    ("BM_LayoutStage", "BM_CostModelScalar/INT8/1", 10.0),
]


def load_results(paths):
    """Yield (name, real_time_ns, error_occurred) from result files."""
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            scale = _UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            yield (
                bench["name"],
                float(bench["real_time"]) * scale,
                bool(bench.get("error_occurred", False)),
            )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="path to BENCH_baseline.json")
    parser.add_argument("results", nargs="+", help="benchmark JSON outputs")
    parser.add_argument("--warn-ratio", type=float, default=1.25)
    parser.add_argument("--fail-ratio", type=float, default=2.0)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the given results instead of "
        "comparing",
    )
    args = parser.parse_args(argv)

    current = {}
    errors = []
    for name, time_ns, error_occurred in load_results(args.results):
        current[name] = time_ns
        if error_occurred:
            errors.append(name)

    if args.update:
        # Merge-preserve: entries already in the baseline but absent from
        # these results survive the rewrite, so updating from one bench
        # binary (say, only the serve benchmarks) cannot silently drop the
        # rest of the fleet's baselines.
        merged = {}
        try:
            with open(args.baseline, "r", encoding="utf-8") as f:
                merged.update(json.load(f).get("benchmarks", {}))
        except (OSError, ValueError):
            pass  # no (or unreadable) prior baseline: start fresh
        merged.update(current)
        payload = {
            "comment": "real_time per benchmark in ns; regenerate with "
            "tools/bench_compare.py --update",
            "benchmarks": {k: merged[k] for k in sorted(merged)},
        }
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"bench_compare: wrote {len(merged)} baseline entries to "
              f"{args.baseline} ({len(current)} from these results)")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)["benchmarks"]

    failures = [f"{name}: in-loop assertion failed (error_occurred)"
                for name in errors]
    warnings = []
    new = []
    for name in sorted(current):
        if name not in baseline:
            new.append(name)
            continue
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 1.0
        line = (f"{name}: {current[name] / 1e6:.3f} ms vs baseline "
                f"{baseline[name] / 1e6:.3f} ms ({ratio:.2f}x)")
        if "Checked" in name and ratio > args.fail_ratio:
            failures.append(f"REGRESSION {line}")
        elif ratio > args.warn_ratio:
            warnings.append(f"WARN {line}")
        else:
            print(f"ok   {line}")
    for name in sorted(set(baseline) - set(current)):
        warnings.append(f"WARN {name}: in baseline but not in results")
    for num, den, bound in RATIO_GATES:
        if num not in current or den not in current or current[den] <= 0:
            print(f"skip ratio {num} / {den}: not both in the results")
            continue
        ratio = current[num] / current[den]
        line = f"ratio {num} / {den} = {ratio:.2f} (bound {bound:g})"
        if ratio > bound:
            failures.append(f"REGRESSION {line}")
        else:
            print(f"ok   {line}")

    for line in new:
        print(f"new  {line} (add with --update)")
    for line in warnings:
        print(line)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"bench_compare: {len(current)} compared, {len(warnings)} "
          f"warning(s), {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
