#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and summarizes spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 25 --sets 2
    python3 perfbench/steadiness.py --workloads serve-explore --runs 5

Each run uses its own seed (--first-seed, +1, ...). For every metric it
prints the median, the quartiles (statistics.quantiles(n=4)), the
interquartile spread as a share of the median, and (max-min)/median. An
end-to-end metric whose (max-min)/median exceeds 0.1 is flagged, and so is
one whose interquartile share exceeds a third of its bound in
BENCHMARK.json. With --sets N the runs are repeated in N sets, one after
the other, and each later set's median is compared with the first set's;
a shift larger than the metric's bound is flagged. Results are also
written as JSON to --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark itself: workload and metric names)


def bounds():
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def one_run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    scale = abs(med) if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale,
            "range_share": (max(values) - min(values)) / scale,
            "values": values}


def table(workload, k, runs, args, limits, flagged):
    """Prints and returns the summary of one set of runs."""
    if not all(r["correct"] for r in runs):
        flagged.append(f"{workload}: a run had failed requests")
    summary = {}
    print(f"\n{workload} set {k + 1} ({args.runs} runs, {args.seconds:g} s each)")
    print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name] = s
        marks = []
        if not args.trace and name in run.END_TO_END:
            if s["range_share"] > 0.1:
                marks.append("range>0.1")
            if name in limits and s["iqr_share"] > limits[name] / 3:
                marks.append(f"iqr>{limits[name]:g}/3")
        if marks:
            flagged.append(f"{workload} set {k + 1} {name}: {', '.join(marks)}")
        print(f"  {name:34} {s['median']:12.4g} {s['q1']:12.4g} "
              f"{s['q3']:12.4g} {s['iqr_share']:8.3f} "
              f"{s['range_share']:9.3f} {' '.join(marks)}")
    return summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(run.build_dir() / "steadiness.json"))
    args = p.parse_args()
    limits = bounds()
    report, flagged = {}, []
    for workload in args.workloads.split(","):
        report[workload] = []
        for k in range(args.sets):
            first = args.first_seed + k * args.runs
            runs = [one_run(workload, first + i, args.seconds, args.trace)
                    for i in range(args.runs)]
            report[workload].append(
                table(workload, k, runs, args, limits, flagged))
        for k, later in enumerate(report[workload][1:], 2):
            print(f"  median shift, set {k} against set 1:")
            for name, s in later.items():
                base = report[workload][0][name]["median"]
                shift = (s["median"] - base) / abs(base) if base else 0.0
                mark = ""
                if not args.trace and name in limits and abs(shift) > limits[name]:
                    mark = f"shift>{limits[name]:g}"
                    flagged.append(f"{workload} {name}: set {k} {mark}")
                print(f"    {name:32} {shift:+8.3f} {mark}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))
    print(f"\nreport written to {args.out}")
    if flagged:
        print("flagged:\n  " + "\n  ".join(flagged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
