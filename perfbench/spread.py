#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per workload and
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
with quartiles as Python's statistics.quantiles(values, n=4) gives them.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--compare 11-20]

With --compare, a second set of seeds is run and each metric's second
median must lie within the metric's bound from BENCHMARK.json of the
first, in either direction: that is the unseen-seed check.  Every
end-to-end metric's spread, setup_s's too, is judged against its bound:
spreads above a third of the bound are marked, and above the bound the
exit code is 1.  Run from the root of a checkout.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    run = json.loads(lines[-2])["run"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, run


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def measure(workloads, seed_list, seconds):
    """Per workload and metric, the values over the seeds: as reported (at
    nominal host speed where the metric is scaled), and as measured."""
    table, raw = {}, {}
    for workload in workloads:
        rows = []
        raw_rows = []
        for seed in seed_list:
            result, run = run_once(workload, seed, seconds, 0)
            rows.append(result["metrics"])
            raw_rows.append(run.get("raw_end_to_end", result["metrics"]))
            flags = run.get("flags", [])
            print(f"  {workload} seed {seed}: steal={run.get('steal_share', 0):.3f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + (f"  FLAGGED {flags}" if flags else ""), flush=True)
        table[workload] = {
            name: [row[name]["value"] for row in rows] for name in rows[0]
        }
        raw[workload] = {
            name: [row[name]["value"] for row in raw_rows] for name in raw_rows[0]
        }
    return table, raw


def report(table, raw):
    worst = 0.0
    for workload, metrics in table.items():
        print(f"{workload}:")
        for m in SPEC["end_to_end"]:
            med, sp = spread(metrics[m["name"]])
            worst = max(worst, sp / m["bound"])
            mark = " OVER BOUND" if sp > m["bound"] else (" > bound/3" if sp > m["bound"] / 3 else "")
            _, raw_sp = spread(raw[workload][m["name"]])
            print(f"  {m['name']:18s} median {med:12.5g}  spread {sp:7.2%}  bound {m['bound']:.0%}"
                  f"  (as measured: {raw_sp:7.2%}){mark}")
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    first, first_raw = measure(workloads, seeds(a.seeds), a.seconds)
    worst = report(first, first_raw)
    ok = worst <= 1.0
    if a.compare:
        second, second_raw = measure(workloads, seeds(a.compare), a.seconds)
        worst = max(worst, report(second, second_raw))
        ok = worst <= 1.0
        print("second median vs first:")
        for workload in workloads:
            for m in SPEC["end_to_end"]:
                m1 = statistics.median(first[workload][m["name"]])
                m2 = statistics.median(second[workload][m["name"]])
                moved = (m2 - m1) / m1
                held = abs(moved) <= m["bound"]
                ok &= held
                print(f"  {workload:22s} {m['name']:18s} {m1:12.5g} -> {m2:12.5g}  "
                      f"moved {moved:+7.2%}  bound {m['bound']:.0%}  {'ok' if held else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
