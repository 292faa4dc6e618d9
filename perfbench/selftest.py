#!/usr/bin/env python3
"""The benchmark's own self-tests; a few seconds per workload.

    python3 perfbench/selftest.py

1. The generator's unit tests: the Zipf and ingest-mix generators repeat
   for a fixed seed, order statistics, span self time.
2. A toy-sized smoke of every workload, untraced and traced: every answer
   must check out (failed == 0) and every metric must be present.
3. Planted wrong answers on every workload: one flipped byte in a bundle,
   and a denial where a grant exists.  Each must make failed > 0.

Run from the root of a checkout.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {out.returncode}: {out.stderr[-1500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
    )
    failures = [] if unit.returncode == 0 else ["unit tests"]
    for name in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = run(name, trace)
                missing = {m["name"] for m in SPEC[key]} - set(result["metrics"])
                assert result["failed"] == 0 and result["correct"], f"failed answers: {result}"
                assert not missing, f"missing metrics {sorted(missing)}"
                print(f"ok   smoke {name} trace={trace}: {result['attempted']} checked")
            except AssertionError as e:
                failures.append(f"smoke {name} trace={trace}: {e}")
                print(f"FAIL smoke {name} trace={trace}: {e}")
        for plant in ("flip", "deny"):
            try:
                result = run(name, 0, "--plant", plant)
                assert result["failed"] > 0 and not result["correct"], f"plant not caught: {result}"
                print(f"ok   plant {plant} on {name}: failed {result['failed']}")
            except AssertionError as e:
                failures.append(f"plant {plant} on {name}: {e}")
                print(f"FAIL plant {plant} on {name}: {e}")
    if failures:
        print(f"{len(failures)} self-test(s) failed")
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
