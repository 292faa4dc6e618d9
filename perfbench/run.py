#!/usr/bin/env python3
"""Builds tibpre-node and the benchmark generator from source, then runs one
benchmark run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disclose-80 --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default .bench_build).  Cargo's
output goes to standard error; standard output carries the generator's
provenance line and, last, the result object.

With --trace 1 the generator runs twice on the same seed: untraced, then
traced.  tracing.overhead_share is the traced run's disclose_p50_ms over
the untraced run's, minus 1.
"""

import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
# Both generator runs of a traced run together.
GENERATOR_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=REPO,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def source_hash():
    """SHA-256 over the sources both binaries are built from."""
    digest = hashlib.sha256()
    roots = [REPO / "Cargo.toml", REPO / "Cargo.lock", REPO / "crates", REPO / "vendor", HERE]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in root.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml", ".lock"))
    for path in sorted(files):
        digest.update(str(path.relative_to(REPO)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_info():
    try:
        rustc = subprocess.run(["rustc", "--version"], cwd=REPO, capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        rev = ""
    return f"{rustc}; git {rev or 'none'}; sources {source_hash()}"


def generate(command, deadline):
    """Runs the generator to completion; returns its exit code and stdout."""
    # A session of its own, so a generator that has to be stopped takes
    # the node processes it spawned with it.
    child = subprocess.Popen(command, start_new_session=True, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"generator did not finish within {GENERATOR_TIMEOUT_S} s", 1)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return child.returncode, out


def overhead_share(untraced, traced):
    """How much longer the traced run's median disclosure took.  The p50
    alone: the open loop's disclose_per_s is fixed by its schedule, and on
    the closed loop, with a fixed number in flight, p50 tracks 1 / rate."""
    return traced["disclose_p50_ms"]["value"] / untraced["disclose_p50_ms"]["value"] - 1.0


def main():
    if not (REPO / "Cargo.toml").is_file() or not (REPO / "crates").is_dir():
        fail("no tibpre workspace next to perfbench/; run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    cargo(["-p", "tibpre-server", "--bin", "tibpre-node"], target)
    cargo(["--manifest-path", str(HERE / "Cargo.toml")], target)

    args = sys.argv[1:]
    tail = [
        "--node-bin",
        str(target / "release" / "tibpre-node"),
        "--work-dir",
        str(target / "perfbench-work"),
        "--build-info",
        build_info(),
    ]
    binary = str(target / "release" / "perfbench")
    deadline = time.monotonic() + GENERATOR_TIMEOUT_S
    at = args.index("--trace") + 1 if "--trace" in args else len(args)
    if args[at:at + 1] != ["1"]:
        code, out = generate([binary, *args, *tail], deadline)
        sys.stdout.write(out)
        sys.exit(code)

    untraced_args = args[:at] + ["0"] + args[at + 1 :]
    code, out = generate([binary, *untraced_args, *tail], deadline)
    if code != 0:
        fail("the untraced reference run failed", code)
    lines = out.strip().splitlines()
    reference = json.loads(lines[-2])["run"]
    reference_result = json.loads(lines[-1])
    code, out = generate([binary, *args, *tail], deadline)
    if code != 0:
        sys.exit(code)
    lines = out.strip().splitlines()
    run = json.loads(lines[-2])
    result = json.loads(lines[-1])
    result["metrics"]["tracing.overhead_share"] = {
        "value": overhead_share(reference["end_to_end"], run["run"]["end_to_end"]),
        "unit": "ratio",
    }
    # The reference run's answers were checked too; they count.
    result["correct"] = result["correct"] and reference_result["correct"]
    result["attempted"] += reference_result["attempted"]
    result["failed"] += reference_result["failed"]
    run["run"]["untraced_reference"] = reference
    print(json.dumps(run))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
