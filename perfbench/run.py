#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds the `perfbench` package
(cargo, offline; into $CARGO_TARGET_DIR, default `.bench_build/`), runs
the workload in a fresh process and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs the workload untraced, then its traced body in a second fresh
process with the span recorder on and in a third with it off, checks
that all three produced the same output digest, and reports the
per-layer metrics; the tracing overhead is the on body's wall time
minus the off body's. A failed check
prints a result with "correct": false and no metrics, and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s after the build; leave room to clean up.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 870


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0:
        die(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "perfbench")


def child(binary, args, deadline):
    """Run one fresh perfbench process; return its last stdout line, parsed."""
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("run exceeded its time budget")
    if proc.returncode != 0:
        die(f"perfbench exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        die("perfbench printed no result")
    return json.loads(lines[-1])


def pick(names, values, default=None):
    """The named metrics from `values`; a name the run did not produce
    takes `default` (a layer the workload does not use did no work)."""
    picked = {}
    absent = [name for name, _ in names if name not in values]
    if absent and default is not None:
        print(f"perfbench: not used by this workload, reported as {default}: "
              f"{', '.join(absent)}", file=sys.stderr)
    for name, unit in names:
        v = values.get(name, default)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            die(f"metric {name} missing or not finite: {v!r}")
        picked[name] = {"value": v, "unit": unit}
    return picked


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        die(f"BENCHMARK.json: {e}")
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {a.workload}")
    binary = build()

    deadline = time.monotonic() + RUN_BUDGET_S
    tmp = os.path.join(ROOT, ".bench_tmp", f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--tmp", tmp]
    try:
        runs = [child(binary, base, deadline)]
        if a.trace:
            spans = os.path.join(ROOT, ".bench_out", f"spans-{a.workload}-{a.seed}.jsonl")
            runs.append(child(binary, [*base, "--body", "on", "--spans", spans], deadline))
            runs.append(child(binary, [*base, "--body", "off"], deadline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run's directory is still there

    untraced = runs[0]
    print(json.dumps({"workload": a.workload, "seed": a.seed, "digest": untraced["digest"],
                      "env": untraced["env"]}))
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for r in runs[1:]:
        if r["digest"] != untraced["digest"]:
            failures.append(f"traced body digest {r['digest']} != untraced {untraced['digest']}")
    if failures:
        for f in failures:
            print(f"perfbench: check failed: {f}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": len(failures), "metrics": {}}))
        sys.exit(1)

    if a.trace:
        on, off = runs[1], runs[2]
        layer = dict(untraced["side"])
        layer.update(on["metrics"])
        layer["trace.overhead_ms"] = on["side"]["body_ms"] - off["side"]["body_ms"]
        layer["error_rate"] = untraced["failed"] / max(untraced["attempted"], 1)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        unknown = set(layer) - {n for n, _ in names}
        if unknown:
            die(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
        metrics = pick(names, layer, default=0.0)
    else:
        metrics = pick([(m["name"], m["unit"]) for m in spec["end_to_end"]], untraced["metrics"])
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
