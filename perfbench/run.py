#!/usr/bin/env python3
"""Runs one workload of the LCM benchmark and prints its report.

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark program (a package
of its own in this directory) from source, runs the workload (whose
frozen shape is compiled into the program and printed with the report),
and prints:

* --trace 0: every end-to-end metric with its unit and sample count,
  plus failed_ratio; those BENCHMARK.json does not list (reference.json
  says why) are printed but left out of the result line;
* --trace 1: the per-layer ledger in a fixed order, each row with the
  end-to-end metric it should move, and the tracing overhead; the spans
  go to .bench_out/spans-<workload>.tsv.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero if any operation failed
its check, if the build fails, or if the program's metrics disagree
with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program's own limit; the whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Cargo's output goes to stderr: stdout carries only the report.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("building the benchmark failed", 2)
    return target_dir / "release" / "lcm-perfbench"


def check_names(metrics, declared, exact):
    """The program must report every declared metric with its unit (and,
    if `exact`, no other)."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if (got != want) if exact else any(got.get(k) != u for k, u in want.items()):
        fail(f"metrics disagree with BENCHMARK.json: got {got}, declared {want}")


def show(name, m, note=""):
    extra = ""
    if "samples" in m:
        extra = f"  n={m['samples']}"
        if m["quantile"] < float(name.rsplit("_p", 1)[-1].split("_")[0]) / 100:
            extra += f" (too few samples: reported p{100 * m['quantile']:g})"
    print(f"  {name:<30} {m['value']:>14.4f} {m['unit']:<6}{extra}{note}")


def main():
    reference = json.loads((HERE / "reference.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be 1..60", 2)

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    exe = build(target_dir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(ROOT / ".bench_out" / f"spans-{args.workload}.tsv")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark program ran longer than {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"the benchmark program printed no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    correct = bool(result["correct"]) and done.returncode == 0

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}")
    for line in lines[:-1]:
        print(line)
    if result["errors"]:
        print("FAILED operations (first few):")
        for e in result["errors"]:
            print(f"  {e}")
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(1, result["attempted"]),
                          "failed": max(1, result["failed"]), "metrics": {}}))
        sys.exit(1)

    if args.trace:
        declared = benchmark["per_layer"]
        check_names(metrics, declared, exact=True)
        print("per-layer ledger (traced window):")
        for m in benchmark["per_layer"]:
            show(m["name"], metrics[m["name"]],
                 f"  -> {reference['predictions'][m['name']]}")
        overhead = metrics["bench.trace_overhead"]["value"]
        print(f"tracing overhead: untraced ops_per_s is {overhead:.3f}x the traced "
              f"{metrics['bench.traced_ops_per_s']['value']:.1f} ops/s")
    else:
        declared = benchmark["end_to_end"]
        check_names(metrics, declared, exact=False)
        gated = {m["name"] for m in declared}
        print("end-to-end metrics (untraced window):")
        for name, m in metrics.items():
            show(name, m, "" if name in gated else "  (printed, not gated)")
        ratio = result["failed"] / max(1, result["attempted"])
        print(f"  {'failed_ratio':<30} {ratio:>14.4f} ratio   "
              f"({result['failed']} of {result['attempted']} ops)  (printed, not gated)")

    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
