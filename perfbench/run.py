#!/usr/bin/env python3
"""Build and run the Sage repository benchmark.

    python3 perfbench/run.py --workload <point|mixed|publish|engine> \
        --seed <n> --seconds <s> --trace <0|1>

builds the benchmark package (perfbench/Cargo.toml) in release mode, runs
one workload, and relays its report. The last line of standard output is
the result: one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1). Any failure exits non-zero without a
result line.

    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

runs all four workloads untraced and traced and prints each end-to-end
metric with its unit and direction, plus the traced-minus-untraced
difference of each (the tracing overhead). `point` (uniform lookups on a
plain CSR, the control for the serve layers) is not in BENCHMARK.json:
`mixed` and `publish` load all of its layers, and leaving it out lets the
listed workloads run longer within the time limit.

Every path it reads or writes is inside the checkout: the build goes to
$CARGO_TARGET_DIR (default .bench_build) and run files to .bench_out.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["point", "mixed", "publish", "engine"]
RUN_TIMEOUT_S = 178


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not run: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    binary = target_dir() / "release" / "sage-perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tree_hash():
    """Git commit when the checkout is a repository, else a hash of the
    sources the benchmark builds (the checkout may not be a repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.lock"]
    for top in ["crates", "perfbench"]:
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py")]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def fingerprint(seed, threads):
    try:
        rustc = subprocess.run(["rustc", "-V"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "SAGE_THREADS": threads, "rustc": rustc,
            "cpu": cpu, "commit": tree_hash(), "seed": seed}


def run_one(binary, workload, seed, seconds, trace, spec, relay=True):
    """Run one workload; return (report lines, parsed result)."""
    threads = str(nproc())
    env = dict(os.environ, SAGE_THREADS=threads)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(ROOT / ".bench_out")]
    fp = fingerprint(seed, threads)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}")
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"{workload} metrics differ from BENCHMARK.json {section}: "
             f"missing {missing}, unexpected {extra}, or a unit differs")
    report = [f"fingerprint {json.dumps(fp)}"] + lines[:-1]
    if relay:
        print("\n".join(report), flush=True)
    return report, result


def run_all(binary, seed, seconds, spec):
    """Every workload untraced and traced; a table of end-to-end metrics
    and the traced-minus-untraced difference of each."""
    direction = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    ok = True
    for w in WORKLOADS:
        _, plain = run_one(binary, w, seed, seconds, 0, spec)
        _, traced = run_one(binary, w, seed, seconds, 1, spec, relay=False)
        print(f"== {w}: correct {plain['correct'] and traced['correct']}, "
              f"attempted {plain['attempted']}, failed {plain['failed']}")
        print(f"   {'metric':<18} {'untraced':>12} {'traced':>12} {'overhead':>9}  unit  better")
        for name, (unit, better) in direction.items():
            u = plain["metrics"][name]["value"]
            t = traced["metrics"][f"traced.{name}"]["value"]
            diff = 100.0 * (t - u) / u if u else float("nan")
            print(f"   {name:<18} {u:>12.4f} {t:>12.4f} {diff:>8.1f}%  {unit:<5} {better}")
        ok = ok and plain["correct"] and traced["correct"]
    print(json.dumps({"correct": ok}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not re.fullmatch(r"\d+", str(args.seed)) or args.seconds < 1:
        fail("seed must be a non-negative integer and seconds at least 1")
    spec = load_spec()
    binary = build()
    if args.workload == "all":
        run_all(binary, args.seed, args.seconds, spec)
        return
    _, result = run_one(binary, args.workload, args.seed, args.seconds,
                        args.trace, spec)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
