#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (its own Cargo package in this directory)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs it, checks its
result against `BENCHMARK.json`, and prints two JSON lines: a machine
fingerprint, then the result (`correct`, `attempted`, `failed`,
`metrics`) as the last line. With `--trace 0` the metrics are the
`end_to_end` metrics, with `--trace 1` the `per_layer` metrics. Exits
non-zero without a result if the build, the run or the check fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workload seed used when --seed is not given.
DEFAULT_SEED = 2014
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_jiffies():
    """The aggregate `cpu` line of /proc/stat: user nice system idle
    iowait irq softirq steal (guest time is already inside user)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]] if fields and fields[0] == "cpu" else None


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the Rust sources and manifests the benchmark builds."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith(".rs") or name in ("Cargo.toml", "Cargo.lock"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def check_result(result, declared):
    """The result must carry exactly the declared metrics, with their
    units, as finite numbers."""
    if set(result) != {"correct", "attempted", "failed", "metrics", "info"}:
        fail(f"unexpected result keys {sorted(result)}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')!r}, declared {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, target, "release", "perfbench")

    before = cpu_jiffies()
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    after = cpu_jiffies()
    if run.returncode != 0:
        fail(f"the run exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"no result line: {e}")
    check_result(result, declared)

    steal = None
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        steal = delta[7] / max(1, sum(delta))
    info = result.pop("info")
    fingerprint = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]),
        "rayon_threads": info["rayon_threads"],
        # A checkout without its own .git is not asked, so that git does
        # not answer for an enclosing repository.
        "git_commit": command_output(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_digest(),
        "cpu_steal_share": steal,
        "phases": info["phases"],
        "trace_file": info["trace_file"],
    }
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
