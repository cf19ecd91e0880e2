#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload fault-nodrop --seed 1 --seconds 20 \
        --trace 0 [--out RECORD.json]

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library sources in src/ plus the benchmark
program in perfbench/src/, Release) into $CARGO_TARGET_DIR or .bench_build;
later runs only rebuild what changed. Build output goes to stderr.

The binary prints a readable report (context, medians with quartiles and
sample counts, the per-layer table) and writes a full JSON record. This
script then prints, as its last stdout line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric under --trace 0 and every per_layer metric
under --trace 1. Records land in <build>/results/ unless --out is given;
perfbench/compare.py diffs two sets of them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build(bdir):
    """Configure once, then an incremental build; returns the binary path."""
    out = bdir / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-G", generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "enb_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return out / "enb_perfbench"


def source_digest():
    """SHA-256 over src/ (paths and bytes): the commit, when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the full JSON record")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'", 2)

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    scratch = bdir / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else (
        results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()

    # A relative socket directory keeps Unix socket paths short.
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out.resolve()),
               "--scratch", os.path.relpath(scratch, ROOT),
               "--commit", commit(), "--source-digest", source_digest()]
    try:
        completed = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    if completed.returncode != 0:
        fail(f"{args.workload} exited with {completed.returncode}")

    record = json.loads(out.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        measured = record["metrics"].get(metric["name"])
        if measured is None or measured["value"] is None:
            fail(f"{args.workload} did not measure {metric['name']}")
        if measured["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {measured['unit']} "
                 f"!= declared {metric['unit']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    sys.stdout.flush()
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
