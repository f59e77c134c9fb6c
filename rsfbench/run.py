#!/usr/bin/env python3
"""Build rsfbench from source and run one workload.

    python3 rsfbench/run.py --workload rack_overload --seed 1 --seconds 30 --trace 0

--workload all runs the three workloads one after another.

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
when it is set, else to .bench_build/ (relative paths are taken from the
repository root); the traced run writes its Chrome trace there too. The
last line of stdout is the benchmark's JSON result; build output goes to
stderr.

    python3 rsfbench/run.py --record-digests 1-20

re-records rsfbench/expected_digests.json for those seeds (only after a
change that is meant to alter simulated results).
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
DIGESTS = HERE / "expected_digests.json"
WORKLOADS = ("rack_overload", "rack_uniform", "fleet_skew")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build; returns the binary or None."""
    if not (ROOT / "src" / "runtime" / "runtime.hpp").is_file():
        print("rsfbench: the rsf sources (src/) are not in this checkout", file=sys.stderr)
        return None
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = out / "rsfbench"
    return binary if binary.is_file() else None


def source_sha256():
    """Digest of every source the binary is built from: stands in for
    the commit id in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix in (".cpp", ".hpp", ".txt", ".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}


def bench_args(binary, args, workload):
    trace_out = build_dir() / f"trace-{workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--trace-out", str(trace_out),
           "--commit", commit(), "--source-sha256", source_sha256()]
    expected = load_digests().get(args.size, {}).get(workload, {}).get(str(args.seed))
    if expected:
        cmd += ["--expected-digest", expected]
    return cmd


def record_digests(binary, seeds):
    digests = load_digests()
    table = digests.setdefault("full", {})
    for workload in WORKLOADS:
        for seed in seeds:
            r = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                                "--seconds", "0.001", "--trace", "0"],
                               capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                raise SystemExit(f"rsfbench: {workload} seed {seed} failed:\n{r.stdout}")
            digest = next(l for l in lines if l.startswith("digest ")).split()[1]
            table.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--record-digests", type=seed_range, metavar="LO-HI")
    args = p.parse_args()
    if args.workload is None and args.record_digests is None:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        print("rsfbench: build failed", file=sys.stderr)
        return 2
    if args.record_digests is not None:
        record_digests(binary, args.record_digests)
        return 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(subprocess.run(bench_args(binary, args, w)).returncode for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
