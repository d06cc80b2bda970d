#!/usr/bin/env python3
"""End-to-end benchmark of the MSROPM reproduction.

    python3 perfbench/run.py --workload paper_table1 --seed 1 --seconds 30 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which builds the
repository's libraries from source) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload.
The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. The metric names and units are checked against BENCHMARK.json.
Exit code 0 means every answer checked out; anything else is a failure.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench").resolve()


def build():
    """Configure (once) and build the binary; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no program sources under {ROOT}: nothing to benchmark")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the result protocol.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def source_digest():
    """Short sha256 over the program's sources: provenance where git is absent."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*")]
    for p in sorted(f for f in files if f.is_file()):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in rows]


def check_result(result, trace):
    """Protocol and metric-name checks on the result object; returns errors."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(result)}")
        return errors
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    expected = expected_metrics(trace)
    if expected is not None:
        got = [(k, v.get("unit")) for k, v in result["metrics"].items()]
        if sorted(got) != sorted(expected):
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            errors.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"metric {name} has no numeric value")
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    log("running " + " ".join(cmd[1:]))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench printed nothing (exit {proc.returncode})")
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench's last line is not JSON")
        return 3
    errors = check_result(result, bool(args.trace))
    if errors:
        for e in errors:
            log(e)
        return 4
    if len(lines) >= 2 and lines[-2].startswith('{"detail"'):
        detail = json.loads(lines[-2])
        detail["detail"]["provenance"]["source_sha256"] = source_digest()
        lines[-2] = json.dumps(detail)
    print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"checks failed (perfbench exit {proc.returncode})")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
