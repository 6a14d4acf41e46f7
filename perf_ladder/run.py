#!/usr/bin/env python3
"""Build perf_ladder, run one workload, print one JSON result line.

usage (from the repository root):
  python3 perf_ladder/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perf_ladder (Release) from the
repository sources into $CARGO_TARGET_DIR, default .bench_build; later
runs reuse that build. Build output goes to stderr. The binary's own
report goes to stdout, and the last stdout line is

  {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A failed build or run prints no result
line and exits nonzero.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170  # the binary itself stops after --seconds + set-up


def build(build_dir: Path) -> Path:
    """Configure and build the perf_ladder target; return it."""
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perf_ladder",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perf_ladder"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    out_json = build_dir / f"result_{args.workload}.json"
    out_json.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--json",
           str(out_json)]
    if args.trace:
        cmd += ["--trace", str(build_dir / f"trace_{args.workload}.json")]
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perf_ladder failed: {e}", file=sys.stderr)
        return 1

    doc = json.loads(out_json.read_text())
    metrics = {}
    for m in spec[section]:
        got = doc.get(section, {}).get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
