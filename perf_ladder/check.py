#!/usr/bin/env python3
"""Checks and comparisons for the perf_ladder benchmark.

  check.py smoke       --binary B  every workload at --smoke size, untraced
                                   and traced: declared metrics present with
                                   their units, nothing failed, tracing leaves
                                   the simulated section unchanged, tails
                                   strictly ordered where the sample supports
                                   them, and the span trace is well formed
  check.py determinism --binary B  seed 7 twice gives byte-identical
                                   simulated sections, and so does seed 8:
                                   the seed only fills payload bytes, which
                                   no simulated cost depends on
  check.py baseline    --binary B  smoke-run simulated metrics against
                                   baselines/smoke.json, with each metric's
                                   direction and bound from BENCHMARK.json
  check.py record      --binary B --out FILE [--smoke] [--traced]
                                   run every workload at seed 1 and store
                                   the results
  check.py compare BASE NEW [--bounds BENCHMARK.json]
                                   compare two recorded result sets; exit 1
                                   when a metric is worse than its bound

BASE/NEW are files written by `record` or single perf_ladder --json
documents. Exit status: 0 pass, 1 check failed or regression.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"


def load_spec(path=SPEC_PATH):
    return json.loads(Path(path).read_text())


def workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def run(binary, workload, seed, tmp, smoke=True, traced=False):
    """Run perf_ladder once; return its --json document (and trace path)."""
    stem = f"{workload}_{seed}_{'t' if traced else 'u'}"
    out = Path(tmp) / f"{stem}.json"
    trace = Path(tmp) / f"{stem}.trace.json"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--json", str(out)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    doc = json.loads(out.read_text())
    return doc, trace


class Failures:
    def __init__(self):
        self.items = []

    def check(self, ok, what):
        if not ok:
            self.items.append(what)
            print(f"FAIL: {what}")

    def exit_code(self):
        print("ok" if not self.items else f"{len(self.items)} failure(s)")
        return 0 if not self.items else 1


def check_trace(path, f, label):
    """Chrome trace: balanced B/E per track, span/parent/call on each."""
    doc = json.loads(Path(path).read_text())
    stacks = {}
    spans = 0
    for e in doc["traceEvents"]:
        if e["ph"] == "M":
            continue
        key = (e["pid"], e["tid"])
        args = e.get("args", {})
        f.check(all(k in args for k in ("span", "parent", "call")),
                f"{label}: span event without span/parent/call")
        if e["ph"] == "B":
            stacks.setdefault(key, []).append(e["name"])
            spans += 1
        elif e["ph"] == "E":
            stack = stacks.get(key, [])
            f.check(stack and stack[-1] == e["name"],
                    f"{label}: unbalanced E {e['name']!r}")
            if stack:
                stack.pop()
    f.check(all(not s for s in stacks.values()), f"{label}: open spans")
    f.check(spans > 0, f"{label}: no spans recorded")


def check_tails(sim, f, label):
    lat = sim["latency_us"]
    if lat["supports_p99"]:
        f.check(lat["p50"] < lat["p99"], f"{label}: p50 !< p99")
        f.check(sim["sim_p50_slowdown"] < sim["sim_p99_slowdown"],
                f"{label}: slowdown p50 !< p99")
    if lat["supports_p999"]:
        f.check(lat["p99"] < lat["p999"], f"{label}: p99 !< p99.9")
        f.check(sim["sim_p99_slowdown"] < sim["sim_p999_slowdown"],
                f"{label}: slowdown p99 !< p99.9")


def cmd_smoke(args):
    spec = load_spec()
    f = Failures()
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in workloads(spec):
            plain, _ = run(args.binary, w, 1, tmp)
            traced, trace = run(args.binary, w, 1, tmp, traced=True)
            for doc, section in ((plain, "end_to_end"), (traced, "per_layer")):
                for m in spec[section]:
                    got = doc.get(section, {}).get(m["name"])
                    f.check(got is not None and got["unit"] == m["unit"],
                            f"{w}: {section} {m['name']} missing or not in "
                            f"{m['unit']}")
            for m in spec["end_to_end"]:
                got = plain["end_to_end"].get(m["name"], {})
                f.check(got.get("value", 0) > 0, f"{w}: {m['name']} is 0")
            for doc, mode in ((plain, "untraced"), (traced, "traced")):
                f.check(doc["correct"] and doc["failed"] == 0,
                        f"{w} {mode}: {doc['failed']} failed of "
                        f"{doc['attempted']}")
            f.check(plain["simulated"] == traced["simulated"],
                    f"{w}: tracing changed the simulated section")
            check_tails(plain["simulated"], f, w)
            check_trace(trace, f, w)
            print(f"{w}: checked")
    return f.exit_code()


def cmd_determinism(args):
    spec = load_spec()
    f = Failures()
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in workloads(spec):
            a, _ = run(args.binary, w, 7, tmp)
            b, _ = run(args.binary, w, 7, tmp)
            c, _ = run(args.binary, w, 8, tmp)
            dump = lambda d: json.dumps(d["simulated"], sort_keys=True)
            f.check(dump(a) == dump(b), f"{w}: seed 7 runs differ")
            f.check(a["simulated_digest"] == b["simulated_digest"],
                    f"{w}: seed 7 digests differ")
            # The seed fills payload bytes only (service_poisson does not
            # use it); arrival schedules and fault plans are constants of
            # each workload, and no simulated cost depends on byte values.
            # So seed 8 moves nothing simulated, and regression runs at
            # different seeds compare simulated metrics exactly.
            f.check(dump(a) == dump(c),
                    f"{w}: seed 8 changed simulated results")
            print(f"{w}: checked")
    return f.exit_code()


def end_to_end(docs):
    """{workload: {metric: (value, unit)}} from {workload: --json doc}."""
    return {w: {k: (m["value"], m["unit"])
                for k, m in d["end_to_end"].items()}
            for w, d in docs.items()}


def result_set(path):
    """end_to_end() of a record file or of a single --json document."""
    doc = json.loads(Path(path).read_text())
    return end_to_end(doc["workloads"] if "workloads" in doc
                      else {doc["workload"]: doc})


def compare(base, new, spec, sim_only=False):
    """Print one row per (workload, metric); return the regression count."""
    regressions = 0
    print(f"{'workload':<20} {'metric':<18} {'base':>14} {'new':>14} "
          f"{'worse':>9} {'bound':>7}")
    for w in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if sim_only and not name.startswith("sim_"):
                continue
            if name not in base[w] or name not in new[w]:
                print(f"{w:<20} {name:<18} missing")
                regressions += 1
                continue
            b, n = base[w][name][0], new[w][name][0]
            delta = (n - b) if m["better"] == "lower" else (b - n)
            worse = delta / abs(b) if b else (1.0 if delta > 0 else 0.0)
            bad = worse > m["bound"] + 1e-12
            regressions += bad
            print(f"{w:<20} {name:<18} {b:>14.6g} {n:>14.6g} "
                  f"{worse:>+9.4f} {m['bound']:>7.3f}"
                  f"{'  REGRESSION' if bad else ''}")
    return regressions


def cmd_compare(args):
    spec = load_spec(args.bounds)
    bad = compare(result_set(args.base), result_set(args.new), spec)
    print("ok" if bad == 0 else f"{bad} regression(s)")
    return 0 if bad == 0 else 1


def record(binary, spec, smoke, traced=False):
    seed = 1
    out = {"benchmark": "perf_ladder", "seed": seed, "smoke": smoke,
           "platform": platform_info(), "workloads": {}}
    if traced:
        out["traced"] = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in workloads(spec):
            doc, _ = run(binary, w, seed, tmp, smoke=smoke)
            out["workloads"][w] = doc
            if traced:
                doc, _ = run(binary, w, seed, tmp, smoke=smoke, traced=True)
                out["traced"][w] = doc
    return out


def platform_info():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "logical_cpus": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system()}


def cmd_record(args):
    out = record(args.binary, load_spec(), args.smoke, args.traced)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_baseline(args):
    spec = load_spec()
    new = record(args.binary, spec, smoke=True)
    bad = compare(result_set(HERE / "baselines" / "smoke.json"),
                  end_to_end(new["workloads"]), spec, sim_only=True)
    print("ok" if bad == 0 else f"{bad} regression(s)")
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("smoke", "determinism", "baseline", "record"):
        p = sub.add_parser(name)
        p.add_argument("--binary", required=True)
        if name == "record":
            p.add_argument("--out", required=True)
            p.add_argument("--smoke", action="store_true")
            p.add_argument("--traced", action="store_true",
                           help="also store one traced run per workload")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--bounds", default=str(SPEC_PATH))
    args = ap.parse_args()
    return {"smoke": cmd_smoke, "determinism": cmd_determinism,
            "baseline": cmd_baseline, "record": cmd_record,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
