#!/usr/bin/env python3
"""The repository benchmark: cascaded execution against the sequential reference.

Run one workload (builds the benchmark on first use, from the checkout's own
sources, into .bench_build/perfbench):

    python3 perfbench/run.py --workload parmvr-chain --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run of the same workload and seed.

Other modes:

    python3 perfbench/run.py steady --workload svc-mix --runs 10 [--out FILE]
        runs one workload N times (seeds first-seed .. first-seed+N-1) and
        prints, per metric, the median, the quartiles and the min-max spread
    python3 perfbench/run.py compare BASE.json NEW.json
        compares two `steady --out` files; refuses when their hosts differ
    python3 perfbench/run.py selftest
        builds and runs the tests of the benchmark's own code
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".bench_build"  # relative to ROOT; keeps the svc socket path short
BUILD = ROOT / WORK_DIR / "perfbench"
WORKLOADS = ("gather-loop", "parmvr-chain", "svc-mix")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def build(target="casc_perfbench"):
    """Configures (once) and builds `target`; cmake's output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return BUILD / target


def run_binary(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    binary = build()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from e
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    result = None
    if lines and done.returncode in (0, 1):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def host_of(lines):
    for line in lines:
        if line.startswith("host "):
            return json.loads(line[len("host "):])
    return None


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def bounds():
    """Bounds per end-to-end metric from BENCHMARK.json, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    decl = json.loads(path.read_text())
    return {m["name"]: m for m in decl.get("end_to_end", [])}


def cmd_run(args):
    code, _, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    return 0 if result.get("correct") and code == 0 else 1


def cmd_steady(args):
    runs = []
    host = None
    for i in range(args.runs):
        seed = args.first_seed + i
        code, lines, result = run_binary(args.workload, seed, args.seconds, args.trace,
                                         echo=False)
        if result is None or code != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            return 1
        host = host or host_of(lines)
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": result["metrics"]})
        print(f"seed {seed}: done", file=sys.stderr)
    limits = bounds()
    summary = {}
    print(f"workload {args.workload}, {args.runs} runs, {args.seconds} s each, "
          f"trace {args.trace}")
    print(f"host {json.dumps(host)}")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} "
          f"{'max':>14} {'iqr/med':>8}  bound")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        bound = limits.get(name, {}).get("bound")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if rel < bound / 3 else ("within" if rel <= bound else "OVER")
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "min": min(values), "max": max(values), "iqr_over_median": rel}
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(values):14.6g} "
              f"{max(values):14.6g} {rel:8.4f}  "
              f"{'' if bound is None else bound} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "host": host, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


def cmd_compare(args):
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    if base.get("host") != new.get("host"):
        print("refusing to compare wall-clock numbers across hosts:", file=sys.stderr)
        for key in sorted(set(base.get("host") or {}) | set(new.get("host") or {})):
            a = (base.get("host") or {}).get(key)
            b = (new.get("host") or {}).get(key)
            if a != b:
                print(f"  {key}: {a} vs {b}", file=sys.stderr)
        return 2
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 2
    limits = bounds()
    worse = 0
    print(f"{'metric':28} {'base':>14} {'new':>14} {'change':>8}  verdict")
    for name, b in base["summary"].items():
        n = new["summary"].get(name)
        if n is None:
            print(f"{name:28} missing in {args.new}")
            worse += 1
            continue
        change = (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
        decl = limits.get(name)
        verdict = ""
        if decl:
            regress = change if decl["better"] == "lower" else -change
            if max(b["iqr_over_median"], n["iqr_over_median"]) > decl["bound"]:
                verdict = "unresolved (spread above bound)"
            elif regress > decl["bound"]:
                verdict = f"REGRESSED (bound {decl['bound']})"
                worse += 1
            else:
                verdict = "ok"
        print(f"{name:28} {b['median']:14.6g} {n['median']:14.6g} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


def cmd_selftest(_args):
    test = build("perfbench_selftest")
    if subprocess.run([str(test)], cwd=ROOT).returncode != 0:
        return 1
    listed = subprocess.run([str(build()), "--list-metrics"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout
    declared = {"end_to_end": [], "per_layer": []}
    for line in listed.splitlines():
        kind, name, unit, better = line.split()
        declared[kind].append((name, unit, better))
    problems = []
    for kind, metrics in declared.items():
        for name, _, _ in metrics:
            if not NAME_RE.match(name):
                problems.append(f"bad metric name {name!r}")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for kind, metrics in declared.items():
            listed_here = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
            if listed_here != metrics:
                problems.append(f"BENCHMARK.json {kind} differs from the binary's list")
        names = [w["name"] for w in spec["workloads"]]
        if not names or not set(names) <= set(WORKLOADS):
            problems.append(f"BENCHMARK.json workloads {names} not among {list(WORKLOADS)}")
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv):
    if argv and argv[0] in ("steady", "compare", "selftest"):
        mode, argv = argv[0], argv[1:]
    else:
        mode = "run"
    p = argparse.ArgumentParser(prog=f"run.py {mode}" if mode != "run" else "run.py")
    if mode in ("run", "steady"):
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seconds", type=int, default=45)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if mode == "run":
        p.add_argument("--seed", type=int, required=True)
    if mode == "steady":
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--out")
    if mode == "compare":
        p.add_argument("base")
        p.add_argument("new")
    args = p.parse_args(argv)
    handler = {"run": cmd_run, "steady": cmd_steady, "compare": cmd_compare,
               "selftest": cmd_selftest}[mode]
    try:
        return handler(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
