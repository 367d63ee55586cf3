#!/usr/bin/env python3
"""End-to-end benchmark of IRTherm's sweep engine and sweep fabric.

One run of one workload (the benchmark contract):

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

builds the library and the benchmark program from source under
.bench_build/, runs it, and relays its output; the last stdout line is the
JSON result. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics (and writes layers.json + trace.json).

Other modes:

    run.py --all --seed N --seconds T [--trace 0|1]
        every workload in turn, one result block each
    run.py --steadiness RUNS --workload W --seed N --seconds T [--sets K]
        RUNS runs per set on seeds N, N+1, ...; per end-to-end metric
        the median, quartiles, IQR/median and largest deviation, and
        with K >= 2 sets the move of each set's median against set 1,
        judged against the bounds in BENCHMARK.json
    run.py --compare A B
        per-layer diff of two traced results (layers.json files or
        directories holding them); names the layer whose self time
        moved most
    run.py --workload W --seed N --seconds T --trace 0 --corrupt
        perturb one checked result; the run must fail (exit 1)

Exit status: the benchmark program's (0 ok, 1 output check failed, 2 usage or
crash); 3 when the build fails; 4 when it timed out.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "irtherm_perfbench"
WORKLOADS = [
    "sweep_shared_stack",
    "sweep_distinct_stack",
    "transient_replay",
    "fabric_loopback",
]
# A run is --seconds of rounds plus one round; this is the slack.
RUN_SLACK_SECONDS = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_env():
    # Temporary files of the compiler and the benchmark stay inside
    # the build tree.
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    """Configure (once) and build the benchmark; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        with open(BUILD / "build.log", "w") as out:
            for cmd in steps:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=build_env()).returncode
                if rc == 0:
                    continue
                out.flush()
                log(f"perfbench: build step failed: {' '.join(cmd)}")
                log((BUILD / "build.log").read_text()[-4000:])
                return False
    return True


def out_dir(workload, seed, trace):
    return BUILD / "results" / f"{workload}-seed{seed}-trace{trace}"


def run_program(workload, seed, seconds, trace, corrupt=False, echo=True):
    """Run the benchmark once; returns (exit code, parsed result or None)."""
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir(workload, seed, trace))]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=build_env(),
                              timeout=seconds + RUN_SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return 4, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def spread_row(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else 0.0
    worst = max(abs(v - med) for v in values) / med if med else 0.0
    return med, q1, q3, iqr, worst


def steadiness(args):
    bounds = load_bounds()
    sets = []
    for k in range(args.sets):
        per_metric = {}
        for i in range(args.steadiness):
            seed = args.seed + k * args.steadiness + i
            rc, result = run_program(args.workload, seed, args.seconds, 0,
                                    echo=False)
            if rc != 0 or result is None:
                log(f"perfbench: run on seed {seed} failed (exit {rc})")
                return rc or 1
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            log(f"perfbench: set {k + 1} run {i + 1}/{args.steadiness} "
                f"seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}"
                    for n, m in result["metrics"].items()))
        sets.append(per_metric)

    print(f"steadiness of {args.workload}: {args.sets} set(s) of "
          f"{args.steadiness} runs, {args.seconds} s each")
    print(f"{'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'iqr/med':>10}{'max dev':>10}{'bound':>8}{'vs set1':>10}")
    ok = True
    report = {"workload": args.workload, "sets": []}
    for k, per_metric in enumerate(sets):
        rows = {}
        for name, values in per_metric.items():
            med, q1, q3, iqr, worst = spread_row(values)
            bound = bounds.get(name, {}).get("bound")
            move = ""
            if k > 0:
                first = statistics.median(sets[0][name])
                better = bounds.get(name, {}).get("better", "lower")
                worse = (med - first) / first if better == "lower" \
                    else (first - med) / first
                move = f"{worse:+.4f}"
                if bound is not None and worse > bound:
                    ok = False
            if bound is not None and iqr > bound:
                ok = False
            print(f"{name:<16}{k + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{iqr:>10.4f}{worst:>10.4f}"
                  f"{'' if bound is None else bound:>8}{move:>10}")
            rows[name] = {"values": values, "median": med, "q1": q1,
                          "q3": q3, "iqr_over_median": iqr,
                          "max_deviation": worst}
        report["sets"].append(rows)
    path = BUILD / "results" / f"steadiness-{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'within' if ok else 'OUTSIDE'} the BENCHMARK.json bounds; "
          f"details in {path}")
    return 0 if ok else 1


def load_layers(path):
    """layers.json documents under path, keyed by workload."""
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.rglob("layers.json"))
    docs = {}
    for f in files:
        doc = json.loads(f.read_text())
        docs[doc["workload"]] = doc
    return docs


def compare(a_path, b_path):
    a, b = load_layers(a_path), load_layers(b_path)
    common = [w for w in WORKLOADS if w in a and w in b]
    if not common:
        log("perfbench: no workload traced in both results")
        return 1
    for w in common:
        ma, mb = a[w]["metrics"], b[w]["metrics"]
        print(f"## {w} (seed {a[w]['seed']} -> {b[w]['seed']})")
        print(f"{'metric':<32}{'A':>14}{'B':>14}{'change':>10}")
        for name in ma:
            va, vb = ma[name]["value"], mb.get(name, {}).get("value", 0.0)
            change = f"{(vb - va) / va:+.1%}" if va else ""
            print(f"{name:<32}{va:>14.6g}{vb:>14.6g}{change:>10}"
                  f" {ma[name]['unit']}")
        sa, sb = a[w]["self_s"], b[w]["self_s"]
        moves = sorted(((sb.get(k, 0.0) - sa.get(k, 0.0), k)
                        for k in set(sa) | set(sb)),
                       key=lambda m: abs(m[0]), reverse=True)
        if moves and moves[0][0] != 0.0:
            delta, layer = moves[0]
            base = sa.get(layer, 0.0)
            rel = f" ({delta / base:+.1%})" if base else ""
            print(f"largest self-time move: {layer} {delta:+.6f} s"
                  f"{rel} per round\n")
        else:
            print("no layer's self time moved\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="RUNS")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        p.error("--workload, --all or --compare is required")
    if not build():
        return 3
    if args.steadiness:
        if not args.workload:
            p.error("--steadiness needs --workload")
        return steadiness(args)
    rc = 0
    for w in WORKLOADS if args.all else [args.workload]:
        code, _ = run_program(w, args.seed, args.seconds, args.trace,
                             corrupt=args.corrupt)
        rc = rc or code
    return rc


if __name__ == "__main__":
    sys.exit(main())
