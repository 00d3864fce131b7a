#!/usr/bin/env python3
"""The repository benchmark: time-to-solution on the paper workloads.

Three modes, all run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build the measuring program from source, run one workload, check every
      answer, print the metrics (untraced: the end-to-end metrics; traced:
      the per-layer metrics) and, as the last line, one JSON result object.

  python3 perfbench/run.py suite [--runs N] [--seconds S] [--out FILE]
                                 [--workloads W ...] [--no-trace]
      Run every BENCHMARK.json workload (or the listed ones) N times on
      seeds 1..N, print each end-to-end metric as a median with its quartiles
      and spread, then one traced run per workload with its per-layer table.
      Writes the result set to FILE.

  python3 perfbench/run.py compare A.json B.json [--check]
      Compare two result sets per workload and metric: medians, quartiles,
      ratio to A, and a verdict (improved / no worse / worse / unresolved).

Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root; the counts recorded at the commit that defined the benchmark
from perfbench/expected.json.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["crush", "spmd_sockets", "serve"]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def expected():
    return load_json(os.path.join(HERE, "expected.json"))


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the measuring program (release, host CPU) and return its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({r.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def nproc():
    """Cores this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def pool_threads(workload):
    """Ranks x pool threads stays within the host's cores: the one-process
    workloads get every core, each SPMD rank process gets one."""
    return 1 if workload == "spmd_sockets" else nproc()


def host_fingerprint():
    info = {"nproc": nproc(), "cpu": platform.processor() or "unknown",
            "simd": [], "rustc": "unknown", "git": "unknown", "dirty": None}
    try:
        with open("/proc/cpuinfo") as f:
            text = f.read()
        for line in text.splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                info["simd"] = sorted(flags & {"avx2", "avx512f"})
                break
    except OSError:
        pass
    try:
        info["rustc"] = subprocess.run(["rustc", "--version"], capture_output=True,
                                       text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            info["git"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                         capture_output=True, text=True).stdout.strip()
            info["dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    else:
        info["git"] = "not a git checkout"
    return info


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def median(v):
    return statistics.median(v)


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[1], q[2]


def spread(v):
    q1, q2, q3 = quartiles(v)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_workload(exe, workload, seed, seconds, trace):
    """Run the measuring program once; return its raw record."""
    work = os.path.relpath(os.path.join(target_dir(), "perfbench-work"), ROOT)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PMG_") and k != "RAYON_NUM_THREADS"}
    env["PMG_THREADS"] = str(pool_threads(workload))
    cmd = [exe, "run", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--work", work]
    # Its own process group, so a hung run takes its rank or daemon
    # processes down with it.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise SystemExit(f"perfbench: {workload} timed out")
    if p.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited with {p.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no record")
    return json.loads(lines[-1])


def count_gate(exe, workload, seed, rec):
    """Exact counts must repeat identically across every run of one build:
    the first run of a binary records them, every later run compares."""
    seeded = rec["facts"].get("seed_used", "").startswith("yes")
    key = f"{workload}-{seed}" if seeded else workload
    state_dir = os.path.join(target_dir(), "perfbench-work", "counts-" + file_digest(exe))
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, key + ".json")
    problems = []
    if os.path.exists(path):
        first = load_json(path)
        for name in sorted(set(first) | set(rec["exact"])):
            if first.get(name) != rec["exact"].get(name):
                problems.append(f"exact count {name}: {first.get(name)} in the first run "
                                f"of this build, {rec['exact'].get(name)} now")
    else:
        with open(path, "w") as f:
            json.dump(rec["exact"], f, sort_keys=True)
    return problems


def drift_from_recorded(workload, rec):
    """Counts that differ from the ones recorded when the benchmark was
    defined. Reported, not failed: an algorithm change may move them."""
    recorded = expected()["recorded_counts"].get(workload, {})
    return [f"{k}: recorded {v}, now {rec['exact'].get(k)}"
            for k, v in sorted(recorded.items()) if rec["exact"].get(k) != v]


def end_to_end(rec):
    s = rec["samples"]
    return {
        "time_to_solution_s": median(s["time_to_solution_s"]),
        "setup_s": median(s["setup_s"]),
        "solve_s": median(s["solve_s"]),
        "peak_rss_mb": max(s["peak_rss_mb"]),
    }


def extras(rec):
    """Figures a run prints next to its end-to-end metrics: per-rank
    memory on spmd_sockets, the latency p90 and closed-loop throughput on
    serve. Medians over the run, like the metrics."""
    names = {m["name"] for m in spec()["end_to_end"]}
    s = rec["samples"]
    out = {k: median(v) for k, v in sorted(s.items()) if k not in names}
    if "throughput_rps" in s and len(s["time_to_solution_s"]) >= 10:
        out["latency_p90_s"] = statistics.quantiles(s["time_to_solution_s"], n=10)[-1]
    return out


def measure(exe, workload, seed, seconds, trace):
    """One checked run: raw record plus the result object."""
    rec = run_workload(exe, workload, seed, seconds, trace)
    failures = list(rec["failures"]) + count_gate(exe, workload, seed, rec)
    attempted = max(1, int(rec["attempted"]))
    failed = min(attempted, len(failures))
    b = spec()
    if trace:
        metrics = {m["name"]: {"value": float(rec["layers"].get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in b["per_layer"]}
    else:
        values = end_to_end(rec)
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in b["end_to_end"]}
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"perfbench: {workload} measured no value for {', '.join(bad)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return rec, failures, result


def print_run(workload, rec, failures, result, trace):
    print(f"# workload {workload}: " + ", ".join(f"{k}={v}" for k, v in sorted(rec["facts"].items())))
    if trace:
        print(f"# per-layer metrics (traced run; medians over traced repeats)")
        for k, v in sorted(rec["layers"].items()):
            print(f"  {k:40s} {v:.6g}")
    else:
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for k, m in result["metrics"].items():
            n = len(rec["samples"].get(k, []))
            how = "peak" if k == "peak_rss_mb" else "median"
            print(f"  {k:24s} {m['value']:.6g} {units[k]}  ({how} of {n})")
        for k, v in extras(rec).items():
            print(f"  {k:24s} {v:.6g}")
    print(f"  error_rate               {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} checked operations failed)")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    for d in drift_from_recorded(workload, rec):
        print(f"  note: count differs from the recorded value: {d}")


def cmd_single(args):
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    exe = build()
    print("# host " + json.dumps(host_fingerprint(), sort_keys=True))
    rec, failures, result = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    print_run(args.workload, rec, failures, result, args.trace)
    print(json.dumps(result))


def cmd_suite(args):
    exe = build()
    b = spec()
    host = host_fingerprint()
    print("# host " + json.dumps(host, sort_keys=True))
    out = {"host": host, "seconds": args.seconds, "workloads": {}}
    bad = 0
    for w in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            t = time.time()
            rec, failures, result = measure(exe, w, seed, args.seconds, False)
            log(f"{w} seed {seed}: {time.time() - t:.1f} s, "
                f"{result['failed']}/{result['attempted']} failed")
            bad += result["failed"]
            runs.append({"seed": seed, "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                         "extra": extras(rec), "attempted": result["attempted"],
                         "failed": result["failed"], "failures": failures[:20],
                         "exact": rec["exact"], "facts": rec["facts"]})
        entry = {"runs": runs}
        print(f"# {w}: {args.runs} runs, seeds 1..{args.runs}, {args.seconds} s each; "
              + ", ".join(f"{k}={v}" for k, v in sorted(runs[0]["facts"].items())))
        print(f"  {'metric':26s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
        for m in b["end_to_end"]:
            v = [r["metrics"][m["name"]] for r in runs]
            q1, q2, q3 = quartiles(v)
            flag = "" if spread(v) <= m["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"  {m['name'] + ' [' + m['unit'] + ']':26s} {q2:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{spread(v):7.3f} {m['bound']:6.2f}{flag}")
        for k in sorted(runs[0]["extra"]):
            v = [r["extra"][k] for r in runs if k in r["extra"]]
            q1, q2, q3 = quartiles(v)
            print(f"  {k:26s} {q2:10.5g} {q1:10.5g} {q3:10.5g} {spread(v):7.3f}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  error_rate                 {failed / attempted:.6g} ({failed} of {attempted})")
        for d in drift_from_recorded(w, {"exact": runs[0]["exact"]}):
            print(f"  note: count differs from the recorded value: {d}")
        if args.trace:
            rec, failures, result = measure(exe, w, 1, args.seconds, True)
            bad += result["failed"]
            entry["layers"] = rec["layers"]
            print_run(w, rec, failures, result, True)
        out["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
        print(f"# wrote {args.out}")
    return 1 if bad else 0


def verdict(a, b, m):
    """The choosing-metrics rule. A spread wider than the bound leaves the
    pairing unresolved unless every run of one side beats every run of the
    other. A gain needs at least ten pairs, the change winning nine in ten,
    and medians further apart than the base's own quartile spread. A loss
    is a median worse than the base's by more than the bound."""
    lower = m["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    best = min if lower else max
    worst = max if lower else min
    ma, mb = median(a), median(b)
    if spread(a) > m["bound"] or spread(b) > m["bound"]:
        if better(worst(b), best(a)):
            return "improved"
        if better(worst(a), best(b)):
            return "worse"
        return "unresolved"
    pairs = list(zip(a, b))
    q1, _, q3 = quartiles(a)
    wins = sum(better(y, x) for x, y in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3 - q1:
        return "improved"
    worse_by = (mb / ma - 1) if lower else (1 - mb / ma)
    return "worse" if worse_by > m["bound"] else "no worse"


def cmd_compare(args):
    a, b = load_json(args.a), load_json(args.b)
    metrics = spec()["end_to_end"]
    print(f"# A: {args.a} ({a['host'].get('git')}), B: {args.b} ({b['host'].get('git')})")
    counts = {}
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        ra, rb = a["workloads"][w]["runs"], b["workloads"][w]["runs"]
        print(f"# {w}")
        print(f"  {'metric':22s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} {'B/A':>7s} verdict")
        for m in metrics:
            va = [r["metrics"][m["name"]] for r in ra]
            vb = [r["metrics"][m["name"]] for r in rb]
            qa, qb = quartiles(va), quartiles(vb)
            v = verdict(va, vb, m)
            counts[v] = counts.get(v, 0) + 1
            print(f"  {m['name']:22s} {qa[1]:10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f" {qb[1]:10.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {qb[1] / qa[1]:7.4f} {v}")
        fa = sum(r["failed"] for r in ra) + sum(r["failed"] for r in rb)
        if fa:
            counts["failed"] = counts.get("failed", 0) + fa
            print(f"  {fa} failed operations across the two sets")
        ea, eb = ra[0]["exact"], rb[0]["exact"]
        diff = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
        if diff:
            print("  exact counts differ: " + ", ".join(f"{k} {ea.get(k)} -> {eb.get(k)}" for k in diff))
    print("# verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    if args.check and (counts.get("worse") or counts.get("unresolved") or counts.get("failed")):
        return 1
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
        p.add_argument("--out")
        p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                       default=[w["name"] for w in spec()["workloads"]])
        p.add_argument("--no-trace", dest="trace", action="store_false")
        return cmd_suite(p.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("--check", action="store_true",
                       help="exit 1 on any worse, unresolved or failed pairing")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return cmd_single(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main() or 0)
