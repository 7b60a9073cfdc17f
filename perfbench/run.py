#!/usr/bin/env python3
"""Communix ledger benchmark runner.

One run (what BENCHMARK.json's command executes):
    python3 perfbench/run.py --workload poll-feed --seed 1 --seconds 10 --trace 0

builds the benchmark's own optimized copy of the daemon and the ledger
load generator into $CARGO_TARGET_DIR (default .bench_build), runs one
measured instance, and prints as its last stdout line a JSON object with
the keys correct / attempted / failed / metrics. The line before it,
"# row ...", is the result row with its metadata (commit, nproc, build
type, seed, daemon flags, run length, repeat count, per-metric
median / min / max / quartiles).

Other modes:
    --selftest                       the generator's own self-tests
    --repeat N --out FILE            N runs (seeds seed..seed+N-1) -> rows
    --compare BASE.json NEW.json     side-by-side medians and quartiles
    --sweep RATES                    offered-load sweep (knee finding)
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("poll-feed", "upload-storm", "immunize")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build():
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    for needed in ("src", "tools", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"run.py: {needed} missing: run from a full checkout")
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "ledger", "ledger_selftest", "communix_server"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def build_type(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def summarize(values):
    """median / min / max / quartiles of a list of numbers."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "min": vals[0],
            "max": vals[-1], "q1": q1, "q3": q3, "values": values}


def run_ledger(out, workload, seed, seconds, trace, extra=()):
    """One ledger invocation; returns (detail dict, result dict)."""
    work = os.path.join(out, f"work-{os.getpid()}-{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(out, "ledger"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--server", os.path.join(out, "communix_server"),
           "--work", work, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        spans_dir = os.path.join(out, "spans")
        for name in os.listdir(work) if os.path.isdir(work) else []:
            if name.startswith("spans-"):
                os.makedirs(spans_dir, exist_ok=True)
                shutil.move(os.path.join(work, name),
                            os.path.join(spans_dir, name))
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: ledger exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = {}
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
    return detail, json.loads(lines[-1])


def row(out, workload, seeds, seconds, trace, details, results):
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"unit": results[0]["metrics"][name]["unit"],
                         **summarize(values)}
    extra = {}
    for name in details[0].get("all_metrics", {}):
        if name not in metrics and all(name in d.get("all_metrics", {})
                                       for d in details):
            extra[name] = summarize([d["all_metrics"][name] for d in details])
    return {"workload": workload, "commit": commit(),
            "nproc": os.cpu_count(), "build_type": build_type(out),
            "seeds": seeds, "daemon_flags": details[0].get("daemon_flags", ""),
            "seconds": seconds, "trace": trace, "repeats": len(results),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics, "other_metrics": extra}


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else float("inf")


def compare(base_path, new_path):
    """Prints medians/quartiles side by side; flags regressions."""
    with open(base_path) as f:
        base = {r["workload"]: r for r in json.load(f)}
    with open(new_path) as f:
        new = {r["workload"]: r for r in json.load(f)}
    spec = bounds()
    worse = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        print(f"{'metric':36} {'base median [q1,q3]':>30} "
              f"{'new median [q1,q3]':>30}  verdict")
        for name, b in base[workload]["metrics"].items():
            n = new[workload]["metrics"].get(name)
            if n is None:
                continue
            verdict = ""
            if name in spec:
                bound = spec[name]["bound"]
                higher = spec[name]["better"] == "higher"
                change = (n["median"] - b["median"]) / b["median"] if b["median"] else 0
                regress = -change if higher else change
                if spread(b) > bound or spread(n) > bound:
                    verdict = "unresolved"
                elif regress > bound:
                    verdict = f"WORSE {regress * 100:+.1f}% (bound {bound * 100:.0f}%)"
                    worse += 1
                else:
                    verdict = (f"ok, {'worse' if regress > 0 else 'better'} "
                               f"by {abs(regress) * 100:.1f}%")
            fmt = lambda m: f"{m['median']:.4g} [{m['q1']:.4g},{m['q3']:.4g}]"
            print(f"{name:36} {fmt(b):>30} {fmt(n):>30}  {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--sweep", help="comma-separated offered rates (GET/s for "
                    "poll-feed, ADD frames/s for upload-storm)")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    out = build()
    if args.selftest:
        return subprocess.run([os.path.join(out, "ledger_selftest")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    if args.sweep:
        flag = "--get-rate" if args.workload == "poll-feed" else "--add-rate"
        for rate in args.sweep.split(","):
            detail, result = run_ledger(out, args.workload, args.seed,
                                        args.seconds, False,
                                        (flag, rate, "--setups", "1"))
            m = detail["all_metrics"]
            print(f"rate {rate:>7}: get p50 {m['get.p50_ms']:.3f} p99 "
                  f"{m['e2e.get.p99_ms']:.3f} ms | add p50 {m['add.p50_ms']:.3f} "
                  f"p99 {m['e2e.add.p99_ms']:.3f} ms | send lag p99 "
                  f"{m['bench.send_lag.p99_ms']:.3f} ms | "
                  f"correct {result['correct']}", flush=True)
        return 0

    if args.repeat:
        seeds = list(range(args.seed, args.seed + args.repeat))
        details, results = [], []
        for seed in seeds:
            t0 = time.time()
            d, r = run_ledger(out, args.workload, seed, args.seconds, args.trace)
            details.append(d)
            results.append(r)
            log(f"run.py: {args.workload} seed {seed}: {time.time() - t0:.1f} s, "
                f"correct={r['correct']}")
        r = row(out, args.workload, seeds, args.seconds, args.trace, details,
                results)
        if args.out:
            rows = []
            if os.path.exists(args.out):
                with open(args.out) as f:
                    rows = [x for x in json.load(f)
                            if x["workload"] != args.workload]
            rows.append(r)
            with open(args.out, "w") as f:
                json.dump(rows, f, indent=1)
        spec = bounds() if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")) else {}
        for name, m in r["metrics"].items():
            bound = spec.get(name, {}).get("bound")
            note = f" (bound {bound})" if bound is not None else ""
            print(f"{name:40} median {m['median']:.5g}  spread "
                  f"{spread(m):.3f}{note}")
        return 0 if r["correct"] else 1

    detail, result = run_ledger(out, args.workload, args.seed, args.seconds,
                                args.trace)
    print("# detail " + json.dumps(detail))
    print("# row " + json.dumps(row(out, args.workload, [args.seed],
                                    args.seconds, args.trace, [detail],
                                    [result])))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
