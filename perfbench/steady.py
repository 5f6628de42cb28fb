#!/usr/bin/env python3
"""Steadiness runner for the benchmark, and its own smoke test.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--trace]
    python3 perfbench/steady.py --tiny

Runs every workload of BENCHMARK.json --runs times through perfbench/run.py
for its run_seconds, each run with its own seed and the workload order
reversed on every other pass, then prints for each metric its median,
quartiles and relative spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(n=4) gives them) beside the bound from BENCHMARK.json.
A spread above a third of its bound is marked "wide", one above the bound
"UNSTEADY". Exits with 1 if any spread is UNSTEADY or any run is incorrect
or has a failed operation.

--tiny runs each workload once at small sizes, untraced and traced, and
fails unless every run is correct, has no failed operation and reports
exactly the metrics BENCHMARK.json lists.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, tiny):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    elapsed = time.monotonic() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {r.returncode}")
    return json.loads(r.stdout.strip().split("\n")[-1]), elapsed


def tiny_test(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    ok = True
    for w in spec["workloads"]:
        for trace, want in ((False, e2e), (True, layer)):
            res, elapsed = run_once(w["name"], 1, 1, trace, True)
            got = set(res["metrics"])
            problems = []
            if not res["correct"]:
                problems.append("incorrect output")
            if res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"attempted {res['attempted']} failed {res['failed']}")
            if got != want:
                problems.append(f"missing {sorted(want - got)} extra {sorted(got - want)}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:18s} trace={int(trace)} {elapsed:6.1f}s {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    if a.tiny:
        return tiny_test(spec)

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {w: {} for w in names}
    shares = {w: [] for w in names}
    bad_runs = 0
    for i in range(a.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = a.seed_base + i
            res, elapsed = run_once(w, seed, seconds, a.trace, False)
            shares[w].append(res["failed"] / res["attempted"])
            if not res["correct"] or res["failed"] != 0:
                bad_runs += 1
            for k, m in res["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"run {i + 1}/{a.runs} {w} seed={seed} {elapsed:.1f}s "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)

    worst = "steady"
    for w in names:
        print(f"\n{w}  (failed share per run: {sorted(set(shares[w]))})")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for k, v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict, worst = "UNSTEADY", "unsteady"
                elif spread > bound / 3:
                    verdict = "wide"
            print(f"  {k:24s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} {verdict}")
    print(f"\noverall: {worst}, {bad_runs} run(s) incorrect or with failed operations")
    return 0 if worst == "steady" and bad_runs == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
