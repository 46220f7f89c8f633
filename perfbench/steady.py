#!/usr/bin/env python3
"""Steadiness check: run each workload N times in fresh processes.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --against .bench_out/steady-<time>.json

Every workload of BENCHMARK.json runs N times for run_seconds, with seeds
100, 101, ..., in alternating order (forward, then reversed). For every
end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median, next to the metric's bound; a spread must stay below
a third of its bound. It also prints each workload's share of failed
operations. The raw results go to .bench_out/steady-<time>.json.

Host speed. run.py times a fixed spin probe right before and right after
each run; a run's probe level is the mean of the two. A run whose level
differs from the set's median level by more than PROBE_TOLERANCE ran at
another host speed than the rest of the set; it is marked "off". Each
metric is summarized over all runs and again over the runs at the set's
host speed. (On the reference host the 1-s probe itself moves by 10-20%
over seconds, as the host flips between two speeds; the sustained shifts
that spoil a set are 1.5-2x, well past PROBE_TOLERANCE.)

--against compares this set's medians with an earlier set's, metric by
metric against its bound: once over all runs, and once over only the
runs of both sets whose probe levels lie within PROBE_TOLERANCE of the two
sets' pooled median probe, so that a change of host speed between the
sets is not read as a change of the program.

Exits 1 when a spread over all runs is not below a third of its bound,
or a metric is worse than the earlier set by more than its bound.
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
SEED_BASE = 100
PROBE_TOLERANCE = 0.15


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"seed": seed, "result": json.loads(lines[-1]),
            "report": json.loads(lines[-2])["report"]}


def probe_level(run):
    p = run["report"]["host_probe_s"]
    return (p["before"] + p["after"]) / 2


def at_speed(runs, ref):
    """The runs whose probe level lies within PROBE_TOLERANCE of ref."""
    return [r for r in runs if abs(probe_level(r) / ref - 1) <= PROBE_TOLERANCE]


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summarize(spec, results):
    steady = True
    for w, runs in results.items():
        ref = statistics.median(probe_level(r) for r in runs)
        kept = at_speed(runs, ref)
        off = [r["seed"] for r in runs if r not in kept]
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
        print(f"== {w}: {len(runs)} runs, failed share {shares}, "
              f"host probe median {ref:.3f} s, runs off host speed: {off or 'none'}")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
              f"   {'at speed':>11} {'spread':>7}")
        for m in spec["end_to_end"]:
            med, q1, q3, sp = spread(values(runs, m["name"]))
            flag = ""
            if not sp < m["bound"] / 3:
                flag, steady = "  WIDE", False
            kmed, _, _, ksp = spread(values(kept, m["name"])) if kept else (0, 0, 0, float("nan"))
            print(f"  {m['name']:<14} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {sp:>7.4f} {m['bound']:>6}"
                  f"   {kmed:>11.5g} {ksp:>7.4f}{flag}")
    return steady


def compare(spec, old, new):
    agree = True
    print("== against the earlier set: median change (new / old - 1), bound")
    for w in new:
        if w not in old:
            continue
        ref = statistics.median(probe_level(r) for r in old[w] + new[w])
        ko, kn = at_speed(old[w], ref), at_speed(new[w], ref)
        po = statistics.median(probe_level(r) for r in old[w])
        pn = statistics.median(probe_level(r) for r in new[w])
        print(f"  {w}: host probe {po:.3f} s -> {pn:.3f} s ({pn / po - 1:+.3f}); "
              f"runs at the pooled host speed: {len(ko)} old, {len(kn)} new")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            change = statistics.median(values(new[w], name)) / statistics.median(values(old[w], name)) - 1
            flag = ""
            if sign * change > bound:
                flag, agree = "  WORSE", False
            same = "      n/a"
            if len(ko) >= 3 and len(kn) >= 3:
                same = f"{statistics.median(values(kn, name)) / statistics.median(values(ko, name)) - 1:+9.4f}"
            print(f"    {name:<14} all runs {change:+9.4f}   at one host speed {same}   bound {bound}{flag}")
    return agree


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--against", default="", help="an earlier set's results file")
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in (names if i % 2 == 0 else names[::-1]):
            r = run_once(w, SEED_BASE + i, spec["run_seconds"])
            results[w].append(r)
            p = r["report"]["host_probe_s"]
            print(f"run {i + 1}/{args.runs} {w}: attempted {r['result']['attempted']} "
                  f"failed {r['result']['failed']} probe {p['before']:.3f}/{p['after']:.3f} s",
                  file=sys.stderr, flush=True)
    out = os.path.join(ROOT, ".bench_out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results: {os.path.relpath(out, ROOT)}")
    ok = summarize(spec, results)
    if args.against:
        with open(args.against) as f:
            ok = compare(spec, json.load(f), results) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
