#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, within and between sets of runs.

Runs every workload once per seed, as the benchmark command does, for one or
more sets separated by a pause, then prints, per workload and end-to-end
metric: each set's median, its spread (interquartile distance over the
median, from statistics.quantiles(values, n=4)), and the shift of each later
set's median against the first, signed so that positive means worse. The
informational host spin-loop reading (host_ref_ms) is reported the same way,
so a host-speed phase can be told apart from a regression.

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --gap 120 \
        --out perfbench/steadiness.json
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


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n"
                           f"{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    ref = None
    for line in lines:
        if line.startswith("host_ref_ms:"):
            ref = float(line.split(":")[1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["host_ref_ms"] = ref
    return {"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "values": values}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=0,
                    help="seconds to wait between sets")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", help="write every run and summary as JSON")
    args = ap.parse_args()

    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}  # workload -> list of sets
    for s in range(args.sets):
        if s and args.gap:
            time.sleep(args.gap)
        for w in workloads:
            seeds = range(args.seed_base + s * args.seeds,
                          args.seed_base + (s + 1) * args.seeds)
            one_set = [run_once(bench, w, seed) for seed in seeds]
            runs[w].append(one_set)
            print(f"set {s + 1} {w}: {len(one_set)} runs, "
                  f"{sum(r['elapsed_s'] for r in one_set):.0f} s",
                  file=sys.stderr)

    summary = {}
    for w in workloads:
        print(f"\n### {w}\n")
        print("| metric | bound | " + " | ".join(
            f"set {i + 1} median | set {i + 1} spread"
            for i in range(args.sets)) + " | shift vs set 1 |")
        print("|---|---:|" + "---:|---:|" * args.sets + "---:|")
        for name in list(metrics) + ["host_ref_ms"]:
            m = metrics.get(name, {"better": "lower", "bound": None})
            cells, medians = [], []
            for one_set in runs[w]:
                med, spr = spread([r["values"][name] for r in one_set])
                medians.append(med)
                cells.append(f"{med:.6g} | {spr:.3f}")
            sign = 1 if m["better"] == "lower" else -1
            shifts = [sign * (x - medians[0]) / medians[0]
                      for x in medians[1:]]
            bound = "info" if m["bound"] is None else f"{m['bound']:.2f}"
            print(f"| {name} | {bound} | " + " | ".join(cells) + " | " +
                  (", ".join(f"{x:+.3f}" for x in shifts) or "-") + " |")
            summary.setdefault(w, {})[name] = {
                "medians": medians,
                "spreads": [spread([r["values"][name] for r in st])[1]
                            for st in runs[w]],
                "shifts": shifts}
        bad = sum(r["failed"] for st in runs[w] for r in st)
        print(f"\nfailed checks over all runs: {bad}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
