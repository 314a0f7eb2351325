"""Run the benchmark several times per workload and record each metric's
median and quartiles.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Runs go round-robin over the workloads (seed first_seed + i in round i), so
a slow stretch of a shared machine falls on all workloads alike. Spread is
the interquartile range over the median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT
from run import WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(workloads, runs: int, first_seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    values = {w: {} for w in workloads}
    units, env, bad = {}, "", []
    for i in range(runs):
        for w in workloads:
            result, lines = run_once(w, first_seed + i, seconds, trace)
            env = env or next((line for line in lines if line.startswith("# env")), "")
            if not result["correct"] or result["failed"]:
                bad.append(f"{w} seed {first_seed + i}: " + "; ".join(l for l in lines if l.startswith("GATE")))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(w, first_seed + i, json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                  flush=True)
    if bad:
        raise SystemExit("runs failed their gates:\n" + "\n".join(bad))
    table = {w: {name: {"unit": units[name], **quartiles(v)} for name, v in ms.items()} for w, ms in values.items()}
    return table, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    workloads = list(WORKLOADS)
    end_to_end, env = collect(workloads, args.runs, args.first_seed, seconds, 0)
    out = {
        "env": env,
        "run_seconds": seconds,
        "runs": args.runs,
        "seeds": [args.first_seed + i for i in range(args.runs)],
        "end_to_end": end_to_end,
    }
    if args.trace_runs:
        out["per_layer"], _ = collect(workloads, args.trace_runs, args.first_seed, seconds, 1)
    for w, metrics in end_to_end.items():
        for name, q in metrics.items():
            print(f"{w:<12} {name:<12} median {q['median']:.6g} {q['unit']} spread {q['spread']:.4f}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
