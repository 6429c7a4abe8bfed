"""Run every workload on several seeds and summarise the end-to-end metrics.

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

Every workload runs once per seed untraced, then once traced (seed
``TRACE_SEED``).  For each workload and metric it prints the median, the
quartiles and the quartile spread (Q3 - Q1 as a share of the median) next to
the metric's bound from BENCHMARK.json, and the failed/attempted job counts.  With
``--out`` it also writes all of this, every run's values and the machine
description, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, spec  # noqa: E402
from stats import quartile_spread  # noqa: E402

TRACE_SEED = 1


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int,
            trace: int = 0) -> tuple[dict, dict, float]:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0].split(":", 1)[1])
    return json.loads(lines[-1]), machine, time.monotonic() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if len(seed_range(args.seeds)) < 2:
        ap.error("quartiles need at least two seeds")
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "seeds": seed_range(args.seeds),
           "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for seed in doc["seeds"]:
            line, doc["machine"], elapsed = one_run(w, seed, bench["run_seconds"])
            runs.append(dict(line, elapsed_s=elapsed))
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4f}" for k, v in line["metrics"].items())
                + f"  failed={line['failed']}/{line['attempted']} correct={line['correct']}"
                + f"  run took {elapsed:.1f} s", flush=True)
        summary = {"attempted": [r["attempted"] for r in runs],
                   "elapsed_s": [r["elapsed_s"] for r in runs],
                   "failed": [r["failed"] for r in runs],
                   "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = quartile_spread(values)
            summary["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "ok" if spread < bounds[name] / 3 else (
                "WITHIN BOUND" if spread <= bounds[name] else "OVER BOUND")
            print(f"  {w} {name}: median {statistics.median(values):.4f} "
                  f"IQR/median {spread:.4f} (bound {bounds[name]}) {flag}", flush=True)
        line, _, elapsed = one_run(w, TRACE_SEED, bench["run_seconds"], trace=1)
        summary["traced"] = {"seed": TRACE_SEED, "elapsed_s": elapsed,
                             "correct": line["correct"], "failed": line["failed"],
                             "attempted": line["attempted"],
                             "per_layer": {k: v["value"] for k, v in line["metrics"].items()}}
        print(f"  {w} traced: overhead "
              f"{line['metrics']['bench.trace.overhead_s']['value']:.4f} s, "
              f"run took {elapsed:.1f} s", flush=True)
        doc["workloads"][w] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
