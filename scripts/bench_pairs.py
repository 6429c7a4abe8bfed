"""Alternating parent/change benchmark pairs on one or more workloads.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload queries \
        --workload build --seeds 901-910 --out BENCH.json

DIR is the root of a checkout holding ``perfbench/run.py`` and ``src/``.
The workloads run one after another, each on every seed.  For each seed the
script runs ``python3 perfbench/run.py --workload W --seed N`` once in each
tree, one after the other in the same seed's pair; the parent goes first on
even positions in the seed range and the change on odd ones, so neither
tree always runs on a warmer or a busier machine.

The output maps each workload to a record of every run's end-to-end metrics
(the ``end_to_end`` names of the change tree's BENCHMARK.json) and its
``fail_frac`` (failed over attempted jobs), and for each metric the median
and quartiles of both trees, the number of pairs the change wins, and
whether the change's median beats the parent's by more than the parent's
quartile distance.  Each metric also gets a verdict against its ``bound`` in
BENCHMARK.json, a fraction of the parent's median (``fail_frac`` has no
bound there and takes 0):

- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's IQR is wider than the bound, and not every
  change run beats every parent run;
- ``within bound``: otherwise.

Each record also keeps the ``# machine:`` line run.py
prints.  The file is rewritten after every pair.  The script reads run.py's
output only; it imports nothing from ``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One run.py invocation: its result line, fail_frac and machine line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("# machine:")), None)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["fail_frac"] = result["failed"] / result["attempted"]
    return {"metrics": metrics, "correct": result["correct"], "machine": machine}


def stats(values: list) -> dict:
    """Median and quartiles, by the rule perfbench uses for its spreads."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {"median": mid, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list, name: str, better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1
    out = {"better": better, "bound": bound}
    for tree in TREES:
        out[tree] = stats([p[tree][name] for p in pairs])
    out["change_wins"] = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
    out["pairs"] = len(pairs)
    gain = sign * (out["parent"]["median"] - out["change"]["median"])
    out["median_gain_exceeds_parent_iqr"] = gain > out["parent"]["iqr"]
    out["verdict"] = verdict(pairs, name, sign, out["parent"], out["change"], bound)
    return out


def verdict(pairs: list, name: str, sign: int, parent: dict, change: dict, bound: float) -> str:
    allowed = bound * abs(parent["median"])
    if sign * (change["median"] - parent["median"]) > allowed:
        return "worse"
    # signed so that lower is better: every change run beats every parent run
    change_beats_all = max(sign * p["change"][name] for p in pairs) < \
        min(sign * p["parent"][name] for p in pairs)
    if parent["iqr"] > allowed and not change_beats_all:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    help="repeat to run several workloads")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    better["fail_frac"] = ("lower", 0.0)

    out = {}
    for workload in args.workload:
        runs, machine = [], None
        for i, seed in enumerate(args.seeds):
            order = TREES if i % 2 == 0 else TREES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for tree in order:
                res = run_once(roots[tree], workload, seed)
                machine = machine or res["machine"]
                pair[tree] = res["metrics"]
                pair[f"{tree}_correct"] = res["correct"]
                print(f"{workload} seed {seed} {tree}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in res["metrics"].items()), flush=True)
            runs.append(pair)
            out[workload] = {
                "workload": workload,
                "command": f"python3 perfbench/run.py --workload {workload} --seed N",
                "seeds": [p["seed"] for p in runs],
                "machine": machine,
                "summary": {name: summarise(runs, name, b, bound)
                            for name, (b, bound) in better.items()},
                "runs": runs,
            }
            args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, doc in out.items():
        for name, s in doc["summary"].items():
            print(f"{workload} {name}: parent {s['parent']['median']:.4g} "
                  f"(IQR {s['parent']['iqr']:.3g}) -> change {s['change']['median']:.4g}, "
                  f"change wins {s['change_wins']}/{s['pairs']}: {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
