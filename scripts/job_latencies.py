"""Median latency of each job of one benchmark workload, parent against change.

    python3 scripts/job_latencies.py --parent DIR --change DIR --workload build \
        --seeds 2401-2420

DIR is the root of a checkout holding ``perfbench/worker.py`` and ``src/``.
For each seed the script runs ``python3 perfbench/worker.py --workload W
--seed N --passes 1`` once in each tree, one after the other; the parent
goes first on even positions in the seed range and the change on odd ones,
as ``bench_pairs.py`` does.  It then prints one line per job: the median
latency of each tree over the seeds, the change's median over the parent's,
the number of seeds on which the change's run was the faster, and the job's
name.  A job that failed its check in any run is marked.

A workload's ``job_p50_s`` and ``job_tail_s`` mix every job into one
distribution, so a shift in a single job, or a bimodal parent, moves them
without saying which job moved; this script says.  It reads the worker's
output only and changes nothing under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

TREES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_worker(root: Path, workload: str, seed: int) -> list[dict]:
    """One pass of the workload's job list in a fresh worker; its job records."""
    proc = subprocess.run([sys.executable, "perfbench/worker.py", "--workload", workload,
                           "--seed", str(seed), "--passes", "1",
                           "--spawn-time", repr(time.time())],
                          cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["jobs"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    # (job index, name) -> tree -> latencies, one per seed
    latencies: dict = {}
    failed = set()
    for i, seed in enumerate(args.seeds):
        for tree in (TREES if i % 2 == 0 else TREES[::-1]):
            for job in run_worker(roots[tree], args.workload, seed):
                key = (job["id"], job["name"])
                latencies.setdefault(key, {t: [] for t in TREES})[tree].append(job["latency_s"])
                if job["status"] != "ok":
                    failed.add(key)
        print(f"# seed {seed} done", file=sys.stderr, flush=True)

    print(f"{'job':>3}  {'parent_s':>9}  {'change_s':>9}  {'ratio':>6}  {'wins':>5}  name")
    for (index, name), runs in sorted(latencies.items()):
        parent, change = (statistics.median(runs[t]) for t in TREES)
        wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        mark = "  [failed a check]" if (index, name) in failed else ""
        print(f"{index:>3}  {parent:9.4f}  {change:9.4f}  {change / parent:6.3f}  "
              f"{wins:>2}/{len(runs['change']):<2}  {name}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
