"""Wall time and peak resident memory of whole embeddability verdicts, parent against change.

    python3 scripts/verdict_peaks.py --parent DIR --change DIR [--runs 2]

DIR is the root of a checkout holding ``src/loopforge``.  Each verdict
``embeddability(loop, GF(p))`` of the fixed pairs below runs once per fresh
process, in each tree, ``--runs`` times; the parent goes first on even runs
and the change on odd ones.  One line per run gives the tree, the pair, the
verdict's wall time, the process's ``ru_maxrss`` before the call and after
it (MB), and the outcome.  A fresh process per verdict keeps one verdict's
peak from hiding under another's.

C64 x C4 (order 256, a d = 256 quotient) cannot be named on the command
line, which is why this script builds the loops itself.  It uses only the
standard library and each tree's ``src/``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
# (label, loop expression over the module ``lf``, prime)
PAIRS = (
    ("c64_x_c4/gf3", "lf.direct_product(lf.cyclic(64), lf.cyclic(4))", 3),
    ("cml81/gf3", "lf.cml81()", 3),
    ("paige2/gf2", "lf.paige_loop(2)", 2),
    ("paige3/gf3", "lf.paige_loop(3)", 3),
)

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import loopforge as lf

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

loop, field = {loop}, lf.PrimeField({p})
before = rss_mb()
t0 = time.perf_counter()
verdict = lf.embeddability(loop, field)
wall = time.perf_counter() - t0
print(json.dumps({{"wall_s": wall, "rss_before_mb": before, "peak_rss_mb": rss_mb(),
                  "outcome": verdict.outcome}}))
"""


def run_pair(root: Path, loop: str, p: int) -> dict:
    """One verdict in a fresh interpreter importing ``root/src``; its record."""
    proc = subprocess.run([sys.executable, "-c", CHILD.format(loop=loop, p=p), str(root / "src")],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--runs", type=int, default=2)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    print(f"{'tree':<6}  {'pair':<13}  {'wall_s':>7}  {'before_mb':>9}  {'peak_mb':>8}  outcome")
    for i in range(args.runs):
        for label, loop, p in PAIRS:
            for tree in (TREES if i % 2 == 0 else TREES[::-1]):
                r = run_pair(roots[tree], loop, p)
                print(f"{tree:<6}  {label:<13}  {r['wall_s']:7.3f}  {r['rss_before_mb']:9.1f}  "
                      f"{r['peak_rss_mb']:8.1f}  {r['outcome']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
