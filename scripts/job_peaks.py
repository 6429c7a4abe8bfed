"""Latency and peak resident memory of each job of one benchmark workload.

    python3 scripts/job_peaks.py --workload queries --seed 31
    python3 scripts/job_peaks.py --parent DIR --change DIR --workload queries \
        --seeds 31-40

Each run of a job of ``perfbench/workloads.py`` is a fresh process that
first does the workload's set-up as ``perfbench/worker.py`` does, so the
peak of one job is not hidden under the peak of an earlier one.
A job's peak is the process's ``ru_maxrss`` after it (for ``cli``, that of
the loopforge child processes); the job with the largest peak sets the
workload's ``peak_rss_mb``.

With one tree, the checkout this script sits in (or ``--root DIR``), one
line per job gives its latency, the peak after set-up and after the job,
and the job's status by the workload's check.

With ``--parent`` and ``--change``, each the root of a checkout holding
``perfbench/`` and ``src/``, every job runs once per seed in each tree; the
parent goes first on even positions in the seed range and the change on odd
ones, as ``job_latencies.py`` does.  One line per job gives each tree's
median peak and median latency over the seeds, the number of seeds on which
the change's peak was the lower, and the job's name; a job that failed its
check in any run is marked.

The script imports each tree's ``perfbench`` in its child processes and
changes nothing in it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def one_job(root: Path, name: str, seed: int, index: int) -> dict:
    """Set up the workload of the tree at ``root``, run job ``index`` once; its record."""
    sys.path.insert(0, str(root / "perfbench"))
    import worker
    import workloads
    lf = worker.import_loopforge()
    r = (worker.CliProcesses(lf, workloads, seed) if name == "cli"
         else worker.InProcess(lf, workloads, name, seed))
    try:
        setup_mb = r.peak_rss_mb()
        job = r.jobs[index]
        latency, error, summary = r.run_job(job, index, None)
        status, detail = workloads.classify(job, error, summary)
        return {"job": index, "jobs": len(r.jobs), "name": job.name, "latency_s": latency,
                "setup_rss_mb": setup_mb, "peak_rss_mb": r.peak_rss_mb(),
                "status": status, "detail": detail}
    finally:
        r.close()


def run_child(root: Path, workload: str, seed: int, index: int) -> dict:
    """Job ``index`` of the tree at ``root`` in a fresh interpreter; its record."""
    out = subprocess.run([sys.executable, __file__, "--root", str(root), "--workload", workload,
                          "--seed", str(seed), "--job", str(index)],
                         cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_jobs(root: Path, workload: str, seed: int):
    """Every job of the workload, one fresh process each, in order."""
    rec = run_child(root, workload, seed, 0)
    yield rec
    for i in range(1, rec["jobs"]):
        yield run_child(root, workload, seed, i)


def one_tree(root: Path, workload: str, seed: int) -> None:
    print(f"{'job':>3}  {'latency_s':>9}  {'setup_mb':>8}  {'peak_mb':>7}  status  name")
    for rec in run_jobs(root, workload, seed):
        print(f"{rec['job']:>3}  {rec['latency_s']:9.3f}  {rec['setup_rss_mb']:8.1f}  "
              f"{rec['peak_rss_mb']:7.1f}  {rec['status']:<6}  {rec['name']}", flush=True)


def two_trees(roots: dict, workload: str, seeds: list[int]) -> None:
    runs: dict = {}       # (job index, name) -> tree -> [(peak, latency)], one per seed
    failed = set()
    for i, seed in enumerate(seeds):
        for tree in (TREES if i % 2 == 0 else TREES[::-1]):
            for rec in run_jobs(roots[tree], workload, seed):
                key = (rec["job"], rec["name"])
                runs.setdefault(key, {t: [] for t in TREES})[tree].append(
                    (rec["peak_rss_mb"], rec["latency_s"]))
                if rec["status"] != "ok":
                    failed.add(key)
        print(f"# seed {seed} done", file=sys.stderr, flush=True)

    print(f"{'job':>3}  {'parent_mb':>9}  {'change_mb':>9}  {'wins':>5}  "
          f"{'parent_s':>8}  {'change_s':>8}  name")
    for (index, name), by_tree in sorted(runs.items()):
        (pm, ps), (cm, cs) = [[statistics.median(r[k] for r in by_tree[t]) for k in (0, 1)]
                              for t in TREES]
        wins = sum(c[0] < p[0] for p, c in zip(by_tree["parent"], by_tree["change"]))
        mark = "  [failed a check]" if (index, name) in failed else ""
        print(f"{index:>3}  {pm:9.2f}  {cm:9.2f}  {wins:>2}/{len(by_tree['change']):<2}  "
              f"{ps:8.4f}  {cs:8.4f}  {name}{mark}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("build", "loopside", "queries", "cli"))
    ap.add_argument("--seed", type=int, default=1, help="one tree: the seed")
    ap.add_argument("--root", type=Path, default=ROOT, help="one tree: its root")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--seeds", type=parse_seeds, help="two trees: A-B, inclusive")
    ap.add_argument("--job", type=int, help=argparse.SUPPRESS)   # the child's job index
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.job is not None:
        print(json.dumps(one_job(root, args.workload, args.seed, args.job)))
    elif args.parent is None and args.change is None:
        one_tree(root, args.workload, args.seed)
    elif args.parent is None or args.change is None or args.seeds is None:
        ap.error("--parent, --change and --seeds go together")
    else:
        two_trees({"parent": args.parent.resolve(), "change": args.change.resolve()},
                  args.workload, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
