"""Latency and peak resident memory of each job of one benchmark workload.

    python3 scripts/job_peaks.py --workload queries --seed 31

It measures the checkout it sits in (copy it into another checkout's
``scripts/`` to measure that one).  Each job of ``perfbench/workloads.py``
runs once, in a fresh process that first does the workload's set-up as
``perfbench/worker.py`` does, so the peak of one job is not hidden under the
peak of an earlier one.  One line per job gives its latency, the process's
``ru_maxrss`` after set-up and after the job (for ``cli``, that of the
loopforge child processes), and the job's status by the workload's check.
The job whose line has the largest peak sets the workload's ``peak_rss_mb``.
The script imports ``perfbench`` and changes nothing in it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


def runner(name: str, seed: int):
    lf = worker.import_loopforge()
    if name == "cli":
        return worker.CliProcesses(lf, workloads, seed)
    return worker.InProcess(lf, workloads, name, seed)


def one_job(name: str, seed: int, index: int) -> dict:
    """Set up the workload, run job ``index`` once; its record."""
    r = runner(name, seed)
    try:
        setup_mb = r.peak_rss_mb()
        job = r.jobs[index]
        latency, error, summary = r.run_job(job, index, None)
        status, detail = workloads.classify(job, error, summary)
        return {"job": index, "name": job.name, "latency_s": latency,
                "setup_rss_mb": setup_mb, "peak_rss_mb": r.peak_rss_mb(),
                "status": status, "detail": detail}
    finally:
        r.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("build", "loopside", "queries", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--job", type=int, help=argparse.SUPPRESS)   # the child's job index
    args = ap.parse_args(argv)
    if args.job is not None:
        print(json.dumps(one_job(args.workload, args.seed, args.job)))
        return 0
    r = runner(args.workload, args.seed)
    count = len(r.jobs)
    r.close()
    print(f"{'job':>3}  {'latency_s':>9}  {'setup_mb':>8}  {'peak_mb':>7}  status  name")
    for i in range(count):
        out = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                              "--seed", str(args.seed), "--job", str(i)],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{i:>3}  {rec['latency_s']:9.3f}  {rec['setup_rss_mb']:8.1f}  "
              f"{rec['peak_rss_mb']:7.1f}  {rec['status']:<6}  {rec['name']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
