"""loopforge benchmark: time to verdict on cold loops, measured layer by layer.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop: one client in one process sends the next
job only when the previous one has finished.  The job list is repeated
``max(1, round(seconds / nominal_pass_s))`` times, so the job count depends
on ``--seconds`` alone.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` every job
runs twice back to back, untraced and traced, and it carries the per-layer
metrics and the tracing overhead.  Lines before it describe the machine,
the job counts, the tail percentile and every failed job.
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

from stats import tail_percentile  # noqa: E402

# BENCHMARK.json lists build, queries and cli.  loopside, the loops-only
# control, runs only by hand: on the shared 2-vCPU baseline machine its
# timings spread by more than the largest bound a listed workload may have
# (see README.md).
WORKLOADS = ("build", "loopside", "queries", "cli")
# one pass over each job list on the baseline machine when the benchmark was
# defined, in s; fixed here so that the pass count never depends on the
# program's speed
NOMINAL_PASS_S = {"build": 30.0, "loopside": 7.0, "queries": 14.0, "cli": 7.0}
SETUP_SAMPLES = 9          # fresh processes timed from spawn to first runnable job
RUN_TIMEOUT_S = 175


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn_worker(workload: str, seed: int, passes: int, deadline: float,
                 setup_only: bool = False, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    cmd += ["--spawn-time", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_accounting(jobs: list) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct means every failure is a
    documented known defect and every other output matched its check."""
    failed = sum(j["status"] != "ok" for j in jobs)
    correct = not any(j["status"] == "unexpected" for j in jobs)
    return len(jobs), failed, correct


def end_to_end(setups: list, res: dict) -> tuple[dict, dict]:
    lat = [j["latency_s"] for j in res["jobs"]]
    tail_p, tail = tail_percentile(lat)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["walls"]),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"jobs": len(lat), "passes": len(res["walls"]), "tail_percentile": tail_p,
             "setup_samples": len(setups)}
    return values, notes


def per_layer(res: dict) -> dict:
    agg = dict(res["trace"]["per_pass"])
    rows = agg.get("linalg.ideal_closure.seed_rows", 0)
    agg["linalg.ideal_closure.yield"] = agg.get("linalg.ideal_closure.dim_out", 0) / rows \
        if rows else 0.0
    agg["linalg.ideal_closure.action_s"] = agg.get("linalg.ideal_closure.actions.total_s", 0.0)
    return agg


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, notes for the human-readable lines)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    bench = spec()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn_worker(workload, seed, passes, deadline,
                                       setup_only=True)["setup_s"])
    res = spawn_worker(workload, seed, passes, deadline, trace=trace)
    setups.append(res["setup_s"])
    jobs = res["jobs"] + (res["trace"]["jobs"] if trace else [])
    attempted, failed, correct = job_accounting(jobs)
    values, notes = end_to_end(setups, res)
    notes.update(machine=res["machine"], failures=[j for j in jobs if j["status"] != "ok"],
                 fail_frac=failed / attempted, attempted=attempted, failed=failed)
    if trace:
        layer = per_layer(res)
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        notes["spans_file"] = res["trace"]["spans_file"]
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    notes["end_to_end"] = values
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, notes


def describe(workload: str, notes: dict) -> list[str]:
    v = notes["end_to_end"]
    out = [
        f"# machine: {json.dumps(notes['machine'], sort_keys=True)}",
        f"# {workload}: closed loop, 1 client, {notes['jobs']} jobs in {notes['passes']} "
        f"pass(es); setup_s is the median of {notes['setup_samples']} fresh processes",
        f"# {workload}: setup_s={v['setup_s']:.4f} s  wall_s={v['wall_s']:.4f} s  "
        f"job_p50_s={v['job_p50_s']:.4f} s (n={notes['jobs']})  "
        f"job_tail_s={v['job_tail_s']:.4f} s (p{notes['tail_percentile']}, n={notes['jobs']})  "
        f"peak_rss_mb={v['peak_rss_mb']:.1f} MB  "
        f"fail_frac={notes['failed']}/{notes['attempted']}={notes['fail_frac']:.4f}",
    ]
    for j in notes["failures"]:
        out.append(f"# {workload}: job {j['id']} {j['name']!r} failed "
                   f"({j['status']}): {j['detail']}")
    if "spans_file" in notes:
        out.append(f"# {workload}: spans written to {notes['spans_file']}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "loopforge" / "__init__.py").is_file():
        print(f"error: no loopforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.workload != "all":
        line, notes = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print("\n".join(describe(args.workload, notes)))
        print(json.dumps(line))
        return 0
    table = {}
    for i, w in enumerate(WORKLOADS):
        line, notes = run_workload(w, args.seed, seconds, bool(args.trace))
        print("\n".join(describe(w, notes)[min(i, 1):]), flush=True)   # machine line once
        table[w] = line
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
