"""One benchmark process: set up a workload, run its job list, report.

Started by ``run.py`` in a fresh interpreter, so set-up time covers
interpreter start, imports, fixture construction and input generation (and,
for ``queries``, the shared bundle build).  Prints one JSON object as the
last line of its standard output.

    python3 perfbench/worker.py --workload build --seed 1 --passes 1 \
        --spawn-time <time.time() at spawn> [--setup-only] [--trace]
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
CLI_TIMEOUT_S = 120


def import_loopforge():
    sys.path.insert(0, str(SRC))
    import loopforge
    if Path(loopforge.__file__).resolve().parent != SRC / "loopforge":
        raise SystemExit(f"imported loopforge from {loopforge.__file__}, not from {SRC}")
    return loopforge


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class InProcess:
    """Runs in-process jobs; the job list is built during set-up."""

    def __init__(self, lf, workloads, name: str, seed: int):
        self.lf = lf
        base = workloads.fixture_docs(lf, workloads.WORKLOAD_FIXTURES[name])
        docs = workloads.seeded_docs(base, seed)
        if name == "build":
            self.jobs = workloads.build_jobs(lf, docs)
        elif name == "loopside":
            self.jobs = workloads.loopside_jobs(lf, docs)
        else:
            bundle = workloads.queries_bundle(lf, docs)
            self.jobs = workloads.queries_jobs(lf, docs, seed, bundle)

    def run_job(self, job, job_id: int, tracer):
        """The layers are wrapped only while a traced job's ``work`` runs."""
        error = out = None
        if tracer is not None:
            tracer.install(self.lf)
        t0 = time.perf_counter()
        try:
            out = job.work()
        except Exception as exc:  # a failing job is counted, not fatal
            error = exc
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        summary = None
        if error is None:
            try:
                summary = job.summarise(out)
            except Exception as exc:
                error = exc
        return latency, error, summary

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


class CliProcesses:
    """Runs each job as a loopforge process; set-up writes the input files."""

    def __init__(self, lf, workloads, seed: int):
        base = workloads.fixture_docs(lf, workloads.WORKLOAD_FIXTURES["cli"])
        docs = workloads.seeded_docs(base, seed)
        self.workdir = TMP / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        construct_text = workloads.write_cli_inputs(lf, docs, base, str(self.workdir))
        self.env = cli_env()
        self.trace_docs = []
        summarise = functools.partial(workloads.cli_summary, workdir=str(self.workdir),
                                      construct_text=construct_text)
        # a CLI job's ``work`` is the loopforge argv, run as its own process
        self.jobs = [workloads.Job(name, argv, expected, summarise, defect)
                     for name, argv, expected, defect in workloads.CLI_CASES]

    def run_job(self, job, job_id: int, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "loopforge.cli", *job.work]
        else:
            spans = self.workdir / f"spans-{job_id}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans), str(job_id), *job.work]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        latency = time.perf_counter() - t0
        if tracer is not None:
            with open(spans) as fh:
                self.trace_docs.append(json.load(fh))
        summary = job.summarise(proc)
        return latency, None, summary

    def import_s(self, repeats: int = 3) -> float:
        """Median wall time of a fresh interpreter importing loopforge.cli."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import loopforge.cli"], cwd=self.workdir,
                           env=self.env, check=True, timeout=CLI_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()     # only when no other run is using it


def run_passes(runner, workloads, passes: int, tracer=None) -> dict:
    """Run the job list ``passes`` times; {traced: {"jobs", "walls"}}.

    A pass's wall time is the sum of its job latencies, so neither the gc
    between jobs nor the output checks count.  With a tracer every job runs
    twice back to back, untraced and traced, the order alternating from job
    to job, so that the paired difference of a pass measures the tracer and
    not the machine's drift.  An unreported untraced pass goes first then:
    the first run of a job list in a fresh process is slower (heap growth,
    interpreter specialisation), which would bias the first pair.
    """
    modes = (False,) if tracer is None else (False, True)
    runs = {m: {"jobs": [], "walls": []} for m in modes}
    if tracer is not None:
        for job in runner.jobs:
            gc.collect()
            runner.run_job(job, -1, None)
    job_id = 0
    for _ in range(passes):
        wall = dict.fromkeys(modes, 0.0)
        for k, job in enumerate(runner.jobs):
            for traced in (modes if k % 2 == 0 else modes[::-1]):
                gc.collect()
                if traced:
                    tracer.job = job_id
                latency, error, summary = runner.run_job(job, job_id,
                                                         tracer if traced else None)
                status, detail = workloads.classify(job, error, summary)
                runs[traced]["jobs"].append({"id": job_id, "name": job.name,
                                             "latency_s": latency, "status": status,
                                             "detail": detail})
                wall[traced] += latency
                job_id += 1
        for m in modes:
            runs[m]["walls"].append(wall[m])
    return runs


def machine() -> dict:
    import platform
    import numpy as np
    from blas import blas_info
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}
    info.update(blas_info())
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    lf = import_loopforge()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "cli":
        runner = CliProcesses(lf, workloads, args.seed)
    else:
        runner = InProcess(lf, workloads, args.workload, args.seed)
    setup_s = time.time() - args.spawn_time
    result = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            tracer = None
            if args.trace:
                from tracer import Tracer
                tracer = Tracer()
            runs = run_passes(runner, workloads, args.passes, tracer)
            result.update(runs[False], peak_rss_mb=runner.peak_rss_mb(), machine=machine())
            if args.trace:
                result["trace"] = trace_report(runner, args, tracer, runs)
    finally:
        runner.close()
    print(json.dumps(result))
    return 0


def trace_report(runner, args, tracer, runs) -> dict:
    """Per-pass aggregates of the traced jobs and the paired tracing overhead."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    if isinstance(runner, CliProcesses):
        agg = {}
        for doc in runner.trace_docs:
            for key, value in doc["aggregates"].items():
                agg[key] = agg.get(key, 0) + value
        agg["cli.process_s"] = sum(runs[False]["walls"])
        with open(spans_path, "w") as fh:
            json.dump({"processes": [d["spans"] for d in runner.trace_docs]}, fh)
    else:
        tracer.write(spans_path)
        agg = tracer.aggregates()
    per_pass = {k: v / args.passes for k, v in agg.items()}
    if isinstance(runner, CliProcesses):
        per_pass["cli.import_s"] = runner.import_s()
    overhead = [t - u for t, u in zip(runs[True]["walls"], runs[False]["walls"])]
    per_pass["bench.trace.overhead_s"] = statistics.median(overhead)
    return {"jobs": runs[True]["jobs"], "walls": runs[True]["walls"],
            "spans_file": str(spans_path.relative_to(ROOT)), "per_pass": per_pass}


if __name__ == "__main__":
    sys.exit(main())
