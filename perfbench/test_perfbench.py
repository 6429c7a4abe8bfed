"""Tests of the benchmark itself: checks, tail percentile, inputs, tracer, passes.

    python3 -m pytest perfbench -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loopforge as lf  # noqa: E402
import workloads as wl  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_passes  # noqa: E402


def build_expected(fixture, p):
    return next(c for c in wl.BUILD_CASES if c[:2] == (fixture, p))[2]


def cli_case(name):
    return next(c for c in wl.CLI_CASES if c[0] == name)


# -- checker ------------------------------------------------------------------

def test_check_flags_wrong_dimension():
    expected = build_expected("cml81", 5)
    good = {"ideal_dim": 54, "quotient_dim": 27, "outcome": "obstructed",
            "collision_images_equal": True}
    assert wl.check(expected, good) == []
    problems = wl.check(expected, dict(good, quotient_dim=28))
    assert len(problems) == 1 and problems[0].startswith("quotient_dim")


def test_check_flags_wrong_verdict():
    expected = build_expected("paige2", 11)
    got = {"ideal_dim": 119, "quotient_dim": 1, "outcome": "embeds", "witness_order": None}
    keys = {p.split(":")[0] for p in wl.check(expected, got)}
    assert keys == {"outcome", "witness_order"}


def test_check_flags_wrong_exit_code():
    _, _, expected, _ = cli_case("check associative paige2")
    assert wl.check(expected, {"exit": 1, "ok": False, "has_witness": True}) == []
    assert wl.check(expected, {"exit": 0, "ok": False, "has_witness": True}) == \
        ["exit: expected 1, got 0"]


def test_check_set_expectation_and_missing_key():
    assert wl.check({"w": frozenset({2, 120})}, {"w": 120}) == []
    assert wl.check({"w": frozenset({2, 120})}, {"w": 240}) != []
    assert wl.check({"w": 1}, {}) == ["w: expected 1, got '<missing>'"]


def test_known_defect_counts_only_its_own_symptom():
    name, _, expected, defect = cli_case("check malformed: no elements")
    job = wl.Job(name, None, expected, None, defect)
    assert wl.classify(job, None, {"exit": 2, "traceback": False})[0] == "ok"
    assert wl.classify(job, None, {"exit": 1, "traceback": True})[0] == "known"
    assert wl.classify(job, None, {"exit": 0, "traceback": False})[0] == "unexpected"
    plain = wl.Job(name, None, expected, None, None)
    assert wl.classify(plain, None, {"exit": 1, "traceback": True})[0] == "unexpected"


def test_build_defect_matches_only_cross_check_mismatch():
    job = wl.Job("x", None, {"outcome": "embeds"}, None, wl.PAIGE2_GF2_DEFECT)
    assert wl.classify(job, lf.errors.CrossCheckMismatch("boom"), None)[0] == "known"
    assert wl.classify(job, ValueError("boom"), None)[0] == "unexpected"
    assert wl.classify(job, None, {"outcome": "obstructed"})[0] == "unexpected"


# -- tail percentile ----------------------------------------------------------------

@pytest.mark.parametrize("n,percentile", [(1000, 99), (100, 90), (50, 80), (21, 52)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)   # 1..n shuffled
    p, v = tail_percentile(values)
    assert p == percentile
    assert sum(x > v for x in values) >= 10
    assert n - math.ceil((p + 1) * n / 100) < 10     # one percentile higher has < 10 beyond


@pytest.mark.parametrize("n", [1, 6, 16, 20])
def test_tail_reports_maximum_without_a_supported_percentile(n):
    values = [float(i) for i in range(n)]
    assert tail_percentile(values) == (100, float(n - 1))


# -- inputs --------------------------------------------------------------------

@pytest.fixture(scope="module")
def base():
    return wl.fixture_docs(lf, ("chein12", "cml81", "s3"))


def test_relabel_keeps_identity_and_yields_a_valid_loop(base):
    for seed in (1, 2):
        docs = wl.seeded_docs(base, seed)
        for name, doc in docs.items():
            loop = lf.loops.loop_from_cayley(doc, name=name)   # validates the table
            assert doc["elements"][0] == base[name]["elements"][0]
            t = loop.table
            assert (t[0] == np.arange(loop.order)).all() and (t[:, 0] == np.arange(loop.order)).all()
            assert sorted(doc["elements"]) == sorted(base[name]["elements"])


def test_seeds_relabel_differently_but_give_identical_invariants(base):
    one, two = wl.seeded_docs(base, 1), wl.seeded_docs(base, 2)
    assert one["cml81"]["table"] != two["cml81"]["table"]
    assert one == wl.seeded_docs(base, 1)
    summaries = []
    for docs in (one, two):
        jobs = [j for j in wl.build_jobs(lf, dict(docs, paige2=None))
                if j.name.startswith("embeddability chein12")]
        out = [j.summarise(j.work()) for j in jobs]
        props = lf.loops.check_properties(lf.loops.loop_from_cayley(docs["cml81"]))
        summaries.append((out, props.exponent, props.commutative.ok))
    assert summaries[0] == summaries[1]
    for job, summary in zip(jobs, summaries[0][0]):
        assert wl.check(job.expected, summary) == []


# -- tracer ----------------------------------------------------------------------

def test_tracer_rebinds_by_name_imports_and_restores_them():
    original = lf.radicals.group_type_radical
    tracer = Tracer()
    tracer.install(lf)
    try:
        assert lf.radicals.group_type_radical is not original
        assert lf.loops.group_type_radical is lf.radicals.group_type_radical
        tracer.job = 7
        doc = wl.seeded_docs(wl.fixture_docs(lf, ("chein12",)), 3)["chein12"]
        loop = lf.loops.loop_from_cayley(doc)
        bundle = lf.algebras.alternative_loop_algebra(lf.fields.PrimeField(7), loop)
        lf.radicals.in_class_s(loop, lf.fields.PrimeField(7), bundle=bundle)
    finally:
        tracer.uninstall()
    assert lf.radicals.group_type_radical is original
    agg = tracer.aggregates()
    assert agg["radicals.in_class_s.calls"] == 1
    assert agg["loops.group_type_radical.calls"] >= 1
    assert agg["linalg.ideal_closure.seed_rows"] > 0
    assert agg["algebras.alternator_seeds.calls"] > 0
    assert agg["fields.PrimeField.canon.calls"] > 0
    for key, total in agg.items():
        if key.endswith(".total_s"):
            assert agg[key[:-len("total_s")] + "self_s"] <= total + 1e-9
    spans = tracer.spans_doc()
    assert set(spans["job"]) == {7}
    assert all(s <= e for s, e in zip(spans["start"], spans["end"]))


# -- passes ---------------------------------------------------------------------

class FakeRunner:
    """Jobs take 1 s untraced and 1.5 s traced; records the order of runs."""

    def __init__(self, names):
        self.jobs = [wl.Job(n, None, {}, None) for n in names]
        self.log = []

    def run_job(self, job, job_id, tracer):
        self.log.append((job.name, tracer is not None))
        return (1.0 if tracer is None else 1.5), None, {}


def test_untraced_pass_wall_is_the_sum_of_job_latencies():
    runner = FakeRunner(["a", "b", "c"])
    runs = run_passes(runner, wl, 2)
    assert list(runs) == [False]
    assert runs[False]["walls"] == [3.0, 3.0]
    assert [j["id"] for j in runs[False]["jobs"]] == list(range(6))


def test_traced_passes_warm_up_then_pair_jobs_in_alternating_order():
    runner = FakeRunner(["a", "b", "c"])
    runs = run_passes(runner, wl, 1, Tracer())
    assert runner.log == [("a", False), ("b", False), ("c", False),     # warm-up
                          ("a", False), ("a", True), ("b", True), ("b", False),
                          ("c", False), ("c", True)]
    assert runs[False]["walls"] == [3.0] and runs[True]["walls"] == [4.5]
    assert all(j["status"] == "ok" for r in runs.values() for j in r["jobs"])
