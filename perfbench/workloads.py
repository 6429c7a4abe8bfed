"""The four workloads: seeded inputs, job lists and output checks.

Every input is a fixture's Cayley table relabelled by a seeded permutation
that fixes the identity, and every job rebuilds its loop with
``loop_from_cayley``.  Reusing fixture objects would measure cache hits, not
work: the fixture constructors are ``functools.lru_cache``d and a ``Loop``
keeps its normal closures in ``_ncl_cache`` for life, so ``normal_subloops``
on cml81 takes about 2 s cold and 0 s on a reused object.  Relabelling also
keeps the program from seeing the same element order on every seed; the
checks below use only isomorphism invariants, so every seed has the same
expected outputs.

A job is one user-level request.  ``work`` is the timed part; ``summarise``
turns its result into plain data outside the timed region, and ``check``
compares that data with the expected invariants.  Two jobs hit known
defects; they keep their correct expected results and count as failed
until the program is fixed (see ``KnownDefect``).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SEED_BASE = 0x100F


# -- inputs ----------------------------------------------------------------

def relabel(doc: dict, rng: np.random.Generator) -> dict:
    """Cayley doc of the same loop under a random relabelling fixing index 0."""
    n = doc["order"]
    table = np.asarray(doc["table"], dtype=np.int64)
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # old index -> new
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    names = [None] * n
    for old, name in enumerate(doc["elements"]):
        names[perm[old]] = name
    return {"order": n, "elements": names, "table": out.tolist()}


FIXTURES = {
    "paige2": lambda lf: lf.constructions.paige_loop(2),
    "cml81": lambda lf: lf.constructions.cml81(),
    "chein12": lambda lf: lf.constructions.chein12(),
    "s3": lambda lf: lf.constructions.s3(),
    "paige2xc2": lambda lf: lf.loops.direct_product(lf.constructions.paige_loop(2),
                                                    lf.constructions.cyclic(2)),
}


def fixture_docs(lf, names) -> dict:
    """Unrelabelled Cayley docs of the named fixture loops."""
    return {name: lf.loops.loop_to_cayley(FIXTURES[name](lf)) for name in names}


def seeded_docs(base: dict, seed: int) -> dict:
    """Relabel each fixture with its own stream of the workload seed."""
    order = list(FIXTURES)
    return {name: relabel(doc, np.random.default_rng([SEED_BASE, seed, order.index(name)]))
            for name, doc in base.items()}


# -- jobs and checks ---------------------------------------------------------

@dataclass(frozen=True)
class KnownDefect:
    """A documented defect: the job keeps its correct expected result and
    fails; a failure that matches ``symptom`` is counted but is not a new
    regression."""
    description: str
    symptom: Callable[[Optional[BaseException], Optional[dict]], bool]


@dataclass
class Job:
    name: str
    work: Callable[[], object]
    expected: dict
    summarise: Callable[[object], dict]
    defect: Optional[KnownDefect] = None


def check(expected: dict, actual: dict) -> list[str]:
    """Mismatches between expected invariants and a job summary.

    A ``frozenset`` expectation accepts any of its members.
    """
    problems = []
    for key, want in expected.items():
        got = actual.get(key, "<missing>")
        ok = got in want if isinstance(want, frozenset) else got == want
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def classify(job: Job, error: Optional[BaseException], summary: Optional[dict]) -> tuple[str, str]:
    """('ok' | 'known' | 'unexpected', detail) for one finished job."""
    if error is None:
        problems = check(job.expected, summary)
        if not problems:
            return "ok", ""
        detail = "; ".join(problems)
    else:
        detail = f"{type(error).__name__}: {error}"
    if job.defect is not None and job.defect.symptom(error, summary):
        return "known", f"{detail} [known defect: {job.defect.description}]"
    return "unexpected", detail


# -- build: cold embeddability verdicts --------------------------------------

def _raises(name: str):
    return lambda error, summary: error is not None and type(error).__name__ == name


PAIGE2_GF2_DEFECT = KnownDefect(
    "embeddability(paige2, GF(2)) raises CrossCheckMismatch although its dim-9 "
    "quotient verifies distinct, invertible and multiplicative images",
    _raises("CrossCheckMismatch"))

# (fixture, p, expected invariants, known defect)
BUILD_CASES = (
    ("paige2", 11, {"ideal_dim": 119, "quotient_dim": 1, "outcome": "obstructed",
                    "witness_order": 120}, None),
    ("paige2", 2, {"outcome": "embeds", "verified": True}, PAIGE2_GF2_DEFECT),
    ("cml81", 3, {"ideal_dim": 27, "quotient_dim": 54, "outcome": "embeds", "omega_dim": 53,
                  "verified": True, "nilpotency_index": 10}, None),
    ("cml81", 5, {"ideal_dim": 54, "quotient_dim": 27, "outcome": "obstructed",
                  "collision_images_equal": True}, None),
    ("chein12", 2, {"ideal_dim": 0, "quotient_dim": 12, "outcome": "embeds",
                    "verified": True}, None),
    ("chein12", 7, {"ideal_dim": 8, "quotient_dim": 4, "outcome": "obstructed"}, None),
)


def _verdict_summary(lf, expected: dict):
    def summarise(out):
        bundle, verdict = out
        s = {"ideal_dim": bundle.alternator.dim, "quotient_dim": bundle.dim,
             "omega_dim": bundle.omega.dim, "outcome": verdict.outcome,
             "witness_order": verdict.witness_order,
             "verified": bool(verdict.images_distinct and verdict.all_invertible
                              and verdict.multiplicative)}
        if "nilpotency_index" in expected:
            s["nilpotency_index"] = lf.algebras.nilpotency_index(bundle.omega, bundle.algebra)
        if "collision_images_equal" in expected:
            q, q2 = bundle.collision
            s["collision_images_equal"] = bool(
                q != q2 and np.array_equal(bundle.images[q], bundle.images[q2])
                and tuple(verdict.collision) == (q, q2))
        return s
    return summarise


def build_jobs(lf, docs: dict) -> list[Job]:
    jobs = []
    for fixture, p, expected, defect in BUILD_CASES:
        def work(doc=docs[fixture], fixture=fixture, p=p):
            loop = lf.loops.loop_from_cayley(doc, name=fixture)
            gf = lf.fields.PrimeField(p)
            bundle = lf.algebras.alternative_loop_algebra(gf, loop)
            return bundle, lf.radicals.embeddability(loop, gf, bundle=bundle)
        jobs.append(Job(f"embeddability {fixture}/GF{p}", work, expected,
                        _verdict_summary(lf, expected), defect))
    return jobs


# -- loopside: cold loop-only queries ------------------------------------------

def _orders(subloops) -> dict:
    out: dict = {}
    for s in subloops:
        out[s.order()] = out.get(s.order(), 0) + 1
    return dict(sorted(out.items()))


def _simple(res) -> dict:
    simple, witness = res
    return {"simple": simple, "witness_order": None if witness is None else witness.order()}


def _props(r) -> dict:
    return {"moufang": r.moufang.ok, "associative": r.associative.ok,
            "commutative": r.commutative.ok, "ip": r.ip.ok, "exponent": r.exponent}


# (fixture, function in loopforge.loops, summary, expected invariants)
LOOPSIDE_CASES = (
    ("cml81", "normal_subloops", lambda r: {"orders": _orders(r)},
     {"orders": {1: 1, 3: 1, 9: 13, 27: 13, 81: 1}}),
    ("cml81", "group_type_radical", lambda r: {"order": r.order()}, {"order": 81}),
    ("cml81", "composition_factors", lambda r: {"factor_orders": [f.order for f in r]},
     {"factor_orders": [3, 3, 3, 3]}),
    ("paige2", "is_simple", _simple, {"simple": True, "witness_order": None}),
    ("paige2", "group_type_radical", lambda r: {"order": r.order()}, {"order": 1}),
    ("paige2", "normal_subloops", lambda r: {"orders": _orders(r)},
     {"orders": {1: 1, 120: 1}}),
    ("paige2xc2", "check_properties", _props,
     {"moufang": True, "associative": False, "commutative": False, "ip": True,
      "exponent": 6}),
    # the first element whose closure is proper depends on the labelling
    ("paige2xc2", "is_simple", _simple, {"simple": False, "witness_order": frozenset({2, 120})}),
)


def loopside_jobs(lf, docs: dict) -> list[Job]:
    jobs = []
    for fixture, fn, summarise, expected in LOOPSIDE_CASES:
        def work(doc=docs[fixture], fixture=fixture, fn=fn):
            loop = lf.loops.loop_from_cayley(doc, name=fixture)
            return getattr(lf.loops, fn)(loop)
        jobs.append(Job(f"{fn} {fixture}", work, expected, summarise))
    return jobs


# -- queries: product kernels and solves on one prebuilt quotient ---------------

# Sizes of the queries jobs, each taken from a real call of the program:
# - alternative_check: 10**4 samples, the program's default and what
#   ``loopforge algebra`` runs;
# - circle_iso_check: 10**4 sampled pairs.  The program's default, 10**5 (also
#   acceptance criterion 7's call), takes about 29 s on the baseline machine,
#   longer than a run.  Its cost is two ``mul_pairwise`` calls on ``samples``
#   rows each, so time scales linearly and 10**4 rows is still one large batch;
# - quasiinverse: 25 seeded ω elements per job, the count criterion 7 checks;
# - nil_closed_form_check: 100 seeded ω triples per job, a tenth of criterion
#   8's 1000 (which take about 19 s).  Both functions take one element or one
#   triple per call, so the product kernels see single rows whatever the job
#   size; the job size only sets how many calls one latency covers;
# - nilpotency_index (run by ``loopforge algebra``), circle_embedding and
#   wedderburn_report (run by ``loopforge report``) are one call each.
QUERY_ALT_SAMPLES = 10**4
QUERY_CIRCLE_SAMPLES = 10**4
QUERY_QUASI_ELEMENTS = 25
QUERY_NIL_TRIPLES = 100


def queries_bundle(lf, docs: dict):
    """The shared cml81/GF3 bundle, built once during set-up and checked."""
    loop = lf.loops.loop_from_cayley(docs["cml81"], name="cml81")
    bundle = lf.algebras.alternative_loop_algebra(lf.fields.PrimeField(3), loop)
    got = (bundle.alternator.dim, bundle.dim, bundle.omega.dim)
    if got != (27, 54, 53):
        raise RuntimeError(f"cml81/GF3 bundle has (ideal, quotient, omega) dims {got}, "
                           "expected (27, 54, 53)")
    return bundle


def queries_jobs(lf, docs: dict, seed: int, bundle) -> list[Job]:
    gf = bundle.field
    quot, omega = bundle.algebra, bundle.omega
    basis = omega.basis_matrix()
    rng = np.random.default_rng([SEED_BASE, seed, 99])

    def omega_elements(k):
        return [gf.canon(rng.integers(0, 3, omega.dim) @ basis) for _ in range(k)]

    jobs = [
        Job("alternative_check sampled",
            lambda s=int(rng.integers(1 << 30)): lf.algebras.alternative_check(
                quot, mode="sampled", samples=QUERY_ALT_SAMPLES, seed=s),
            {"ok": True, "mode": "sampled"}, lambda r: {"ok": r.ok, "mode": r.mode}),
        Job("circle_iso_check sampled",
            lambda s=int(rng.integers(1 << 30)): lf.algebras.circle_iso_check(
                quot, omega, samples=QUERY_CIRCLE_SAMPLES, seed=s),
            {"ok": True, "mode": "sampled"}, lambda r: {"ok": r.ok, "mode": r.mode}),
    ]
    jobs.append(Job("nilpotency_index omega",
                    lambda: lf.algebras.nilpotency_index(omega, quot),
                    {"index": 10}, lambda r: {"index": r}))
    triples = [omega_elements(3) for _ in range(QUERY_NIL_TRIPLES)]
    jobs.append(Job(
        "nil_closed_form_check",
        lambda: [lf.algebras.nil_closed_form_check(quot, u, v, w, 10) for u, v, w in triples],
        {"all_hold": True}, lambda r: {"all_hold": all(r)}))
    elems = omega_elements(QUERY_QUASI_ELEMENTS)
    jobs.append(Job(
        "quasiinverse",
        lambda: [(v, lf.algebras.quasiinverse(quot, v)) for v in elems],
        {"identities_hold": True},
        lambda r: {"identities_hold": all(_quasi_ok(quot, v, q) for v, q in r)}))
    doc = docs["cml81"]
    jobs.append(Job(
        "circle_embedding",
        lambda: lf.radicals.circle_embedding(
            lf.loops.loop_from_cayley(doc, name="cml81"), gf, bundle=bundle),
        {"ok": True, "pairs": 6561}, lambda r: {"ok": r.ok, "pairs": r.pairs}))
    jobs.append(Job(
        "wedderburn_report",
        lambda: lf.radicals.wedderburn_report(
            lf.loops.loop_from_cayley(doc, name="cml81"), gf, bundle=bundle),
        {"radical_subloop_order": 81, "radical_ideal_dim": 53, "algebra_dim": 54,
         "quotient_dim": 1, "dim_cross_check": True, "quotient_is_field": True},
        lambda r: {"radical_subloop_order": r.radical_subloop.order(),
                   "radical_ideal_dim": r.radical_ideal_dim, "algebra_dim": r.algebra_dim,
                   "quotient_dim": r.quotient_dim, "dim_cross_check": r.dim_cross_check,
                   "quotient_is_field": r.quotient_is_field}))
    return jobs


def _quasi_ok(alg, v, q) -> bool:
    if q is None:
        return False
    s = alg.field.canon(v + q)
    return bool(np.array_equal(s, alg.mul(v, q)) and np.array_equal(s, alg.mul(q, v)))


# -- cli: one loopforge process per job ------------------------------------------

def _exits_1_with_traceback(error, summary) -> bool:
    return summary is not None and summary["exit"] == 1 and summary["traceback"]


MALFORMED_DEFECT = KnownDefect(
    "a malformed Cayley file exits 1 (violation found) with a traceback "
    "instead of 2 (input error)", _exits_1_with_traceback)

# (job name, argv after the program name, expected invariants, known defect)
CLI_CASES = (
    ("construct paige:2", ["construct", "--kind", "paige:2", "-o", "constructed.json"],
     {"exit": 0, "file_matches_fixture": True}, None),
    ("check moufang paige2", ["check", "--loop", "paige2.json", "--property", "moufang"],
     {"exit": 0, "ok": True, "mode": "exhaustive", "order": 120}, None),
    ("check associative paige2", ["check", "--loop", "paige2.json", "--property", "associative"],
     {"exit": 1, "ok": False, "has_witness": True}, None),
    ("series cml81 lower", ["series", "--loop", "cml81.json", "--kind", "lower"],
     {"exit": 0, "nilpotency_class": 2, "orders": [81, 3, 1]}, None),
    ("algebra chein12 gf:7", ["algebra", "--loop", "chein12.json", "--field", "gf:7"],
     {"exit": 0, "ideal_dim": 8, "dim": 4, "canonical_injective": False}, None),
    ("radical chein12 gf:7", ["radical", "--loop", "chein12.json", "--field", "gf:7"],
     {"exit": 0, "in_class_S": True, "radical_order": 12}, None),
    ("embed cml81 gf:3", ["embed", "--loop", "cml81.json", "--field", "gf:3"],
     {"exit": 0, "outcome": "embeds", "verified": True}, None),
    ("report s3 gf:7", ["report", "--loop", "s3.json", "--field", "gf:7"],
     {"exit": 0, "algebra_dim": 6, "quotient_dim": 1, "radical_subloop_order": 6}, None),
    ("check malformed: no elements", ["check", "--loop", "no_elements.json",
                                      "--property", "moufang"],
     {"exit": 2}, MALFORMED_DEFECT),
    ("check malformed: top-level list", ["check", "--loop", "top_level_list.json",
                                         "--property", "moufang"],
     {"exit": 2}, MALFORMED_DEFECT),
)


def write_cli_inputs(lf, docs: dict, base: dict, workdir: str) -> str:
    """Write the seeded Cayley files the CLI jobs read; returns the JSON text
    ``construct --kind paige:2`` must produce."""
    for name in ("paige2", "cml81", "chein12", "s3"):
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(docs[name], fh)
    trimmed = {k: v for k, v in docs["s3"].items() if k != "elements"}
    with open(os.path.join(workdir, "no_elements.json"), "w") as fh:
        json.dump(trimmed, fh)
    with open(os.path.join(workdir, "top_level_list.json"), "w") as fh:
        json.dump(docs["s3"]["table"], fh)
    return json.dumps(base["paige2"], indent=2, sort_keys=True) + "\n"


def cli_summary(proc, workdir: str, construct_text: str) -> dict:
    """Exit code and JSON fields of one finished ``loopforge`` process."""
    s = {"exit": proc.returncode, "traceback": "Traceback" in proc.stderr}
    try:
        doc = json.loads(proc.stdout) if proc.stdout.strip() else {}
    except json.JSONDecodeError:
        doc = {}
    if isinstance(doc, dict):
        s.update({k: v for k, v in doc.items() if not isinstance(v, (dict, list))})
        s["orders"] = doc.get("orders")
        s["has_witness"] = doc.get("witness") is not None
        verified = doc.get("embedding_verified") or {}
        s["verified"] = bool(verified) and all(verified.values())
    out = os.path.join(workdir, "constructed.json")
    if os.path.exists(out):
        with open(out) as fh:
            s["file_matches_fixture"] = fh.read() == construct_text
        os.remove(out)
    return s


# -- registry ----------------------------------------------------------------------

# fixture loops each workload relabels during set-up
WORKLOAD_FIXTURES = {
    "build": ("paige2", "cml81", "chein12"),
    "loopside": ("cml81", "paige2", "paige2xc2"),
    "queries": ("cml81",),
    "cli": ("paige2", "cml81", "chein12", "s3"),
}
