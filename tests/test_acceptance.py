"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
and timings.  A criterion's time includes the set-up of every session
fixture it uses (tests/conftest.py records it), so a bundle built by a
fixture counts against the budget of each criterion that uses it.  Criterion 6 is split: its loop-side and verdict clauses are
verified, while the literal claim that the augmentation ideal of the
order-120 simple fixture fills its alternative quotient is kept as stated
and fails; see notes in the repository root for the analysis (the
coefficient-sum functional of a loop algebra is a unital homomorphism and
descends to every alternative quotient, so that ideal can never contain the
unit -- over GF(11) the quotient in fact collapses to the ground field).
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import loopforge as lf
from loopforge.algebras import associative_check_sampled, enumerate_carrier
from loopforge.cli import main as cli_main

GF2, GF3, GF5, GF7, GF11 = (lf.PrimeField(p) for p in (2, 3, 5, 7, 11))
SEED = lf.DEFAULT_SEED


_fixture_clock = [lambda: 0.0]


@pytest.fixture(autouse=True)
def _criterion_fixture_clock(session_setup_s):
    _fixture_clock[0] = session_setup_s


@contextmanager
def criterion(number, label, budget_s):
    """Time a criterion's body plus the set-up of the session fixtures it uses."""
    t0 = time.perf_counter()
    box = {}
    try:
        yield box
    except BaseException:
        print(f"criterion {number:02d} FAIL  {label}")
        raise
    body = time.perf_counter() - t0
    fixtures = _fixture_clock[0]()
    elapsed = body + fixtures
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"criterion {number:02d} {verdict}  {label}  "
          f"({body:.1f}s + {fixtures:.1f}s fixtures = {elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, \
        f"criterion {number} took {elapsed:.1f}s with its fixtures, over its {budget_s}s budget"


def test_criterion_01_paige_orders():
    with criterion(1, "vector-matrix loop orders 120 and 1080", 65):
        t0 = time.perf_counter()
        p2 = lf.paige_loop(2)
        assert p2.order == 120 == 2**3 * (2**4 - 1) // 1
        assert time.perf_counter() - t0 < 5
        p3 = lf.paige_loop(3)
        assert p3.order == 1080 == 3**3 * (3**4 - 1) // 2


def test_criterion_02_m2_structure(paige2):
    with criterion(2, "order-120 loop: Moufang, nonassociative, simple", 120):
        r = lf.check_properties(paige2)
        assert r.moufang.ok and r.moufang.mode == "exhaustive"
        assert not r.associative.ok
        x, y, z = r.associative.witness
        assert paige2.mul(paige2.mul(x, y), z) != paige2.mul(x, paige2.mul(y, z))
        for x in range(1, 120):
            assert lf.normal_closure(paige2, [x]).is_full()


def test_criterion_03_fixture_gates(chein12, cml81):
    with criterion(3, "doubled-group and order-81 fixture gates", 60):
        r = lf.check_properties(chein12)
        assert r.moufang.ok and r.moufang.mode == "exhaustive" and not r.associative.ok
        rc = lf.check_properties(cml81)
        assert rc.commutative.ok and rc.moufang.ok and not rc.associative.ok
        assert rc.moufang.mode == "exhaustive"
        assert rc.exponent == 3
        assert lf.center(cml81).order() == 3
        up = lf.central_series(cml81, "upper")
        low = lf.central_series(cml81, "lower")
        assert up.nilpotency_class == 2 and low.nilpotency_class == 2


def test_criterion_04_alternative_quotient_gf3(cml81, cml81_gf3):
    with criterion(4, "alternative quotient over GF(3) and the embedding", 600):
        assert not cml81_gf3.alternator.contains(cml81_gf3.fq.unit)
        alt = lf.alternative_check(cml81_gf3.algebra, mode="sampled",
                                   samples=10**4, seed=SEED)
        assert alt.ok and alt.samples == 10**4 and alt.seed == SEED
        assert not cml81_gf3.unit_in_omega
        assert cml81_gf3.omega_codim == 1
        idx = lf.nilpotency_index(cml81_gf3.omega, cml81_gf3.algebra)
        assert idx is not None and idx == 10
        verdict = lf.embeddability(cml81, GF3, bundle=cml81_gf3)
        assert verdict.outcome == "embeds"
        assert verdict.images_distinct and verdict.all_invertible and verdict.multiplicative
        assert len({tuple(row.tolist()) for row in verdict.embedding}) == 81


def test_criterion_05_characteristic_obstruction(cml81, cml81_gf5):
    with criterion(5, "characteristic-5 quotient collapses associatively", 600):
        assoc = associative_check_sampled(cml81_gf5.algebra, samples=10**4, seed=SEED)
        assert assoc.ok
        assert not cml81_gf5.canonical_injective
        q, q2 = cml81_gf5.collision
        assert q != q2
        assert np.array_equal(cml81_gf5.images[q], cml81_gf5.images[q2])


def test_criterion_06_semisimple_side(paige2, paige2_gf11):
    with criterion(6, "order-120 loop over GF(11): radical and verdict", 900):
        srad = lf.loop_radical(paige2, GF11)
        assert srad.is_trivial()
        verdict = lf.embeddability(paige2, GF11, bundle=paige2_gf11)
        assert verdict.outcome == "obstructed"
        assert verdict.witness_order == 120
        wit = lf.SubloopSet(paige2, verdict.witness_members).as_loop()
        assert lf.is_simple(wit)[0]
        assert not lf.check_properties(wit).associative.ok
        assert verdict.collision is not None


def test_criterion_06_omega_fills_quotient_as_stated(paige2_gf11):
    """As stated: the augmentation ideal equals the whole alternative quotient
    over GF(11), with the unit inside it.

    This clause is unattainable for the canonical alternative quotient: the
    coefficient-sum functional is a unital algebra homomorphism of the loop
    algebra and descends to the quotient, so the ideal generated by the
    elements e - q lies in its kernel and can never contain the unit.  The
    computation agrees: the quotient collapses to the ground field and the
    augmentation ideal is zero.  Recorded in the decisions ledger; kept
    faithful to the stated criterion rather than weakened.
    """
    try:
        assert paige2_gf11.unit_in_omega, (
            "unit is provably outside the augmentation ideal "
            f"(quotient dim {paige2_gf11.dim}, omega dim {paige2_gf11.omega.dim})")
        assert paige2_gf11.omega.dim == paige2_gf11.dim
    except AssertionError:
        print("criterion 06 FAIL  omega = F[Q] with e in omega, as stated "
              "(impossible for the canonical quotient; see ledger)")
        raise
    print("criterion 06 PASS  omega = F[Q] with e in omega, as stated")


def test_criterion_07_circle_suite(cml81_gf3):
    with criterion(7, "circle loops, eta/phi isomorphisms, quasiinverses", 60):
        alg3 = lf.loop_algebra(GF3, lf.cyclic(3))
        omega3 = lf.augmentation_ideal(alg3)
        cl = lf.circle_loop(alg3, omega3)
        r = lf.check_properties(cl)
        assert cl.order == 9 and r.exponent == 3
        iso = lf.circle_iso_check(alg3, omega3)
        assert iso.ok and iso.mode == "exhaustive"
        for _, v in enumerate_carrier(alg3, omega3):
            q = lf.quasiinverse(alg3, v)
            s = GF3.canon(v + q)
            assert np.array_equal(s, alg3.mul(v, q))
            assert np.array_equal(s, alg3.mul(q, v))
        big = lf.circle_iso_check(cml81_gf3.algebra, cml81_gf3.omega,
                                  samples=10**5, seed=SEED)
        assert big.ok and big.mode == "sampled" and big.pairs == 10**5
        rng = np.random.default_rng(SEED)
        basis = cml81_gf3.omega.basis_matrix()
        quot = cml81_gf3.algebra
        for _ in range(25):
            v = GF3.canon(rng.integers(0, 3, cml81_gf3.omega.dim) @ basis)
            q = lf.quasiinverse(quot, v)
            s = GF3.canon(v + q)
            assert np.array_equal(s, quot.mul(v, q))
            assert np.array_equal(s, quot.mul(q, v))


def test_criterion_08_nil_subalgebra_identities(cml81_gf3):
    with criterion(8, "closed associator/commutator forms on nil carriers", 60):
        alg2 = lf.loop_algebra(GF2, lf.cyclic(2))
        omega2 = lf.augmentation_ideal(alg2)
        vals = [v for _, v in enumerate_carrier(alg2, omega2)]
        for u in vals:
            for v in vals:
                for w in vals:
                    assert lf.nil_closed_form_check(alg2, u, v, w, 2)
        quot = cml81_gf3.algebra
        m = lf.nilpotency_index(cml81_gf3.omega, quot)
        basis = cml81_gf3.omega.basis_matrix()
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            u, v, w = (GF3.canon(rng.integers(0, 3, cml81_gf3.omega.dim) @ basis)
                       for _ in range(3))
            assert lf.nil_closed_form_check(quot, u, v, w, m)


def test_criterion_09_identity44(cml81):
    with criterion(9, "six-factor nested associator identity", 30):
        ok, witness = lf.check_identity44(cml81, tuple_samples=1000, seed=SEED)
        assert ok and witness is None


def test_criterion_10_nilpotency_matrix(cml81_gf3, cml81_gf7):
    with criterion(10, "augmentation nilpotency iff p-loop in characteristic p", 300):
        a3 = lf.loop_algebra(GF3, lf.cyclic(3))
        assert lf.nilpotency_index(lf.augmentation_ideal(a3), a3) == 3
        a5 = lf.loop_algebra(GF5, lf.cyclic(3))
        assert lf.nilpotency_index(lf.augmentation_ideal(a5), a5) is None
        assert lf.nilpotency_index(cml81_gf3.omega, cml81_gf3.algebra) is not None
        assert lf.nilpotency_index(cml81_gf7.omega, cml81_gf7.algebra) is None


def test_criterion_11_dimension_law(s3, cml81):
    with criterion(11, "quotient dimension law dim(FQ/wH) = |Q/H|", 60):
        fs3 = lf.loop_algebra(GF7, s3)
        a3 = lf.SubloopSet(s3, (0, 1, 2))
        assert fs3.dim - lf.augmentation_ideal(fs3, a3).dim == 2
        fc = lf.loop_algebra(GF3, cml81)
        z = lf.center(cml81)
        assert fc.dim - lf.augmentation_ideal(fc, z).dim == 27


def test_criterion_12_radical_axioms(s3, chein12, cml81, paige2_x_c2):
    with criterion(12, "radical idempotence and heredity on fixtures", 600):
        cases = [(s3, GF7), (chein12, GF7), (cml81, GF3), (paige2_x_c2, GF11)]
        for loop, field in cases:
            srad = lf.loop_radical(loop, field)
            if not srad.is_full():
                q, _ = lf.quotient_loop(loop, srad)
                assert lf.group_type_radical(q).is_trivial()
            top = frozenset(srad.members)
            for sub in lf.normal_subloops(loop):
                target = loop if sub.is_full() else sub.as_loop()
                inner = lf.group_type_radical(target)
                lifted = frozenset(sub.members[i] for i in inner.members)
                assert lifted == frozenset(sub.members) & top


def test_criterion_13_cli_contract(tmp_path, capsys):
    with criterion(13, "CLI round-trip, exit codes, byte-stable JSON", 120):
        path = tmp_path / "m2.json"
        assert cli_main(["construct", "--kind", "paige:2", "-o", str(path)]) == 0
        first = path.read_bytes()
        doc = json.loads(first)
        assert doc["order"] == 120
        again = tmp_path / "m2b.json"
        assert cli_main(["construct", "--kind", "paige:2", "-o", str(again)]) == 0
        assert again.read_bytes() == first

        assert cli_main(["check", "--loop", str(path), "--property", "moufang"]) == 0
        capsys.readouterr()
        assert cli_main(["check", "--loop", str(path), "--property", "associative"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] is not None
        assert cli_main(["check", "--loop", "no_such_thing", "--property", "moufang"]) == 2

        code = cli_main(["embed", "--loop", "cml81", "--field", "gf:3"])
        assert code == 0
        one = capsys.readouterr().out
        cli_main(["embed", "--loop", "cml81", "--field", "gf:3"])
        two = capsys.readouterr().out
        assert one == two
        verdict = json.loads(one)
        assert verdict["outcome"] == "embeds" and verdict["seed"] == SEED
