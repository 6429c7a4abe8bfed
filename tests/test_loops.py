import functools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopforge as lf
from loopforge.errors import (
    LatinSquareViolation,
    NoIdentityAtZero,
    NotCommutativeMoufang,
    NotNormal,
)
from loopforge.loops import _element_closures, is_group_type


# -- independent naive predicates (the oracles) -----------------------------

def naive_moufang(loop):
    n = loop.order
    for x, y, z in product(range(n), repeat=3):
        if loop.mul(loop.mul(loop.mul(x, y), x), z) != \
                loop.mul(x, loop.mul(y, loop.mul(x, z))):
            return False
    return True


def naive_associative(loop):
    n = loop.order
    for x, y, z in product(range(n), repeat=3):
        if loop.mul(loop.mul(x, y), z) != loop.mul(x, loop.mul(y, z)):
            return False
    return True


@functools.cache
def naive_inner_images(loop, m):
    """Images of m under every T(x), L(x,y), R(x,y), by brute force over every
    x and y; the divisions invert the rows and columns of the Cayley table."""
    t, n = loop.table, loop.order
    x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ldiv = np.empty_like(t)
    ldiv[np.arange(n)[:, None], t] = np.arange(n)                       # ldiv[a, a*b] = b
    rdiv = np.empty_like(t)
    rdiv[t, np.arange(n)[None, :]] = np.arange(n)[:, None]               # rdiv[a*b, b] = a
    images = {int(v) for v in rdiv[t[:, m], np.arange(n)]}                 # xN = Nx
    images |= set(ldiv[t[x, y], t[x, t[y, m]]].ravel().tolist())          # x(yN) = (xy)N
    images |= set(rdiv[t[t[m, x], y], t[x, y]].ravel().tolist())          # (Nx)y = N(xy)
    return frozenset(images)


def naive_orbits(loop, images):
    """Least element of each element's orbit under the image map."""
    labels = []
    for m in range(loop.order):
        orbit, todo = {m}, [m]
        while todo:
            fresh = images(loop, todo.pop()) - orbit
            orbit |= fresh
            todo.extend(fresh)
        labels.append(min(orbit))
    return labels


def naive_orbit_labels(loop):
    return naive_orbits(loop, naive_inner_images)


def naive_conjugacy_labels(loop):
    return naive_orbits(loop, lambda q, m: {q.rdiv(q.mul(x, m), x) for x in range(q.order)})


def naive_normal_closure(loop, gens):
    members = {0} | set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(members)
        members |= set(loop.table[np.ix_(snapshot, snapshot)].ravel().tolist())
        for m in snapshot:
            members |= naive_inner_images(loop, m)
        if len(members) != len(snapshot):
            changed = True
    return tuple(sorted(members))


def naive_subloop(loop, gens):
    members = {0} | set(gens)
    while True:
        grown = members | {loop.mul(a, b) for a in members for b in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


# -- validation ---------------------------------------------------------------

def test_loop_from_table_valid():
    loop = lf.loop_from_table(["e", "g"], [[0, 1], [1, 0]])
    assert loop.order == 2


def test_latin_square_violation():
    with pytest.raises(LatinSquareViolation) as exc:
        lf.loop_from_table(["e", "g"], [[0, 1], [1, 1]])
    assert exc.value.axis == "row"
    assert exc.value.index == 1
    assert exc.value.value == 1


def test_identity_not_at_zero_rejected():
    with pytest.raises(NoIdentityAtZero):
        lf.loop_from_table(["a", "b"], [[1, 0], [0, 1]])


def test_cayley_round_trip(chein12):
    doc = lf.loop_to_cayley(chein12)
    again = lf.loop_from_cayley(doc)
    assert np.array_equal(again.table, chein12.table)
    assert json.dumps(doc, sort_keys=True) == json.dumps(lf.loop_to_cayley(again), sort_keys=True)


# -- property checks -----------------------------------------------------------

def test_s3_properties(s3):
    r = lf.check_properties(s3)
    assert r.moufang.ok and r.associative.ok and not r.commutative.ok
    assert r.exponent == 6
    assert naive_moufang(s3) and naive_associative(s3)


def test_chein12_properties(chein12):
    r = lf.check_properties(chein12)
    assert r.moufang.ok and r.moufang.mode == "exhaustive"
    assert not r.associative.ok
    assert r.associative.witness is not None
    x, y, z = r.associative.witness
    assert chein12.mul(chein12.mul(x, y), z) != chein12.mul(x, chein12.mul(y, z))
    assert naive_moufang(chein12) and not naive_associative(chein12)


def test_cml81_properties(cml81):
    r = lf.check_properties(cml81)
    assert r.commutative.ok and r.moufang.ok and not r.associative.ok
    assert r.exponent == 3
    assert r.is_p_loop(3)
    assert not r.is_p_loop(2)


def test_moufang_implies_ip(s3, c6, chein12, cml81, paige2):
    for loop in (s3, c6, chein12, cml81, paige2):
        r = lf.check_properties(loop)
        assert r.moufang.ok
        assert r.ip.ok and r.ip.mode == "exhaustive"


def test_bol8_is_left_bol_but_not_moufang(bol8):
    """bol8 satisfies the left Bol law (x(yx))z = x(y(xz)), which is not a
    Moufang identity on its own; ((xy)x)z = x(y(xz)) fails at (2, 1, 0)."""
    t = bol8.table
    assert all(t[t[x, t[y, x]], z] == t[x, t[y, t[x, z]]]
               for x, y, z in product(range(8), repeat=3))
    r = lf.check_properties(bol8)
    assert (r.moufang.ok, r.moufang.witness) == (False, (2, 1, 0)) and not naive_moufang(bol8)
    assert (r.ip.ok, r.ip.witness) == (False, (2, 1))


def test_element_order_divides_loop_order(s3, chein12, cml81, paige2):
    for loop in (s3, chein12, cml81, paige2):
        for o in lf.check_properties(loop).element_orders:
            assert loop.order % o == 0


# -- associators, subloops, closures -------------------------------------------

def test_group_associators_trivial(s3):
    for x, y, z in product(range(6), repeat=3):
        a, _ = lf.loop_assoc_comm(s3, x, y, z)
        assert a == 0


def test_cml81_associator_witness(cml81):
    a, _ = lf.loop_assoc_comm(cml81, 27, 9, 3)   # the three coordinate axes
    assert a != 0


def test_commutator_trivial_in_commutative(cml81):
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y = rng.integers(0, 81, 2)
        _, c = lf.loop_assoc_comm(cml81, int(x), int(y), 0)
        assert c == 0


def test_subloop_generated(s3):
    sub = lf.subloop_generated(s3, [1])      # a 3-cycle
    assert sub.members == (0, 1, 2)
    assert lf.is_subloop(s3, sub.members)


def test_subloop_generated_without_table(cml81):
    big = lf.direct_product(cml81, cml81)
    assert not big.has_table()
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    for _ in range(4):
        g = [int(v) for v in rng.integers(1, big.order, 2)]
        sub = lf.subloop_generated(big, g)
        assert sub.members == naive_subloop(big, g)
        assert lf.subloop_generated(big, g, max_order=sub.order()) == sub
        assert lf.subloop_generated(big, g, max_order=sub.order() - 1) is None


def test_product_subloop_copy_matches_the_dense_product(s3):
    """A subloop of S3 x C4 copied from the ProductLoop's ``mul_array``
    equals the copy taken from the dense product's table."""
    prod, dense = lf.loops.ProductLoop(s3, lf.cyclic(4)), lf.direct_product(s3, lf.cyclic(4))
    assert dense.has_table() and not prod.has_table()
    for gens in ([3 * 4 + 2], [1 * 4 + 2, 3 * 4]):
        sub = lf.subloop_generated(dense, gens)
        assert lf.subloop_generated(prod, gens) == lf.SubloopSet(prod, sub.members)
        got, want = lf.SubloopSet(prod, sub.members).as_loop(), sub.as_loop()
        assert np.array_equal(got.table, want.table) and got.names == want.names


def test_two_generated_subloops_associative(cml81, paige2):
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    for loop in (cml81, paige2):
        for _ in range(6):
            g = [int(rng.integers(1, loop.order)), int(rng.integers(1, loop.order))]
            sub = lf.subloop_generated(loop, g)
            assert lf.check_properties(sub.as_loop()).associative.ok


def test_two_generated_subloops_associative_exhaustive(chein12):
    # diassociativity, checked on every generator pair of a small Moufang loop
    for x in range(1, 12):
        for y in range(x, 12):
            sub = lf.subloop_generated(chein12, [x, y])
            assert lf.check_properties(sub.as_loop()).associative.ok


def test_normal_closure_s3(s3):
    assert lf.normal_closure(s3, [1]).members == (0, 1, 2)
    assert lf.normal_closure(s3, [3]).members == tuple(range(6))
    assert naive_normal_closure(s3, [1]) == (0, 1, 2)
    assert naive_normal_closure(s3, [3]) == tuple(range(6))


@pytest.mark.parametrize("name", ["s3", "chein12", "cml81", "order5_x_s3"])
def test_classes_and_closures_are_unions_of_brute_force_orbits(name, request):
    # conjugacy classes are the T(x)-orbits, each inside one Inn(Q)-orbit;
    # an element closure is normal, so a union of Inn(Q)-orbits
    loop = request.getfixturevalue(name)
    orbit = np.asarray(naive_orbit_labels(loop))
    closures = _element_closures(loop)
    classes = loop._class_labels
    assert classes.tolist() == naive_conjugacy_labels(loop)
    for c in np.unique(classes):
        assert np.unique(orbit[classes == c]).size == 1
    assert len(closures) == np.unique(classes).size - 1
    for sub in closures:
        inside = np.isin(np.arange(loop.order), sub.members)
        assert np.array_equal(inside, np.isin(orbit, orbit[inside]))


@functools.cache
def hypothesis_loop(name):
    if name == "paige2_x_c2":
        return lf.direct_product(lf.paige_loop(2), lf.cyclic(2))
    return {"s3": lf.s3, "chein12": lf.chein12, "cml81": lf.cml81}[name]()


@given(st.sampled_from(["s3", "chein12", "cml81", "paige2_x_c2"]), st.data())
@settings(max_examples=60, deadline=None)
def test_normal_closure_matches_naive_on_random_generators(name, data):
    loop = hypothesis_loop(name)
    gens = data.draw(st.lists(st.integers(0, loop.order - 1), max_size=4))
    assert lf.normal_closure(loop, gens).members == naive_normal_closure(loop, gens)


@pytest.mark.parametrize("name", ["s3", "chein12", "cml81", "order5_x_s3", "paige2_x_c2"])
def test_normal_subloop_joins_are_normal_closures(name, request):
    loop = request.getfixturevalue(name)
    lattice = lf.normal_subloops(loop)
    members = {s.members for s in lattice}
    for a in lattice:
        assert lf.normal_closure(loop, a.members) == a
        for b in lattice:
            join = lf.normal_closure(loop, a.members + b.members)
            assert join.members in members
            product_set = np.unique(loop.table[np.ix_(a.members, b.members)])
            assert join.members == tuple(product_set.tolist())


@pytest.mark.parametrize("name", ["chein12", "cml81", "order5_x_s3"])
def test_normal_closure_matches_naive(name, request):
    loop = request.getfixturevalue(name)
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    gen_sets = [[x] for x in range(1, loop.order)] + \
        [[int(v) for v in rng.integers(1, loop.order, 2)] for _ in range(10)]
    for gens in gen_sets:
        assert lf.normal_closure(loop, gens).members == naive_normal_closure(loop, gens)


def test_normal_closure_output_is_normal(s3, chein12, cml81):
    for loop in (s3, chein12, cml81):
        for x in (1, loop.order // 2, loop.order - 1):
            sub = lf.normal_closure(loop, [x])
            assert lf.verify_normal(loop, sub) is None


def test_paige2_normal_closures_full(paige2):
    for x in (1, 17, 119):
        assert lf.normal_closure(paige2, [x]).is_full()


def test_paige2_x_c2_closures_are_normal(paige2_x_c2):
    closures = {lf.normal_closure(paige2_x_c2, [x]) for x in range(paige2_x_c2.order)}
    assert sorted(s.order() for s in closures) == [1, 2, 120, 240]
    for sub in closures:
        assert lf.verify_normal(paige2_x_c2, sub) is None


def cold_paige3():
    """paige:3 with empty caches: no class labels, closures or lattice reused."""
    p3 = lf.paige_loop(3)
    return lf.Loop(p3.names, p3.table, name="paige:3")


def test_paige3_is_simple_cold():
    loop = cold_paige3()
    t0 = time.perf_counter()
    assert lf.is_simple(loop) == (True, None)
    assert time.perf_counter() - t0 < 5


def test_paige3_group_type_radical_trivial_cold():
    loop = cold_paige3()
    t0 = time.perf_counter()
    assert lf.group_type_radical(loop).is_trivial()
    assert time.perf_counter() - t0 < 5


# -- quotients ------------------------------------------------------------------

def test_quotient_s3_by_a3(s3):
    q, proj = lf.quotient_loop(s3, lf.normal_closure(s3, [1]))
    assert q.order == 2
    assert proj[0] == 0


def test_quotient_chein12_by_s3(chein12):
    sub = lf.SubloopSet(chein12, tuple(range(6)))
    q, _ = lf.quotient_loop(chein12, sub)
    assert q.order == 2


def test_quotient_cml81_by_center(cml81):
    q, _ = lf.quotient_loop(cml81, lf.center(cml81))
    r = lf.check_properties(q)
    assert q.order == 27 and r.associative.ok and r.commutative.ok and r.exponent == 3


def test_quotient_rejects_non_normal(s3):
    sub = lf.subloop_generated(s3, [3])      # order-2 subgroup, not normal
    assert sub.order() == 2
    with pytest.raises(NotNormal):
        lf.quotient_loop(s3, sub)


def naive_quotient(loop, sub):
    """Table and projection of the cosets xN of a normal subloop N, numbered in
    the order of their least element (each new x is the least of its coset)."""
    t, mem = loop.table, list(sub.members)
    proj, reps = np.full(loop.order, -1), []
    for x in range(loop.order):
        if proj[x] < 0:
            proj[t[x, mem]] = len(reps)
            reps.append(x)
    return proj[t[np.ix_(reps, reps)]], proj


QUOTIENT_FIXTURES = ["s3", "chein12", "cml81", "paige2_x_c2", "order5_x_chein12"]


@pytest.mark.parametrize("name", QUOTIENT_FIXTURES)
def test_quotient_matches_naive_cosets(name, request):
    loop = request.getfixturevalue(name)
    for sub in lf.normal_subloops(loop):
        q, proj = lf.quotient_loop(loop, sub)
        table, naive_proj = naive_quotient(loop, sub)
        assert np.array_equal(q.table, table) and np.array_equal(proj, naive_proj), sub.members


@pytest.mark.parametrize("name", QUOTIENT_FIXTURES)
def test_quotient_rejects_exactly_the_non_normal_cyclic_subloops(name, request):
    loop = request.getfixturevalue(name)
    subs = {s.members: s for s in (lf.subloop_generated(loop, [g]) for g in range(loop.order))}
    rejected = 0
    for sub in subs.values():
        if lf.verify_normal(loop, sub) is None:
            q, proj = lf.quotient_loop(loop, sub)
            assert np.array_equal(q.table, naive_quotient(loop, sub)[0])
            continue
        with pytest.raises(NotNormal) as err:
            lf.quotient_loop(loop, sub)
        added = set(lf.normal_closure(loop, sub.members).members) - set(sub.members)
        assert err.value.witness == min(added)
        rejected += 1
    assert rejected


def test_quotient_of_moufang_is_moufang(chein12, cml81):
    for loop in (chein12, cml81):
        for sub in lf.normal_subloops(loop):
            if sub.is_full() or sub.is_trivial():
                continue
            q, _ = lf.quotient_loop(loop, sub)
            assert lf.check_properties(q).moufang.ok


# -- centre and central series ---------------------------------------------------

def test_centers(s3, c6, cml81):
    assert lf.center(s3).members == (0,)
    assert lf.center(c6).is_full()
    assert lf.center(cml81).order() == 3


def test_central_series_cml81(cml81):
    up = lf.central_series(cml81, "upper")
    low = lf.central_series(cml81, "lower")
    assert up.nilpotency_class == 2
    assert low.nilpotency_class == 2
    assert [t.order() for t in up.terms] == [1, 3, 81]
    assert [t.order() for t in low.terms] == [81, 3, 1]
    assert low.weight_alignment == "weight_i_equals_term_{i+1}"


def test_central_series_s3_not_nilpotent(s3):
    assert lf.central_series(s3, "upper").nilpotency_class is None
    assert lf.central_series(s3, "lower").nilpotency_class is None


def test_central_series_abelian(c6):
    assert lf.central_series(c6, "upper").nilpotency_class == 1
    assert lf.central_series(c6, "lower").nilpotency_class == 1


# -- simplicity, products, radical -----------------------------------------------

def test_is_simple(s3, paige2):
    ok, witness = lf.is_simple(s3)
    assert not ok and witness.members == (0, 1, 2)
    assert lf.is_simple(lf.cyclic(5))[0]
    assert lf.is_simple(paige2)[0]


def test_direct_product_small():
    prod = lf.direct_product(lf.cyclic(2), lf.cyclic(3))
    r = lf.check_properties(prod)
    assert prod.order == 6 and r.associative.ok and r.commutative.ok and r.exponent == 6


def test_direct_product_with_trivial(s3):
    prod = lf.direct_product(s3, lf.cyclic(1))
    assert np.array_equal(prod.table, s3.table)


def test_direct_product_structural(cml81):
    big = lf.direct_product(cml81, cml81)
    assert big.order == 6561 and not big.has_table()
    r = lf.check_properties(big)
    assert r.moufang.ok and r.commutative.ok and not r.associative.ok
    assert {o.mode for o in (r.moufang, r.associative, r.commutative, r.ip)} == {"exhaustive"}
    assert r.exponent == 3


PRODUCT_FACTORS = ["s3", "c4", "c6", "chein12", "cml81", "order5", "bol8"]


# every ordered pair but cml81 x cml81, of order 6561 > DENSE_PRODUCT_BOUND
@pytest.mark.parametrize("left, right", [(a, b) for a in PRODUCT_FACTORS for b in PRODUCT_FACTORS
                                         if (a, b) != ("cml81", "cml81")])
def test_product_checks_equal_the_table_checks(left, right, request):
    """A ProductLoop's report, read off its factors' reports, is the report of
    the materialised product, witnesses included."""
    a, b = request.getfixturevalue(left), request.getfixturevalue(right)
    table = lf.direct_product(a, b)
    assert table.has_table()
    assert lf.check_properties(lf.loops.ProductLoop(a, b)).to_json() == \
        lf.check_properties(table).to_json()


def test_product_reports_a_missing_inverse_before_any_ip_pair(bol8):
    """In noinv, 1*4 = 0 but 4*1 = 2, so 1 has no two-sided inverse; the table
    check reports that before bol8's IP pair (2, 1), with either factor first."""
    noinv = lf.Loop("01234", [[0, 1, 2, 3, 4], [1, 4, 3, 2, 0], [2, 3, 0, 4, 1],
                              [3, 0, 4, 1, 2], [4, 2, 1, 0, 3]])
    for a, b in ((noinv, bol8), (bol8, noinv)):
        report = lf.check_properties(lf.loops.ProductLoop(a, b))
        assert len(report.ip.witness) == 1
        assert report.to_json() == lf.check_properties(lf.direct_product(a, b)).to_json()


def test_groups_above_order_300_need_no_scan(monkeypatch):
    """Light's test decides a group, and a group is Moufang."""
    def scan(t, row_fn):
        raise AssertionError("a group was scanned")
    monkeypatch.setattr(lf.loops, "_scan_triples", scan)
    for m in (5, 31):
        r = lf.check_properties(lf.direct_product(lf.cyclic(64), lf.cyclic(m)))
        for outcome in (r.moufang, r.associative):
            assert (outcome.ok, outcome.mode) == (True, "exhaustive")


def test_paige2_x_c2(paige2_x_c2):
    assert paige2_x_c2.order == 240
    r = lf.check_properties(paige2_x_c2)
    assert r.moufang.ok and not r.associative.ok
    ok, witness = lf.is_simple(paige2_x_c2)
    assert not ok


def test_group_type_radical_examples(s3, chein12, paige2):
    assert lf.group_type_radical(s3).is_full()
    assert lf.group_type_radical(paige2).is_trivial()
    assert lf.group_type_radical(chein12).is_full()


def test_chein12_composition_factors(chein12):
    factors = lf.composition_factors(chein12)
    assert sorted(f.order for f in factors) == [2, 2, 3]
    assert all(lf.check_properties(f).associative.ok for f in factors)


def test_group_type_radical_idempotent_and_hereditary(paige2_x_c2):
    gr = lf.group_type_radical(paige2_x_c2)
    assert gr.order() == 2
    q, _ = lf.quotient_loop(paige2_x_c2, gr)
    assert lf.group_type_radical(q).is_trivial()
    full_members = frozenset(gr.members)
    for sub in lf.normal_subloops(paige2_x_c2):
        target = paige2_x_c2 if sub.is_full() else sub.as_loop()
        grn = lf.group_type_radical(target)
        lifted = frozenset(sub.members[i] for i in grn.members)
        assert lifted == frozenset(sub.members) & full_members


def composition_factor_group_type(loop):
    """The oracle: every composition factor is associative."""
    return all(lf.check_properties(f).associative.ok for f in lf.composition_factors(loop))


def relabelled(loop, rng):
    """An isomorphic copy under a random permutation fixing the identity."""
    n = loop.order
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])       # old index -> new
    table = np.empty_like(loop.table)
    table[perm[:, None], perm[None, :]] = perm[loop.table]
    names = np.empty(n, dtype=object)
    names[perm] = loop.names
    return lf.Loop(list(names), table, name=loop.name)


def assert_group_type_matches_oracle(loop):
    subs = {s.members: s for s in lf.normal_subloops(loop) + _element_closures(loop)}
    for sub in subs.values():
        target = loop if sub.is_full() else sub.as_loop()
        assert is_group_type(target) == composition_factor_group_type(target), sub.members


@pytest.mark.parametrize("name", ["s3", "c6", "chein12", "cml81", "paige2", "paige2_x_c2",
                                  "chein12_x_c3", "order5_x_chein12"])
def test_is_group_type_matches_composition_factors(name, request):
    base = request.getfixturevalue(name)
    rng = np.random.default_rng(12)
    for loop in (base, relabelled(base, rng), relabelled(base, rng)):
        assert_group_type_matches_oracle(loop)


@pytest.mark.parametrize("name", ["s3", "c6", "chein12", "cml81", "paige2", "paige2_x_c2",
                                  "order5", "order5_x_s3", "order5_x_chein12", "chein12_x_c3",
                                  "c3_x_s3", "c4_x_chein12", "paige2_x_c3", "cml81_x_c5"])
def test_division_tables_invert_rows_and_columns(name, request):
    base = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    for loop in (base, relabelled(base, rng)):
        t, ld, rd, idx = loop.table, loop.ld_table, loop.rd_table, np.arange(loop.order)
        assert np.array_equal(ld, np.argsort(t, axis=1))
        assert np.array_equal(rd, np.argsort(t, axis=0))
        assert (t[idx[:, None], ld] == idx).all()        # a (a \ b) = b
        assert (t[rd, idx] == idx[:, None]).all()        # (b / a) a = b


def random_normalised_latin_square(n, rng):
    """A Latin square with row and column 0 equal to 0..n-1, so that 0 is the
    identity of a loop, filled depth-first trying each cell's symbols in a
    random order."""
    table = np.zeros((n, n), dtype=np.int64)
    table[0] = table[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i, :j].tolist()) | set(table[:i, j].tolist())
        for v in rng.permutation(n).tolist():
            if v not in used:
                table[i, j] = v
                if fill(k + 1):
                    return True
        return False

    assert fill(0)
    return table


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_is_group_type_matches_composition_factors_on_random_loops(n, seed):
    # random loops are mostly neither Moufang nor associative
    table = random_normalised_latin_square(n, np.random.default_rng(seed))
    assert_group_type_matches_oracle(lf.Loop([str(i) for i in range(n)], table))


# -- cached closures, the associator subloop and the triple scan ------------------

FIXTURES = ["s3", "c6", "chein12", "cml81", "paige2", "paige2_x_c2", "order5", "order5_x_s3",
            "order5_x_chein12", "chein12_x_c3"]


def cold(loop):
    return lf.Loop(loop.names, loop.table, name=loop.name)


@pytest.mark.parametrize("name", FIXTURES)
def test_cached_element_closures_equal_fresh_ones(name, request):
    loop = request.getfixturevalue(name)
    cached = _element_closures(loop)
    assert _element_closures(loop) is cached
    fresh = _element_closures(cold(loop))
    assert [s.members for s in cached] == [s.members for s in fresh]


def block_closures(loop):
    """Element closures, normal subloops, the quotient by each of the first
    four proper nontrivial ones and the A(Q) labels, on a cold copy."""
    loop = cold(loop)
    closures = [s.members for s in _element_closures(loop)]
    subs = lf.normal_subloops(loop)
    proper = [s for s in subs if not s.is_trivial() and not s.is_full()][:4]
    quotients = [(q.table.tolist(), proj.tolist())
                 for q, proj in (lf.quotient_loop(loop, s) for s in proper)]
    return (closures, [s.members for s in subs], quotients,
            lf.loops._associator_labels(loop).tolist())


# a label pass counts 81 bytes a label: a chunk of 2^8 labels holds three
# rows of cml81 and one of paige2 x C2; one of 2^17 holds every row the
# closures of either loop seed
@pytest.mark.parametrize("name", ["cml81", "paige2_x_c2"])
def test_block_closures_do_not_depend_on_the_chunk_size(monkeypatch, name, request):
    loop = request.getfixturevalue(name)
    default = block_closures(loop)
    assert default[2]
    for entries in (2**8, 2**17):
        monkeypatch.setattr(lf.linalg, "BLOCK_BYTES", 81 * entries)
        assert lf.loops._label_rows(loop.order) == entries // loop.order
        assert block_closures(loop) == default


def naive_associator_subloop(loop):
    """Normal closure of every associator (x(yz))\\((xy)z), from the table."""
    t, ld = loop.table, loop.ld_table
    found = np.zeros(loop.order, dtype=bool)
    for x in range(loop.order):
        found[ld[t[x][t], t[t[x]]]] = True      # [y, z]
    return lf.normal_closure(loop, np.flatnonzero(found).tolist()).members


@pytest.mark.parametrize("name", FIXTURES + ["paige2_x_c3", "cml81_x_c5"])
def test_associator_labels_match_naive_associator_subloop(name, request):
    loop = cold(request.getfixturevalue(name))
    labels, naive = lf.loops._associator_labels(loop), naive_associator_subloop(loop)
    assert tuple(np.flatnonzero(labels == 0).tolist()) == naive
    q, proj = lf.quotient_loop(loop, lf.SubloopSet(loop, naive))
    assert np.array_equal(np.searchsorted(np.unique(labels), labels), proj)
    assert lf.check_properties(q).associative.ok


@pytest.mark.parametrize("name", ["cml81", "paige2", "chein12"])
def test_associator_labels_shared_by_bundle_and_group_type(monkeypatch, name, request):
    # whichever caller runs first builds A(Q); the other reuses it
    calls = []
    generators = lf.loops._generators
    monkeypatch.setattr(lf.loops, "_generators", lambda q: calls.append(q) or generators(q))
    for first_bundle in (True, False):
        loop = cold(request.getfixturevalue(name))
        if first_bundle:
            lf.alternative_loop_algebra(lf.PrimeField(5), loop)
        before = loop._assoc_labels
        assert is_group_type(loop) == (name != "paige2")
        if first_bundle:
            assert loop._assoc_labels is before
        else:
            labels = loop._assoc_labels
            lf.alternative_loop_algebra(lf.PrimeField(5), loop)
            assert loop._assoc_labels is labels
        assert sum(q is loop for q in calls) == 1
        calls.clear()


LIGHT_LOOPS = FIXTURES + ["c3_x_s3", "c4_x_chein12"]


@pytest.mark.parametrize("name", LIGHT_LOOPS)
def test_generators_are_greedy_and_generate(name, request):
    loop = request.getfixturevalue(name)
    gens = lf.loops._generators(loop)
    for k, g in enumerate(gens):
        sub = lf.subloop_generated(loop, gens[:k])
        assert g == min(set(range(loop.order)) - sub.member_set())
    assert lf.subloop_generated(loop, gens).is_full() and 2 ** len(gens) <= loop.order


@pytest.mark.parametrize("name", LIGHT_LOOPS)
def test_light_test_matches_the_row_scan(name, request):
    """Light's test against the exhaustive associativity scan on the loop, its
    proper normal subloops and its quotients by them."""
    loop = request.getfixturevalue(name)
    cases = [loop]
    for sub in lf.normal_subloops(loop):
        if not (sub.is_full() or sub.is_trivial()):
            cases += [sub.as_loop(), lf.quotient_loop(loop, sub)[0]]
    for q in cases:
        scan = lf.loops._scan_triples(q.table, lf.loops._assoc_row)
        assert lf.loops._is_associative(q) == (scan is None)


def restarted_generators(loop):
    """The former _generators: each greedy step closes the whole subloop
    generated so far again, from every member."""
    gens, mask = [], np.arange(loop.order) == 0
    while not mask.all():
        gens.append(int(np.argmin(mask)))
        mask[gens[-1]] = True
        mask = lf.loops._mul_closure(loop, mask)
    return gens


def member_seeded_quotient(loop, sub):
    """The former quotient_loop: the block closure seeded with every member
    of sub.  The quotient's table and projection, or the NotNormal witness."""
    seeds = np.zeros((1, loop.order), dtype=bool)
    seeds[0, list(sub.members)] = True
    lab = lf.loops._block_labels(loop, seeds)[0]
    if np.count_nonzero(lab == 0) > sub.order():
        return int(np.setdiff1d(np.flatnonzero(lab == 0), sub.members)[0])
    _, proj, table = lf.loops._class_quotient(loop, lab)
    return table.tolist(), proj.tolist()


def generator_seeded_quotient(loop, sub):
    try:
        q, proj = lf.quotient_loop(loop, sub)
    except NotNormal as err:
        return err.witness
    return q.table.tolist(), proj.tolist()


@pytest.mark.parametrize("name", LIGHT_LOOPS + ["paige2_x_c3", "cml81_x_c5"])
def test_generators_equal_the_restarted_closures(name, request):
    """On the loop and on each normal and cyclic subloop, whose greedy
    generators are those of its relabelled copy (as_loop keeps the order)."""
    loop = request.getfixturevalue(name)
    assert lf.loops._generators(loop) == restarted_generators(loop)
    subs = lf.normal_subloops(loop) + [lf.subloop_generated(loop, [g])
                                       for g in range(0, loop.order, 1 + loop.order // 8)]
    for sub in subs:
        mem = np.asarray(sub.members)
        assert lf.loops._generators(loop, sub.members) == \
            mem[restarted_generators(sub.as_loop())].tolist()


@pytest.mark.parametrize("name", QUOTIENT_FIXTURES + ["chein12_x_c3", "cml81_x_c5"])
def test_quotients_seeded_with_generators_equal_the_member_seeded_ones(name, request):
    """Same least congruence, so the same quotient or NotNormal witness, on
    every normal subloop, cyclic subloops and member sets that are no subloop."""
    loop = request.getfixturevalue(name)
    rng = np.random.default_rng(38)
    subs = lf.normal_subloops(loop) + [lf.subloop_generated(loop, [g]) for g in range(loop.order)]
    subs += [lf.SubloopSet(loop, tuple(sorted({0, *rng.choice(loop.order, k).tolist()})))
             for k in (1, 2, 5)]
    rejected = 0
    for sub in {s.members: s for s in subs}.values():
        old = member_seeded_quotient(loop, sub)
        assert generator_seeded_quotient(loop, sub) == old, sub.members
        rejected += isinstance(old, int)
    assert rejected


def test_closures_in_small_blocks_equal_the_default(monkeypatch, cml81, paige2_x_c2):
    big = lf.direct_product(cml81, cml81)
    gens = [[5, 700], [81 * 5 + 7, 6000], [1, 81]]
    default = [lf.subloop_generated(big, g).members for g in gens]
    default_gens = [lf.loops._generators(q) for q in (cml81, paige2_x_c2)]
    for rows in (1, 3):
        monkeypatch.setattr(lf.linalg, "BLOCK_BYTES", 32 * 81 * rows)
        assert [lf.subloop_generated(big, g).members for g in gens] == default
        assert [lf.loops._generators(q) for q in (cml81, paige2_x_c2)] == default_gens


# paige2, cml81 and their products with bol8 would take seconds to scan in
# blocks of one row (cml81's checks run in blocks in test_radicals)
BLOCKED_CHECK_LOOPS = ["s3", "c6", "chein12", "order5", "order5_x_s3", "order5_x_chein12",
                       "chein12_x_c3", "bol8", "c3_x_s3"]


@pytest.mark.parametrize("name", BLOCKED_CHECK_LOOPS)
def test_property_checks_in_small_blocks_equal_the_default(monkeypatch, name, request):
    """Light's test, the IP check and the commutativity check in blocks of one
    or three x rows, on the loop, a relabelled copy and its product with bol8."""
    base = request.getfixturevalue(name)
    bol8 = request.getfixturevalue("bol8")
    loops = [base, relabelled(base, np.random.default_rng(3)), lf.direct_product(bol8, base)]

    def reports():
        return [(lf.check_properties(cold(q)).to_json(), cold(q).inverses().tolist())
                for q in loops]

    default = reports()
    for rows in (1, 3):
        monkeypatch.setattr(lf.linalg, "BLOCK_BYTES", 25 * max(q.order for q in loops) * rows)
        assert reports() == default


def test_group_check_stays_within_the_block_budget():
    """check_properties of a group of order 2048 holds no n x n array (it
    peaked at 104 MiB with whole-table gathers and closures)."""
    group = lf.direct_product(lf.cyclic(64), lf.cyclic(32))
    loop = cold(group)
    tracemalloc.start()
    try:
        report = lf.check_properties(loop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.associative.ok and report.commutative.ok and report.ip.ok
    assert peak <= lf.linalg.BLOCK_BYTES, peak


def test_associator_series_stays_within_the_block_budget():
    """Cold is_group_type of a group of order 1984 scans x(gy) = (xg)y in row
    blocks (it peaked at 124 MiB with n x n gathers per generator)."""
    loop = cold(lf.direct_product(lf.cyclic(64), lf.cyclic(31)))
    tracemalloc.start()
    try:
        group_type = is_group_type(loop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group_type
    assert peak <= lf.linalg.BLOCK_BYTES, peak


def test_lattice_and_quotient_witness_leave_numpy_ma_unimported():
    # np.unique and np.setdiff1d import numpy.ma on first use (about 15 ms)
    code = ("import sys, loopforge as lf\n"
            "from loopforge.errors import NotNormal\n"
            "lf.normal_subloops(lf.direct_product(lf.paige_loop(2), lf.cyclic(2)))\n"
            "s3 = lf.s3()\n"
            "t = next(x for x in range(1, 6) if s3.mul(x, x) == 0)\n"
            "try:\n"
            "    lf.quotient_loop(s3, lf.subloop_generated(s3, [t]))\n"
            "except NotNormal:\n"
            "    print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(lf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# -- the group-type radical ------------------------------------------------------

def joined_group_type_closures(loop):
    """The former group_type_radical: the normal closure of every group-type
    single-element normal closure, the whole loop's included."""
    good = {0}
    for sub in _element_closures(loop):
        if is_group_type(loop if sub.is_full() else sub.as_loop()):
            good.update(sub.members)
    return lf.normal_closure(loop, good).members


RADICAL_LOOPS = LIGHT_LOOPS + ["bol8", "paige2_x_c3", "cml81_x_c5", "chein_s3_c25"]


@pytest.mark.parametrize("name", RADICAL_LOOPS)
def test_group_type_radical_is_the_join_of_group_type_closures(name, request):
    loop = request.getfixturevalue(name)
    assert lf.group_type_radical(cold(loop)).members == joined_group_type_closures(cold(loop))


def test_a_group_type_loop_builds_no_element_closure(monkeypatch, cml81, chein12, chein_s3_c25,
                                                      paige2_x_c2):
    def closures(loop):
        raise AssertionError(f"element closures of {loop.name}")
    monkeypatch.setattr(lf.loops, "_element_closures", closures)
    for loop in (cml81, chein12, chein_s3_c25, lf.direct_product(cml81, lf.cyclic(5))):
        assert lf.group_type_radical(cold(loop)).is_full()
    assert lf.in_class_s(cold(chein12), lf.PrimeField(7)).r2
    with pytest.raises(AssertionError, match="element closures of"):
        lf.group_type_radical(cold(paige2_x_c2))


def test_group_type_radical_is_computed_once_per_loop(monkeypatch, chein12, paige2_x_c2):
    calls = []
    group_type = lf.loops.is_group_type
    monkeypatch.setattr(lf.loops, "is_group_type", lambda q: calls.append(q) or group_type(q))
    loop = cold(chein12)
    lf.wedderburn_report(loop, lf.PrimeField(7))            # loop_radical, then in_class_s
    assert sum(q is loop for q in calls) == 1
    loops = [loop, cold(paige2_x_c2)]
    first = [lf.group_type_radical(q) for q in loops]

    def recomputed(q):
        raise AssertionError("recomputed")
    monkeypatch.setattr(lf.loops, "is_group_type", recomputed)
    monkeypatch.setattr(lf.loops, "_closure_join_radical", recomputed)
    assert all(lf.group_type_radical(q) is r for q, r in zip(loops, first))
    assert [r.order() for r in first] == [12, 2]


def chunk_moufang_first(t, xs):
    """((xy)x)z = x(y(xz)) for x in xs, in the form of the former 3-D chunk kernel."""
    lhs = t[t[t[xs], xs[:, None]]]                          # [xi, y, z]
    rhs = t[xs[None, :, None], t[:, t[xs, :]]]              # [y, xi, z]
    return first_in_xyz(xs, lhs, rhs.transpose(1, 0, 2))


def chunk_assoc_first(t, xs):
    """(xy)z = x(yz) for x in xs, as the former 3-D chunk kernel."""
    return first_in_xyz(xs, t[t[xs, :]], t[xs][:, t])      # [xi, y, z]


def first_in_xyz(xs, lhs, rhs):
    bad = lhs != rhs
    first = np.argmax(bad)
    if not bad.flat[first]:
        return None
    xi, y, z = np.unravel_index(first, bad.shape)
    return int(xs[xi]), int(y), int(z)


def chunk_scan_first(t, chunk_fn, first=1 << 18, top=1 << 18):
    """The former chunk scheduler: x rows in chunks of about `first` cells,
    doubling up to `top` cells; the first chunk with a mismatch gives the witness."""
    n = t.shape[0]
    cells, x0 = max(n * n, 1), 0
    top = max(1, top // cells)
    step = min(top, max(1, first // cells))
    while x0 < n:
        w = chunk_fn(t, np.arange(x0, min(x0 + step, n), dtype=np.int64))
        if w is not None:
            return w
        x0, step = x0 + step, min(2 * step, top)
    return None


SCANS = [(lf.loops._assoc_row, chunk_assoc_first), (lf.loops._moufang_row, chunk_moufang_first)]


def assert_scans_match_oracle(t, first=1 << 18):
    witnesses = []
    for row_fn, chunk_fn in SCANS:
        w = lf.loops._scan_triples(t, row_fn)
        assert w == chunk_scan_first(t, chunk_fn, first)
        witnesses.append(w)
    return witnesses


@pytest.mark.parametrize("name", [f for f in FIXTURES if f != "paige2_x_c2"])  # 14M cells
@pytest.mark.parametrize("first", [1, 1 << 13, 1 << 18])
def test_scan_triples_finds_the_first_witness(name, first, request):
    """The row scan returns the witness of the former chunk scan, whatever
    its first-chunk size: one row, some rows, or the whole table at once."""
    t = request.getfixturevalue(name).table
    assert_scans_match_oracle(t, first)
    # plant a failure in row r: every row reads the whole table, so an earlier
    # row may fail first, but never a later one
    n = t.shape[0]
    for r in (1, n // 2, n - 1):
        planted = t.copy()
        planted[r, [1, n - 1]] = planted[r, [n - 1, 1]]
        for (row_fn, _), w in zip(SCANS, assert_scans_match_oracle(planted, first)):
            lhs, rhs = row_fn(planted, r, slice(None))
            assert (lhs != rhs).any() and w[0] <= r


@pytest.mark.parametrize("name", [f for f in FIXTURES if f != "paige2_x_c2"] + ["bol8"])
def test_scan_triples_in_small_blocks_finds_the_same_witness(monkeypatch, name, request):
    """Blocks of one or three y rows give the witnesses of whole rows, on the
    loop and with a failure planted in its last row."""
    t = request.getfixturevalue(name).table
    n = t.shape[0]
    planted = t.copy()
    planted[n - 1, [1, n - 1]] = planted[n - 1, [n - 1, 1]]
    want = [assert_scans_match_oracle(table) for table in (t, planted)]
    for rows in (1, 3):
        monkeypatch.setattr(lf.linalg, "BLOCK_BYTES", 25 * n * rows)
        assert [assert_scans_match_oracle(table) for table in (t, planted)] == want


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_scan_triples_finds_the_first_witness_on_random_loops(n, seed):
    table = random_normalised_latin_square(n, np.random.default_rng(seed))
    assert_scans_match_oracle(table, first=1)


# -- identity (44) -----------------------------------------------------------------

def test_identity44_holds_on_cml81(cml81):
    ok, witness = lf.check_identity44(cml81, tuple_samples=200)
    assert ok and witness is None


def test_identity44_identity_tuple(cml81):
    ok, _ = lf.check_identity44(cml81, tuples=[(0,) * 7])
    assert ok


def test_identity44_abelian_group(c6):
    ok, _ = lf.check_identity44(c6, tuple_samples=50)
    assert ok


def test_identity44_requires_commutative_moufang(s3):
    with pytest.raises(NotCommutativeMoufang):
        lf.check_identity44(s3, tuple_samples=1)
