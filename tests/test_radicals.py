import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import loopforge as lf
from loopforge import algebras, linalg, radicals
from loopforge.errors import DimensionBoundExceeded, OrderBoundExceeded
from loopforge.radicals import embedding_promised, in_class_s


GF2 = lf.PrimeField(2)
GF3 = lf.PrimeField(3)
GF7 = lf.PrimeField(7)
GF11 = lf.PrimeField(11)


# -- class membership ---------------------------------------------------------

def test_cml81_in_class_s_over_gf3(cml81, cml81_gf3):
    res = in_class_s(cml81, GF3, bundle=cml81_gf3)
    assert res.value
    assert res.r1 and res.r2 and res.r3
    assert res.embedding_promised
    assert not res.field_collapse


def test_paige2_not_in_class_s(paige2, paige2_gf11):
    res = in_class_s(paige2, GF11, bundle=paige2_gf11)
    assert not res.value
    assert res.r1 is False and not res.r2 and not res.r3
    assert res.witness is not None and res.witness.is_full()
    assert res.collision is not None


def test_paige2_embeds_over_gf2_as_zorn_matrices(paige2):
    # independent oracle: over GF(2), -1 = 1, so paige:2 is the group of
    # det-1 vector matrices itself; its element names are Zorn coordinates
    f2 = lf.PrimeField(2)
    coords = np.asarray([[int(c) for c in name] for name in paige2.names], dtype=np.int64)
    n = paige2.order
    assert len({tuple(r) for r in coords.tolist()}) == n
    assert (f2.canon(lf.zorn_det(coords)) == 1).all()
    prods = lf.zorn_algebra(f2).mul_rows(coords, coords).reshape(n, n, 8)
    assert np.array_equal(prods, coords[paige2.table])
    # the verdict agrees, and records the contradicted obstruction
    verdict = radicals.embeddability(paige2, f2)
    assert verdict.outcome == "embeds"
    assert verdict.images_distinct and verdict.all_invertible and verdict.multiplicative
    assert verdict.checks["obstruction_contradicted"] is True
    assert verdict.checks["simple_subloop_order"] == 120
    assert not verdict.checks["r3"]


@pytest.mark.parametrize("p", [3, 5, 11])
def test_paige2_obstructed_in_odd_characteristic(paige2, p):
    verdict = radicals.embeddability(paige2, lf.PrimeField(p))
    assert verdict.outcome == "obstructed"
    assert "obstruction_contradicted" not in verdict.checks
    assert verdict.witness_order == 120 and verdict.collision is not None
    wit = lf.SubloopSet(paige2, verdict.witness_members).as_loop()
    assert lf.is_simple(wit)[0]
    props = lf.check_properties(wit)
    assert props.moufang.ok and not props.associative.ok


def test_chein12_class_s_with_field_collapse(chein12, chein12_gf7):
    # in the radical class as a loop; the canonical map over GF(7) collapses
    res = in_class_s(chein12, GF7, bundle=chein12_gf7)
    assert res.value
    assert res.r2 and res.r3 and res.r1 is False
    assert res.field_collapse and res.collision is not None


def test_chein12_embeds_over_gf2(chein12):
    res = in_class_s(chein12, lf.PrimeField(2))
    assert res.value and res.r1


def test_chein12_collapses_over_rationals(chein12):
    # exact rational arithmetic end to end: the map still collapses in char 0
    bundle = lf.alternative_loop_algebra(lf.QQ, chein12)
    assert bundle.alternator.dim == 8
    assert bundle.dim == 4
    assert not bundle.canonical_injective
    res = in_class_s(chein12, lf.QQ, bundle=bundle)
    assert res.value and res.field_collapse


def test_groups_in_class_s():
    for name in ("c2", "c3", "c6", "s3"):
        loop = lf.builtin_group(name)
        for field in (GF3, GF7, GF11):
            res = in_class_s(loop, field)
            assert res.value and res.r1


def test_embedding_promise_policy(s3, cml81, chein12):
    assert embedding_promised(s3, GF7)              # groups: always
    assert embedding_promised(cml81, GF3)           # commutative, char 3
    assert not embedding_promised(cml81, GF7)       # commutative, char 7
    assert not embedding_promised(cml81, lf.QQ)     # commutative, char 0
    assert not embedding_promised(chein12, GF7)     # noncommutative nonassociative


# -- equivalence battery -------------------------------------------------------

def test_equivalence_battery(s3, c6, chein12, cml81, paige2,
                             cml81_gf3, cml81_gf7, chein12_gf7, paige2_gf11):
    """Loop-side r2 and r3 always agree; the algebra side agrees whenever an
    embedding is promised, and any disagreement is a recorded collapse with a
    concrete collision pair."""
    grid = [
        (lf.builtin_group("c2"), GF3, None), (lf.builtin_group("c2"), GF7, None),
        (lf.builtin_group("c2"), GF11, None),
        (lf.builtin_group("c3"), GF3, None), (lf.builtin_group("c3"), GF7, None),
        (lf.builtin_group("c3"), GF11, None),
        (s3, GF3, None), (s3, GF7, None), (s3, GF11, None),
        (c6, GF3, None), (c6, GF7, None), (c6, GF11, None),
        (chein12, GF3, None), (chein12, GF7, chein12_gf7), (chein12, GF11, None),
        (cml81, GF3, cml81_gf3), (cml81, GF7, cml81_gf7),
        (paige2, GF11, paige2_gf11),
    ]
    for loop, field, bundle in grid:
        res = in_class_s(loop, field, bundle=bundle)
        assert res.r2 == res.r3
        if res.embedding_promised:
            assert res.r1 == res.value
        if res.r1 != res.value:
            assert res.field_collapse and res.collision is not None


# -- loop radical ----------------------------------------------------------------

def test_radical_of_cml81(cml81):
    assert lf.loop_radical(cml81, GF3).is_full()


def test_radical_of_paige2(paige2):
    assert lf.loop_radical(paige2, GF11).is_trivial()


def test_radical_of_product(paige2_x_c2):
    srad = lf.loop_radical(paige2_x_c2, GF11)
    assert srad.order() == 2
    assert srad.members == (0, 1)     # the {e} x C2 factor


def test_radical_idempotent_on_fixtures(s3, chein12, cml81, paige2_x_c2):
    cases = [(s3, GF7), (chein12, GF7), (cml81, GF3), (paige2_x_c2, GF11)]
    for loop, field in cases:
        srad = lf.loop_radical(loop, field)
        if srad.is_full():
            continue
        q, _ = lf.quotient_loop(loop, srad)
        assert lf.group_type_radical(q).is_trivial()


def test_radical_hereditary_on_fixtures(s3, chein12, cml81, paige2_x_c2):
    for loop, field in [(s3, GF7), (chein12, GF7), (cml81, GF3), (paige2_x_c2, GF11)]:
        srad = lf.loop_radical(loop, field)
        top = frozenset(srad.members)
        for sub in lf.normal_subloops(loop):
            target = loop if sub.is_full() else sub.as_loop()
            inner = lf.group_type_radical(target)
            lifted = frozenset(sub.members[i] for i in inner.members)
            assert lifted == frozenset(sub.members) & top


# -- embeddability ----------------------------------------------------------------

def test_embeds_cml81_gf3(cml81, cml81_gf3):
    v = lf.embeddability(cml81, GF3, bundle=cml81_gf3)
    assert v.outcome == "embeds"
    assert v.images_distinct and v.all_invertible and v.multiplicative
    assert v.embedding.shape == (81, cml81_gf3.dim)


def test_obstructed_paige2_gf11(paige2, paige2_gf11):
    v = lf.embeddability(paige2, GF11, bundle=paige2_gf11)
    assert v.outcome == "obstructed"
    assert v.witness_order == 120           # the loop itself
    assert v.collision is not None
    doc = v.to_json()
    assert doc["outcome"] == "obstructed"
    assert doc["witness"]["simple_subloop_order"] == 120


def test_obstructed_by_collapse_cml81_gf5(cml81, cml81_gf5):
    v = lf.embeddability(cml81, lf.PrimeField(5), bundle=cml81_gf5)
    assert v.outcome == "obstructed"
    assert v.witness_order is None          # no simple nonassociative subloop
    assert v.collision is not None
    q, q2 = v.collision
    # the collision is a genuine identification in the quotient
    assert np.array_equal(cml81_gf5.images[q], cml81_gf5.images[q2])


def test_embeds_chein12_gf2(chein12):
    v = lf.embeddability(chein12, lf.PrimeField(2))
    assert v.outcome == "embeds"
    assert v.images_distinct and v.all_invertible and v.multiplicative


def test_circle_embedding_reports(cml81, cml81_gf3, chein12):
    rep = lf.circle_embedding(cml81, GF3, bundle=cml81_gf3)
    assert rep.ok and rep.pairs == 81 * 81
    rep2 = lf.circle_embedding(chein12, lf.PrimeField(2))
    assert rep2.ok and rep2.pairs == 144


def counted_mul_rows(monkeypatch, alg):
    """The (left, right) row counts of every ``alg.mul_rows`` call from here on."""
    calls, real = [], alg.mul_rows
    monkeypatch.setattr(alg, "mul_rows", lambda a, b: calls.append((len(a), len(b))) or real(a, b))
    return calls


def test_circle_embedding_makes_one_product_per_block(monkeypatch, cml81, cml81_gf3):
    quot, n = cml81_gf3.algebra, cml81.order
    k = quot.block_rows(1, n, n)
    calls = counted_mul_rows(monkeypatch, quot)
    assert lf.circle_embedding(cml81, GF3, bundle=cml81_gf3).ok
    assert k < n and calls == [(min(k, n - s), n) for s in range(0, n, k)]


def test_embedding_checks_read_distinctness_off_the_collision(monkeypatch, cml81_gf3, cml81_gf5):
    def rescan(m):
        raise AssertionError("images scanned again")
    monkeypatch.setattr(algebras, "_first_duplicate_rows", rescan)
    assert algebras.AlternativeLoopAlgebra.embedding_checks.func(cml81_gf3) == (True, True, True)
    assert cml81_gf5.collision is not None
    assert algebras.AlternativeLoopAlgebra.embedding_checks.func(cml81_gf5)[0] is False


# -- structure reports --------------------------------------------------------------

def test_wedderburn_cml81(cml81, cml81_gf3):
    rep = lf.wedderburn_report(cml81, GF3, bundle=cml81_gf3)
    assert rep.radical_subloop.is_full()
    assert rep.quotient_dim == 1 and rep.quotient_is_field
    assert rep.radical_ideal_dim == cml81_gf3.omega.dim
    assert rep.dim_cross_check


def test_wedderburn_reuses_bundle(cml81, cml81_gf3, monkeypatch):
    built = []
    real = radicals.alternative_loop_algebra

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(radicals, "alternative_loop_algebra", counting)
    rep = lf.wedderburn_report(cml81, GF3, bundle=cml81_gf3)
    assert rep.radical_subloop.is_full()
    assert built == []


def test_wedderburn_takes_omega_for_a_full_radical(monkeypatch, cml81, cml81_gf3, paige2_x_c2):
    calls, real = [], radicals.augmentation_ideal

    def recomputed(alg, sub=None):
        raise AssertionError("augmentation ideal recomputed")
    monkeypatch.setattr(radicals, "augmentation_ideal", recomputed)
    rep = lf.wedderburn_report(cml81, GF3, bundle=cml81_gf3)
    assert rep.radical_subloop.is_full() and rep.radical_ideal_dim == cml81_gf3.omega.dim
    # a proper radical (C2 inside paige2 x C2) still closes its own ideal
    monkeypatch.setattr(radicals, "augmentation_ideal",
                        lambda alg, sub=None: calls.append(sub) or real(alg, sub))
    rep = lf.wedderburn_report(paige2_x_c2, GF3)
    assert rep.radical_subloop.order() == 2 and rep.radical_ideal_dim == 1
    assert [sub.members for sub in calls] == [rep.radical_subloop.members]


def test_wedderburn_builds_each_principal_ideal_once(monkeypatch, paige2):
    """paige:2/GF(2): 119 nonzero generators e - q, six of them sampled, and
    no augmentation ideal of the semisimple quotient."""
    bundle = lf.alternative_loop_algebra(GF2, paige2)
    built, aug_algs = [], []
    real_pid, real_aug = radicals.principal_ideal, radicals.augmentation_ideal
    monkeypatch.setattr(radicals, "principal_ideal",
                        lambda alg, v: built.append(alg) or real_pid(alg, v))
    monkeypatch.setattr(radicals, "augmentation_ideal",
                        lambda alg, sub=None: aug_algs.append(alg) or real_aug(alg, sub))
    rep = lf.wedderburn_report(paige2, GF2, bundle=bundle)
    assert not rep.quotient_is_field and len(rep.sampled_principal_nilpotent) == 6
    assert rep.summand_dims == [8] and rep.direct_sum_verified
    assert len(built) == 119
    assert aug_algs == [bundle.algebra]                  # the trivial radical's ideal only
    assert "omega_quotient_is_all" not in rep.to_json()["checks"]


def test_wedderburn_s3():
    s3 = lf.s3()
    rep = lf.wedderburn_report(s3, GF7)
    assert rep.radical_subloop.is_full()
    assert rep.algebra_dim == 6 and rep.radical_ideal_dim == 5
    assert rep.quotient_dim == 1 and rep.quotient_is_field
    assert rep.dim_cross_check


def test_wedderburn_paige2(paige2, paige2_gf11):
    rep = lf.wedderburn_report(paige2, GF11, bundle=paige2_gf11)
    assert rep.radical_subloop.is_trivial()
    assert rep.radical_ideal_dim == 0
    assert rep.quotient_dim == rep.algebra_dim
    assert rep.dim_cross_check


def test_principal_splitting_semisimple_group_algebra():
    # GF(5)[C3] is a sum of two simple pieces; the augmentation generators
    # all close to the 2-dimensional summand, never to the trivial one
    from loopforge.radicals import _principal_splitting
    f5 = lf.PrimeField(5)
    alg = lf.loop_algebra(f5, lf.cyclic(3))
    gens = np.asarray([[1, 4, 0], [1, 0, 4]], dtype=np.int64)   # e-g, e-g^2
    dims, direct, span = _principal_splitting(alg, [lf.principal_ideal(alg, g) for g in gens])
    assert dims == [2] and direct and span == "proper"


def test_principal_splitting_block_sum():
    # block-diagonal sum of two copies of the vector-matrix algebra: the two
    # block generators split it as a verified direct sum of the block ideals
    from loopforge.radicals import _principal_splitting
    f3 = lf.PrimeField(3)
    z = lf.zorn_algebra(f3)
    tensor = np.zeros((16, 16, 16), dtype=np.int64)
    tensor[:8, :8, :8] = z.c
    tensor[8:, 8:, 8:] = z.c
    unit = np.zeros(16, dtype=np.int64)
    unit[[0, 1, 8, 9]] = 1
    alg = lf.TensorAlgebra(f3, tensor, [f"a{i}" for i in range(16)], unit=unit)
    gens = np.zeros((2, 16), dtype=np.int64)
    gens[0, 0] = gens[0, 1] = 1         # unit of the first block
    gens[1, 8] = gens[1, 9] = 1         # unit of the second block
    dims, direct, span = _principal_splitting(alg, [lf.principal_ideal(alg, g) for g in gens])
    assert dims == [8, 8] and direct and span == "full"


def test_find_simple_nonassociative_subloop(paige2, paige2_x_c2, chein12):
    w = lf.find_simple_nonassociative_subloop(paige2)
    assert w is not None and w.is_full()
    w2 = lf.find_simple_nonassociative_subloop(paige2_x_c2)
    assert w2 is not None and w2.order() == 120
    sub = w2.as_loop()
    assert lf.is_simple(sub)[0] and not lf.check_properties(sub).associative.ok
    assert lf.find_simple_nonassociative_subloop(chein12) is None


# -- order guards -------------------------------------------------------------------

@pytest.fixture(scope="module")
def group_2048():
    # a dense table just above loops.ORDER_BOUND.  A group is its own
    # alternative quotient, a dense 2048^3 tensor (64 GiB of int64), so every
    # check below must raise before it builds anything of that size.
    loop = lf.direct_product(lf.cyclic(64), lf.cyclic(32))
    assert loop.has_table() and loop.order > lf.loops.ORDER_BOUND
    return loop


@pytest.mark.parametrize("check", [
    lf.normal_subloops, lf.composition_factors, lf.loops.is_group_type, lf.group_type_radical,
    lf.find_simple_nonassociative_subloop,
    lambda loop: in_class_s(loop, GF3), lambda loop: lf.loop_radical(loop, GF3),
    lambda loop: lf.alternative_loop_algebra(GF3, loop),
    lambda loop: lf.embeddability(loop, GF3), lambda loop: lf.wedderburn_report(loop, GF3),
], ids=["normal_subloops", "composition_factors", "is_group_type", "group_type_radical",
        "find_simple_nonassociative_subloop", "in_class_s", "loop_radical",
        "alternative_loop_algebra", "embeddability", "wedderburn_report"])
def test_order_guards(group_2048, check):
    with pytest.raises(OrderBoundExceeded, match="ORDER_BOUND"):
        check(group_2048)


def test_quotient_entry_bound_raises_before_gathering():
    # an order-258 group, within ORDER_BOUND, is its own alternative quotient:
    # 258^3 structure constants, just beyond QUOTIENT_ENTRY_BOUND
    loop = lf.direct_product(lf.cyclic(43), lf.cyclic(6))
    d = loop.order
    assert d <= lf.loops.ORDER_BOUND and d**3 > lf.algebras.QUOTIENT_ENTRY_BOUND >= 81**3
    with pytest.raises(DimensionBoundExceeded, match="QUOTIENT_ENTRY_BOUND"):
        lf.alternative_loop_algebra(GF3, loop)
    # its alternator ideal is zero; the tensor would take 8 d^3 bytes
    fq = lf.loop_algebra(GF3, loop)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBoundExceeded, match="QUOTIENT_ENTRY_BOUND"):
            lf.algebras.QuotientAlgebra(fq, lf.Subspace(GF3, d), verify=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d**3


def whole_product_checks(bundle, table):
    """embedding_checks' multiplicativity and circle_embedding's verdict, each
    on every pair at once, as one n^2 x d product per side; the verdict is
    read off the circle products (e - q) ∘ (e - q') and e - qq' themselves."""
    quot, images = bundle.algebra, bundle.images
    n, f, e = len(images), quot.field, quot.unit
    prods = quot.mul_rows(images, images)
    b = f.canon(e - images)
    lhs = f.canon((b[:, None] + b[None, :]).reshape(n * n, -1) - quot.mul_rows(b, b))
    return (np.array_equal(prods, images[table.reshape(-1)]),
            np.array_equal(lhs, f.canon(e - prods)) and np.array_equal(lhs, b[table.reshape(-1)]))


def blocked_product_checks(bundle, table):
    loop = SimpleNamespace(table=table, inverses=bundle.loop.inverses)
    checks = algebras.AlternativeLoopAlgebra.embedding_checks.func(
        dataclasses.replace(bundle, loop=loop))
    return checks[2], lf.circle_embedding(loop, bundle.field, bundle=bundle).ok


def product_row_bytes(quot, n, rows):
    """Bytes of a row of a product pass on ``quot``: its left operator, n
    products as ``contract`` makes them (float sum and quotient, int64) and
    ``rows`` int64 rows of width d."""
    d, s = quot.dim, quot.operators(quot.unit[None], "l").itemsize
    return d * d * s + n * d * (2 * s + 8) + rows * d * 8


# blocks of 7 left rows in embedding_checks and circle_embedding alike:
# 81 = 11 * 7 + 4 and 120 = 17 * 7 + 1 rows, so the last block is a short
# one on both loops; a swap in the table's last row is seen only there, and
# a corrupted image row in every block
@pytest.mark.parametrize("loop_name, p", [("cml81", 3), ("paige2", 2)])
def test_product_checks_across_blocks(request, monkeypatch, loop_name, p):
    bundle = lf.alternative_loop_algebra(lf.PrimeField(p), request.getfixturevalue(loop_name))
    n, table = bundle.loop.order, bundle.loop.table
    swapped = table.copy()
    swapped[n - 1, [1, 2]] = swapped[n - 1, [2, 1]]
    corrupt = bundle.images.copy()
    corrupt[n - 1, 0] = (corrupt[n - 1, 0] + 1) % p
    cases = [(bundle, table, True), (bundle, swapped, False),
             (dataclasses.replace(bundle, images=corrupt), table, False)]
    whole = [whole_product_checks(b, t) for b, t, _ in cases]
    assert whole == [(ok, ok) for _, _, ok in cases]
    assert bundle.algebra.block_rows(1) >= n          # one block at the real size
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 7 * product_row_bytes(bundle.algebra, n, n))
    assert bundle.algebra.block_rows(1, n, n) == 7
    assert [blocked_product_checks(b, t) for b, t, _ in cases] == whole


def run_embedding_checks(bundle, images, rows=None):
    """embedding_checks on ``bundle`` with its images replaced, optionally in
    blocks of ``rows`` left rows; also the rows it solved for an inverse, as
    tuples, in order."""
    calls, real = [], algebras.invert

    def counting(alg, u):
        calls.append(tuple(int(x) for x in u))
        return real(alg, u)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebras, "invert", counting)
        if rows is not None:
            n = len(images)
            mp.setattr(linalg, "BLOCK_BYTES", rows * product_row_bytes(bundle.algebra, n, n))
            assert bundle.algebra.block_rows(1, n, n) == rows
        checks = algebras.AlternativeLoopAlgebra.embedding_checks.func(
            dataclasses.replace(bundle, images=images))
    return checks, calls


def brute_embedding_checks(bundle, images):
    """Python-int oracle of embedding_checks on a quotient small enough to
    enumerate: every pair multiplied through the structure constants, every
    element of the quotient tried as an inverse.  Also the rows that are not
    two-sided: those of elements without a two-sided inverse in the loop,
    and those whose image of q^-1 is not a two-sided inverse of it."""
    quot, p, t, inv = bundle.algebra, bundle.field.p, bundle.loop.table, bundle.loop.inverses()
    consts = [(i, j, k, int(quot.c[i, j, k])) for i, j, k in zip(*np.nonzero(quot.c))]

    def mul(u, v):
        out = [0] * quot.dim
        for i, j, k, c in consts:
            out[k] += u[i] * v[j] * c
        return tuple(x % p for x in out)
    rows = [tuple(int(x) for x in r) for r in images]
    e, n = tuple(int(x) for x in quot.unit), len(rows)
    elems = list(itertools.product(range(p), repeat=quot.dim))
    checks = (len(set(rows)) == n,
              all(any(mul(u, v) == e == mul(v, u) for v in elems) for u in rows),
              all(mul(rows[a], rows[b]) == rows[t[a, b]] for a in range(n) for b in range(n)))
    not_two_sided = [rows[r] for r in range(n)
                     if inv[r] < 0 or not mul(rows[r], rows[inv[r]]) == e == mul(rows[inv[r]], rows[r])]
    return checks, not_two_sided


# a loop of order 5 in which 1, 2 and 3 have distinct left and right
# inverses and 4 is its own; beside C3 its alternative quotient is F[C3]
# (d = 3), the nine elements (x, c) with x in {1, 2, 3} have no two-sided
# inverse, and the last element (4, 2) has one, so a row read against
# images[-1] would meet an invertible image
NON_IP5 = [[0, 1, 2, 3, 4], [1, 3, 0, 4, 2], [2, 4, 1, 0, 3], [3, 0, 4, 2, 1], [4, 2, 3, 1, 0]]


@pytest.mark.parametrize("p", [2, 3])
def test_embedding_checks_on_a_non_ip_loop_match_brute_force(p):
    loop = lf.direct_product(lf.Loop(list("01234"), NON_IP5), lf.cyclic(3))
    assert (loop.inverses() == -1).sum() == 9
    bundle = lf.alternative_loop_algebra(lf.PrimeField(p), loop)
    assert bundle.dim == 3
    images, e = bundle.images, bundle.algebra.unit
    moved, in_omega = images.copy(), images.copy()
    moved[14] = images[1]                              # invertible, not q^-1's inverse
    in_omega[13] = (images[13] - e) % p                # coefficient sum 0: not invertible
    for imgs in (images, moved, in_omega):
        checks, solved = run_embedding_checks(bundle, imgs)
        want, not_two_sided = brute_embedding_checks(bundle, imgs)
        assert checks == want
        # exactly the rows without a two-sided inverse are solved for one,
        # until one fails; a row whose one-sided inverses differ is read as
        # itself, never against images[-1]
        assert solved == not_two_sided[:len(solved)]
        assert len(solved) == len(not_two_sided) or not checks[1]
    assert brute_embedding_checks(bundle, in_omega)[0][1] is False


def test_embedding_checks_read_inverses_across_blocks(cml81_gf3):
    # blocks of 7 left rows: row 80 and its inverse fall in different blocks
    bundle, n = cml81_gf3, cml81_gf3.loop.order
    inv, images, e = bundle.loop.inverses(), bundle.images, bundle.algebra.unit
    r = n - 1
    assert inv[r] // 7 != r // 7
    doubled, in_omega = images.copy(), images.copy()
    doubled[r] = images[r] * 2 % 3                     # invertible, not q^-1's inverse
    in_omega[r] = (images[r] - e) % 3                  # not invertible
    # (images, the three checks, the rows solved for an inverse in order)
    cases = [(images, (True, True, True), []),
             (doubled, (True, True, False), [doubled[inv[r]], doubled[r]]),
             (in_omega, (True, False, False), [in_omega[inv[r]], in_omega[r]])]
    for imgs, want, solved_rows in cases:
        whole = run_embedding_checks(bundle, imgs)
        assert whole == (want, [tuple(int(x) for x in row) for row in solved_rows])
        assert run_embedding_checks(bundle, imgs, rows=7) == whole


# every per-call temporary of these checks is bounded by a block budget, not
# by n^2 d or samples x d, which on the d = 54 bundle would take 9-14 MiB
CHECK_PEAK_BYTES = 6 * 2**20
# a cold bundle build (its closures' image chunks; the alternator scan stops
# at the ceiling here) and the power sequence of omega peaked at 3.24 and
# 4.63 MiB before the byte budget; their bounds round those up to 0.1 MiB
BUILD_PEAK_BYTES = {"cold_bundle": 3.3 * 2**20, "nilpotency_index": 4.7 * 2**20}


def tracemalloc_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_peaks_on_cml81_gf3(cml81, cml81_gf3):
    bundle = cml81_gf3
    quot, omega = bundle.algebra, bundle.omega
    checks = {
        "alternative_check": lambda: lf.alternative_check(quot, mode="sampled", samples=10**4),
        "circle_iso_check": lambda: lf.circle_iso_check(quot, omega, samples=10**4),
        "circle_embedding": lambda: lf.circle_embedding(cml81, bundle.field, bundle=bundle),
        "embedding_checks": lambda: algebras.AlternativeLoopAlgebra.embedding_checks.func(bundle),
        "group_type_radical": lambda: lf.group_type_radical(lf.Loop(cml81.names, cml81.table)),
        "cold_bundle": lambda: lf.alternative_loop_algebra(bundle.field,
                                                           lf.Loop(cml81.names, cml81.table)),
        "nilpotency_index": lambda: lf.nilpotency_index(omega, quot),
    }
    lf.alternative_check(quot, mode="sampled", samples=10)   # numpy.random, imported once
    peaks = {name: tracemalloc_peak(check) for name, check in checks.items()}
    assert {name: peak for name, peak in peaks.items()
            if peak > BUILD_PEAK_BYTES.get(name, CHECK_PEAK_BYTES)} == {}


def test_sampled_check_peaks_do_not_depend_on_the_stage_type(cml81):
    # on the cml81 quotient (d = 27) the stages run in float32 over GF(7) and
    # in float64 over GF(31); a block holds the same bytes, half the rows
    peaks = {}
    for p, dtype in ((7, np.float32), (31, np.float64)):
        quot = lf.alternative_loop_algebra(lf.PrimeField(p), cml81).algebra
        assert quot.dim == 27 and quot.operators(quot.unit[None], "l").dtype == dtype
        lf.alternative_check(quot, mode="sampled", samples=10)
        peaks[p] = tracemalloc_peak(
            lambda: lf.alternative_check(quot, mode="sampled", samples=10**4))
    assert max(peaks.values()) <= 1.1 * min(peaks.values()), peaks


def test_every_block_site_in_small_blocks_gives_the_default_results(monkeypatch, cml81,
                                                                   cml81_gf3):
    # BLOCK_BYTES at 2^15 puts every blocked pass in many blocks on the
    # cml81/GF(3) bundle: one or two rows of operators or products, draws of
    # 4,096 entries, label chunks of four rows, one pair per alternator-scan
    # block, triple-scan blocks of 16 y rows, blocks of 16 x rows for Light's
    # test and the IP and commutativity checks, multiplicative closures in
    # chunks of 12 or more rows; the ideal closures take image chunks of 25
    # rows
    def run(bundle):
        quot, omega = bundle.algebra, bundle.omega
        return (bundle.alternator.basis_matrix().tolist(), bundle.images.tolist(),
                omega.basis_matrix().tolist(),
                lf.alternative_check(quot, mode="sampled", samples=300).to_json(),
                lf.alternative_check(quot, mode="exhaustive").to_json(),
                lf.circle_iso_check(quot, omega, samples=300).to_json(),
                lf.circle_embedding(cml81, bundle.field, bundle=bundle).to_json(),
                algebras.AlternativeLoopAlgebra.embedding_checks.func(bundle),
                lf.group_type_radical(lf.Loop(cml81.names, cml81.table)).members,
                [s.members for s in lf.loops._element_closures(lf.Loop(cml81.names, cml81.table))],
                lf.loops._generators(lf.Loop(cml81.names, cml81.table)),
                lf.check_properties(lf.Loop(cml81.names, cml81.table)).to_json())
    default = run(cml81_gf3)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 2**15)
    monkeypatch.setattr(linalg, "IMAGE_CHUNK_ENTRIES", 2**11)
    quot = cml81_gf3.algebra
    assert (quot.block_rows(4), quot.block_rows(1, 81, 81), quot.block_rows(1, 3, 4)) == (1, 1, 2)
    assert lf.loops._label_rows(81) == 4 and len(lf.loops._row_blocks(81)) == 6
    assert run(lf.alternative_loop_algebra(cml81_gf3.field, lf.Loop(cml81.names, cml81.table))) \
        == default


def test_verdicts_leave_numpy_random_unimported():
    # nothing is sampled in these verdicts; alternator_ideal's seed pairs
    # come from the stdlib's generator
    code = ("import sys, loopforge as lf\n"
            "lf.embeddability(lf.cml81(), lf.PrimeField(3))\n"
            "lf.wedderburn_report(lf.s3(), lf.PrimeField(7))\n"
            "print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(lf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
