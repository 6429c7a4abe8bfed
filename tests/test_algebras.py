import functools
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopforge as lf
from loopforge import algebras, linalg
from loopforge.algebras import (
    associative_check_sampled,
    enumerate_carrier,
    is_quasiregular_element,
)
from loopforge.errors import (
    DimensionBoundExceeded,
    IdealNotProper,
    IdealNotStable,
    NotNil,
    NotQuasiregular,
    SidedInverseMismatch,
    UnsupportedRadical,
)
from loopforge.linalg import span_rows


def assoc_vec(loop, a, b, c):
    """The associator (e_a, e_b, e_c) in ZQ, straight from the Cayley table."""
    t = loop.table
    v = np.zeros(loop.order, dtype=np.int64)
    v[t[t[a, b], c]] += 1
    v[t[a, t[b, c]]] -= 1
    return v


def naive_alternator_ideal(loop, p):
    """Independent: dense elimination over GF(p), no symmetry shortcuts."""
    n, t = loop.order, loop.table

    assoc = functools.partial(assoc_vec, loop)
    basis = []

    def add(v):
        v = v.copy() % p
        for b in basis:
            lead = np.flatnonzero(b)[0]
            if v[lead]:
                v = (v - v[lead] * pow(int(b[lead]), -1, p) * b) % p
        if v.any():
            basis.append(v)
            return True
        return False

    for a in range(n):
        for b in range(n):
            for c in range(n):
                add((assoc(a, b, c) + assoc(b, a, c)) % p)
                add((assoc(a, b, c) + assoc(a, c, b)) % p)
                add(assoc(a, a, c) % p)
                add(assoc(c, a, a) % p)
    changed = True
    while changed:
        changed = False
        for b in list(basis):
            for g in range(n):
                left = np.zeros(n, dtype=np.int64)
                left[t[g]] = b
                right = np.zeros(n, dtype=np.int64)
                right[t[:, g]] = b
                if add(left):
                    changed = True
                if add(right):
                    changed = True
    return span_rows(lf.PrimeField(p), n, np.asarray(basis, dtype=np.int64).reshape(-1, n))


# -- loop algebras ------------------------------------------------------------

def test_loop_algebra_basics():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    assert alg.dim == 3
    g = alg.basis_vec(1)
    assert np.array_equal(alg.mul(alg.unit, g), g)
    assert np.array_equal(alg.mul(g, alg.basis_vec(2)), alg.basis_vec(0))


def test_char2_square():
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    n = f2.vector([1, 1])
    assert not alg.mul(n, n).any()


def test_associator_with_unit_vanishes(cml81):
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, cml81)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, 81)
    b = rng.integers(0, 3, 81)
    assert not alg.associator(alg.unit, a, b).any()
    assert not alg.associator(a, alg.unit, b).any()


def test_associator_in_group_algebra_vanishes():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    for i, j, k in product(range(3), repeat=3):
        assert not alg.associator(alg.basis_vec(i), alg.basis_vec(j), alg.basis_vec(k)).any()


def test_nonassociative_loop_gives_nonzero_associator(cml81):
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, cml81)
    assert alg.associator(alg.basis_vec(27), alg.basis_vec(9), alg.basis_vec(3)).any()


def test_mul_rows_matches_mul():
    f5 = lf.PrimeField(5)
    alg = lf.loop_algebra(f5, lf.s3())
    rng = np.random.default_rng(11)
    a = rng.integers(0, 5, size=(3, 6), dtype=np.int64)
    b = rng.integers(0, 5, size=(4, 6), dtype=np.int64)
    prods = alg.mul_rows(a, b).reshape(3, 4, 6)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(prods[i, j], alg.mul(a[i], b[j]))
    pair = alg.mul_pairwise(a[:3], b[:3])
    for i in range(3):
        assert np.array_equal(pair[i], alg.mul(a[i], b[i]))


# -- exactness at the modulus cap ----------------------------------------------

P_CAP = 1048573   # largest prime <= 2^20, the PrimeField cap
GF_CAP = lf.PrimeField(P_CAP)


# an unreduced Kronecker row of 8-dim operands has 64 terms of up to (p-1)^2,
# and 64 (p-1)^3 > 2^53: the kernel must split it into float64 blocks
P_MID = 65521
GF_MID = lf.PrimeField(P_MID)


def cap_rows(n, p=P_CAP):
    entry = st.integers(0, p - 1) | st.just(p - 1)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=3, max_size=3)


def assert_products(alg, a, b, expected):
    """mul_rows and mul_pairwise of alg against expected(u, v) on every pair."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    rows = alg.mul_rows(a, b).reshape(len(a), len(b), alg.dim)
    pair = alg.mul_pairwise(a, b)
    for i in range(len(a)):
        assert pair[i].tolist() == list(expected(a[i], b[i]))
        for j in range(len(b)):
            assert rows[i, j].tolist() == list(expected(a[i], b[j]))


def tensor_oracle(c, p=P_CAP):
    """Python-int product from structure constants c[i][j][k]; exact
    Fractions, with no reduction, when p is None."""
    c = c.tolist()
    n = len(c)

    def oracle(u, v):
        u, v = u.tolist(), v.tolist()
        out = [sum(u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n))
               for k in range(n)]
        return out if p is None else [x % p for x in out]
    return oracle


@given(cap_rows(16), cap_rows(16))
@settings(max_examples=25, deadline=None)
def test_loop_algebra_exact_at_cap(a, b):
    alg = lf.loop_algebra(GF_CAP, lf.cyclic(16))
    t = alg.loop.table.tolist()

    def oracle(u, v):
        out = [0] * 16
        for i, x in enumerate(u.tolist()):
            for j, y in enumerate(v.tolist()):
                out[t[i][j]] += x * y
        return [o % P_CAP for o in out]
    assert_products(alg, a, b, oracle)


@given(cap_rows(8), cap_rows(8))
@settings(max_examples=25, deadline=None)
def test_zorn_algebra_exact_at_cap(a, b):
    z = lf.zorn_algebra(GF_CAP)
    assert_products(z, a, b, tensor_oracle(z.c))


@functools.cache
def chein12_at_cap():
    return lf.alternative_loop_algebra(GF_CAP, lf.chein12())


@given(cap_rows(4), cap_rows(4))
@settings(max_examples=25, deadline=None)
def test_quotient_algebra_exact_at_cap(a, b):
    bundle = chein12_at_cap()
    quot, fq = bundle.algebra, bundle.fq
    assert quot.dim == 4

    # the lift-multiply-project path through FQ is the reference
    def oracle(u, v):
        return quot.project_rows(fq.mul_rows(quot.lift_rows(u), quot.lift_rows(v)))[0].tolist()
    assert_products(quot, a, b, oracle)
    assert_products(quot, a, b, tensor_oracle(quot.c))


@given(cap_rows(8, P_MID), cap_rows(8, P_MID))
@settings(max_examples=25, deadline=None)
def test_zorn_algebra_exact_in_split_blocks(a, b):
    z = lf.zorn_algebra(GF_MID)
    assert_products(z, a, b, tensor_oracle(z.c, P_MID))


def test_dense_tensor_exact_in_split_blocks():
    # the Zorn and quotient tensors above are sparse, so their sums stay far
    # below 2^53; constants and operands near p-1 make every Kronecker sum
    # about 64 (p-1)^3 ~ 2^54, exact only blockwise
    rng = np.random.default_rng(P_MID)
    alg = algebras.TensorAlgebra(GF_MID, rng.integers(P_MID - 64, P_MID, size=(8, 8, 8)),
                                 [f"x{i}" for i in range(8)])
    a = rng.integers(P_MID - 64, P_MID, size=(3, 8))
    b = rng.integers(P_MID - 64, P_MID, size=(3, 8))
    assert_products(alg, a, b, tensor_oracle(alg.c, P_MID))


@functools.cache
def chein12_x_c2_mid():
    return lf.alternative_loop_algebra(GF_MID, lf.direct_product(lf.chein12(), lf.cyclic(2)))


@given(cap_rows(8, P_MID), cap_rows(8, P_MID))
@settings(max_examples=25, deadline=None)
def test_quotient_algebra_exact_in_split_blocks(a, b):
    bundle = chein12_x_c2_mid()
    quot, fq = bundle.algebra, bundle.fq
    assert quot.dim == 8

    def oracle(u, v):
        return quot.project_rows(fq.mul_rows(quot.lift_rows(u), quot.lift_rows(v)))[0].tolist()
    assert_products(quot, a, b, oracle)
    assert_products(quot, a, b, tensor_oracle(quot.c, P_MID))


@functools.cache
def chein12_quotient(field):
    return lf.alternative_loop_algebra(field, lf.chein12()).algebra


@pytest.mark.parametrize("name, p", [("zorn", 3), ("zorn", P_MID), ("zorn", P_CAP),
                                     ("chein12", 7), ("chein12", None)])
def test_mul_rows_both_orders(name, p):
    # mul_rows applies the left operators of a to all of b, whichever operand
    # is the shorter; the multiplication matrices contract the identity
    # through u's left or right operator
    field = lf.QQ if p is None else lf.PrimeField(p)
    alg = lf.zorn_algebra(field) if name == "zorn" else chein12_quotient(field)
    rng = np.random.default_rng(p or 0)

    def rows(k):
        if p is None:
            frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])
            return frac(rng.integers(-9, 10, size=(k, alg.dim)), rng.integers(1, 6, size=(k, alg.dim)))
        return rng.integers(0, p, size=(k, alg.dim))
    oracle = tensor_oracle(alg.c, p)
    for ka, kb in ((5, 2), (3, 3), (2, 5), (alg.dim, 1), (1, alg.dim)):
        a, b = rows(ka), rows(kb)
        got = alg.mul_rows(a, b).reshape(ka, kb, alg.dim)
        for i in range(ka):
            for j in range(kb):
                assert got[i, j].tolist() == oracle(a[i], b[j]), (ka, kb, i, j)
    u = rows(1)[0]
    left, right = algebras.left_mult_matrix(alg, u), algebras.right_mult_matrix(alg, u)
    for j in range(alg.dim):
        e = alg.basis_vec(j)
        assert left[:, j].tolist() == oracle(u, e)
        assert right[:, j].tolist() == oracle(e, u)


# -- the two product stages at each switch of their bound ---------------------------

def rows_oracle(c, p):
    """tensor_oracle on every row pair at once, in Python ints (object arrays);
    zero constants are skipped, and nothing is reduced when p is None."""
    c = c.tolist()
    d = len(c)

    def oracle(a, b):
        a, b = a.astype(object), b.astype(object)
        cols = [sum((a[:, i] * b[:, j] * c[i][j][k] for i in range(d) for j in range(d)
                     if c[i][j][k]), np.zeros(len(a), dtype=object)) for k in range(d)]
        out = np.stack(cols, axis=1)
        return out if p is None else out % p
    return oracle


def top_rows(rng, p, shape):
    # entries near p-1 of both parities: an odd sum above 2^24 (2^53) is not
    # a float32 (float64), while sums of powers of two would survive the cast
    return rng.integers(p - 4, p, size=shape)


# d^2 (p-1)^3 below and at each switch: 2^24 (float32 | float64) and 2^53
# (float64 | reduce u = a.C mod p first); 129 is not prime, so 127 sits at
# the same switch, and 157 | 163 are the last and first d = 2 primes either
# side of it (only all-(p-1) operands reach 2^24 at 163, so no narrow guard)
@pytest.mark.parametrize("p, d, limit, over, narrow", [
    (127, 2, 2**24, False, None), (157, 2, 2**24, False, None),
    (163, 2, 2**24, True, None), (127, 3, 2**24, True, np.float32),
    (65521, 5, 2**53, False, None), (65521, 6, 2**53, True, np.float64)])
def test_pairwise_exact_at_each_switch(p, d, limit, over, narrow):
    assert (d * d * (p - 1)**3 >= limit) == over
    rng = np.random.default_rng(p * d)
    f = lf.PrimeField(p)
    alg = algebras.TensorAlgebra(f, top_rows(rng, p, (d, d, d)), [f"x{i}" for i in range(d)])
    oracle = rows_oracle(alg.c, p)
    for k in (0, 1, 12):
        a, b = top_rows(rng, p, (k, d)), top_rows(rng, p, (k, d))
        got = alg.mul_pairwise(a, b)
        assert got.shape == (k, d) and got.tolist() == oracle(a, b).tolist()
    # operands far outside 0..p-1 are reduced before the float stages
    assert np.array_equal(alg.mul_pairwise(a - p * 2**20, b + p * 2**20), got)
    assert_products(alg, a[:3], b[:3], tensor_oracle(alg.c, p))
    # each stage against Python ints: u = a.C exact in the stage type (mod p
    # above 2^53), then b[r].u[r] reduced to canonical values in float
    cmat = alg.c.reshape(d, d * d)
    u = f.operators(a, f.stage_operand(cmat))
    exact = a.astype(object) @ cmat.astype(object)
    assert u.dtype == (np.float64 if over or limit == 2**53 else np.float32)
    assert u.astype(np.int64).tolist() == (exact % p if limit == 2**53 and over else exact).tolist()
    z = np.stack([b, a], axis=1)                  # two rows per operator
    w = f.contract(z, u.reshape(-1, d, d))
    assert w.dtype == np.int64
    assert w.tolist() == (np.matmul(z.astype(object), exact.reshape(-1, d, d)) % p).tolist()
    if narrow is not None:
        # the narrower type's two stages, unreduced, round some of these sums
        un = np.matmul(a.astype(narrow), cmat.astype(narrow)).reshape(-1, d, d)
        wrong = np.matmul(b.astype(narrow)[:, None], un)[:, 0].astype(np.int64) % p
        assert (wrong != oracle(a, b)).any()


# the reduction w - p floor(w / p) of ``contract`` on the largest sums of each
# float type, just below its switch (2^24 | 2^53), against Python ints
@pytest.mark.parametrize("p, dtype, top", [
    (2, np.float32, 2**24), (3, np.float32, 2**24), (157, np.float32, 2**24),
    (4093, np.float32, 2**24), (65521, np.float64, 2**53), (P_CAP, np.float64, 2**53)])
def test_contract_reduces_exactly_below_each_switch(p, dtype, top):
    rng = np.random.default_rng(p)
    w = np.concatenate([np.arange(top - 2**12, top), rng.integers(0, top, 2**12),
                        np.arange(2**12) * p, np.arange(2**12) * p - 1])
    w = w[w >= 0]
    assert w.max() == top - 1 and np.array_equal(w.astype(dtype).astype(np.int64), w)
    got = lf.PrimeField(p).contract(np.ones((len(w), 1, 1), dtype=np.int64),
                                    w.astype(dtype).reshape(-1, 1, 1))
    assert got.dtype == np.int64 and got.ravel().tolist() == [x % p for x in w.tolist()]


@pytest.mark.parametrize("p", [127, 65521, P_CAP])   # float32, float64, reduce-first at d = 2
def test_pairwise_one_row_past_the_chunk_step(p):
    d = 2
    rng = np.random.default_rng(p)
    alg = algebras.TensorAlgebra(lf.PrimeField(p), top_rows(rng, p, (d, d, d)), ["x0", "x1"])
    step = alg.block_rows(1)
    assert step == linalg.BLOCK_BYTES // (d * d * stage_bytes(alg))
    a, b = top_rows(rng, p, (step + 1, d)), top_rows(rng, p, (step + 1, d))
    assert np.array_equal(alg.mul_pairwise(a, b), rows_oracle(alg.c, p)(a, b))


def zorn_sum(field, copies=8):
    """The direct sum of ``copies`` Zorn algebras, one 8 x 8 x 8 block each."""
    d = 8 * copies
    c = field.zeros((d, d, d))
    for s in range(0, d, 8):
        c[s:s + 8, s:s + 8, s:s + 8] = lf.zorn_algebra(field).c
    return algebras.TensorAlgebra(field, c, [f"x{i}" for i in range(d)])


def stage_bytes(alg):
    """Bytes of one entry of ``alg``'s stage-1 operators."""
    return alg.operators(alg.field.zeros((1, alg.dim)), "l").itemsize


def assert_products_past_blocks(alg, a, b, oracle):
    """mul_rows(a, b) and mul_pairwise(a, b') for b' = b repeated, against
    ``oracle``, a row-by-row product (``rows_oracle`` or ``rows_mul``)."""
    expected = oracle(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)))
    assert alg.mul_rows(a, b).tolist() == expected.tolist()
    b = np.resize(b, a.shape)
    assert alg.mul_pairwise(a, b).tolist() == oracle(a, b).tolist()


# d = 64, where a block holds 256 rows in float32 and 128 in float64, so 300
# rows of a cross a boundary (rows 255-257); at d = 64, d^2 (p-1)^3 crosses
# 2^24 between p = 13 (float32) and p = 17 (float64)
@pytest.mark.parametrize("p", [13, 17])
def test_products_across_a_block_boundary(p):
    alg = zorn_sum(lf.PrimeField(p))
    assert alg.block_rows(1) == {13: 256, 17: 128}[p]
    rng = np.random.default_rng(p)
    assert_products_past_blocks(alg, rng.integers(0, p, size=(300, 64)),
                                rng.integers(0, p, size=(2, 64)), rows_oracle(alg.c, p))


def test_products_across_a_block_boundary_over_q(monkeypatch):
    # 300 rows at d = 64 would take minutes of Fraction GEMM in stage 1
    # (300 * 64^3 products), so over Q the blocks shrink to 4 rows at d = 16
    alg = zorn_sum(lf.QQ, copies=2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 4 * 16**2 * stage_bytes(alg))
    assert alg.block_rows(1) == 4
    rng = np.random.default_rng(16)
    frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])
    a, b = (frac(rng.integers(-9, 10, size=(k, 16)), rng.integers(1, 6, size=(k, 16)))
            for k in (10, 2))
    assert_products_past_blocks(alg, a, b, rows_oracle(alg.c, None))


# at n = 120 a block holds 72 rows in float32 and 36 in float64, so 100 rows
# of a cross a boundary, and n^2 (p-1)^3 crosses 2^24 between p = 11
# (float32) and p = 13 (float64); paige2 is not commutative, so its two
# division tables differ
@pytest.mark.parametrize("p, dtype", [(11, np.float32), (13, np.float64),
                                      (P_CAP, np.float64)])
def test_fq_products_across_a_block_boundary(paige2, p, dtype):
    fq = lf.loop_algebra(lf.PrimeField(p), paige2)
    rows = 72 if dtype == np.float32 else 36
    assert fq.block_rows(1) == rows and fq.operators(fq.unit, "lr").dtype == dtype
    rng = np.random.default_rng(p)
    a, b = top_rows(rng, p, (100, 120)), top_rows(rng, p, (2, 120))
    assert_products_past_blocks(fq, a, b, rows_mul(fq))
    # operands far outside 0..p-1 are reduced before the gather
    assert np.array_equal(fq.mul_rows(a - p * 2**30, b + p * 2**30), fq.mul_rows(a, b))


def test_fq_products_across_a_block_boundary_over_q(monkeypatch, chein12):
    # a block at n = 12 holds 3,640 rows; Fractions are slow, so it shrinks to 4
    fq = lf.loop_algebra(lf.QQ, chein12)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 4 * 12**2 * stage_bytes(fq))
    assert fq.block_rows(1) == 4
    rng = np.random.default_rng(12)
    frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])
    a, b = (frac(rng.integers(-9, 10, size=(k, 12)), rng.integers(1, 6, size=(k, 12)))
            for k in (10, 2))
    assert_products_past_blocks(fq, a, b, rows_mul(fq))


@pytest.mark.parametrize("alg", [lf.zorn_algebra(lf.PrimeField(3)), lf.zorn_algebra(lf.QQ),
                                 lf.loop_algebra(lf.PrimeField(3), lf.s3())])
def test_mul_rows_of_empty_operands(alg):
    rows = alg.field.zeros((3, alg.dim))
    for a, b in ((rows[:0], rows), (rows, rows[:0])):
        assert alg.mul_rows(a, b).shape == (0, alg.dim)


def sides_oracle(alg):
    """``_sides`` built as C beside its (1, 0, 2) transpose in int64, then
    converted to the stage type."""
    d, c = alg.dim, alg.c
    return alg.field.stage_operand(np.concatenate(
        [c.reshape(d, d * d), c.transpose(1, 0, 2).reshape(d, d * d)], axis=1))


# the eight-Zorn sum either side of the 2^24 switch at d = 64 (float32 at
# p = 13, float64 at p = 17), Zorn over Q (Fractions) and a loop-backed quotient
@pytest.mark.parametrize("make, dtype", [
    (lambda request: zorn_sum(lf.PrimeField(13)), np.float32),
    (lambda request: zorn_sum(lf.PrimeField(17)), np.float64),
    (lambda request: lf.zorn_algebra(lf.QQ), object),
    (lambda request: request.getfixturevalue("cml81_gf3").algebra, np.float32),
], ids=["zorn8-13", "zorn8-17", "zorn-q", "cml81-gf3"])
def test_sides_matches_concatenation_oracle(request, make, dtype):
    alg = make(request)
    got, want = alg._sides, sides_oracle(alg)
    assert got.dtype == want.dtype == dtype and got.shape == (alg.dim, 2 * alg.dim**2)
    assert got.tolist() == want.tolist()


# _sides is written in its stage type: the peak of building it is its own
# 2 d^3 entries, where the int64 concatenation added 2 d^3 int64 entries
@pytest.mark.parametrize("p", [13, 17])
def test_sides_memory_peak(p):
    alg = zorn_sum(lf.PrimeField(p))
    tracemalloc.start()
    try:
        sides = alg._sides
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sides.size == 2 * 64**3 and peak < 1.05 * sides.nbytes, f"peak {peak / 2**20:.2f} MiB"


def tensor_action_cases():
    """(algebra, canonical rows, p or None, stage types or None): two Zorn
    summands over GF(5); d = 2 constants near p-1 in the float32, float64 and
    reduce-first stage types; d = 4 fractions over Q."""
    rng = np.random.default_rng(5)
    alg = zorn_sum(lf.PrimeField(5), copies=2)
    yield alg, rng.integers(0, 5, size=(4, alg.dim)), 5, (np.float32, False)
    for p, stages in ((127, (np.float32, False)), (65521, (np.float64, False)),
                      (P_CAP, (np.float64, True))):
        alg = algebras.TensorAlgebra(lf.PrimeField(p), top_rows(rng, p, (2, 2, 2)), ["x0", "x1"])
        yield alg, top_rows(rng, p, (4, 2)), p, stages
    frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])

    def fracs(shape):
        return frac(rng.integers(-9, 10, size=shape), rng.integers(1, 6, size=shape))
    yield algebras.TensorAlgebra(lf.QQ, fracs((4, 4, 4)), [f"x{i}" for i in range(4)]), \
        fracs((4, 4)), None, None


def test_tensor_actions_are_basis_products():
    # left action g is v -> e_g v and right action g is v -> v e_g, stage 2
    # on the two halves of the converted tensor, against Python ints
    for alg, rows, p, stages in tensor_action_cases():
        if stages is not None:
            assert alg.field._stages(alg.dim) == stages
        oracle = rows_oracle(alg.c, p)
        for g, (left, right) in enumerate(zip(alg.left_actions(), alg.right_actions())):
            e = np.repeat(alg.basis_vec(g)[None], len(rows), axis=0)
            assert left(rows).tolist() == oracle(e, rows).tolist()
            assert right(rows).tolist() == oracle(rows, e).tolist()
            assert np.array_equal(left(rows), alg.mul_rows(e[:1], rows))
            assert np.array_equal(right(rows), alg.mul_rows(rows, e[:1]))


def test_fq_actions_are_basis_products(chein12):
    # left action g is v -> e_g v and right action g is v -> v e_g; chein12
    # is not commutative, so the two division tables differ
    fq = lf.loop_algebra(lf.PrimeField(5), chein12)
    rows = np.random.default_rng(5).integers(0, 5, size=(4, fq.dim))
    for g, (left, right) in enumerate(zip(fq.left_actions(), fq.right_actions())):
        e = fq.basis_vec(g)[None]
        assert np.array_equal(left(rows), fq.mul_rows(e, rows))
        assert np.array_equal(right(rows), fq.mul_rows(rows, e))


def test_pairwise_over_q():
    rng = np.random.default_rng(7)
    frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])

    def fracs(shape):
        return frac(rng.integers(-9, 10, size=shape), rng.integers(1, 6, size=shape))
    d = 4
    alg = algebras.TensorAlgebra(lf.QQ, fracs((d, d, d)), [f"x{i}" for i in range(d)])
    oracle = tensor_oracle(alg.c, None)
    for k in (0, 1, 6):
        a, b = fracs((k, d)), fracs((k, d))
        got = alg.mul_pairwise(a, b)
        assert got.shape == (k, d)
        assert [row.tolist() for row in got] == [oracle(a[i], b[i]) for i in range(k)]


# -- sampled checks report the oracle's first failing sample ------------------------

def zorn_plus_3():
    """The Zorn algebra (alternative) over GF(3) plus n0 n0 = n1, n1 n0 = n2,
    whose alternator (x, x, y) = x_n0^2 y_n0 n2 fails on some vectors."""
    f3 = lf.PrimeField(3)
    c = np.zeros((11, 11, 11), dtype=np.int64)
    c[:8, :8, :8] = lf.zorn_algebra(f3).c
    c[8, 8, 9] = c[9, 8, 10] = 1
    return algebras.TensorAlgebra(f3, c, [f"x{i}" for i in range(11)])


def test_alternative_check_sampled_witness_matches_oracle():
    # the alternator fails on a fraction of the samples
    alg = zorn_plus_3()
    samples, seed = 30, 0
    got = lf.alternative_check(alg, mode="sampled", samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    xs, ys = (algebras._random_rows(alg.field, rng, samples, alg.dim) for _ in range(2))
    oracle = tensor_oracle(alg.c, 3)

    def mul(u, v):
        return np.asarray(oracle(u, v))

    def fails(x, y):
        xx = mul(x, x)
        return bool(((mul(xx, y) - mul(x, mul(x, y))) % 3).any()
                    or ((mul(y, xx) - mul(mul(y, x), x)) % 3).any())
    first = next(i for i in range(samples) if fails(xs[i], ys[i]))
    assert first > 0 and not got.ok and got.witness == (first,)


def per_basis_witness(alg):
    """(kind, witness) of the dense exhaustive check as a loop over basis pairs.

    For a = 0, 1, ...: the first b with (a,b,c) + (b,a,c) != 0 (kind 0),
    then (a,a,c) (kind 1), then (c,a,a) (kind 2), each at its least c;
    (None, None) when every alternator vanishes.
    """
    f, d = alg.field, alg.dim
    basis = algebras._eye(f, d)

    def assoc(x, y):        # (x, y, c) over every basis c
        return f.canon(alg.mul_rows(alg.mul(x, y), basis) - alg.mul_rows(x, alg.mul_rows(y, basis)))

    def first(rows):
        hit = np.flatnonzero((rows != 0).any(axis=1))
        return int(hit[0]) if hit.size else None
    for a in range(d):
        ea = basis[a]
        for b in range(d):
            c = first(f.canon(assoc(ea, basis[b]) + assoc(basis[b], ea)))
            if c is not None:
                return 0, (a, b, c)
        c = first(assoc(ea, ea))
        if c is not None:
            return 1, (a, a, c)
        c = first(f.canon(alg.mul_rows(alg.mul_rows(basis, ea), ea)
                          - alg.mul_rows(basis, alg.mul(ea, ea))))
        if c is not None:
            return 2, (c, a, a)
    return None, None


def sparse_tensor(p, d, s):
    """Seeded d-dimensional algebra over GF(p) with two or three nonzero
    structure constants (scripts/checks_golden.py records the same ones)."""
    rng = np.random.default_rng([p, d, s])
    k = 2 + s % 2
    c = np.zeros((d, d, d), dtype=np.int64)
    c[tuple(rng.integers(0, d, size=(k, 3)).T)] = rng.integers(1, p, size=k)
    return algebras.TensorAlgebra(lf.PrimeField(p), c, [f"x{i}" for i in range(d)])


def test_associator_tensor_witness_matches_per_basis_loop():
    algs = [lf.zorn_algebra(f) for f in (lf.PrimeField(2), lf.PrimeField(3), lf.QQ)]
    algs += [zorn_plus_3()]
    algs += [sparse_tensor(p, d, s) for p in (2, 3, 7) for d in (2, 3, 5, 8) for s in range(10)]
    kinds = set()
    for alg in algs:
        kind, witness = per_basis_witness(alg)
        got = lf.alternative_check(alg, mode="exhaustive")
        assert (got.ok, got.mode, got.witness) == (kind is None, "exhaustive", witness)
        kinds.add(kind)
    assert kinds == {None, 0, 1, 2}


def test_associative_check_sampled_witness_matches_oracle(cml81_gf3):
    quot = cml81_gf3.algebra
    samples, seed = 24, 5
    got = associative_check_sampled(quot, samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    xs, ys, zs = (algebras._random_rows(quot.field, rng, samples, quot.dim) for _ in range(3))
    # Python ints over the quotient's ~4,000 nonzero structure constants
    # (tensor_oracle would walk all 54^3 per product)
    nz = [(int(i), int(j), int(k), int(quot.c[i, j, k])) for i, j, k in zip(*np.nonzero(quot.c))]

    def mul(u, v):
        out = [0] * quot.dim
        for i, j, k, val in nz:
            out[k] += int(u[i]) * int(v[j]) * val
        return [x % 3 for x in out]
    fails = [mul(mul(x, y), z) != mul(x, mul(y, z)) for x, y, z in zip(xs, ys, zs)]
    kernel = (quot.mul_pairwise(quot.mul_pairwise(xs, ys), zs)
              != quot.mul_pairwise(xs, quot.mul_pairwise(ys, zs))).any(axis=1)
    assert kernel.tolist() == fails
    assert not got.ok and got.witness == (fails.index(True),)


# -- sampled checks across row blocks ------------------------------------------------

def matrices_beside(field, extra, unit=None):
    """The 2 x 2 matrices (E11, E12, E21, E22; E_ij E_jk = E_ik, associative
    and not commutative) beside further basis elements 4, 5, ..., whose
    nonzero products are ``extra``, a dict {(i, j): k}."""
    d = 1 + max(max(i, j, k) for (i, j), k in extra.items())
    c = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k in product(range(2), repeat=3):
        c[2 * i + j, 2 * j + k, 2 * i + k] = 1
    for (i, j), k in extra.items():
        c[i, j, k] = 1
    if not field.finite:
        c, unit = c.astype(object), None if unit is None else field.vector(unit)
    return algebras.TensorAlgebra(field, c, [f"x{i}" for i in range(d)], unit=unit)


def m2_plus_n(field):
    """Matrices beside n0, n1, n2 with n0 n0 = n1 and n1 n0 = n2: the
    associator is (x, y, z) = x_n0 y_n0 z_n0 n2, so a sample fails the
    alternative laws exactly when x_n0 y_n0 != 0, and associativity when
    x_n0 y_n0 z_n0 != 0."""
    return matrices_beside(field, {(4, 4): 5, (5, 4): 6})


def left_unit(field):
    """Matrices beside n0, n1 with E11 n = n, every other product with an n
    being 0: I = E11 + E22 is a left unit but n I = 0, so
    (I - a)(I - b) - (I - a∘b) = a - aI is the n-part of a."""
    return matrices_beside(field, {(0, 4): 4, (0, 5): 5}, unit=[1, 0, 0, 1, 0, 0])


# chunks of 2^16 int64 draws; k n = 3,711 * 53 is odd and spans four of
# them, the last short
@pytest.mark.parametrize("p, dtype", [(2, np.uint8), (251, np.uint8), (257, np.uint16),
                                      (65537, np.uint32), (P_CAP, np.uint32)])
def test_random_rows_store_the_int64_draw_narrow(monkeypatch, p, dtype):
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * 2**16)
    k, n = 3 * 2**16 // 53 + 2, 53
    assert (k * n) % 2 == 1 and 3 * 2**16 < k * n
    rng, ref = np.random.default_rng(p), np.random.default_rng(p)
    for _ in range(2):              # the second draw continues the same stream
        got = algebras._random_rows(lf.PrimeField(p), rng, k, n)
        assert got.dtype == dtype == np.min_scalar_type(p - 1)
        assert np.array_equal(got, ref.integers(0, p, size=(k, n), dtype=np.int64))


def test_random_rows_over_q_stay_fractions():
    got = algebras._random_rows(lf.QQ, np.random.default_rng(3), 5, 7)
    raw = np.random.default_rng(3).integers(-9, 10, size=(5, 7))
    assert got.dtype == object and {type(x) for x in got.ravel()} == {Fraction}
    assert got.tolist() == [[Fraction(int(x)) for x in row] for row in raw]


RANDOM_ROWS = algebras._random_rows


def plant(monkeypatch, cols, planted):
    """Every draw of a sampled check has 0 in ``cols`` except at the rows
    ``planted``, where the first of them is 1; the rng draws as before."""
    def edited(field, rng, k, n):
        out = RANDOM_ROWS(field, rng, k, n)
        rest = np.setdiff1d(np.arange(k), planted)
        out[np.ix_(rest, cols)] = field.zero
        out[planted, cols[0]] = field.one
        return out
    monkeypatch.setattr(algebras, "_random_rows", edited)


def rows_mul(alg):
    """Row-by-row products in Python ints (Fractions over Q), all rows at
    once, from the nonzero structure constants or the Cayley table."""
    if isinstance(alg, algebras.TensorAlgebra):
        consts = [(i, j, k, alg.c[i, j, k]) for i, j, k in zip(*np.nonzero(alg.c))]
    else:
        t = alg.loop.table
        consts = [(i, j, int(t[i, j]), 1) for i in range(alg.dim) for j in range(alg.dim)]
    consts = [(i, j, k, c if isinstance(c, Fraction) else int(c)) for i, j, k, c in consts]

    def mul(u, v):
        u, v = np.asarray(u).astype(object), np.asarray(v).astype(object)
        out = np.zeros(u.shape, dtype=object)
        for i, j, k, c in consts:
            out[:, k] += u[:, i] * v[:, j] * c
        return out % alg.field.p if alg.field.finite else out
    return mul


def oracle_witness(alg, check, samples, seed):
    """The first failing sample of ``check``, all samples at once, or None."""
    rng, mul = np.random.default_rng(seed), rows_mul(alg)
    if check == "alternative":
        x, y = (algebras._random_rows(alg.field, rng, samples, alg.dim) for _ in range(2))
        xx = mul(x, x)
        fails = ((mul(xx, y) != mul(x, mul(x, y))).any(axis=1)
                 | (mul(mul(y, x), x) != mul(y, xx)).any(axis=1))
    else:
        x, y, z = (algebras._random_rows(alg.field, rng, samples, alg.dim) for _ in range(3))
        fails = (mul(mul(x, y), z) != mul(x, mul(y, z))).any(axis=1)
    return int(np.flatnonzero(fails)[0]) if fails.any() else None


def run_check(alg, check, samples, seed):
    if check == "alternative":
        return lf.alternative_check(alg, mode="sampled", samples=samples, seed=seed)
    return associative_check_sampled(alg, samples=samples, seed=seed)


# blocks of a few rows (a small BLOCK_BYTES) or of the real size; over Q
# only the few-row blocks, as Fraction products are slow
@pytest.mark.parametrize("spec, blocks", [("gf:3", "few"), ("gf:3", "real"), ("q", "few")])
@pytest.mark.parametrize("check, operators", [("alternative", 4), ("associative", 2)])
def test_sampled_witness_across_blocks(monkeypatch, check, operators, spec, blocks):
    alg = m2_plus_n(lf.field_from_spec(spec))
    row_bytes = operators * alg.dim**2 * stage_bytes(alg)
    if blocks == "few":
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 3 * row_bytes)
    step = alg.block_rows(operators)
    assert step == (3 if blocks == "few" else 4 * 2**20 // row_bytes)
    samples, seed = 2 * step + 2, 3                 # the last block holds two rows
    for planted in ([samples - 1], [0, samples - 1], []):
        plant(monkeypatch, [4], planted)
        got = run_check(alg, check, samples, seed)
        first = oracle_witness(alg, check, samples, seed)
        assert first == (planted[0] if planted else None)
        assert (got.ok, got.witness) == (first is None, None if first is None else (first,))


@pytest.mark.parametrize("check", ["alternative", "associative"])
def test_sampled_witness_on_fq_matches_oracle(monkeypatch, chein12, check):
    # FQ's operators are table gathers, in blocks of 3 rows here, so the 20
    # samples cross six block boundaries; samples supported on the group
    # generated by two elements pass, as its group algebra is associative
    fq = lf.loop_algebra(lf.PrimeField(3), chein12)
    operators = 4 if check == "alternative" else 2
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 3 * operators * fq.dim**2 * stage_bytes(fq))
    group = lf.loops.subloop_generated(chein12, [1, 2]).members
    outside = [i for i in range(fq.dim) if i not in group]
    assert fq.block_rows(operators) == 3 and 1 < len(group) < fq.dim
    samples, seed = 20, 5
    for planted in ([samples - 1], [0], []):
        plant(monkeypatch, outside, planted)
        got = run_check(fq, check, samples, seed)
        first = oracle_witness(fq, check, samples, seed)
        assert first == (planted[0] if planted else None)
        assert (got.ok, got.witness) == (first is None, None if first is None else (first,))


def circle_iso_row_bytes(alg):
    """Bytes of a pair of ``circle_iso_check``: L_a, three products as
    ``contract`` makes them (float sum and quotient, int64) and four int64
    rows."""
    d, s = alg.dim, stage_bytes(alg)
    return d * d * s + 3 * d * (2 * s + 8) + 4 * d * 8


@pytest.mark.parametrize("spec, blocks", [("gf:3", "few"), ("gf:3", "real"), ("q", "few")])
def test_circle_iso_sampled_across_blocks(monkeypatch, spec, blocks):
    f = lf.field_from_spec(spec)
    alg = left_unit(f)
    carrier = span_rows(f, alg.dim, algebras._eye(f, alg.dim))
    if blocks == "few":
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 3 * circle_iso_row_bytes(alg))
    step = alg.block_rows(1, 3, 4)
    assert step == 3 if blocks == "few" else step > 3
    samples, seed = 2 * step + 2, 4
    mul, e = rows_mul(alg), alg.unit.astype(object)
    for planted in ([samples - 1], [0], []):
        plant(monkeypatch, [4, 5], planted)
        got = lf.circle_iso_check(alg, carrier, samples=samples, seed=seed)
        rng = np.random.default_rng(seed)
        a, b = (algebras._random_rows(f, rng, samples, alg.dim).astype(object)
                @ carrier.basis_matrix().astype(object) for _ in range(2))
        lhs, rhs = mul(e - a, e - b), e - (a + b - mul(a, b))
        fails = ((lhs - rhs) % f.p if f.finite else lhs - rhs).any(axis=1)
        assert fails.tolist() == [r in planted for r in range(samples)]
        assert (got.mode, got.pairs, got.eta_ok, got.phi_ok) == ("sampled", samples, not planted,
                                                                 True)


def test_circle_iso_sampled_on_fq_matches_oracle(chein12):
    fq = lf.loop_algebra(lf.PrimeField(3), chein12)
    omega = lf.augmentation_ideal(fq)
    got = lf.circle_iso_check(fq, omega, samples=30, seed=6)
    rng, mul = np.random.default_rng(6), rows_mul(fq)
    a, b = (algebras._random_rows(fq.field, rng, 30, omega.dim) @ omega.basis_matrix()
            for _ in range(2))
    e = fq.unit
    assert not ((mul(e - a, e - b) - (e - (a + b - mul(a, b)))) % 3).any()
    assert (got.ok, got.mode, got.pairs) == (True, "sampled", 30)


# -- alternator ideal -----------------------------------------------------------

def test_alternator_ideal_matches_naive_oracle(chein12):
    for p in (2, 3, 7):
        fast = lf.alternator_ideal(lf.loop_algebra(lf.PrimeField(p), chein12))
        assert fast == naive_alternator_ideal(chein12, p)


# tracemalloc peaks of a second, warm build, 1.25x those of the row-list
# Subspace (2.06 and 8.29 MiB measured this way): the closure's image chunks
# must stay small next to the alternator scan
@pytest.mark.parametrize("loop_name, p, bound_mib", [("paige2", 11, 2.58), ("cml81", 3, 10.36)])
def test_bundle_build_memory_peak(request, loop_name, p, bound_mib):
    loop, f = request.getfixturevalue(loop_name), lf.PrimeField(p)
    lf.alternative_loop_algebra(f, loop)        # fills the loop's lazy tables
    tracemalloc.start()
    try:
        lf.alternative_loop_algebra(f, loop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_alternator_ideal_from_lifts_only(monkeypatch, chein12, cml81):
    # with no seed pairs every generator comes from lifting quotient failures
    cases = [(chein12, lf.PrimeField(3)), (chein12, lf.PrimeField(7)),
             (chein12, lf.QQ), (cml81, lf.PrimeField(3))]
    seeded = [lf.alternator_ideal(lf.loop_algebra(f, loop)) for loop, f in cases]
    assert all(ideal.dim for ideal in seeded)
    monkeypatch.setattr(algebras, "ALTERNATOR_SEED_PAIRS", 0)
    for (loop, f), want in zip(cases, seeded):
        alg = lf.loop_algebra(f, loop)
        tracemalloc.start()
        try:
            got = lf.alternator_ideal(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
    assert peak < 100 * 2**20      # the cml81 run: lifted failures are streamed


def assert_canonical_half(scanned, expected):
    """The scan yields, in order, exactly the failures with a <= b in family
    0 and b <= c in family 1; their symmetric partners give every failure
    of the full scan, and the first failure is the full scan's first."""
    canonical = [(fam, a, b, c) for fam, a, b, c in expected
                 if (fam != 0 or a <= b) and (fam != 1 or b <= c)]
    assert scanned == canonical
    partners = {(0, b, a, c) if fam == 0 else (1, a, c, b) if fam == 1 else (fam, a, b, c)
                for fam, a, b, c in scanned}
    assert set(scanned) | partners == set(expected)
    assert len(scanned) < len(expected)
    assert scanned[0] == expected[0]


def test_alternator_scan_matches_table(order5):
    # order5 is not left alternative, so the diagonal families fail too (in
    # characteristic 2 they are the only witnesses of (a,a,c) != 0)
    loop = order5
    n = loop.order
    for p in (2, 3):
        f = lf.PrimeField(p)
        eye, elems = np.eye(n, dtype=np.int64), np.arange(n)
        failures = algebras._alternator_failures(loop.table, eye, elems, f)
        scanned = [(fam, int(a), int(b), int(c))
                   for fam, *abc in failures for a, b, c in zip(*abc)]
        forms = [lambda a, b, c: assoc_vec(loop, a, b, c) + assoc_vec(loop, b, a, c),
                 lambda a, b, c: assoc_vec(loop, a, b, c) + assoc_vec(loop, a, c, b),
                 lambda a, b, c: assoc_vec(loop, a, a, c),
                 lambda a, b, c: assoc_vec(loop, c, a, a)]
        expected = [(fam, a, b, c) for fam, form in enumerate(forms)
                    for a, b, c in product(range(n), repeat=3)
                    if (fam < 2 or a == b) and (form(a, b, c) % p).any()]
        assert {fam for fam, *_ in expected} == {0, 1, 2, 3}
        assert_canonical_half(scanned, expected)


def test_alternator_scan_int32_matches_int64_at_cap(chein12):
    # image rows near p-1 at the modulus cap: every pair sum wraps mod p
    # before the scan compares its class, and every failure, and so the first
    # one, equals the one found on the alternators themselves in int64
    loop, n = chein12, chein12.order
    img = np.random.default_rng(P_CAP).integers(P_CAP - 64, P_CAP, size=(n, n))
    failures = algebras._alternator_failures(loop.table, img, np.arange(n), GF_CAP)
    scanned = [(fam, int(a), int(b), int(c)) for fam, *abc in failures for a, b, c in zip(*abc)]
    forms = [lambda a, b, c: assoc_vec(loop, a, b, c) + assoc_vec(loop, b, a, c),
             lambda a, b, c: assoc_vec(loop, a, b, c) + assoc_vec(loop, a, c, b),
             lambda a, b, c: assoc_vec(loop, a, a, c),
             lambda a, b, c: assoc_vec(loop, c, a, a)]
    expected = [(fam, a, b, c) for fam, form in enumerate(forms)
                for a, b, c in product(range(n), repeat=3)
                if (fam < 2 or a == b) and ((form(a, b, c) @ img) % P_CAP).any()]
    assert expected and scanned[0] == expected[0] == (0, 3, 6, 1)
    assert_canonical_half(scanned, expected)


def dwide_scan(t, img, elems, field):
    """The former alternator scan, the oracle of the pair-sum scan: the same
    blocks and canonical triples, each alternator summed from four d-wide
    image rows and tested for a nonzero entry."""
    m = len(elems)
    step = max(1, linalg.BLOCK_BYTES // (4 * 8 * m * t.shape[0]))
    diag = np.arange(m)
    pairs = (np.triu_indices(m), np.divmod(np.arange(m * m), m), (diag, diag), (diag, diag))
    for fam, (pa, pb) in enumerate(pairs):
        for s in range(0, len(pa), step):
            a, b = pa[s:s + step], pb[s:s + step]
            rows, c = np.nonzero(np.arange(m) >= b[:, None] * (fam == 1))
            a, b = a[rows], b[rows]
            vals = field.canon(algebras._alternators(t, img, fam, elems[a], elems[b], elems[c]))
            hit = np.flatnonzero((vals != 0).any(axis=-1))
            if hit.size:
                yield fam, a[hit], b[hit], c[hit]


def assert_scans_agree(t, img, elems, field):
    """Every yield of the scan equals the d-wide scan's, in order; the yields."""
    got = list(algebras._alternator_failures(t, img, elems, field))
    want = list(dwide_scan(t, img, elems, field))
    assert len(got) == len(want)
    for (fam, *abc), (want_fam, *want_abc) in zip(got, want):
        assert fam == want_fam
        assert all(np.array_equal(x, y) for x, y in zip(abc, want_abc))
    return want


# FQ and F[Q] of the fixtures; paige2 (n = 120) stays out, its FQ oracle
# scan gathers about 10^9 image entries
SCAN_PAIRS = [(name, p) for name in ("s3", "c6", "chein12", "order5", "cml81")
              for p in (2, 3, 65537)] + [("s3", None), ("chein12", None)]


@pytest.mark.parametrize("loop_name, p", SCAN_PAIRS)
def test_alternator_scan_matches_dwide_scan(request, loop_name, p):
    loop, f = request.getfixturevalue(loop_name), field_of(p)
    t, n = loop.table, loop.order
    fq = lf.loop_algebra(f, loop)
    failing = assert_scans_agree(t, fq.basis_images, np.arange(n), f)
    # FQ of a group is associative, and FQ of chein12 is alternative in characteristic 2
    assert bool(failing) == (loop_name not in ("s3", "c6") and (loop_name, p) != ("chein12", 2))
    ideal = lf.alternator_ideal(fq)
    if not ideal.contains(fq.unit):
        assert not assert_scans_agree(t, ideal.residues(fq.basis_images), ideal.free_cols, f)


@given(st.sampled_from(["s3", "chein12", "order5", "c6"]), st.sampled_from([2, 3, 65537, None]),
       st.integers(0, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_alternator_scan_matches_dwide_scan_on_random_residues(s3, chein12, order5, c6,
                                                               loop_name, p, k, seed):
    # the residues modulo a random span of k rows, entries in -2..2 (over Q
    # divided by 1..3), whenever that span misses the unit
    loop = {"s3": s3, "chein12": chein12, "order5": order5, "c6": c6}[loop_name]
    f, n = field_of(p), loop.order
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(k, n))
    if p is None:
        rows = np.array([[Fraction(int(x), int(d)) for x, d in zip(row, rng.integers(1, 4, n))]
                         for row in rows], dtype=object).reshape(k, n)
    span = span_rows(f, n, f.canon(rows))
    eye = algebras._eye(f, n)
    if not span.contains(eye[0]):
        assert_scans_agree(loop.table, span.residues(eye), span.free_cols, f)


def assert_sum_classes(img, field):
    """``_sum_classes`` against a dict of the sum rows as tuples: the same
    partition of the pairs, numbered densely from 0."""
    n = img.shape[0]
    ids = algebras._sum_classes(img, field)
    sums = [tuple(field.canon(img[u] + img[v]).tolist()) for u in range(n) for v in range(n)]
    first = {}
    for key, i in zip(sums, ids.tolist()):
        assert first.setdefault(key, i) == i
    assert sorted(first.values()) == list(range(len(first)))


def test_sum_classes_at_the_cap_across_the_fold_limit():
    # columns of 16 and 8 distinct pair sums (the value sets (0,1,2,3,5,11)
    # and (0,1,2,4), shifted to wrap mod P_CAP): after two 16s and seventeen
    # 8s the next digit takes the keys to 16^2 8^18 = 2^62 exactly, and 30
    # more columns follow.  Rows 0 and 1 differ only in column 0, so keys
    # folded on past 2^64 unrenumbered would lose that digit and merge (0, v)
    # with (1, v)
    rng, n = np.random.default_rng(62), 12
    cols = []
    for j, values in enumerate([(0, 1, 2, 3, 5, 11)] * 2 + [(0, 1, 2, 4)] * 48):
        values = np.array(values)
        rest = values[rng.integers(0, len(values), n - len(values))]
        # every value occurs; column 0 gives rows 0 and 1 its first two
        col = np.r_[values, rest] if j == 0 else np.r_[values[:1], values[:1], values, rest[2:]]
        cols.append((P_CAP - 7 - j + col) % P_CAP)
    img = np.stack(cols, axis=1)
    counts = [len(np.unique((c[:, None] + c[None, :]) % P_CAP)) for c in cols]
    assert counts == [16, 16] + [8] * 48
    assert (img[0, 1:] == img[1, 1:]).all() and img[0, 0] != img[1, 0]
    assert_sum_classes(img, GF_CAP)


def test_sum_classes_over_q():
    # halves collide: 0 + 1 = 1/2 + 1/2 in a column, and -1/3 + 1/3 = 0 + 0
    rng = np.random.default_rng(7)
    values = [Fraction(x) for x in (0, 1, "1/2", "3/2", "-1/3", "1/3")]
    img = np.array([[values[i] for i in row] for row in rng.integers(0, 6, size=(9, 4))],
                   dtype=object)
    img[1] = img[0]
    assert_sum_classes(img, lf.QQ)
    assert_sum_classes(np.array([[Fraction(0)], [Fraction(1)], [Fraction(1, 2)]]), lf.QQ)


@pytest.mark.parametrize("p", [4093, 4099])
def test_mul_pairwise_dense_at_operand_width(p):
    # matmul operands (``operand``, used by carrier enumeration and the
    # circle loops) are float32 while (p-1)^2 < 2^24 (p <= 4093) and float64
    # above; (p-2)^2 is odd, and at p = 4099 it is above 2^24, where float32
    # would round it.  The products take the stages' own type from
    # d^2 (p-1)^3 (float64 at both p here), on either side of that switch
    f = lf.PrimeField(p)
    alg = algebras.TensorAlgebra(f, np.full((4, 4, 4), p - 1), [f"x{i}" for i in range(4)])
    rows = [[p - 1] * 4, [p - 2] * 4, [p - 1, p - 2, 1, 0]]
    assert f.operand(np.zeros(1)).dtype == (np.float32 if p == 4093 else np.float64)
    assert_products(alg, rows, rows, tensor_oracle(alg.c, p))


def test_alternator_ideal_zero_for_groups(s3):
    assert lf.alternator_ideal(lf.loop_algebra(lf.PrimeField(3), s3)).dim == 0


def test_alternator_ideal_cml81_proper(cml81_gf3):
    assert cml81_gf3.alternator.dim == 27
    assert not cml81_gf3.alternator.contains(cml81_gf3.fq.unit)


def test_alternator_ideal_builds_no_intermediate_quotient(monkeypatch, cml81, cml81_gf3):
    # FQ/I(Q) of cml81 over GF(3) has dimension 54 and its intermediate
    # quotients more: only the bundle's own quotient meets the entry bound
    monkeypatch.setattr(algebras, "QUOTIENT_ENTRY_BOUND", 53**3)
    fq = lf.loop_algebra(lf.PrimeField(3), cml81)
    ideal = lf.alternator_ideal(fq)
    assert ideal.dim == 27 and ideal == cml81_gf3.alternator
    with pytest.raises(DimensionBoundExceeded, match="QUOTIENT_ENTRY_BOUND"):
        lf.alternative_loop_algebra(lf.PrimeField(3), cml81)


# -- the A(Q) ceiling of the alternator closure ----------------------------------

GF2, GF3, GF11 = (lf.PrimeField(p) for p in (2, 3, 11))


def cold(loop):
    """A copy of loop with empty caches: no A(Q) labels, closures or properties."""
    return lf.Loop(loop.names, loop.table, name=loop.name)


# the bases_golden.py pairs (field None is Q)
GOLDEN_PAIRS = [("chein12", 2), ("chein12", 3), ("chein12", 7), ("chein12", None),
                ("s3", 2), ("s3", 3), ("c6", 2), ("cml81", 2), ("cml81", 3), ("cml81", 5),
                ("cml81", 7), ("paige2", 2), ("paige2", 3), ("paige2", 11), ("paige2_x_c2", 11)]
# the pairs whose alternator ideal is the kernel of FQ -> F[Q/A(Q)]
CEILING_HITS = {("chein12", 3), ("chein12", 7), ("chein12", None), ("s3", 2), ("s3", 3),
                ("c6", 2), ("cml81", 2), ("cml81", 5), ("cml81", 7), ("paige2", 3),
                ("paige2", 11), ("paige2_x_c2", 11)}


def field_of(p):
    return lf.QQ if p is None else lf.PrimeField(p)


def without_ceiling(monkeypatch):
    monkeypatch.setattr(algebras.LoopAlgebra, "associator_projection", property(lambda a: None))


def count_scans(monkeypatch):
    """A list that grows by one entry per alternator scan alternator_ideal starts."""
    calls = []
    scan = algebras._alternator_failures

    def counted(*args):
        calls.append(1)
        return scan(*args)
    monkeypatch.setattr(algebras, "_alternator_failures", counted)
    return calls


def first_closure(alg, ceiling):
    """alternator_ideal's first closure, over the same seeds."""
    f, t, n = alg.field, alg.loop.table, alg.dim
    eye = algebras._eye(f, n)
    seeds = [f.canon(algebras._alternators(t, eye, fam, a, b, np.arange(n)))
             for a, b in algebras._seed_pairs(n) for fam in (0, 1)]
    return lf.ideal_closure(seeds, alg.left_actions(), alg.right_actions(), field=f,
                            ambient_dim=n, ceiling=ceiling)


@pytest.mark.parametrize("loop_name, p", GOLDEN_PAIRS + [("c64_x_c4", 3)])
def test_ceiling_closure_equals_closure_without_ceiling(request, monkeypatch, loop_name, p):
    loop = cold(request.getfixturevalue(loop_name)) if loop_name != "c64_x_c4" else \
        lf.direct_product(lf.cyclic(64), lf.cyclic(4))
    alg = lf.loop_algebra(field_of(p), loop)
    ceiling = alg.alternator_ceiling
    assert ceiling == alg.dim - np.unique(lf.loops._associator_labels(loop)).size
    assert first_closure(alg, ceiling) == first_closure(alg, None)
    scans = count_scans(monkeypatch)
    fast = lf.alternator_ideal(alg)
    hit = (loop_name, p) in CEILING_HITS or loop_name == "c64_x_c4"
    assert (fast.dim == ceiling) == hit and (scans == []) == hit
    if loop_name == "c64_x_c4":     # a group: the 59 s scan would only prove I(Q) = 0
        assert fast.dim == 0 and lf.check_properties(loop).associative.ok
        return
    without_ceiling(monkeypatch)
    assert lf.alternator_ideal(lf.loop_algebra(field_of(p), loop)) == fast


@pytest.mark.parametrize("bundle, hit", [("cml81_gf3", False), ("cml81_gf5", True),
                                         ("chein12_gf7", True), ("paige2_gf11", True)])
def test_bundle_reports_ceiling_hit(request, bundle, hit):
    assert request.getfixturevalue(bundle).ceiling_hit == hit


def test_paige2_gf2_misses_the_ceiling(paige2):
    b = lf.alternative_loop_algebra(GF2, cold(paige2))
    assert not b.ceiling_hit and (b.alternator.dim, b.fq.dim - 1) == (111, 119)


def three_block_labels(n, a, b):
    """Class minima of {0..a-1}, {a..b-1}, {b..n-1}: blocks of indices, not cosets."""
    lab = np.zeros(n, dtype=np.int64)
    lab[a:b], lab[b:] = a, b
    return lab


@pytest.mark.parametrize("p", [3, 11])
def test_ceiling_needs_the_closure_inside_the_kernel(monkeypatch, paige2, p):
    # blocks whose quotient table (on the class minima 0, 1, 29) is
    # associative, but which are no congruence: their kernel, of dimension
    # 117, does not hold I(Q) (dim 119), and the closure passes dimension 117
    loop = cold(paige2)
    loop._assoc_labels = three_block_labels(120, 1, 29)
    alg = lf.loop_algebra(lf.PrimeField(p), loop)
    assert alg.associator_projection is not None
    dims = []
    closure = linalg.ideal_closure

    def logged(*args, **kwargs):
        out = closure(*args, **kwargs)
        dims.append((kwargs["ceiling"], out.dim))
        return out
    monkeypatch.setattr(linalg, "ideal_closure", logged)
    got = lf.alternator_ideal(alg)
    assert dims[0] == (117, 117) and dims[1] == (None, 119)
    assert got.dim == 119 and got == lf.alternator_ideal(lf.loop_algebra(lf.PrimeField(p), paige2))


def test_ceiling_unused_for_a_nonassociative_quotient(monkeypatch, paige2):
    # identity labels claim A(Q) = {e}: the quotient is Q itself, which
    # Light's test finds nonassociative, so no ceiling is set
    loop = cold(paige2)
    loop._assoc_labels = np.arange(120)
    alg = lf.loop_algebra(GF11, loop)
    assert alg.associator_projection is None
    scans = count_scans(monkeypatch)
    assert lf.alternator_ideal(alg).dim == 119 and scans


def test_ceiling_certified_above_the_exhaustive_order(monkeypatch, paige2):
    # Light's test certifies Q/A(Q) at every order, not only up to 300
    loop = lf.direct_product(paige2, lf.cyclic(3))      # order 360, A(Q) = paige2
    alg = lf.loop_algebra(GF11, loop)
    labels = lf.loops._associator_labels(loop)
    assert np.count_nonzero(labels == 0) == 120 and np.unique(labels).size == 3
    assert alg.associator_projection is not None
    group = lf.direct_product(lf.cyclic(64), lf.cyclic(5))      # order 320 > 300
    alg = lf.loop_algebra(GF3, group)
    assert alg.alternator_ceiling == 0
    scans = count_scans(monkeypatch)
    assert lf.alternator_ideal(alg).dim == 0 and scans == []


def test_ceiling_unused_for_coarse_classes(monkeypatch, cml81):
    # one class: ceiling 80, above I(Q) (dim 27), so the closure never stops there
    loop = cold(cml81)
    loop._assoc_labels = np.zeros(81, dtype=np.int64)
    alg = lf.loop_algebra(GF3, loop)
    assert alg.associator_projection is not None
    scans = count_scans(monkeypatch)
    got = lf.alternator_ideal(alg)
    assert got.dim == 27 and scans
    assert got == lf.alternator_ideal(lf.loop_algebra(GF3, cml81))


@pytest.mark.parametrize("p", [2, 3])
def test_paige3_bundle_cold_budget(p):
    loop = lf.paige_loop(3)
    t0 = time.perf_counter()
    bundle = lf.alternative_loop_algebra(lf.PrimeField(p), cold(loop))
    elapsed = time.perf_counter() - t0
    assert bundle.ceiling_hit and (bundle.alternator.dim, bundle.dim) == (1079, 1)
    assert elapsed < 10, f"{elapsed:.1f} s"


def test_c64_x_c4_bundle_cold_budget():
    loop = lf.direct_product(lf.cyclic(64), lf.cyclic(4))
    t0 = time.perf_counter()
    bundle = lf.alternative_loop_algebra(GF3, loop)
    elapsed = time.perf_counter() - t0
    assert bundle.ceiling_hit and (bundle.alternator.dim, bundle.dim) == (0, 256)
    assert elapsed < 10, f"{elapsed:.1f} s"


@pytest.mark.parametrize("mode", ["sampled", "exhaustive", "auto"])
@pytest.mark.parametrize("bundle", ["cml81_gf3", "cml81_gf5", "chein12_gf7", "paige2_gf11"])
def test_quotient_is_alternative_sampled(bundle, mode, request):
    alg = request.getfixturevalue(bundle).algebra
    report = lf.alternative_check(alg, mode=mode, samples=2000)
    assert report.ok and report.mode == ("exhaustive" if mode == "auto" else mode)


def test_checks_reject_unknown_mode_and_no_samples(cml81_gf3):
    zorn = lf.zorn_algebra(lf.PrimeField(3))
    with pytest.raises(ValueError):
        lf.alternative_check(zorn, mode="exhaustiv")
    for check in (lambda: lf.alternative_check(zorn, samples=0),
                  lambda: lf.alternative_check(zorn, mode="sampled", samples=0),
                  lambda: associative_check_sampled(zorn, samples=0),
                  lambda: lf.circle_iso_check(cml81_gf3.algebra, cml81_gf3.omega, samples=0)):
        with pytest.raises(ValueError):
            check()


def test_fq_of_cml81_not_alternative(cml81):
    alg = lf.loop_algebra(lf.PrimeField(3), cml81)
    report = lf.alternative_check(alg)
    assert not report.ok and report.mode == "exhaustive"
    # the witness is the first associator of a failing alternator form
    x, y, z = report.witness
    forms = [assoc_vec(cml81, x, y, z) + assoc_vec(cml81, y, x, z),
             assoc_vec(cml81, x, y, z) + assoc_vec(cml81, x, z, y)]
    if x == y or y == z:
        forms.append(assoc_vec(cml81, x, y, z))
    assert any((v % 3).any() for v in forms)


def test_gf5_quotient_associative(cml81_gf5):
    assert cml81_gf5.dim == 27
    assert not cml81_gf5.canonical_injective
    assert associative_check_sampled(cml81_gf5.algebra, samples=2000).ok


# -- quotient algebras ------------------------------------------------------------

def test_quotient_by_zero_ideal(s3):
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, s3)
    ideal = lf.Subspace(f3, 6)
    quot = lf.quotient_algebra(alg, ideal)
    assert quot.dim == 6
    for i, j in product(range(6), repeat=2):
        assert np.array_equal(quot.c[i, j], alg.mul(alg.basis_vec(i), alg.basis_vec(j)))


def test_quotient_projection_multiplicative(chein12_gf7):
    quot = chein12_gf7.algebra
    fq = chein12_gf7.fq
    n = fq.dim
    imgs = quot.basis_images
    prods = quot.mul_rows(imgs, imgs).reshape(n, n, quot.dim)
    expected = imgs[fq.loop.table]
    assert np.array_equal(prods, expected)


# the semisimple quotient of paige2/GF(2) as wedderburn_report builds it (the
# radical is trivial there), and the cml81/GF(3) quotient modulo the
# principal ideal of a row of its omega
@pytest.mark.parametrize("case", ["paige2-gf2-wedderburn", "cml81-gf3-principal"])
def test_quotient_of_a_quotient_is_loop_backed(case, request):
    if case.startswith("paige2"):
        bundle = lf.alternative_loop_algebra(GF2, request.getfixturevalue("paige2"))
        radical = lf.loop_radical(bundle.loop, GF2, bundle=bundle)
        ideal = lf.augmentation_ideal(bundle.algebra, radical)
    else:
        bundle = request.getfixturevalue("cml81_gf3")
        ideal = lf.principal_ideal(bundle.algebra, bundle.omega.basis_matrix()[-1])
        assert 0 < ideal.dim < bundle.dim
    parent, f = bundle.algebra, bundle.field
    quot = lf.quotient_algebra(parent, ideal)
    d, n = quot.dim, bundle.loop.order
    assert quot.loop is bundle.loop and d == parent.dim - ideal.dim
    # the basis is the loop elements the parent puts on the free columns
    assert np.array_equal(quot.section_cols, parent.section_cols[ideal.free_cols])
    assert np.array_equal(quot.basis_images[quot.section_cols], np.eye(d, dtype=np.int64))
    assert np.array_equal(quot.basis_images, ideal.residues(parent.basis_images))
    # the gathered tensor is the product route's, and the images multiply as Q
    reps = np.eye(parent.dim, dtype=np.int64)[ideal.free_cols]
    assert np.array_equal(quot.c.reshape(d * d, d), ideal.residues(parent.mul_rows(reps, reps)))
    imgs = quot.basis_images
    assert np.array_equal(quot.mul_rows(imgs, imgs), imgs[bundle.loop.table].reshape(n * n, d))
    eye = np.eye(d, dtype=np.int64)
    assert np.array_equal(quot.unit, imgs[0])
    assert np.array_equal(quot.mul_rows(quot.unit, eye), eye)
    assert np.array_equal(quot.mul_rows(eye, quot.unit), eye)
    rows = f.canon(np.random.default_rng(d).integers(0, f.p, size=(5, d)))
    assert np.array_equal(quot.project_rows(quot.lift_rows(rows)), rows)
    assert np.array_equal(quot.lift_rows(quot.unit), f.canon(ideal.reduce(parent.unit)[None]))
    # the loop scan and the dense associator tensor agree
    scan = lf.alternative_check(quot, mode="exhaustive")
    dense = algebras._associator_witness(lf.TensorAlgebra(f, quot.c, quot.names))
    assert scan.ok and dense is None


def test_quotient_rejects_unit_ideal(s3):
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, s3)
    everything = span_rows(f3, 6, np.eye(6, dtype=np.int64))
    with pytest.raises(IdealNotProper):
        lf.quotient_algebra(alg, everything)


def test_quotient_rejects_unstable_subspace(s3, monkeypatch):
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, s3)
    not_ideal = span_rows(f3, 6, f3.vector([1, -1, 0, 0, 0, 0]).reshape(1, -1))
    with pytest.raises(IdealNotStable):
        lf.quotient_algebra(alg, not_ideal)
    # the witness is the first failing action, lefts before rights, for any
    # chunking of the images: one chunk, one action per chunk, one row per chunk;
    # FQ written as a structure tensor, whose actions are stage 2, gives the same
    e_minus = [f3.canon(alg.basis_vec(0) - alg.basis_vec(h)) for h in (1, 3, 4)]
    cases = [(span_rows(f3, 6, e_minus[0].reshape(1, -1)), ("left", 1)),
             (span_rows(f3, 6, np.vstack([act(e_minus[1][None, :])
                                          for act in alg.left_actions()])), ("right", 1)),
             (span_rows(f3, 6, np.vstack([act(e_minus[2][None, :])
                                          for act in alg.right_actions()])), ("left", 1)),
             (span_rows(f3, 6, np.eye(6, dtype=np.int64)[3:]), ("left", 3))]   # the coset <r>s
    tensor = np.zeros((6, 6, 6), dtype=np.int64)
    tensor[np.arange(6)[:, None], np.arange(6), s3.table] = 1
    tensor_alg = algebras.TensorAlgebra(f3, tensor, s3.names, unit=alg.unit)
    for chunk in (linalg.IMAGE_CHUNK_ENTRIES, 12, 6):
        monkeypatch.setattr(linalg, "IMAGE_CHUNK_ENTRIES", chunk)
        for parent, (sub, witness) in product((alg, tensor_alg), cases):
            with pytest.raises(IdealNotStable) as err:
                lf.quotient_algebra(parent, sub)
            assert err.value.witness == witness


def test_eq18_dimension_law(s3, cml81):
    f7 = lf.PrimeField(7)
    fs3 = lf.loop_algebra(f7, s3)
    a3 = lf.SubloopSet(s3, (0, 1, 2))
    omega_a3 = lf.augmentation_ideal(fs3, a3)
    assert fs3.dim - omega_a3.dim == 2          # |S3 / A3|
    f3 = lf.PrimeField(3)
    fc = lf.loop_algebra(f3, cml81)
    omega_z = lf.augmentation_ideal(fc, lf.center(cml81))
    assert fc.dim - omega_z.dim == 27           # |Q / Z|


# -- augmentation ideals ------------------------------------------------------------

def test_augmentation_is_zero_sum_hyperplane():
    for name, p in (("c3", 5), ("s3", 3), ("c6", 7)):
        f = lf.PrimeField(p)
        alg = lf.loop_algebra(f, lf.builtin_group(name))
        omega = lf.augmentation_ideal(alg)
        assert omega.dim == alg.dim - 1
        assert not omega.contains(alg.unit)
        rng = np.random.default_rng(5)
        v = rng.integers(0, p, alg.dim)
        assert omega.contains(f.canon(v)) == (int(v.sum()) % p == 0)


@pytest.mark.parametrize("quotient", [False, True])
def test_augmentation_cross_check_rejects_a_wrong_closure(cml81_gf3, monkeypatch, quotient):
    alg = cml81_gf3.algebra if quotient else cml81_gf3.fq
    f, n, rows = alg.field, alg.dim, lf.augmentation_ideal(alg).basis_matrix()
    # a proper subspace of the zero-sum hyperplane, and a subspace of the
    # same dimension that is not inside it
    wrong = (span_rows(f, n, rows[1:]), span_rows(f, n, np.vstack([rows[1:], alg.unit])))
    for sub in wrong:
        monkeypatch.setattr(linalg, "ideal_closure", lambda *args, sub=sub, **kwargs: sub)
        with pytest.raises(IdealNotStable):
            lf.augmentation_ideal(alg)


def test_augmentation_monotone_strict(chein12):
    f7 = lf.PrimeField(7)
    alg = lf.loop_algebra(f7, chein12)
    h1 = lf.SubloopSet(chein12, (0, 1, 2))
    h2 = lf.SubloopSet(chein12, tuple(range(6)))
    o1 = lf.augmentation_ideal(alg, h1)
    o2 = lf.augmentation_ideal(alg, h2)
    assert o1 <= o2 and o1.dim < o2.dim


def test_augmentation_lattice_order_embedding(chein12):
    # H1 < H2 gives a strictly smaller ideal across the whole normal lattice
    f7 = lf.PrimeField(7)
    alg = lf.loop_algebra(f7, chein12)
    subs = lf.normal_subloops(chein12)
    omegas = {s.members: lf.augmentation_ideal(alg, s) for s in subs}
    for s1 in subs:
        for s2 in subs:
            if s1.member_set() < s2.member_set():
                o1, o2 = omegas[s1.members], omegas[s2.members]
                assert o1 <= o2 and o1.dim < o2.dim
            elif s1.members != s2.members:
                assert omegas[s1.members] != omegas[s2.members]


def test_e_minus_h_membership(chein12):
    f7 = lf.PrimeField(7)
    alg = lf.loop_algebra(f7, chein12)
    h = lf.SubloopSet(chein12, (0, 1, 2))
    omega = lf.augmentation_ideal(alg, h)
    for x in range(12):
        v = np.zeros(12, dtype=np.int64)
        v[0] += 1
        v[x] -= 1
        assert omega.contains(f7.canon(v)) == (x in h.members)


def test_omega_in_quotient(cml81_gf3):
    assert cml81_gf3.omega_codim == 1
    assert not cml81_gf3.unit_in_omega


# -- unitization -----------------------------------------------------------------

def test_unitize_zero_algebra():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    zero = lf.Subspace(f3, 3)
    unital = lf.unitize(alg, zero)
    assert unital.dim == 1
    assert np.array_equal(unital.mul(unital.unit, unital.unit), unital.unit)


def test_unitize_omega_c3():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    unital = lf.unitize(alg, omega)
    assert unital.dim == 3
    for i in range(3):
        b = unital.basis_vec(i)
        assert np.array_equal(unital.mul(unital.unit, b), b)
        assert np.array_equal(unital.mul(b, unital.unit), b)
    # pi is a homomorphism with kernel the embedded carrier
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = f3.canon(rng.integers(0, 3, 3))
        y = f3.canon(rng.integers(0, 3, 3))
        assert unital.pi(unital.mul(x, y)) == f3.mul(unital.pi(x), unital.pi(y))
    emb = unital.embed(omega.rows[0])
    assert unital.pi(emb) == 0


# -- inverses and quasiinverses -----------------------------------------------------

@pytest.mark.parametrize("case", ["cml81-gf3", "chein12-q"])
def test_mult_matrices_match_products_with_identity(case, cml81_gf3, chein12):
    # the reshaped u.C and C.u against mul_rows with the identity as the other operand
    if case == "cml81-gf3":
        alg = cml81_gf3.algebra
        rows = np.random.default_rng(3).integers(0, 3, size=(10, alg.dim))
    else:
        alg = lf.alternative_loop_algebra(lf.QQ, chein12).algebra
        rng = np.random.default_rng(3)
        frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])
        rows = frac(rng.integers(-9, 10, size=(10, alg.dim)), rng.integers(1, 6, size=(10, alg.dim)))
    eye = algebras._eye(alg.field, alg.dim)
    for u in rows:
        left = alg.mul_rows(u.reshape(1, -1), eye).T
        right = alg.mul_rows(eye, u.reshape(1, -1)).T
        assert np.array_equal(algebras.left_mult_matrix(alg, u), left)
        assert np.array_equal(algebras.right_mult_matrix(alg, u), right)


def test_invert_unit(cml81_gf3):
    quot = cml81_gf3.algebra
    assert np.array_equal(lf.invert(quot, quot.unit), quot.unit)


def test_invert_geometric_series():
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    n = f2.vector([1, 1])
    e = alg.unit
    assert np.array_equal(lf.invert(alg, f2.canon(e - n)), f2.canon(e + n))


def test_invert_loop_images(cml81_gf3):
    loop = cml81_gf3.loop
    invs = loop.inverses()
    for q in (0, 1, 13, 42, 80):
        got = lf.invert(cml81_gf3.algebra, cml81_gf3.images[q])
        assert np.array_equal(got, cml81_gf3.images[invs[q]])


def test_invert_none_for_zero_divisor():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    v = f3.vector([1, 1, 1])   # (e+g+g^2)(e-g) = 0
    assert lf.invert(alg, v) is None


def test_quasiinverse_examples():
    f3 = lf.PrimeField(3)
    one = lf.TensorAlgebra(f3, np.ones((1, 1, 1), dtype=np.int64), ["e"],
                           unit=np.ones(1, dtype=np.int64))
    assert lf.quasiinverse(one, f3.vector([0])).tolist() == [0]
    assert lf.quasiinverse(one, f3.vector([2])).tolist() == [2]
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    n = f2.vector([1, 1])
    got = lf.quasiinverse(alg, n)
    assert np.array_equal(got, f2.canon(-n))


def test_quasiinverse_identity_on_omega():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    for _, v in enumerate_carrier(alg, omega):
        q = lf.quasiinverse(alg, v)
        assert q is not None
        s = f3.canon(v + q)
        assert np.array_equal(s, alg.mul(v, q))
        assert np.array_equal(s, alg.mul(q, v))


def unital_gf3(products, opposite=False):
    """GF(3)-algebra on (e, a, b) with unit e and the given products of a and b.

    ``products`` maps a pair of indices in {1, 2} to a coefficient vector;
    unlisted products are 0.  ``opposite`` swaps the factors.
    """
    f3 = lf.PrimeField(3)
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        c[0, i, i] = c[i, 0, i] = 1
    for (i, j), v in products.items():
        c[(j, i) if opposite else (i, j)] = v
    return lf.TensorAlgebra(f3, c, ["e", "a", "b"], unit=f3.vector([1, 0, 0]))


# a^2 = -b, ab = b, ba = b^2 = 0: n = a + b has n^2 = 0, so u = e - n has the
# two-sided inverse e + n, yet L_u kills b (n b = b), and the left solve,
# with b's coefficient free and set to 0, returns e + a instead
SERIES_TWO_SIDED_L_SINGULAR = {(1, 1): [0, 0, 2], (1, 2): [0, 0, 1]}


def two_solve_invert(alg, u):
    """Oracle: the inverse from the two Gauss-Jordan solves alone, or 'mismatch'."""
    f = alg.field
    u = f.canon(np.asarray(u))
    x = linalg.solve_matrix(algebras.left_mult_matrix(alg, u), alg.unit, f)
    y = None if x is None else linalg.solve_matrix(algebras.right_mult_matrix(alg, u),
                                                  alg.unit, f)
    if y is None:
        return None
    return x if np.array_equal(x, y) else "mismatch"


def stacked_quasiregular(alg, x):
    """Oracle: solvability of x + b - xb = x + b - bx = 0 by the stacked solve alone."""
    f = alg.field
    x = f.canon(np.asarray(x))
    eye = algebras._eye(f, alg.dim)
    a = np.vstack([f.canon(eye - algebras.left_mult_matrix(alg, x)),
                   f.canon(eye - algebras.right_mult_matrix(alg, x))])
    return linalg.solve_matrix(a, np.concatenate([f.canon(-x), f.canon(-x)]), f) is not None


def invert_outcome(alg, u):
    try:
        return lf.invert(alg, u)
    except SidedInverseMismatch:
        return "mismatch"


def assert_same_outcome(got, want):
    if isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert not isinstance(got, np.ndarray) and not isinstance(want, np.ndarray)
        assert got == want


def test_invert_raises_on_differing_sided_inverses():
    # a^2 = b, ab = e, ba = e + b: L_a and R_a are nonsingular, a's left
    # inverse is b and its right inverse is b - a
    alg = unital_gf3({(1, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 1): [1, 0, 1]})
    a = alg.basis_vec(1)
    f = alg.field
    assert np.array_equal(linalg.solve_matrix(algebras.left_mult_matrix(alg, a), alg.unit, f),
                          f.vector([0, 0, 1]))
    assert np.array_equal(linalg.solve_matrix(algebras.right_mult_matrix(alg, a), alg.unit, f),
                          f.vector([0, -1, 1]))
    with pytest.raises(SidedInverseMismatch):
        lf.invert(alg, a)
    with pytest.raises(SidedInverseMismatch):
        lf.quasiinverse(alg, f.canon(alg.unit - a))


@pytest.mark.parametrize("opposite", [False, True])
def test_invert_series_candidate_needs_the_operator_identities(opposite):
    # u z = z u = e for the series z = e + n, but L_u (R_u in the opposite
    # algebra) is singular, so the solves disagree and invert must raise
    alg = unital_gf3(SERIES_TWO_SIDED_L_SINGULAR, opposite=opposite)
    f = alg.field
    n = f.vector([0, 1, 1])
    u, z = f.canon(alg.unit - n), f.canon(alg.unit + n)
    assert not alg.mul(n, n).any()
    assert np.array_equal(alg.mul(u, z), alg.unit) and np.array_equal(alg.mul(z, u), alg.unit)
    singular = algebras.right_mult_matrix if opposite else algebras.left_mult_matrix
    assert span_rows(f, 3, singular(alg, u)).dim == 2
    assert not lf.alternative_check(alg, mode="exhaustive").ok
    assert_same_outcome(two_solve_invert(alg, u), "mismatch")
    with pytest.raises(SidedInverseMismatch):
        lf.invert(alg, u)


def oracle_algebras(name, cml81_gf3):
    """(algebra, elements) for the invert/quasiinverse oracle comparison."""
    rng = np.random.default_rng(1500)
    if name == "cml81-gf3":
        alg, omega = cml81_gf3.algebra, cml81_gf3.omega
        f, e, basis = alg.field, alg.unit, omega.basis_matrix()
        nil = [f.canon(rng.integers(0, 3, omega.dim) @ basis) for _ in range(12)]
        full = [rng.integers(0, 3, alg.dim) for _ in range(8)]
        units = [f.canon(2 * e - x) for x in nil[:4]]       # -e + x: powers never vanish
        return alg, ([f.canon(e - x) for x in nil] + nil + full + units
                     + list(cml81_gf3.images[:6]))
    if name == "chein12-q":
        alg = chein12_quotient(lf.QQ)
        frac = np.vectorize(lambda x, y: Fraction(int(x), int(y)), otypes=[object])
        rows = frac(rng.integers(-4, 5, size=(12, alg.dim)), rng.integers(1, 4, size=(12, alg.dim)))
        return alg, list(rows) + [alg.unit, alg.field.zeros(alg.dim)]
    if name == "gf2-c2":
        alg = lf.loop_algebra(lf.PrimeField(2), lf.cyclic(2))
    else:
        alg = unital_gf3(SERIES_TWO_SIDED_L_SINGULAR, opposite=name == "series-two-sided-op")
    p = alg.field.p
    return alg, [alg.field.vector(c) for c in product(range(p), repeat=alg.dim)]


@pytest.mark.parametrize("name", ["cml81-gf3", "chein12-q", "gf2-c2", "series-two-sided",
                                  "series-two-sided-op"])
def test_invert_matches_two_solve_oracle(name, cml81_gf3):
    alg, elems = oracle_algebras(name, cml81_gf3)
    f, e = alg.field, alg.unit
    outcomes = set()
    for u in elems:
        want = two_solve_invert(alg, u)
        assert_same_outcome(invert_outcome(alg, u), want)
        outcomes.add("none" if want is None else want if isinstance(want, str) else "unit")
        try:
            got = lf.quasiinverse(alg, u)
        except SidedInverseMismatch:
            got = "mismatch"
        w = two_solve_invert(alg, f.canon(e - u))
        assert_same_outcome(got, w if w is None or isinstance(w, str) else f.canon(e - w))
        assert is_quasiregular_element(alg, u) == stacked_quasiregular(alg, u)
    assert "unit" in outcomes
    if name in ("cml81-gf3", "gf2-c2"):
        assert "none" in outcomes
    if name.startswith("series"):
        assert "mismatch" in outcomes


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 9])
def test_invert_truncated_polynomials_at_full_length(d):
    # GF(5)[t]/(t^d): e - t has the inverse 1 + t + ... + t^(d-1), whose
    # series is as long as a d-dimensional algebra allows
    f5 = lf.PrimeField(5)
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d - i):
            c[i, j, i + j] = 1
    alg = lf.TensorAlgebra(f5, c, [f"t{i}" for i in range(d)], unit=f5.vector([1] + [0] * (d - 1)))
    t = f5.vector([0, 1] + [0] * (d - 2)) if d > 1 else f5.vector([0])
    ones = f5.vector([1] * d)
    assert np.array_equal(lf.invert(alg, f5.canon(alg.unit - t)), ones)
    assert np.array_equal(algebras._nil_series(alg, t), f5.canon(ones - alg.unit))
    assert is_quasiregular_element(alg, t)
    assert algebras._nil_series(alg, alg.unit) is None


@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_nil_series_without_unit_at_full_length(d):
    # t F[t]/(t^(d+1)) has no unit; t^d != 0 = t^(d+1), the longest series
    # a d-dimensional algebra allows, and t is quasiregular with b = -(t + ... + t^d)
    f7 = lf.PrimeField(7)
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d - i - 1):
            c[i, j, i + j + 1] = 1             # t^(i+1) t^(j+1) = t^(i+j+2)
    alg = lf.TensorAlgebra(f7, c, [f"t{i + 1}" for i in range(d)])
    t = alg.basis_vec(0)
    assert np.array_equal(algebras._nil_series(alg, t), f7.vector([1] * d))
    assert is_quasiregular_element(alg, t)
    assert is_quasiregular_element(alg, t) == stacked_quasiregular(alg, t)


# -- circle loops ---------------------------------------------------------------

def test_circle_zero_is_identity():
    f3 = lf.PrimeField(3)
    z = lf.zorn_algebra(f3)
    rng = np.random.default_rng(9)
    b = f3.canon(rng.integers(0, 3, 8))
    assert np.array_equal(lf.circle(z, f3.zeros(8), b), b)


def test_circle_loop_c2():
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    omega = lf.augmentation_ideal(alg)
    cl = lf.circle_loop(alg, omega)
    assert cl.order == 2
    assert cl.mul(1, 1) == 0


def test_circle_loop_c3():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    cl = lf.circle_loop(alg, omega)
    r = lf.check_properties(cl)
    assert cl.order == 9 and r.exponent == 3 and r.associative.ok and r.commutative.ok
    assert r.moufang.ok and r.ip.ok


def test_circle_loop_rejects_nonquasiregular():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    everything = span_rows(f3, 3, np.eye(3, dtype=np.int64))
    with pytest.raises(NotQuasiregular):
        lf.circle_loop(alg, everything)    # e itself is not quasiregular


def test_circle_iso_exhaustive():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    report = lf.circle_iso_check(alg, omega)
    assert report.ok and report.mode == "exhaustive" and report.pairs == 81


def test_circle_iso_sampled_on_big_carrier(cml81_gf3):
    report = lf.circle_iso_check(cml81_gf3.algebra, cml81_gf3.omega, samples=3000)
    assert report.ok and report.mode == "sampled"


def test_circle_iso_sampled_over_q(chein12):
    bundle = lf.alternative_loop_algebra(lf.QQ, chein12)
    assert bundle.omega.dim == 3
    report = lf.circle_iso_check(bundle.algebra, bundle.omega, samples=40)
    assert report.ok and (report.mode, report.pairs) == ("sampled", 40)


def test_sampled_checks_over_q_across_blocks(monkeypatch, chein12):
    # the chein12/Q quotient against Fraction oracles, in blocks of three
    # rows for the associative check and of one pair for circle_iso_check
    bundle = lf.alternative_loop_algebra(lf.QQ, chein12)
    quot, omega = bundle.algebra, bundle.omega
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 3 * 2 * quot.dim**2 * stage_bytes(quot))
    assert quot.block_rows(2) == 3 and quot.block_rows(1, 3, 4) == 1
    samples, seed = 20, 8
    got = associative_check_sampled(quot, samples=samples, seed=seed)
    first = oracle_witness(quot, "associative", samples, seed)
    assert (got.ok, got.witness) == (first is None, None if first is None else (first,))
    report = lf.circle_iso_check(quot, omega, samples=samples, seed=seed)
    rng, mul, e = np.random.default_rng(seed), rows_mul(quot), quot.unit
    a, b = (algebras._random_rows(lf.QQ, rng, samples, omega.dim) @ omega.basis_matrix()
            for _ in range(2))
    assert not (mul(e - a, e - b) - (e - (a + b - mul(a, b)))).any()
    assert report.ok and (report.mode, report.pairs) == ("sampled", samples)


def test_circle_oracle_loop(cml81_gf3):
    cl = lf.circle_loop(cml81_gf3.algebra, cml81_gf3.omega)
    assert not cl.has_table()
    assert cl.order == 3 ** cml81_gf3.omega.dim
    assert cl.mul(0, 5) == 5 and cl.mul(5, 0) == 5
    x, y = 12345, 987
    p = cl.mul(x, y)
    assert cl.ldiv(x, p) == y
    assert cl.rdiv(p, y) == x


def test_check_properties_refuses_loops_without_a_table(cml81_gf3):
    """The circle loops of ω on cml81/GF(3) (3^53 elements) and on C9/GF(3)
    (6,561 elements) have no table to scan and no factors to read."""
    c9 = lf.loop_algebra(GF3, lf.cyclic(9))
    for alg, carrier in ((cml81_gf3.algebra, cml81_gf3.omega), (c9, lf.augmentation_ideal(c9))):
        cl = lf.circle_loop(alg, carrier)
        assert isinstance(cl, algebras.CircleOracleLoop)
        with pytest.raises(DimensionBoundExceeded):
            lf.check_properties(cl)


def per_pair_circle_rows(alg, carrier, rows):
    """Rows of the circle table, one circle() call and one tuple lookup per pair."""
    elems = [v for _, v in enumerate_carrier(alg, carrier)]
    index = {tuple(v.tolist()): i for i, v in enumerate(elems)}
    return np.array([[index[tuple(lf.circle(alg, elems[i], b).tolist())] for b in elems]
                     for i in rows])


def generated_subalgebra(alg, rows):
    sub = span_rows(alg.field, alg.dim, np.vstack(rows))
    while True:
        dim = sub.dim
        sub._insert_batch(alg.mul_rows(sub.basis_matrix(), sub.basis_matrix()))
        if sub.dim == dim:
            return sub


def test_circle_loop_matches_per_pair_table(cml81_gf3, monkeypatch):
    # every row on omega of GF(2)[C8] (128 elements); on the subalgebra of the
    # cml81/GF(3) quotient generated by two elements of omega^4, 16 rows;
    # blocks of block_rows(1, n, 2n) rows, then of one row each
    alg = lf.loop_algebra(GF2, lf.cyclic(8))
    omega = lf.augmentation_ideal(alg)
    quot = cml81_gf3.algebra
    omega4 = lf.subspace_power(cml81_gf3.omega, quot.mul_rows, 4)
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    gens = GF3.canon(rng.integers(0, 3, (2, omega4.dim)) @ omega4.basis_matrix())
    carrier = generated_subalgebra(quot, gens)
    assert 2 < carrier.dim <= 7         # the generators have nonzero products
    rows = np.sort(rng.choice(3**carrier.dim, 16, replace=False))
    want = per_pair_circle_rows(alg, omega, range(128)), per_pair_circle_rows(quot, carrier, rows)
    for budget in (linalg.BLOCK_BYTES, 1):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
        cl = lf.circle_loop(alg, omega)
        assert cl.order == 128 and np.array_equal(cl.table, want[0])
        assert np.array_equal(lf.circle_loop(quot, carrier).table[rows], want[1])


def test_circle_loop_rejects_a_carrier_not_closed(monkeypatch):
    # e - g spans no subalgebra of GF(3)[C3]: (e-g)^2 = e + g + g^2 - 3g, so
    # the first pair off the carrier is (e-g, e-g), elements (1, 1), whether
    # a block holds every row or one
    alg = lf.loop_algebra(GF3, lf.cyclic(3))
    line = span_rows(GF3, 3, GF3.vector([1, -1, 0]).reshape(1, -1))
    monkeypatch.setattr(algebras, "quasiinverse", lambda alg, v: v)
    for budget in (linalg.BLOCK_BYTES, 1):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
        with pytest.raises(IdealNotStable) as err:
            lf.circle_loop(alg, line)
        assert err.value.witness == (1, 1)


# -- nilpotency and radicals --------------------------------------------------------

def test_nilpotency_indexes():
    f3, f5 = lf.PrimeField(3), lf.PrimeField(5)
    a3 = lf.loop_algebra(f3, lf.cyclic(3))
    a5 = lf.loop_algebra(f5, lf.cyclic(3))
    assert lf.nilpotency_index(lf.augmentation_ideal(a3), a3) == 3
    assert lf.nilpotency_index(lf.augmentation_ideal(a5), a5) is None


def test_omega_nilpotent_in_f_cml81(cml81_gf3):
    idx = lf.nilpotency_index(cml81_gf3.omega, cml81_gf3.algebra)
    assert idx == 10


def test_radical_zhevlakov_brute_force():
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    rad = lf.radical_zhevlakov(alg)
    assert rad.dim == 1 and rad.rows[0].tolist() == [1, 1]


def test_radical_zhevlakov_of_field():
    f3 = lf.PrimeField(3)
    one = lf.TensorAlgebra(f3, np.ones((1, 1, 1), dtype=np.int64), ["e"],
                           unit=np.ones(1, dtype=np.int64))
    assert lf.radical_zhevlakov(one).dim == 0


def test_radical_zhevlakov_case_i(cml81_gf3):
    assert lf.radical_zhevlakov(bundle=cml81_gf3) == cml81_gf3.omega


def test_radical_zhevlakov_unsupported():
    f = lf.PrimeField(7)
    z = lf.zorn_algebra(f)
    with pytest.raises(UnsupportedRadical):
        lf.radical_zhevlakov(z)            # 7^8 elements exceed the bound


def test_quasiregular_element_probe():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    assert is_quasiregular_element(alg, f3.vector([1, -1, 0]))
    assert not is_quasiregular_element(alg, alg.unit)


# -- nil identities ------------------------------------------------------------------

def test_nil_closed_forms_trivial(cml81_gf3):
    alg = cml81_gf3.algebra
    zero = alg.field.zeros(alg.dim)
    assert lf.nil_closed_form_check(alg, zero, zero, zero, 2)


def test_nil_closed_forms_exhaustive_char2():
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    omega = lf.augmentation_ideal(alg)
    vals = [v for _, v in enumerate_carrier(alg, omega)]
    for u in vals:
        for v in vals:
            for w in vals:
                assert lf.nil_closed_form_check(alg, u, v, w, 2)


def test_nil_closed_forms_sampled(cml81_gf3):
    alg = cml81_gf3.algebra
    m = lf.nilpotency_index(cml81_gf3.omega, alg)
    basis = cml81_gf3.omega.basis_matrix()
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    for _ in range(25):
        u, v, w = (alg.field.canon(rng.integers(0, 3, cml81_gf3.omega.dim) @ basis)
                   for _ in range(3))
        assert lf.nil_closed_form_check(alg, u, v, w, m)


def test_nil_closed_forms_rejects_non_nil():
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.cyclic(3))
    g = alg.basis_vec(1)
    with pytest.raises(NotNil):
        lf.nil_closed_form_check(alg, g, g, g, 2)


def test_nil_closed_forms_edge_exponents():
    # in GF(2)[C2], u = e + g has u^2 = 0 while g^2 = e
    f2 = lf.PrimeField(2)
    alg = lf.loop_algebra(f2, lf.cyclic(2))
    zero, g = alg.field.zeros(2), alg.basis_vec(1)
    u = f2.canon(alg.unit + g)
    assert lf.nil_closed_form_check(alg, zero, zero, zero, 1)
    assert lf.nil_closed_form_check(alg, u, u, u, 2)
    for args in ((u, zero, zero, 1), (zero, zero, u, 1), (u, u, g, 2), (g, u, u, 2)):
        with pytest.raises(NotNil):
            lf.nil_closed_form_check(alg, *args)
    with pytest.raises(ValueError):
        lf.nil_closed_form_check(alg, zero, zero, zero, 0)


# -- two-generated subalgebras of alternative algebras are associative ----------------

def test_artin_two_generated_subalgebras():
    f3 = lf.PrimeField(3)
    z = lf.zorn_algebra(f3)
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    for _ in range(10):
        x = f3.canon(rng.integers(0, 3, 8))
        y = f3.canon(rng.integers(0, 3, 8))
        sub = span_rows(f3, 8, np.vstack([x, y]))
        while True:
            prods = z.mul_rows(sub.basis_matrix(), sub.basis_matrix())
            before = sub.dim
            sub._insert_batch(prods)
            if sub.dim == before:
                break
        basis = sub.basis_matrix()
        for a in basis:
            for b in basis:
                for c in basis:
                    assert not z.associator(a, b, c).any()


@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
@settings(max_examples=40, deadline=None)
def test_circle_identity_property(ka, kb):
    f3 = lf.PrimeField(3)
    alg = lf.loop_algebra(f3, lf.s3())
    a = f3.vector([(ka // 3**i) % 3 for i in range(6)])
    b = f3.vector([(kb // 3**i) % 3 for i in range(6)])
    lhs = alg.mul(f3.canon(alg.unit - a), f3.canon(alg.unit - b))
    assert np.array_equal(lhs, f3.canon(alg.unit - lf.circle(alg, a, b)))
