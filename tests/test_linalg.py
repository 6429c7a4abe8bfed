from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopforge as lf
from loopforge import linalg
from loopforge.errors import DimensionMismatch
from loopforge.linalg import Subspace, nilpotency_index, power_sequence, span_rows


def naive_rref(rows, p):
    """Independent dense row reduction over GF(p), or over Q when p is None;
    returns canonical rows."""
    red = Fraction if p is None else (lambda x: int(x) % p)
    inv = (lambda x: 1 / x) if p is None else (lambda x: pow(x, -1, p))
    rows = [list(red(x) for x in r) for r in rows]
    basis = []
    for r in rows:
        r = r[:]
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if r[lead]:
                c = r[lead] * inv(b[lead])
                r = [red(x - c * y) for x, y in zip(r, b)]
        if any(r):
            lead = next(i for i, x in enumerate(r) if x)
            c = inv(r[lead])
            r = [red(x * c) for x in r]
            basis.append(r)
    # back-substitute to full reduced form and sort by pivot
    basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    for i, b in enumerate(basis):
        for j, other in enumerate(basis):
            if i == j:
                continue
            lead = next(k for k, x in enumerate(b) if x)
            if other[lead]:
                c = other[lead]
                basis[j] = [red(x - c * y) for x, y in zip(other, b)]
    basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return basis


@st.composite
def gf_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=8))
    entries = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                            min_size=k, max_size=k))
    return p, n, entries


@given(gf_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_matches_naive_oracle(data):
    p, n, entries = data
    f = lf.PrimeField(p)
    s = span_rows(f, n, f.canon(np.asarray(entries, dtype=np.int64)))
    expected = naive_rref(entries, p)
    assert s.dim == len(expected)
    assert [r.tolist() for r in s.rows] == expected


P_CAP = 1048573   # largest prime <= 2^20, the PrimeField cap


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_reduce_rows_exact_at_cap(data):
    f = lf.PrimeField(P_CAP)
    n = data.draw(st.integers(1, 12))
    entry = st.integers(0, P_CAP - 1) | st.just(P_CAP - 1)
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6)
    s = span_rows(f, n, np.asarray(data.draw(rows), dtype=np.int64))
    m = data.draw(rows)
    got = s.reduce_rows(np.asarray(m, dtype=np.int64))
    # Python-int oracle: subtract each pivot coefficient times its basis row
    basis = [r.tolist() for r in s.rows]
    expected = [[(v[k] - sum(v[c] * b[k] for c, b in zip(s.pivot_cols, basis))) % P_CAP
                 for k in range(n)] for v in m]
    assert got.tolist() == expected


def test_insert_examples():
    f = lf.QQ
    s = Subspace(f, 2)
    s._insert_batch(f.vector([1, 0]).reshape(1, -1))
    assert s._insert_batch(f.vector([1, 0]).reshape(1, -1)).shape[0] == 0 and s.dim == 1

    f2 = lf.PrimeField(2)
    s = Subspace(f2, 2)
    s._insert_batch(f2.vector([1, 1]).reshape(1, -1))
    s._insert_batch(f2.vector([0, 1]).reshape(1, -1))
    assert s.is_full()

    # e-g and (e-g)^2 = e+g+g^2 in GF(3)[C3] span a 2-dim subspace
    f3 = lf.PrimeField(3)
    s = Subspace(f3, 3)
    s._insert_batch(f3.vector([1, -1, 0]).reshape(1, -1))
    s._insert_batch(f3.vector([1, 1, 1]).reshape(1, -1))
    assert s.dim == 2
    assert [r.tolist() for r in s.rows] == [[1, 0, 2], [0, 1, 2]]


@given(gf_matrix())
@settings(max_examples=100, deadline=None)
def test_insert_idempotent(data):
    p, n, entries = data
    f = lf.PrimeField(p)
    s = span_rows(f, n, f.canon(np.asarray(entries, dtype=np.int64)))
    before = [r.tolist() for r in s.rows]
    for r in entries:
        assert s._insert_batch(f.vector(r).reshape(1, -1)).shape[0] == 0
        assert [row.tolist() for row in s.rows] == before


def test_dimension_mismatch():
    f = lf.PrimeField(3)
    s = Subspace(f, 3)
    with pytest.raises(DimensionMismatch):
        s._insert_batch(f.vector([1, 0]).reshape(1, -1))


def test_solve_examples():
    f = lf.QQ
    cols = [f.vector([1, 0]), f.vector([0, 1])]
    x = linalg.solve_matrix(np.stack(cols, axis=1), f.vector([2, 3]), f)
    assert x.tolist() == [Fraction(2), Fraction(3)]

    assert linalg.solve_matrix(np.stack([f.vector([1, 1]), f.vector([2, 2])], axis=1),
                               f.vector([1, 0]), f) is None

    f3 = lf.PrimeField(3)
    x = linalg.solve_matrix(np.stack([f3.vector([1, 2]), f3.vector([0, 1])], axis=1),
                            f3.vector([1, 0]), f3)
    assert x.tolist() == [1, 1]


@given(gf_matrix())
@settings(max_examples=100, deadline=None)
def test_solve_round_trip(data):
    p, n, entries = data
    f = lf.PrimeField(p)
    a = f.canon(np.asarray(entries, dtype=np.int64)).T   # n x k columns matrix
    coeffs = np.arange(a.shape[1]) % p
    rhs = f.canon(a @ coeffs)
    x = linalg.solve_matrix(a, rhs, f)
    assert x is not None
    assert np.array_equal(f.canon(a @ x), rhs)


def naive_solve(a, b, p):
    """Python-int (or Fraction, p None) oracle: RREF of [a | b], pivot
    variables read off, free variables 0, None if the rhs column pivots."""
    m = len(a[0])
    x = [0] * m
    for row in naive_rref([list(r) + [v] for r, v in zip(a, b)], p):
        lead = next(i for i, v in enumerate(row) if v)
        if lead == m:
            return None
        x[lead] = row[m]
    return x


@pytest.mark.parametrize("p", [2, 3, 7, 1048573, None])
def test_solve_matrix_matches_naive_oracle(p):
    # square, wide and tall systems of every rank down to zero, each with a
    # consistent rhs and a random one (inconsistent unless a has full row rank)
    f = lf.QQ if p is None else lf.PrimeField(p)
    rng = np.random.default_rng(p or 0)
    systems = []
    for n, m, r in ((5, 5, 5), (5, 5, 3), (3, 6, 3), (3, 6, 2), (6, 3, 3), (6, 3, 1), (4, 4, 0)):
        a = rng.integers(-3, 4, size=(n, r)) @ rng.integers(-3, 4, size=(r, m))
        systems += [(r, a, a @ rng.integers(-3, 4, size=m)), (r, a, rng.integers(-3, 4, size=n))]
    if p == 1048573:
        # uniform residues at the modulus cap: the unreduced entries of the
        # delayed-reduction elimination grow by up to (p-1)^2 ~ 2^40 per pivot
        for n, m, r in ((64, 64, 64), (128, 64, 64), (64, 128, 64), (96, 96, 40)):
            a = rng.integers(0, p, size=(n, m))
            if r < min(n, m):
                a = rng.integers(0, p, size=(n, r)) @ rng.integers(0, p, size=(r, m)) % p
            systems += [(r, a, a @ rng.integers(0, p, size=m) % p), (r, a, rng.integers(0, p, size=n))]
    outcomes = set()
    for r, a, b in systems:
        if p is None:
            a_f = np.array([[Fraction(int(v)) for v in row] for row in a], dtype=object)
            b_f = np.array([Fraction(int(v)) for v in b], dtype=object)
        else:
            a_f, b_f = a, b
        got = linalg.solve_matrix(a_f, b_f, f)
        want = naive_solve(a.tolist(), b.tolist(), p)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tolist() == want
        outcomes.add((r, got is None))
    assert {(5, False), (3, True), (0, False), (0, True)} <= outcomes
    if p == 1048573:
        assert {(64, False), (64, True), (40, False), (40, True)} <= outcomes


def _fc3_actions(f):
    t = lf.cyclic(3).table
    alg = lf.loop_algebra(f, lf.cyclic(3))
    return alg.left_actions(), alg.right_actions()


def test_ideal_closure_examples():
    f = lf.PrimeField(3)
    left, right = _fc3_actions(f)
    zero_seed = lf.ideal_closure([f.zeros(3).reshape(1, -1)], left, right,
                                 field=f, ambient_dim=3)
    assert zero_seed.dim == 0

    basis = np.eye(3, dtype=np.int64)
    full = lf.ideal_closure([basis], left, right, field=f, ambient_dim=3)
    assert full.is_full()

    aug = lf.ideal_closure([f.vector([1, -1, 0]).reshape(1, -1)], left, right,
                           field=f, ambient_dim=3)
    assert aug.dim == 2
    # equals the brute-force span of {e-g, g-g^2, g^2-e}
    manual = span_rows(f, 3, f.canon(np.asarray(
        [[1, -1, 0], [0, 1, -1], [-1, 0, 1]], dtype=np.int64)))
    assert aug == manual


def test_ideal_closure_action_stability():
    f = lf.PrimeField(3)
    left, right = _fc3_actions(f)
    aug = lf.ideal_closure([f.vector([1, -1, 0]).reshape(1, -1)], left, right,
                           field=f, ambient_dim=3)
    basis = aug.basis_matrix()
    for act in left + right:
        assert aug.contains_rows(act(basis))


def test_ideal_closure_stops_at_the_ceiling():
    # the augmentation ideal of GF(3)[C3] has dimension 2; a ceiling is the
    # caller's proof, so the closure trusts it and skips its remaining sweeps
    f = lf.PrimeField(3)
    calls = []
    left, right = ([lambda m, a=a: calls.append(1) or a(m) for a in side]
                   for side in _fc3_actions(f))
    seed = [f.vector([1, -1, 0]).reshape(1, -1)]
    runs = {}
    for ceiling in (None, 3, 2, 1):
        calls.clear()
        s = lf.ideal_closure(seed, left, right, field=f, ambient_dim=3, ceiling=ceiling)
        runs[ceiling] = (s.dim, len(calls))
    assert runs[None] == runs[3] == (2, 18)    # never reached: three sweeps of 6 actions
    assert runs[2] == (2, 6)                   # reached inside the first sweep
    assert runs[1] == (1, 0)                   # reached after the seed block


def test_subspace_power():
    f = lf.PrimeField(3)
    alg = lf.loop_algebra(f, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    assert lf.subspace_power(omega, alg.mul_rows, 1) == omega
    p2 = lf.subspace_power(omega, alg.mul_rows, 2)
    assert p2.dim == 1
    assert p2.rows[0].tolist() == [1, 1, 1]
    p3 = lf.subspace_power(omega, alg.mul_rows, 3)
    assert p3.dim == 0
    # S^k = 0 forces S^{k+1} = 0
    assert lf.subspace_power(omega, alg.mul_rows, 4).dim == 0
    # a full unital algebra absorbs: S^n = S
    full = span_rows(f, 3, np.eye(3, dtype=np.int64))
    assert lf.subspace_power(full, alg.mul_rows, 3) == full


def test_nilpotency_index_helper():
    f = lf.PrimeField(3)
    alg = lf.loop_algebra(f, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    assert nilpotency_index(omega, alg.mul_rows) == 3
    f5 = lf.PrimeField(5)
    alg5 = lf.loop_algebra(f5, lf.cyclic(3))
    omega5 = lf.augmentation_ideal(alg5)
    assert nilpotency_index(omega5, alg5.mul_rows) is None


def test_power_sequence_descends_for_subalgebras():
    f = lf.PrimeField(3)
    alg = lf.loop_algebra(f, lf.cyclic(3))
    omega = lf.augmentation_ideal(alg)
    seq = power_sequence(omega, alg.mul_rows, 4)
    dims = [s.dim for s in seq]
    assert dims == sorted(dims, reverse=True)


def test_rational_subspace():
    f = lf.QQ
    s = span_rows(f, 3, f.vector([Fraction(1, 2), Fraction(1, 3), 0]).reshape(1, -1))
    assert s.dim == 1
    assert s.rows[0].tolist() == [1, Fraction(2, 3), 0]
    assert s.contains(f.vector([3, 2, 0]))
    assert not s.contains(f.vector([1, 1, 1]))


def test_basis_views_are_read_only():
    f = lf.PrimeField(5)
    s = span_rows(f, 3, [[1, 2, 3], [0, 1, 4]])
    with pytest.raises(ValueError):
        s.rows[0][:] = 0
    with pytest.raises(ValueError):
        s.basis_matrix()[1, 2] = 0
    assert s.dim == 2 and s.contains(f.vector([1, 2, 3]))


@given(gf_matrix(), st.data())
@settings(max_examples=100, deadline=None)
def test_split_insertion_same_rref(data, draw):
    p, n, entries = data
    f = lf.PrimeField(p)
    m = f.canon(np.asarray(entries, dtype=np.int64))
    cuts = sorted(draw.draw(st.lists(st.integers(0, len(entries)), max_size=3)))
    s = Subspace(f, n)
    for a, b in zip([0, *cuts], [*cuts, len(entries)]):
        s._insert_batch(m[a:b])
    assert s == span_rows(f, n, m)
    assert [r.tolist() for r in s.rows] == naive_rref(entries, p)


# -- ideal closure against a naive fixpoint ------------------------------------

def loop_actions(table):
    """Left and right multiplication by each loop element, on Python-int rows."""
    n = len(table)

    def left(g):
        return lambda r: [r[next(x for x in range(n) if table[g][x] == y)] for y in range(n)]

    def right(g):
        return lambda r: [r[next(x for x in range(n) if table[x][g] == y)] for y in range(n)]
    return [left(g) for g in range(n)] + [right(g) for g in range(n)]


def tensor_actions(c):
    """Left and right multiplication by each basis element of a structure tensor."""
    d = len(c)

    def act(mat):
        return lambda r: [sum(r[i] * mat[i][k] for i in range(d)) for k in range(d)]
    return [act(c[g]) for g in range(d)] + [act([c[i][g] for i in range(d)]) for g in range(d)]


def naive_closure(seeds, actions, p):
    """Python-int fixpoint: one action on one row at a time, then naive_rref."""
    basis = naive_rref(seeds, p)
    while True:
        grown = naive_rref(basis + [act(r) for r in basis for act in actions], p)
        if grown == basis:
            return basis
        basis = grown


def closure_rows(alg, seeds, chunk_entries=linalg.IMAGE_CHUNK_ENTRIES):
    old, linalg.IMAGE_CHUNK_ENTRIES = linalg.IMAGE_CHUNK_ENTRIES, chunk_entries
    try:
        s = lf.ideal_closure([np.asarray(seeds, dtype=alg.field.dtype)], alg.left_actions(),
                             alg.right_actions(), field=alg.field, ambient_dim=alg.dim)
    finally:
        linalg.IMAGE_CHUNK_ENTRIES = old
    assert s.pivot_cols == tuple(next(i for i, x in enumerate(r) if x) for r in s.rows)
    return s, [r.tolist() for r in s.rows]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ideal_closure_matches_naive_fixpoint(s3, chein12, order5, data):
    loop = data.draw(st.sampled_from([s3, chein12, order5]))
    p = data.draw(st.sampled_from([2, 3, 7]))
    n = loop.order
    entry = st.just(0) | st.integers(0, p - 1)
    seeds = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # the sum of the left images spans a multiple of the sum of all
        # elements, an ideal of dimension at most 1: dim < d
        seeds = [[sum(r) % p] * n for r in seeds]
    chunk = data.draw(st.sampled_from([1, 5, 64, linalg.IMAGE_CHUNK_ENTRIES]))
    alg = lf.loop_algebra(lf.PrimeField(p), loop)
    _, got = closure_rows(alg, seeds, chunk)
    assert got == naive_closure(seeds, loop_actions(loop.table.tolist()), p)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_ideal_closure_tensor_actions_match_naive_fixpoint(chein12_gf7, data):
    quot = chein12_gf7.algebra
    d = quot.dim
    seeds = data.draw(st.lists(st.lists(st.integers(0, 6), min_size=d, max_size=d),
                               min_size=1, max_size=2))
    chunk = data.draw(st.sampled_from([1, 3, linalg.IMAGE_CHUNK_ENTRIES]))
    _, got = closure_rows(quot, seeds, chunk)
    assert got == naive_closure(seeds, tensor_actions(quot.c.tolist()), 7)


@pytest.mark.parametrize("loop_name, p, seed_kind, small", [
    ("chein12", 7, "e-g", False), ("chein12", 7, "sum", True),
    ("s3", 3, "e-g", False), ("s3", 3, "sum", True),
    ("order5", 2, "e-g", False), ("chein12", None, "e-g", False), ("chein12", None, "sum", True)])
def test_ideal_closure_both_sides_of_screen(request, loop_name, p, seed_kind, small):
    loop = request.getfixturevalue(loop_name)
    n = loop.order
    f = lf.QQ if p is None else lf.PrimeField(p)
    minus_one = -1 if p is None else p - 1
    seed = [1] * n if seed_kind == "sum" else [1, minus_one] + [0] * (n - 2)
    alg = lf.loop_algebra(f, loop)
    s, got = closure_rows(alg, [f.vector(seed)])
    assert (s.dim < n - s.dim) == small and s.dim
    assert got == naive_closure([seed], loop_actions(loop.table.tolist()), p)


def test_ideal_closure_omega_of_cml81_quotient(cml81_gf3):
    # omega is the image of the augmentation ideal of FQ, which is spanned by
    # the e - q as a vector space, so its projection is spanned by their images
    quot, f = cml81_gf3.algebra, lf.PrimeField(3)
    imgs = quot.basis_images
    gens = f.canon(imgs[0][None, :] - imgs)
    s, got = closure_rows(quot, gens)
    assert s.dim == 53 and quot.dim - s.dim < s.dim
    assert s == cml81_gf3.omega
    assert got == naive_rref(gens.tolist(), 3)


@pytest.mark.parametrize("chunk", [1, 8, 30, 2**15])
def test_image_chunks_cover_every_action_and_row_in_order(monkeypatch, chunk):
    monkeypatch.setattr(linalg, "IMAGE_CHUNK_ENTRIES", chunk)
    block = np.arange(4 * 6, dtype=np.int64).reshape(4, 6)
    actions = [lambda m, k=k: m + 100 * k for k in range(5)]
    chunks = list(linalg._image_chunks(block, actions))
    got = np.concatenate([images for _, _, images in chunks])
    assert np.array_equal(got, np.concatenate([act(block) for act in actions]))
    for k, rows, images in chunks:     # the first row of a chunk belongs to actions[k]
        assert images.shape[0] % rows == 0 and np.array_equal(images[0] // 100, np.full(6, k))
