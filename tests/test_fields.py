from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loopforge as lf
from loopforge.errors import EnumerationUnsupported

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_gf3_add():
    assert lf.PrimeField(3).add(2, 2) == 1


def test_gf11_inverse():
    f = lf.PrimeField(11)
    assert f.inv(2) == 6
    assert f.mul(2, f.inv(2)) == 1


def test_rational_halves():
    assert lf.QQ.add(Fraction(1, 2), Fraction(1, 2)) == 1


def test_nonprime_rejected():
    # 1048583 and 2^31 - 1 are primes above the 2^20 cap
    for bad in (1, 4, 9, 15, 2**31 + 1, 1048583, 2**31 - 1):
        with pytest.raises(ValueError):
            lf.PrimeField(bad)


def test_matmul_exact_across_blocks():
    # largest prime under the cap; 20000 terms span three float64 blocks
    f = lf.PrimeField(1048573)
    rng = np.random.default_rng(5)
    x = rng.integers(f.p - 3, f.p, size=(2, 20000), dtype=np.int64)
    y = rng.integers(f.p - 3, f.p, size=(20000, 3), dtype=np.int64)
    got = f.canon(f.matmul(x, y))
    xs, ys = x.tolist(), y.T.tolist()
    assert got.tolist() == [[sum(a * b for a, b in zip(r, c)) % f.p for c in ys] for r in xs]


@pytest.mark.parametrize("p", [2, 65521, 1048573])
def test_matmul_unreduced_x(p):
    # x may be any int64 matrix: with top = max |x| and K terms the kernel runs
    # one float32 product when K*top*(p-1) < 2^24, else float64 blocks of K'
    # terms, K'*top*(p-1) < 2^53, and reduces x first when top*(p-1) >= 2^53
    f = lf.PrimeField(p)
    rng = np.random.default_rng(p)
    k = 7
    forced = [2**53 // (p - 1) + 1, 2**62]
    blocks = [(2**53 - 1) // ((p - 1) * n) for n in (1, 2, 3)]   # blocks of n terms
    # the last float32 top (K*top*(p-1) <= 2^24 - 1, equal at p = 2), the
    # first float64 one, and the last below 2^25, whose odd sums above 2^24
    # float32 would round
    last32 = (2**24 - 1) // (k * (p - 1))
    widths = [last32, last32 + 1, (2**25 - 1) // (k * (p - 1))]
    for top in forced + blocks + widths:
        x = rng.integers(-top, top, size=(5, k), endpoint=True)
        x[0, 0], x[1, 3], x[2, 6] = top, -top, top
        x[3], x[4], x[4, -1] = -top, top, 1
        y = rng.integers(1 - p, p - 1, size=(k, 4), endpoint=True)
        y[0, 0], y[6, 1] = p - 1, 1 - p
        y[:, 2], y[:, 3], y[-1, 3] = p - 1, p - 1, 1
        # x[3] @ y[:, 2] = -K*top*(p-1); x[4] @ y[:, 3] = (K-1)*top*(p-1) + 1
        got = f.matmul(x, y)
        assert np.abs(got).max() < 2**53
        xs, ys = x.tolist(), y.T.tolist()
        assert f.canon(got).tolist() == [[sum(a * b for a, b in zip(r, c)) % p for c in ys]
                                         for r in xs]


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        lf.PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        lf.QQ.inv(Fraction(0))


def test_enumeration():
    assert list(lf.PrimeField(5).elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(EnumerationUnsupported):
        lf.QQ.elements()


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    f = lf.PrimeField(p)
    elems = list(f.elements())
    for a, b in product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_ring_axioms(a, b, c):
    q = lf.QQ
    assert q.add(q.add(a, b), c) == q.add(a, q.add(b, c))
    assert q.mul(a, q.add(b, c)) == q.add(q.mul(a, b), q.mul(a, c))
    if a != 0:
        assert q.mul(a, q.inv(a)) == 1


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_gf_canonical_form(k):
    f = lf.PrimeField(13)
    v = f.from_int(k)
    assert 0 <= v < 13
    assert f.add(v, 0) == v


def test_spec_strings():
    assert lf.field_from_spec("gf:3").p == 3
    assert lf.field_from_spec("q") is lf.QQ
    assert lf.field_from_spec("gf:3").spec == "gf:3"
    with pytest.raises(ValueError):
        lf.field_from_spec("gf:6")
    with pytest.raises(ValueError):
        lf.field_from_spec("reals")


def test_field_equality_hash():
    assert lf.PrimeField(5) == lf.PrimeField(5)
    assert lf.PrimeField(5) != lf.PrimeField(7)
    assert hash(lf.PrimeField(5)) == hash(lf.PrimeField(5))
