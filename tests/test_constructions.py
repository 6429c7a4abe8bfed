
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopforge as lf
from loopforge import constructions
from loopforge.errors import GateFailed, InputNotGroup, OrderBoundExceeded, UnknownName


def test_builtin_groups():
    c3 = lf.builtin_group("c3")
    assert c3.order == 3 and lf.check_properties(c3).commutative.ok
    s3 = lf.builtin_group("s3")
    assert s3.order == 6 and not lf.check_properties(s3).commutative.ok
    assert lf.center(s3).is_trivial()
    assert lf.builtin_group("c2").order == 2
    with pytest.raises(UnknownName):
        lf.builtin_group("q8")
    with pytest.raises(UnknownName):
        lf.builtin_group("c99")


def test_chein_double_of_s3(chein12):
    assert chein12.order == 12
    r = lf.check_properties(chein12)
    assert r.moufang.ok and not r.associative.ok
    # the doubled group is a normal subloop of index 2
    sub = lf.normal_closure(chein12, [1])
    assert set(sub.members) <= set(range(6))
    s3_copy = lf.SubloopSet(chein12, tuple(range(6)))
    assert lf.verify_normal(chein12, s3_copy) is None


def test_chein_double_of_abelian_groups():
    for name, order in (("c3", 6), ("c2", 4)):
        doubled = lf.chein_double(lf.builtin_group(name))
        assert doubled.order == order
        assert lf.check_properties(doubled).associative.ok


def test_chein_double_rejects_nonassociative(chein12):
    with pytest.raises(InputNotGroup):
        lf.chein_double(chein12)


def test_cml81_gate(cml81):
    r = lf.check_properties(cml81)
    assert cml81.order == 81
    assert r.commutative.ok and r.moufang.ok and not r.associative.ok
    assert r.exponent == 3
    assert lf.center(cml81).order() == 3


def test_zorn_unit():
    for field in (lf.PrimeField(3), lf.QQ):
        z = lf.zorn_algebra(field)
        e = z.unit
        for i in range(8):
            b = z.basis_vec(i)
            assert np.array_equal(z.mul(e, b), b)
            assert np.array_equal(z.mul(b, e), b)


@pytest.mark.parametrize("p", [2, 3])
def test_zorn_alternative_exhaustive(p):
    z = lf.zorn_algebra(lf.PrimeField(p))
    report = lf.alternative_check(z)
    assert report.ok and report.mode == "exhaustive"


def test_zorn_det_multiplicative_sampled():
    f = lf.PrimeField(5)
    z = lf.zorn_algebra(f)
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    a = rng.integers(0, 5, size=(10**4, 8), dtype=np.int64)
    b = rng.integers(0, 5, size=(10**4, 8), dtype=np.int64)
    prod = f.canon(lf.zorn_mul_coords(a, b))
    assert np.array_equal(f.canon(lf.zorn_det(prod)),
                          f.canon(lf.zorn_det(a) * lf.zorn_det(b)))


def test_zorn_moufang_identity_on_invertibles_sampled():
    f = lf.PrimeField(5)
    z = lf.zorn_algebra(f)
    rng = np.random.default_rng(lf.DEFAULT_SEED)
    kept = 0
    while kept < 10**4:
        blk = rng.integers(0, 5, size=(3, 2 * 10**4, 8), dtype=np.int64)
        x, y, w = blk[0], blk[1], blk[2]
        ok = (f.canon(lf.zorn_det(x)) != 0) & (f.canon(lf.zorn_det(y)) != 0) \
            & (f.canon(lf.zorn_det(w)) != 0)
        x, y, w = x[ok], y[ok], w[ok]
        lhs = f.canon(lf.zorn_mul_coords(f.canon(lf.zorn_mul_coords(
            x, f.canon(lf.zorn_mul_coords(y, x)))), w))
        rhs = f.canon(lf.zorn_mul_coords(x, f.canon(lf.zorn_mul_coords(
            y, f.canon(lf.zorn_mul_coords(x, w))))))
        assert np.array_equal(lhs, rhs)
        kept += x.shape[0]


@given(st.integers(0, 5**8 - 1), st.integers(0, 5**8 - 1))
@settings(max_examples=60, deadline=None)
def test_zorn_circle_identity(ka, kb):
    # (e-a)(e-b) = e - (a + b - ab): pure expansion, any a, b
    f = lf.PrimeField(5)
    z = lf.zorn_algebra(f)
    a = f.vector([(ka // 5**i) % 5 for i in range(8)])
    b = f.vector([(kb // 5**i) % 5 for i in range(8)])
    e = z.unit
    lhs = z.mul(f.canon(e - a), f.canon(e - b))
    rhs = f.canon(e - lf.circle(z, a, b))
    assert np.array_equal(lhs, rhs)


def test_paige_orders():
    assert lf.paige_loop(2).order == 120
    assert lf.paige_loop(3).order == 1080
    with pytest.raises(OrderBoundExceeded):
        lf.paige_loop(5)
    with pytest.raises(ValueError, match="4 is not prime"):    # the field is checked first
        lf.paige_loop(4)


def test_paige_gate_rejects_a_product_off_the_classes(monkeypatch):
    # every product the zero matrix (determinant 0): the lookup must fail the
    # gate at the first pair, not land on a neighbouring class
    monkeypatch.setattr(constructions, "zorn_mul_coords", lambda a, b: np.zeros_like(b))
    with pytest.raises(GateFailed) as err:
        constructions.paige_loop.__wrapped__(2)
    assert err.value.witness == (0, 0)


def test_paige2_structure(paige2):
    r = lf.check_properties(paige2)
    assert r.moufang.ok and r.moufang.mode == "exhaustive"
    assert not r.associative.ok
    assert lf.is_simple(paige2)[0]


def test_paige3_validates():
    p3 = lf.paige_loop(3)
    # construction validated the Latin square; identity really is index 0
    assert p3.names[0] == "11000000"
    assert np.array_equal(p3.table[0], np.arange(1080))
    # exact at every order: the Moufang row scan passes, Light's test fails
    r = lf.check_properties(lf.Loop(p3.names, p3.table, name="paige:3"))
    assert r.moufang.ok and r.moufang.mode == "exhaustive"
    assert r.associative.witness == (1, 2, 4)


def test_builtin_loop_resolution():
    assert lf.builtin_loop("cml81").order == 81
    assert lf.builtin_loop("chein:s3").order == 12
    assert lf.builtin_loop("chein12").order == 12
    assert lf.builtin_loop("paige:2").order == 120
    assert lf.builtin_loop("cyclic:6").order == 6
