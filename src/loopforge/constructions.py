"""Canonical fixture loops and algebras.

Small groups, the doubled loops M(G,2), the 81-element commutative Moufang
loop on (Z3)^4, the 8-dimensional vector-matrix (split octonion) algebra, and
the simple Moufang loops of unit-determinant vector matrices modulo sign.

Each nontrivial construction is gate-checked at build time: the output must
pass the loop validator and the structural properties it is used for
downstream (Moufang, commutativity, nonassociativity, exponent), so a wrong
formula fails the build rather than shipping a bad fixture.
"""
from __future__ import annotations

import functools
import itertools
from typing import Optional

import numpy as np

from .algebras import TensorAlgebra
from .errors import GateFailed, InputNotGroup, OrderBoundExceeded, UnknownName
from .fields import PrimeField
from .loops import Loop, check_properties, center

CYCLIC_MAX = 64
PAIGE_PRIME_BOUND = 3


@functools.lru_cache(maxsize=None)
def cyclic(n: int) -> Loop:
    if n < 1 or n > CYCLIC_MAX:
        raise UnknownName(f"cyclic order {n} outside 1..{CYCLIC_MAX}")
    idx = np.arange(n, dtype=np.int64)
    table = (idx[:, None] + idx[None, :]) % n
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return Loop(names, table, name=f"cyclic:{n}")


@functools.lru_cache(maxsize=None)
def s3() -> Loop:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    names = ["e", "r", "rr", "s", "rs", "rrs"]
    pos = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(3))   # (p∘q)(k) = p(q(k))
            table[i, j] = pos[comp]
    return Loop(names, table, name="s3")


def _spec_int(spec: str, what: str) -> int:
    """The integer after the colon of ``kind:k``, or a one-line error."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise UnknownName(f"loop spec {spec!r}: {what} must be an integer") from None


def builtin_group(name: str) -> Loop:
    key = name.strip().lower()
    if key == "s3":
        return s3()
    if key.startswith("c") and key[1:].isdigit():
        return cyclic(int(key[1:]))
    if key.startswith("cyclic:"):
        return cyclic(_spec_int(name, "n"))
    raise UnknownName(f"unknown builtin group {name!r}")


def chein_double(g: Loop, name: Optional[str] = None) -> Loop:
    """The order-2|G| loop doubling a group G.

    Products: g*h = gh, g*(hu) = (hg)u, (gu)*h = (g h^-1)u, (gu)*(hu) = h^-1 g.
    Gate: output must be Moufang (an exact check at every order) and
    nonassociative exactly when G is nonabelian.
    """
    gprops = check_properties(g)
    if not gprops.associative.ok:
        raise InputNotGroup(f"{g.name} is not associative")
    m = g.order
    t = g.table
    inv = g.inverses()
    out = np.zeros((2 * m, 2 * m), dtype=np.int64)
    out[:m, :m] = t
    out[:m, m:] = m + t.T                                             # g*(hu) = (hg)u
    out[m:, :m] = m + t[np.arange(m)[:, None], inv[None, :]]          # (gu)*h = (g h^-1)u
    out[m:, m:] = t[inv[:, None], np.arange(m)[None, :]].T            # (gu)*(hu) = h^-1 g
    names = list(g.names) + [f"{nm}u" for nm in g.names]
    loop = Loop(names, out, name=name or f"chein:{g.name}")
    props = check_properties(loop)
    if not props.moufang.ok:
        raise GateFailed(loop.name, "not Moufang", props.moufang.witness)
    if props.associative.ok == (not gprops.commutative.ok):
        raise GateFailed(loop.name, "associativity does not match input commutativity",
                         props.associative.witness)
    return loop


@functools.lru_cache(maxsize=None)
def chein12() -> Loop:
    return chein_double(s3(), name="chein12")


@functools.lru_cache(maxsize=None)
def cml81() -> Loop:
    """The smallest nonassociative commutative Moufang loop, on (Z3)^4.

    (x1,x2,x3,x4)(y1,y2,y3,y4) =
        (x1+y1, x2+y2, x3+y3, x4+y4 + (x1-y1)(x2 y3 - x3 y2)).
    Gate: commutative, Moufang (all 81^3 triples), nonassociative, exponent 3.
    """
    coords = np.asarray(list(itertools.product(range(3), repeat=4)), dtype=np.int64)
    x = coords[:, None, :]
    y = coords[None, :, :]
    z123 = (x[..., :3] + y[..., :3]) % 3
    twist = (x[..., 0] - y[..., 0]) * (x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1])
    z4 = (x[..., 3] + y[..., 3] + twist) % 3
    keys = z123[..., 0] * 27 + z123[..., 1] * 9 + z123[..., 2] * 3 + z4
    names = ["".join(str(c) for c in row) for row in coords]
    loop = Loop(names, keys, name="cml81")
    props = check_properties(loop)
    if not props.commutative.ok:
        raise GateFailed("cml81", "not commutative", props.commutative.witness)
    if not props.moufang.ok:
        raise GateFailed("cml81", "not Moufang", props.moufang.witness)
    if props.associative.ok:
        raise GateFailed("cml81", "unexpectedly associative")
    if props.exponent != 3:
        raise GateFailed("cml81", f"exponent {props.exponent} != 3")
    if center(loop).order() != 3:
        raise GateFailed("cml81", "centre order != 3")
    return loop


# -- vector matrices ---------------------------------------------------------

ZORN_NAMES = ("e11", "e22", "e12_1", "e12_2", "e12_3", "e21_1", "e21_2", "e21_3")


def zorn_mul_coords(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vector-matrix product on (a1, a2, v12[3], v21[3]) coordinate blocks.

    Works on any stacked coordinate arrays (shape (..., 8)); exact integer
    arithmetic, caller reduces mod p.
    """
    a1, a2 = a[..., 0], a[..., 1]
    b1, b2 = b[..., 0], b[..., 1]
    a12, a21 = a[..., 2:5], a[..., 5:8]
    b12, b21 = b[..., 2:5], b[..., 5:8]
    c1 = a1 * b1 + (a12 * b21).sum(axis=-1)
    c2 = a2 * b2 + (a21 * b12).sum(axis=-1)
    c12 = a1[..., None] * b12 + b2[..., None] * a12 - _cross(a21, b21)
    c21 = b1[..., None] * a21 + a2[..., None] * b21 + _cross(a12, b12)
    return np.concatenate([
        np.stack([c1, c2], axis=-1), c12, c21], axis=-1)


def _cross(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.stack([
        g[..., 1] * d[..., 2] - g[..., 2] * d[..., 1],
        g[..., 2] * d[..., 0] - g[..., 0] * d[..., 2],
        g[..., 0] * d[..., 1] - g[..., 1] * d[..., 0],
    ], axis=-1)


def zorn_det(v: np.ndarray) -> np.ndarray:
    return v[..., 0] * v[..., 1] - (v[..., 2:5] * v[..., 5:8]).sum(axis=-1)


def zorn_algebra(field) -> TensorAlgebra:
    """The 8-dimensional vector-matrix algebra with unit e11 + e22."""
    basis = np.zeros((8, 8), dtype=np.int64)
    np.fill_diagonal(basis, 1)
    tensor = np.zeros((8, 8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(8):
            tensor[i, j] = zorn_mul_coords(basis[i], basis[j])
    unit = np.zeros(8, dtype=np.int64)
    unit[0] = unit[1] = 1
    if field.dtype == object:
        tensor = tensor.astype(object)
        unit = field.vector(unit)
    return TensorAlgebra(field, field.canon(tensor), ZORN_NAMES, unit=field.canon(unit))


@functools.lru_cache(maxsize=None)
def paige_loop(q: int) -> Loop:
    """Simple Moufang loop of unit-determinant vector matrices over GF(q), mod sign.

    Enumerates all det-1 coordinate tuples, canonicalises m ~ -m to the
    lexicographically smaller tuple, and tabulates the induced product.  The
    order must equal q^3(q^4-1)/gcd(2, q-1) exactly, and every product must
    land in one of the classes.
    """
    PrimeField(q)                       # a non-prime q fails here
    if q > PAIGE_PRIME_BOUND:
        raise OrderBoundExceeded(f"vector-matrix loop bound is q <= {PAIGE_PRIME_BOUND}")
    # row k of coords is the tuple with base-q key k, so keys order rows
    # lexicographically and index coords
    coords = np.asarray(list(itertools.product(range(q), repeat=8)), dtype=np.int64)
    classes = np.unique(_class_keys(coords[zorn_det(coords) % q == 1], q))
    ident = _encode_rows(np.asarray([1, 1, 0, 0, 0, 0, 0, 0]), q)
    keys = np.concatenate([[ident], classes[classes != ident]])   # identity first
    elements = coords[keys]
    n = elements.shape[0]
    expected = q**3 * (q**4 - 1) // (2 if q % 2 else 1)
    if n != expected:
        raise GateFailed(f"paige:{q}", f"order {n} != {expected}")
    index = np.full(q**8, -1, dtype=np.int64)
    index[keys] = np.arange(n)
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        table[i] = index[_class_keys(zorn_mul_coords(elements[i], elements), q)]
    miss = np.argwhere(table < 0)
    if miss.size:
        raise GateFailed(f"paige:{q}", "a product left the classes", tuple(map(int, miss[0])))
    names = ["".join(str(c) for c in row) for row in elements]
    return Loop(names, table, name=f"paige:{q}")


def _encode_rows(rows: np.ndarray, q: int) -> np.ndarray:
    powers = q ** np.arange(7, -1, -1, dtype=np.int64)
    return rows @ powers


def _class_keys(m: np.ndarray, q: int) -> np.ndarray:
    """The key of the smaller of m and -m mod q, per row of integer tuples m."""
    return np.minimum(_encode_rows(m % q, q), _encode_rows(-m % q, q))


def builtin_loop(spec: str) -> Loop:
    """Resolve a builtin loop spec: cyclic:n | c<n> | s3 | chein:<g> | chein12 |
    cml81 | paige:q | paige<q>."""
    key = spec.strip().lower()
    if key == "cml81":
        return cml81()
    if key == "chein12":
        return chein12()
    if key.startswith("chein:"):
        return chein_double(builtin_group(key.split(":", 1)[1]))
    if key.startswith("paige:"):
        return paige_loop(_spec_int(spec, "q"))
    if key in ("paige2", "paige3"):
        return paige_loop(int(key[-1]))
    return builtin_group(key)
