"""Exact scalar arithmetic over prime fields GF(p) and the rationals.

Scalars are plain Python values in canonical form: residues 0..p-1 (ints)
for GF(p), reduced ``fractions.Fraction`` for the rationals.  Each field
object also provides an array layer (``vector``/``zeros``/``canon``) and two
kinds of product kernel; GF(p) vectors are int64 numpy arrays, rational
vectors are object arrays of Fractions.  ``matmul`` is the dense matrix
product of linear algebra.  Every product of an algebra with a structure
tensor, and each of its ideal-closure actions, runs through two stages of
its own, ``operators`` (u = a.C, one GEMM) and ``contract`` (the batched
b[r].u[r]), so that products sharing an operand share its stage-1
operators (``algebras`` runs them in blocks of rows).

Over GF(p) both kernels run float BLAS, which is exact while every partial
sum is an integer below 2^24 (float32) or 2^53 (float64).  Each states the
bound of its sums and takes float32 whenever it stays below 2^24, float64
otherwise, reducing mod p between steps when even that would overflow;
``contract`` reduces its sums to canonical values while still in float, by
a floor division exact below the same two bounds.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import EnumerationUnsupported

# Largest modulus accepted.  Below it every kernel is exact: field.matmul and
# the two stages bound their float sums (PrimeField.matmul, _stages); a loop
# algebra's stage 2 sums at most LOOP_ALGEBRA_DIM_BOUND products,
# n*(p-1)^2 < 2^51.
MAX_PRIME = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) for a prime p, residues stored as machine integers."""

    __slots__ = ("p",)

    dtype = np.int64
    finite = True

    def __init__(self, p: int):
        p = int(p)
        if p < 2 or p > MAX_PRIME:
            raise ValueError(f"prime field modulus out of range 2..{MAX_PRIME}: {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    # -- scalar layer ------------------------------------------------
    @property
    def char(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, k) -> int:
        return int(k) % self.p

    def add(self, a, b) -> int:
        return (a + b) % self.p

    def sub(self, a, b) -> int:
        return (a - b) % self.p

    def neg(self, a) -> int:
        return (-a) % self.p

    def mul(self, a, b) -> int:
        return (a * b) % self.p

    def inv(self, a) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b) -> int:
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.p)

    # -- array layer ---------------------------------------------------
    def vector(self, coords) -> np.ndarray:
        return np.asarray(coords, dtype=np.int64) % self.p

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def canon(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p

    def operand(self, arr: np.ndarray) -> np.ndarray:
        """``arr`` in the form ``matmul`` consumes; convert a reused operand once.

        float32 when (p-1)^2 < 2^24 (p <= 4093), else float64: either way the
        product of two canonical entries is exact in the operand type.
        """
        return np.asarray(arr, dtype=np.float32 if (self.p - 1)**2 < 2**24 else np.float64)

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x @ y for a matrix x of integers (int64, or exact in float) and |y| < p.

        Returns int64 entries congruent mod p to the exact product and below
        2^53 in absolute value; the caller reduces once with ``canon``.
        float BLAS is exact while every partial sum is an integer below 2^24
        (float32) or 2^53 (float64).  With top = max |x|, measured here, and
        K the contraction length:
        - if K*top*(p-1) < 2^24, both operands are cast to float32 and one
          SGEMM gives the product, exact in any summation order;
        - otherwise the contraction runs in float64 blocks of K' terms with
          K'*top*(p-1) < 2^53, each block reduced mod p before the blocks
          are added (the delayed reduction of FFLAS-FFPACK: Dumas, Giorgi &
          Pernet, ACM TOMS 35(3), 2008, which also picks the narrowest
          float type whose mantissa keeps the dot product exact).  So x may
          be an unreduced product; only when top*(p-1) >= 2^53 is x reduced
          first, making top = p-1.
        Both operands are cast explicitly: numpy promotes a float32 x float64
        or an int64 x float32 pair to float64.
        """
        p, x = self.p, np.asarray(x)
        top = max(int(x.max()), -int(x.min())) if x.size else 0
        k = x.shape[-1]
        if k * top * (p - 1) < 2**24:
            x, y = np.asarray(x, dtype=np.float32), np.asarray(y, dtype=np.float32)
            return np.matmul(x, y).astype(np.int64)
        if top * (p - 1) >= 2**53:
            x, top = x % p, p - 1
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        n = (2**53 - 1) // (top * (p - 1))
        if k <= n:
            return np.matmul(x, y).astype(np.int64)
        out = np.matmul(x[..., :n], y[..., :n, :]).astype(np.int64) % p
        for s in range(n, k, n):
            out += np.matmul(x[..., s:s + n], y[..., s:s + n, :]).astype(np.int64) % p
        return out

    def _stages(self, d: int):
        """(float type, reduce u first) of the two stages on d x d x d constants.

        No partial sum of canonical entries in either stage exceeds
        d^2 (p-1)^3 (stage 1 sums d products below (p-1)^2, stage 2 d products
        of those with entries below p), and that bound picks one float type:
        - float32 if d^2 (p-1)^3 < 2^24;
        - float64 if d^2 (p-1)^3 < 2^53;
        - otherwise float64 with u reduced mod p (``np.fmod``, exact) between
          the stages: both then sum d products below (p-1)^2, exact while
          d (p-1)^2 < 2^53, which holds for every d < 2^13 (a dense d^3
          tensor of 2^39 entries, beyond any memory).
        """
        top = d * d * (self.p - 1)**3
        return (np.float32 if top < 2**24 else np.float64), top >= 2**53

    def stage_operand(self, c: np.ndarray) -> np.ndarray:
        """A canonical d x m operand of ``operators`` in its stage type; convert a reused one once."""
        return np.asarray(c, dtype=self._stages(c.shape[0])[0])

    def operators(self, a: np.ndarray, c: np.ndarray, out=None) -> np.ndarray:
        """Stage 1 of a product: u = a.C, one GEMM, for int64 rows a
        and a canonical d x m operand c (a structure tensor as d x d^2).

        a is reduced mod p first unless its entries already lie in 0..p-1
        (measured).  u is returned in the stage type of d (``_stages``),
        reduced mod p only above 2^53; ``out``, a buffer of u's shape and
        type, lets row blocks reuse one allocation.
        """
        dtype, reduce = self._stages(c.shape[0])
        u = np.matmul(np.asarray(self._canonical(a), dtype), np.asarray(c, dtype), out=out)
        if reduce:
            np.fmod(u, self.p, out=u)
        return u

    def contract(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Stage 2: out[r] = z[r] . u[r], batched, for int64 z of shape (k, t, d)
        and stage-1 operators u of shape (k, d, m); either may have one row,
        shared by every r.  Canonical int64 of shape (k, t, m).

        z is made canonical as in ``operators``, so every sum stays below the
        bound that picked u's type.  The sums w are reduced while still in
        float, as w - p floor(w / p), and cast once.  That reduction is exact
        for every integer 0 <= w < 2^24 in float32 and w < 2^53 in float64,
        the bounds of the sums themselves, so the switches stay where they
        are and no correction step runs: w / p is correctly rounded, with an
        error of at most w 2^-24 / p < 1/p (2^-53 in float64), while the
        exact quotient is an integer or lies at least 1/p from one, so the
        floor is the true quotient.  For float32 this was also checked for
        every w < 2^24 and every prime p <= 4093.
        """
        w = np.matmul(np.asarray(self._canonical(z), u.dtype), u)
        q = w / self.p
        np.floor(q, out=q)
        q *= self.p
        w -= q
        return w.astype(np.int64)

    def _canonical(self, arr: np.ndarray) -> np.ndarray:
        """``arr`` itself if its entries lie in 0..p-1, else ``canon(arr)``."""
        if arr.size and (arr.min() < 0 or arr.max() >= self.p):
            return arr % self.p
        return arr

    @property
    def spec(self) -> str:
        return f"gf:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rational numbers with exact Fraction arithmetic."""

    __slots__ = ()

    dtype = object
    finite = False

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k) -> Fraction:
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def elements(self):
        raise EnumerationUnsupported("the rationals are not enumerable")

    def vector(self, coords) -> np.ndarray:
        out = np.empty(len(coords), dtype=object)
        for i, c in enumerate(coords):
            out[i] = c if isinstance(c, Fraction) else Fraction(c)
        return out

    def zeros(self, shape) -> np.ndarray:
        out = np.empty(shape, dtype=object)
        out[:] = Fraction(0)
        return out

    def canon(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def operand(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.matmul(x, y)

    def stage_operand(self, c: np.ndarray) -> np.ndarray:
        return c

    def operators(self, a: np.ndarray, c: np.ndarray, out=None) -> np.ndarray:
        """Stage 1 of a product on Fractions: u = a.C."""
        return np.matmul(a, c, out=out)

    def contract(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Stage 2 on Fractions: out[r] = z[r] . u[r]."""
        return np.matmul(z, u)

    @property
    def spec(self) -> str:
        return "q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def field_from_spec(spec: str):
    """Parse a field spec string: ``gf:p`` for GF(p), ``q`` for the rationals."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rationals"):
        return QQ
    if s.startswith("gf:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"field spec {spec!r}: p must be an integer") from None
        return PrimeField(p)
    raise ValueError(f"unrecognised field spec {spec!r} (expected 'gf:p' or 'q')")
