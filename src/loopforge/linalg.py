"""Exact linear algebra: row-reduced subspaces, solving, ideal closures, powers.

A ``Subspace`` holds its reduced row echelon basis as one read-only
(dim x n) array ``B`` with an ascending pivot array, so the basis of a span
is canonical: membership, equality and golden outputs do not depend on
insertion order or batch boundaries.  Because B is the identity on the
pivot columns, the reduction of rows m is zero there and equals
``m[:, free] - m[:, piv] @ B[:, free]`` on the d = n - dim free columns,
which is the projection to the quotient.  Every reduction computes only
that: O(rows * dim * d) work and one ``canon`` on rows x d entries, so a
membership screen of a nearly full subspace is cheap.  Insertion reduces a
whole block with one ``field.matmul``, echelonises only the surviving rows
(at most n at a time), clears the new pivot columns from the old rows with
one rank-k product and merges the rows by pivot.  One Gauss-Jordan
elimination with delayed reduction (``_echelon``) serves both insertion
and ``solve_matrix``, under one stated int64 bound.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch

# bytes per block of every blocked pass, each row counted with the arrays it
# holds at once in their dtypes: 2^20 float32 stage-1 entries, 2^19 float64
BLOCK_BYTES = 4 * 2**20


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _live(m: np.ndarray) -> np.ndarray:
    """Mask of the nonzero rows (``!= 0`` also works on object arrays)."""
    return (m != 0).any(axis=1)


class Subspace:
    """A linear subspace held as a row-reduced echelon basis.

    Treat instances as immutable values; the underscore methods that grow a
    basis are reserved for the construction routines in this module.
    """

    __slots__ = ("field", "ambient_dim", "_basis", "_pivots", "_free")

    def __init__(self, field, ambient_dim: int):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        self._basis = _frozen(np.zeros((0, self.ambient_dim), dtype=field.dtype))
        self._pivots = _frozen(np.zeros(0, dtype=np.int64))
        self._free = _frozen(np.arange(self.ambient_dim, dtype=np.int64))

    # -- read API -----------------------------------------------------
    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(self._pivots.tolist())

    @property
    def free_cols(self) -> np.ndarray:
        """The non-pivot columns, ascending (read-only)."""
        return self._free.view()

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        """The echelon rows, as read-only views of the basis."""
        return tuple(self._basis)

    def basis_matrix(self) -> np.ndarray:
        """The (dim x n) echelon basis, as a read-only view."""
        return self._basis.view()

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v modulo this subspace."""
        v = np.asarray(v)
        if v.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"expected length {self.ambient_dim}, got {v.shape}")
        return self.reduce_rows(v.reshape(1, -1))[0]

    def reduce_rows(self, m: np.ndarray) -> np.ndarray:
        return self._full_width(self.residues(m))

    def residues(self, m: np.ndarray) -> np.ndarray:
        """The rows of m reduced modulo this subspace, on the free columns only.

        This is the projection to the quotient; the reduced rows are zero on
        the pivot columns.  Over GF(p) the entries of m are integers of
        absolute value below 2^62 (the product subtracted is below 2^53, see
        ``field.matmul``); they need not be reduced.
        """
        m = np.atleast_2d(np.asarray(m))
        if m.shape[1] != self.ambient_dim:
            raise DimensionMismatch(f"expected width {self.ambient_dim}, got {m.shape[1]}")
        out = m[:, self._free]
        if self.dim:
            out = out - self.field.matmul(m[:, self._pivots], self._basis[:, self._free])
        return self.field.canon(out)

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def contains_rows(self, m: np.ndarray) -> bool:
        return not self.residues(m).any()

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of v over the echelon basis (v must be a member)."""
        v = self.field.canon(np.asarray(v))
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        return v[self._pivots]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            return False
        return np.array_equal(self._pivots, other._pivots) and \
            np.array_equal(self._basis, other._basis)

    def __le__(self, other: "Subspace") -> bool:
        if self.dim == 0:
            return True
        return other.contains_rows(self._basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field!r})"

    # -- construction API (mutating) ------------------------------------
    def _full_width(self, res: np.ndarray) -> np.ndarray:
        out = np.full((res.shape[0], self.ambient_dim), self.field.zero, dtype=self.field.dtype)
        out[:, self._free] = res
        return out

    def _survivors(self, m: np.ndarray) -> np.ndarray:
        """The rows of m outside this subspace, reduced; screened on the free columns."""
        res = self.residues(m)
        return self._full_width(res[_live(res)])

    def _insert_batch(self, m: np.ndarray) -> np.ndarray:
        """Insert every row of m; returns the echelon rows that grew the basis."""
        n, found = self.ambient_dim, []
        m = self._survivors(m)
        while m.shape[0]:
            rows, pivots = _echelon(self.field, m[:n])
            self._merge(rows, pivots)
            found.append(rows)
            m = self._survivors(m[n:])
        return np.concatenate(found) if found else m

    def _merge(self, rows: np.ndarray, pivots: np.ndarray) -> None:
        # rows are in echelon form and zero on the current pivot columns:
        # clear their pivot columns from the old rows, then sort by pivot
        f, basis = self.field, self._basis
        coeff = basis[:, pivots]
        if (coeff != 0).any():
            basis = f.canon(basis - f.matmul(coeff, rows))
        pivots = np.concatenate([self._pivots, pivots])
        order = np.argsort(pivots)
        self._basis = _frozen(np.concatenate([basis, rows])[order])
        self._pivots = _frozen(pivots[order])
        free = np.ones(self.ambient_dim, dtype=bool)
        free[pivots] = False
        self._free = _frozen(np.flatnonzero(free))


def _echelon(field, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of the rows of m: (rows, pivots), by pivot.

    Gauss-Jordan with delayed reduction (Dumas, Giorgi & Pernet, ACM TOMS
    35(3), 2008).  Each row in turn is reduced to find its leading column;
    a row that reduces to zero is dropped.  The row is scaled to 1 there,
    and one unreduced rank-1 update clears that column from every other row
    whose entry in it is nonzero; the row is zero before its leading column,
    so the update starts there.  The kept rows are reduced once, at the end.
    Pivots need not arrive in column order: a new pivot row is zero mod p
    before its leading column and on every earlier pivot column, later
    pivots clear their columns from it, and none of them touches its
    leading column, so sorting the kept rows by pivot gives the RREF.

    Over GF(p) the entries of m are canonical and each update subtracts a
    product of two residues, at most (p-1)^2, so with k pivots every entry
    stays below p + k*(p-1)^2 in absolute value: under 2^62 in int64 until
    2^22 pivots at p <= 2^20 (MAX_PRIME).  Over Q, ``canon`` is the
    identity and this is plain Gauss-Jordan.
    """
    m = np.array(m)
    kept: list[int] = []
    pivots: list[int] = []
    for i in range(m.shape[0]):
        v = field.canon(m[i])
        nz = np.flatnonzero(v)
        if not nz.size:
            continue
        lead = int(nz[0])
        v = field.canon(v[lead:] * field.inv(v[lead]))
        c = field.canon(m[:, lead])
        hit = np.flatnonzero(c)         # row i among them: it is replaced by v
        m[hit, lead:] -= c[hit, None] * v
        m[i, lead:] = v
        kept.append(i)
        pivots.append(lead)
    order = np.argsort(pivots)
    return field.canon(m[np.asarray(kept, dtype=np.int64)[order]]), \
        np.asarray(pivots, dtype=np.int64)[order]


def span_rows(field, ambient_dim: int, rows) -> Subspace:
    s = Subspace(field, ambient_dim)
    m = np.atleast_2d(np.asarray(rows))
    if m.size:
        s._insert_batch(m)
    return s


def solve_matrix(a: np.ndarray, rhs: np.ndarray, field) -> Optional[np.ndarray]:
    """Solve a @ x = rhs for an explicit coefficient matrix a (n x m).

    Reads the reduced row echelon form of [a | rhs] (``_echelon``): the
    system is inconsistent, and None is returned, exactly when the rhs
    column m is a pivot; otherwise x is read off the pivot rows, with free
    variables 0.
    """
    a, b = np.asarray(a), np.asarray(rhs)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch("matrix/rhs shape mismatch")
    m = a.shape[1]
    aug = field.canon(np.column_stack((a, b)).astype(field.dtype, copy=False))
    rows, pivots = _echelon(field, aug)
    if pivots.size and pivots[-1] == m:
        return None
    x = field.zeros(m)
    x[pivots] = rows[:, m]
    return x


Action = Callable[[np.ndarray], np.ndarray]

IMAGE_CHUNK_ENTRIES = 2**15    # per chunk of action images (``_image_chunks``)


def _image_chunks(block: np.ndarray, actions: Sequence[Action]) -> Iterator[np.ndarray]:
    """Yield the images of ``block`` under ``actions``, in stacked chunks.

    A chunk stacks act(block) for consecutive actions, or holds a slice of
    one action's image when the block alone exceeds ``IMAGE_CHUNK_ENTRIES``;
    chunks follow the order of the actions, and rows within each.  A chunk
    is one insertion (the basis grows and the ceiling is tested between
    them), so its size, in entries, is the closure's step, not a share of
    BLOCK_BYTES: 6x larger chunks made bundle builds slower.
    """
    rows, n = block.shape
    step = max(1, IMAGE_CHUNK_ENTRIES // max(n, 1))
    if rows > step:
        for act in actions:
            for s in range(0, rows, step):
                yield act(block[s:s + step])
        return
    per = max(1, step // max(rows, 1))
    for k in range(0, len(actions), per):
        group = actions[k:k + per]
        images = np.empty((len(group) * rows, n), dtype=block.dtype)
        for i, act in enumerate(group):
            images[i * rows:(i + 1) * rows] = act(block)
        yield images


def ideal_closure(
    seeds: Iterable[np.ndarray],
    left_actions: Sequence[Action],
    right_actions: Sequence[Action],
    *,
    field,
    ambient_dim: int,
    ceiling: Optional[int] = None,
) -> Subspace:
    """Smallest subspace containing the seeds and stable under every action.

    ``seeds`` may yield single vectors or row matrices; they are consumed in
    order with batched echelon reduction.  Each sweep applies all 2n actions
    to the rows found in the previous one and reduces their images in
    stacked chunks of at most ``IMAGE_CHUNK_ENTRIES`` entries, one insertion
    per chunk; the reduction screens a chunk on the d free columns, so a
    chunk that lies in the subspace costs O(rows * dim * d).  Exits early
    once the closure fills the ambient space.  The action fixpoint is
    re-verified by a final sweep over every basis row, so the returned basis
    is action-stable by construction, not by trust in the bookkeeping.

    ``ceiling`` is the dimension of a stable subspace K that the caller
    proves to contain every seed.  The span lies in the closure, which lies
    in K, so once its dimension equals the ceiling it is K and the closure.
    The closure then returns at once (after a seed block, inside a sweep or
    at the loop test), without the verification sweep; the caller checks
    the result against K.  A closure that never reaches the ceiling runs as
    without one.
    """
    s = Subspace(field, ambient_dim)
    stop = {ambient_dim, ceiling}
    for block in seeds:
        block = np.asarray(block)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.shape[1] != ambient_dim:
            raise DimensionMismatch(f"seed width {block.shape[1]} != {ambient_dim}")
        s._insert_batch(block)
        if s.dim in stop:
            return s
    actions = list(left_actions) + list(right_actions)

    def sweep(block):
        grown = []
        for images in _image_chunks(block, actions):
            grown.append(s._insert_batch(images))
            if s.dim in stop:
                break
        return np.concatenate(grown) if grown else block[:0]

    fresh = s.basis_matrix()            # no row has been acted on yet
    while fresh.shape[0] and s.dim not in stop:
        fresh = sweep(fresh)            # generation: images of the last sweep's rows
        if not fresh.shape[0] and s.dim not in stop:
            fresh = sweep(s.basis_matrix())     # verification: a clean pass ends it
    return s


MulRows = Callable[[np.ndarray, np.ndarray], np.ndarray]


def power_sequence(s: Subspace, mul_rows: MulRows, limit: int) -> list[Subspace]:
    """[S^1, S^2, ..., S^limit] under the all-bracketings power recursion.

    S^n is the span of every product of n factors from S regardless of
    bracketing, computed as span(U_{i+j=n} S^i * S^j).
    """
    powers = [s]
    for n in range(2, limit + 1):
        out = Subspace(s.field, s.ambient_dim)
        for i in range(1, n):
            a, b = powers[i - 1], powers[n - i - 1]
            if a.dim == 0 or b.dim == 0:
                continue
            out._insert_batch(mul_rows(a.basis_matrix(), b.basis_matrix()))
        powers.append(out)
        if out.dim == 0:
            break
    return powers


def subspace_power(s: Subspace, mul_rows: MulRows, n: int) -> Subspace:
    if n < 1:
        raise ValueError("power must be >= 1")
    seq = power_sequence(s, mul_rows, n)
    if len(seq) >= n:
        return seq[n - 1]
    return Subspace(s.field, s.ambient_dim)  # stream died earlier: S^n = 0


def nilpotency_index(s: Subspace, mul_rows: MulRows) -> Optional[int]:
    """Least n with S^n = 0, or None if no power vanishes within the cap.

    The search runs to ambient_dim + 1 steps (the power sequence of a
    subalgebra is descending, so a vanishing power must appear within that
    many strict drops); a sequence still nonzero at the cap has stabilised.
    """
    if s.dim == 0:
        return 1
    seq = power_sequence(s, mul_rows, s.ambient_dim + 1)
    for k, p in enumerate(seq, start=1):
        if p.dim == 0:
            return k
    return None
