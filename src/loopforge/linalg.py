"""Exact linear algebra: row-reduced subspaces, solving, ideal closures, powers.

Subspace bases are kept in reduced row echelon form at all times, which makes
the basis of a given span canonical: membership tests, equality and golden
outputs do not depend on insertion order or batch boundaries.  The insert path
accepts whole matrices of candidate rows, so seed blocks and the images of a
whole basis under an action are reduced in vectorised numpy sweeps.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch


class Subspace:
    """A linear subspace held as a row-reduced echelon basis.

    Treat instances as immutable values; the underscore methods that grow a
    basis in place are reserved for the construction routines in this module.
    """

    __slots__ = ("field", "ambient_dim", "_rows", "_pivots")

    def __init__(self, field, ambient_dim: int):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []

    # -- read API -----------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        return tuple(self._rows)

    def basis_matrix(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.ambient_dim), dtype=self.field.dtype)
        return np.vstack([r.reshape(1, -1) for r in self._rows])

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def is_zero(self) -> bool:
        return self.dim == 0

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v modulo this subspace."""
        v = np.asarray(v)
        if v.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"expected length {self.ambient_dim}, got {v.shape}")
        return self.reduce_rows(v.reshape(1, -1))[0]

    def reduce_rows(self, m: np.ndarray) -> np.ndarray:
        m = self.field.canon(np.atleast_2d(np.asarray(m)))
        if m.shape[1] != self.ambient_dim:
            raise DimensionMismatch(f"expected width {self.ambient_dim}, got {m.shape[1]}")
        if not self._pivots:
            return m
        # one matmul reduces against the whole echelon basis: every basis row
        # is zero at the other pivot columns, so the pivot-column coefficients
        # act independently
        coeff = m[:, self._pivots]
        if coeff.any():
            m = self.field.canon(m - self.field.matmul(coeff, self.basis_matrix()))
        return m

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def contains_rows(self, m: np.ndarray) -> bool:
        return not self.reduce_rows(m).any()

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of v over the echelon basis (v must be a member)."""
        v = self.field.canon(np.asarray(v))
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        if not self._pivots:
            return self.field.zeros(0)
        return v[np.asarray(self._pivots)]

    def copy(self) -> "Subspace":
        s = Subspace(self.field, self.ambient_dim)
        s._rows = [r.copy() for r in self._rows]
        s._pivots = list(self._pivots)
        return s

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            return False
        if self._pivots != other._pivots:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self._rows, other._rows))

    def __le__(self, other: "Subspace") -> bool:
        if self.dim == 0:
            return True
        return other.contains_rows(self.basis_matrix())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field!r})"

    # -- construction API (mutating) ------------------------------------
    def _raw_insert(self, v: np.ndarray, lead: int) -> None:
        # v is normalised with pivot 1 at `lead` and already reduced against
        # the current rows; clear column `lead` from them and splice v in.
        for i, row in enumerate(self._rows):
            c = row[lead]
            if c:
                self._rows[i] = self.field.canon(row - c * v)
        pos = int(np.searchsorted(np.asarray(self._pivots, dtype=np.int64), lead)) if self._pivots else 0
        self._rows.insert(pos, v)
        self._pivots.insert(pos, lead)

    def _insert(self, v: np.ndarray) -> bool:
        v = self.reduce(v)
        nz = np.flatnonzero(v != 0)
        if nz.size == 0:
            return False
        lead = int(nz[0])
        v = self.field.canon(v * self.field.inv(v[lead]))
        self._raw_insert(v, lead)
        return True

    def _insert_batch(self, m: np.ndarray) -> list[np.ndarray]:
        """Insert every row of m; returns the newly created basis rows."""
        m = self.reduce_rows(m)
        new_rows: list[np.ndarray] = []
        while True:
            nonzero = m.any(axis=1)
            idxs = np.flatnonzero(nonzero)
            if idxs.size == 0:
                break
            leads = (m[idxs] != 0).argmax(axis=1)
            # deterministic choice: smallest leading column, then smallest row
            k = int(np.lexsort((idxs, leads))[0])
            ridx, lead = int(idxs[k]), int(leads[k])
            v = self.field.canon(m[ridx] * self.field.inv(m[ridx, lead]))
            self._raw_insert(v.copy(), lead)
            new_rows.append(v.copy())
            c = m[:, lead]
            if c.any():
                m = self.field.canon(m - c[:, None] * v[None, :])
            if self.is_full():
                break
        return new_rows


def subspace_insert(s: Subspace, v) -> tuple[Subspace, bool]:
    """Pure insert: returns (subspace spanning S ∪ {v}, grew flag)."""
    t = s.copy()
    grew = t._insert(s.field.vector(v))
    return t, grew


def span_rows(field, ambient_dim: int, rows) -> Subspace:
    s = Subspace(field, ambient_dim)
    m = np.atleast_2d(np.asarray(rows))
    if m.size:
        s._insert_batch(field.canon(m))
    return s


def solve(columns: Sequence[np.ndarray], rhs, field) -> Optional[np.ndarray]:
    """Solve sum_i x_i * columns[i] = rhs exactly.

    Returns the solution with every free variable set to zero (pivots are
    chosen at the leftmost columns), or None if the system is inconsistent.
    """
    cols = [field.vector(c) for c in columns]
    n = len(field.vector(rhs))
    for c in cols:
        if c.shape != (n,):
            raise DimensionMismatch("column length disagrees with rhs")
    if cols:
        a = np.stack(cols, axis=1)
    else:
        a = np.zeros((n, 0), dtype=field.dtype)
    return solve_matrix(a, field.vector(rhs), field)


def solve_matrix(a: np.ndarray, rhs: np.ndarray, field) -> Optional[np.ndarray]:
    """Solve a @ x = rhs for an explicit coefficient matrix a (n x m)."""
    a = field.canon(np.asarray(a).copy())
    b = field.canon(np.asarray(rhs).copy())
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch("matrix/rhs shape mismatch")
    n, m = a.shape
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(m):
        rows_nz = np.flatnonzero(a[rank:, col] != 0)
        if rows_nz.size == 0:
            continue
        r = rank + int(rows_nz[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
            b[[rank, r]] = b[[r, rank]]
        inv = field.inv(a[rank, col])
        a[rank] = field.canon(a[rank] * inv)
        b[rank] = field.mul(b[rank], inv)
        c = a[:, col].copy()
        c[rank] = 0
        mask = c != 0
        if mask.any():
            a[mask] = field.canon(a[mask] - c[mask, None] * a[rank][None, :])
            b[mask] = field.canon(b[mask] - c[mask] * b[rank])
        pivots.append((rank, col))
        rank += 1
        if rank == n:
            break
    if rank < n and b[rank:].any():
        return None
    x = field.zeros(m)
    for r, col in pivots:
        x[col] = b[r]
    return x


Action = Callable[[np.ndarray], np.ndarray]


def ideal_closure(
    seeds: Iterable[np.ndarray],
    left_actions: Sequence[Action],
    right_actions: Sequence[Action],
    *,
    field,
    ambient_dim: int,
) -> Subspace:
    """Smallest subspace containing the seeds and stable under every action.

    ``seeds`` may yield single vectors or row matrices; they are consumed in
    order with batched echelon reduction.  Exits early once the closure fills
    the ambient space.  The action fixpoint is re-verified by a final sweep
    over every basis row, so the returned basis is action-stable by
    construction, not by trust in the worklist bookkeeping.
    """
    s = Subspace(field, ambient_dim)
    fresh: list[np.ndarray] = []
    for block in seeds:
        block = np.asarray(block)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.shape[1] != ambient_dim:
            raise DimensionMismatch(f"seed width {block.shape[1]} != {ambient_dim}")
        fresh.extend(s._insert_batch(block))
        if s.is_full():
            return s
    actions = list(left_actions) + list(right_actions)
    # generation sweeps: apply every action to the rows discovered last round
    while fresh and not s.is_full():
        block = np.vstack(fresh)
        fresh = []
        for act in actions:
            fresh.extend(s._insert_batch(field.canon(act(block))))
            if s.is_full():
                return s
    # verification sweeps over the full basis until a clean pass
    while not s.is_full():
        added = 0
        basis = s.basis_matrix()
        if basis.shape[0] == 0:
            break
        for act in actions:
            added += len(s._insert_batch(field.canon(act(basis))))
            if s.is_full():
                return s
        if added == 0:
            break
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


def nilpotency_index(s: Subspace, mul_rows: MulRows, max_steps: Optional[int] = None) -> Optional[int]:
    """Least n with S^n = 0, or None if no power vanishes within the cap.

    The search runs to ambient_dim + 1 steps (the power sequence of a
    subalgebra is descending, so a vanishing power must appear within that
    many strict drops); a sequence still nonzero at the cap has stabilised.
    """
    if s.dim == 0:
        return 1
    cap = max_steps if max_steps is not None else s.ambient_dim + 1
    seq = power_sequence(s, mul_rows, cap)
    for k, p in enumerate(seq, start=1):
        if p.dim == 0:
            return k
    return None
