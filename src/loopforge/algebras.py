"""Finite-dimensional algebras over exact fields.

Covers loop algebras, the alternator ideal and its alternative quotient,
augmentation ideals, unitization, inverses and quasiinverses, the circle
operation and circle loops, nilpotency of ideals, and the quasiregular
radical in the supported regimes.

Loop algebras keep their permutation structure (basis products are basis
elements); general algebras carry a dense structure-constant tensor.  Every
product runs through two stages, ``Algebra.operators`` (the left or right
multiplication operators of a block of rows) and ``Algebra.contract``
(those operators applied to other rows, the field's ``contract``: a batched
product reduced in float).  Stage 1 is the field's ``operators`` (one GEMM)
for a structure tensor, and a gather of the rows by the division tables for
a loop algebra, whose ideal-closure actions are the same gathers.
``mul_rows``, ``mul_pairwise``, the multiplication matrices and the sampled
checks all take this route, so each operand's operators are built once per
block and serve every product it takes part in.  ``field.matmul`` serves
only linear algebra and a structure tensor's ideal-closure actions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    AlternatorIdealFull,
    DimensionBoundExceeded,
    DimensionMismatch,
    IdealNotProper,
    IdealNotStable,
    NotNil,
    NotQuasiregular,
    SidedInverseMismatch,
    UnsupportedRadical,
)
from .fields import PAIRWISE_CHUNK_ENTRIES, PrimeField
from .linalg import Subspace
from .loops import (
    DEFAULT_SEED,
    CheckOutcome,
    Loop,
    SubloopSet,
    _associator_labels,
    _check_order,
    _class_quotient,
    _is_associative,
)

LOOP_ALGEBRA_DIM_BOUND = 2048
# largest dense structure tensor a quotient gathers, in entries: d^3 <= 2^24,
# so d <= 256 and 128 MiB of int64 (the fixture quotients have d <= 81)
QUOTIENT_ENTRY_BOUND = 2**24
CIRCLE_TABLE_BOUND = 4096
CIRCLE_CHUNK_ENTRIES = 2**20  # product entries per block of a circle table
CIRCLE_ENUM_BOUND = 2**20
RADICAL_ENUM_BOUND = 2**20


def _eye(field, n):
    out = field.zeros((n, n))
    out[np.arange(n), np.arange(n)] = field.one
    return out


class Algebra:
    """Base class: a finite-dimensional algebra with exact scalar entries.

    A loop-backed algebra (FQ or a quotient of it) sets ``loop`` and provides
    ``section_cols``, the loop elements whose images form its basis, and
    ``basis_images``, the image of every loop element, one row each.
    """

    field = None
    dim = 0
    names: tuple = ()
    unit: Optional[np.ndarray] = None
    loop: Optional[Loop] = None

    def mul(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.mul_rows(np.asarray(v).reshape(1, -1), np.asarray(w).reshape(1, -1))[0]

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise products of rows of a with rows of b, row-major: the
        left operators of each block of a, applied to all of b."""
        a, b = np.atleast_2d(np.asarray(a)), np.atleast_2d(np.asarray(b))
        return self._left_products(a, b[None]).reshape(len(a) * len(b), self.dim)

    def mul_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-by-row products: out[k] = a[k] * b[k]."""
        a, b = np.atleast_2d(np.asarray(a)), np.atleast_2d(np.asarray(b))
        return self._left_products(a, b[:, None])[:, 0]

    def _left_products(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        """out[r, t] = a[r] z[r, t] for z of shape (k, t, d), or (1, t, d)
        shared by every r: per block of ``block_rows(1)`` rows of a, their
        left operators once, then ``contract``."""
        out = np.empty((len(a), z.shape[1], self.dim), dtype=self.field.dtype)
        step, ops = self.block_rows(1), None
        for s in range(0, len(a), step):
            ops = self.operators(a[s:s + step], "l", ops)
            out[s:s + step] = self.contract(z if len(z) == 1 else z[s:s + step], ops, 0)
        return out

    def operators(self, x: np.ndarray, sides: str, out=None):
        """Stage 1 of the products of each row x[r]: its left (z -> x z) and
        right (z -> z x) multiplication operators, ``sides`` being "l", "r"
        or "lr", as an array of shape (k, len(sides), d, d) in the field's
        stage type, row j of an operator holding the image of e_j;
        ``out``, operators an earlier block returned, may be reused."""
        raise NotImplementedError

    def contract(self, z: np.ndarray, ops, side: int) -> np.ndarray:
        """Stage 2: out[r, t] is operator number ``side`` of ``ops[r]`` applied to
        z[r, t], for z of shape (k, t, d) or (1, t, d); operators of one row
        serve every r, and one row of z serves every operator."""
        return self.field.contract(z, ops[:, side])

    def block_rows(self, operators: int) -> int:
        """Rows per block of a product or sampled check holding ``operators``
        d x d operators per row: at most PAIRWISE_CHUNK_ENTRIES entries."""
        return max(1, PAIRWISE_CHUNK_ENTRIES // max(operators * self.dim**2, 1))

    def basis_vec(self, i: int) -> np.ndarray:
        v = self.field.zeros(self.dim)
        v[i] = self.field.one
        return v

    def left_actions(self):
        raise NotImplementedError

    def right_actions(self):
        raise NotImplementedError

    def associator(self, a, b, c) -> np.ndarray:
        return self.field.canon(self.mul(self.mul(a, b), c) - self.mul(a, self.mul(b, c)))


class LoopAlgebra(Algebra):
    """The loop algebra FQ: free module on the loop, table-driven products."""

    def __init__(self, field, loop: Loop):
        if not loop.has_table():
            raise DimensionBoundExceeded("loop algebra needs a dense Cayley table")
        if loop.order > LOOP_ALGEBRA_DIM_BOUND:
            raise DimensionBoundExceeded(
                f"order {loop.order} exceeds loop-algebra bound {LOOP_ALGEBRA_DIM_BOUND}")
        self.field = field
        self.loop = loop
        self.dim = loop.order
        self.names = loop.names
        self.unit = self.basis_vec(0)
        self.section_cols = np.arange(self.dim)

    @property
    def basis_images(self) -> np.ndarray:
        """The n x n identity, built on each access so that no bundle keeps it."""
        return _eye(self.field, self.dim)

    def operators(self, x, sides, out=None):
        """The operators of FQ are gathers of the canonical rows, since rows
        and columns of the table are permutations: x e_j has entry
        x[rd[k, j]] at k and e_j x has x[ld[j, k]], so L_x is x[rd.T] and
        R_x is x[ld].  They take the stage type of d = n, whose bound
        n^2 (p-1)^3 covers stage 2's sums of n products below (p-1)^2."""
        f, loop = self.field, self.loop
        x = f.stage_operand(f.canon(np.atleast_2d(np.asarray(x))).T).T
        tables = {"l": loop.rd_table.T, "r": loop.ld_table}
        return np.stack([x[:, tables[s]] for s in sides], axis=1,
                        out=None if out is None else out[:len(x)])

    @cached_property
    def associator_projection(self) -> Optional[np.ndarray]:
        """Class numbers of Q -> Q/A(Q), or None unless Light's test
        (``loops._is_associative``, exact at every order) certifies Q/A(Q).

        A(Q) is the associator subloop, whose labels ``loops`` builds once
        per loop.  Its quotient is tested here, not taken on trust: the
        kernel of FQ -> F[Q/A(Q)] bounds the alternator ideal only when
        F[Q/A(Q)] is associative (see ``alternator_ideal``).
        """
        reps, proj, qtable = _class_quotient(self.loop, _associator_labels(self.loop))
        return proj if _is_associative(Loop(reps, qtable, _validated=True)) else None

    @property
    def alternator_ceiling(self) -> Optional[int]:
        """n - |Q/A(Q)|, the dimension of the kernel of FQ -> F[Q/A(Q)], when
        ``associator_projection`` certifies Q/A(Q) (at any order); else None."""
        proj = self.associator_projection
        return None if proj is None else self.dim - int(proj.max()) - 1

    def left_actions(self):     # e_g v = v[ld[g]], the table built on first use
        return [lambda m, g=g: m[:, self.loop.ld_table[g]] for g in range(self.dim)]

    def right_actions(self):    # v e_g = v[rd[:, g]]
        return [lambda m, g=g: m[:, self.loop.rd_table[:, g]] for g in range(self.dim)]


class TensorAlgebra(Algebra):
    """Algebra given by an explicit structure-constant tensor c[i,j,:]."""

    def __init__(self, field, tensor: np.ndarray, names: Sequence[str],
                 unit: Optional[np.ndarray] = None):
        self.field = field
        self.c = field.canon(np.asarray(tensor))
        self.dim = self.c.shape[0]
        if self.c.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch("structure tensor must be cubic")
        self.names = tuple(names)
        self.unit = None if unit is None else field.canon(np.asarray(unit))

    @cached_property
    def _sides(self) -> np.ndarray:
        """C beside its (1, 0, 2) transpose C', one d x 2d^2 stage operand and
        the only converted copy of C: x.C holds the left operators of x and
        x.C' the right ones, and row g holds C[g] and C[:, g], the matrices
        of the left and right actions of e_g.  Built by the first product or
        action, so no algebra carries it from the start."""
        d, c = self.dim, self.c
        return self.field.stage_operand(np.concatenate(
            [c.reshape(d, d * d), c.transpose(1, 0, 2).reshape(d, d * d)], axis=1))

    def operators(self, x, sides, out=None):
        """The field's stage 1 on the columns of ``_sides`` that ``sides`` names:
        one GEMM for both sides, an array of shape (k, len(sides), d, d)."""
        d, k, w = self.dim, len(x), len(sides) * self.dim**2
        cols = slice(d * d if sides == "r" else 0, d * d if sides == "l" else 2 * d * d)
        if out is not None:
            out = out[:k].reshape(k, w)
        return self.field.operators(x, self._sides[:, cols], out).reshape(k, len(sides), d, d)

    def mul_basis(self, i: int, j: int) -> np.ndarray:
        return self.c[i, j].copy()

    def left_actions(self):
        return [_matrix_action(self.field, g.reshape(2, self.dim, -1)[0]) for g in self._sides]

    def right_actions(self):
        return [_matrix_action(self.field, g.reshape(2, self.dim, -1)[1]) for g in self._sides]


def _matrix_action(field, w):
    def act(m):
        return field.canon(field.matmul(m, w))
    return act


def loop_algebra(field, loop: Loop) -> LoopAlgebra:
    return LoopAlgebra(field, loop)


# -- alternator ideal and the alternative quotient --------------------------

# each alternator family is a sum of associators (x, y, z) of basis elements,
# written as positions in the triple (a, b, c); families 2 and 3 are spanned
# by 0 and 1 except in characteristic 2
_ALTERNATOR_FORMS = (
    ((0, 1, 2), (1, 0, 2)),     # (a,b,c) + (b,a,c)
    ((0, 1, 2), (0, 2, 1)),     # (a,b,c) + (a,c,b)
    ((0, 0, 2),),               # (a,a,c)
    ((2, 0, 0),),               # (c,a,a)
)
ALTERNATOR_SEED_PAIRS = 4
_SCAN_ENTRIES = 2**18


def _associators(t, fam: int, a, b, c) -> list:
    """The loop elements ((xy)z, x(yz)) of each associator (x, y, z) of family
    ``fam`` on loop triples (a, b, c); index arrays broadcast."""
    n, flat = t.shape[0], t.ravel()

    def mul(x, y):      # a flat gather takes half the time of t[x, y]
        return flat[x * n + y]
    abc = (a, b, c)
    return [(mul(mul(abc[i], abc[j]), abc[k]), mul(abc[i], mul(abc[j], abc[k])))
            for i, j, k in _ALTERNATOR_FORMS[fam]]


def _alternators(t, img, fam: int, a, b, c) -> np.ndarray:
    """Alternators of family ``fam`` on loop triples (a, b, c), one row each.

    Row x of ``img`` is the image of the basis element e_x, so the identity
    gives alternators in FQ and a quotient's ``basis_images`` gives them in
    that quotient: products of loop elements are table lookups and the
    projection is a homomorphism.  Index arrays broadcast; rows are not
    reduced.
    """
    out = 0
    for left, right in _associators(t, fam, a, b, c):
        out = out + img[left] - img[right]
    return out


def _sum_classes(img, field) -> np.ndarray:
    """Dense ids of the pair sums img[u] + img[v], flat at u * n + v: two
    ids are equal exactly when the two sum rows are.

    Column by column, the canonical sums of the column's distinct values are
    renumbered by ``np.unique`` (exact over GF(p) and over Q alike), and
    each pair's number is folded into an int64 key as one more digit, of
    radix that column's count of distinct sums.  The keys are renumbered
    whenever the next digit would take them to 2^62, and at the end; n^2
    keys and one column at a time, so the memory is O(n^2).
    """
    n = img.shape[0]
    keys, top = np.zeros(n * n, dtype=np.int64), 1
    for col in img.T:
        vals, val_id = np.unique(col, return_inverse=True)
        sums, sum_id = np.unique(field.canon(vals[:, None] + vals[None, :]).ravel(),
                                 return_inverse=True)
        radix = len(sums)
        if top * radix >= 2**62:
            keys = np.unique(keys, return_inverse=True)[1]
            top = int(keys.max()) + 1
        keys = keys * radix + sum_id.reshape(len(vals), -1)[val_id[:, None], val_id].ravel()
        top *= radix
    return np.unique(keys, return_inverse=True)[1]


def _alternator_failures(t, img, elems, field):
    """Yield (fam, a, b, c) position arrays of the nonzero basis alternators.

    Scans every family on the canonical triples of ``elems`` (positions
    index it), in lexicographic order: family 0 is symmetric in (a, b) and
    family 1 in (b, c), so they scan a <= b and b <= c; a partner lifts to the
    same vector and the least failing triple is canonical.  Blocks of pairs
    (a, b) run over their c and hold at most 2^18 entries counted at the loop
    algebra's width n >= d, so a block of failures lifted into FQ is no
    larger than the block scanned.

    Each alternator is img[u1] - img[u2] + img[u3] - img[u4] for the loop
    elements u of its associators (``_associators``; a one-associator family
    takes u3 = u4 = e), so it vanishes exactly when the pair sums
    img[u1] + img[u3] and img[u2] + img[u4] are equal: one comparison of
    ``_sum_classes`` ids per triple, no image row gathered.
    """
    n, m = t.shape[0], len(elems)
    ids = _sum_classes(img, field)
    step = max(1, _SCAN_ENTRIES // (m * n))
    diag = np.arange(m)
    pairs = (np.triu_indices(m), np.divmod(np.arange(m * m), m), (diag, diag), (diag, diag))
    for fam, (pa, pb) in enumerate(pairs):
        for s in range(0, len(pa), step):
            a, b = pa[s:s + step], pb[s:s + step]
            rows, c = np.nonzero(np.arange(m) >= b[:, None] * (fam == 1))  # family 1: c >= b
            a, b = a[rows], b[rows]
            terms = _associators(t, fam, elems[a], elems[b], elems[c])
            (u1, u2), (u3, u4) = (terms + [(0, 0)])[:2]
            hit = np.flatnonzero(ids[u1 * n + u3] != ids[u2 * n + u4])
            if hit.size:
                yield fam, a[hit], b[hit], c[hit]


def alternator_ideal(alg: LoopAlgebra) -> Subspace:
    """The alternator ideal I(Q): the least ideal of FQ with alternative quotient.

    Seeds the linearised alternators (a,b,c)+(b,a,c) and (a,b,c)+(a,c,b)
    of a few seeded pairs (a, b) over every c, each built when the closure
    draws it, closes under the 2n translations, then checks every alternator
    family on the quotient basis.  Failures lift to alternators of FQ and
    the closure is rerun with them until the quotient is alternative or the
    unit lies in the ideal.  Only alternators are added, so the result
    lies in I(Q); the final check makes FQ/I alternative, so it contains
    I(Q).  Zero output (associative loop) is valid.

    The closures stop at a ceiling.  When Light's test certifies Q/A(Q)
    associative at any order (``LoopAlgebra.associator_projection``),
    F[Q/A(Q)] is an alternative image of FQ, so the kernel K of FQ ->
    F[Q/A(Q)] is an ideal containing I(Q), of dimension n - |Q/A(Q)|.  A
    closure that reaches it is returned without the alternator scan once its
    basis rows sum to zero over every class of A(Q): it then lies in K, so it
    is K = I(Q).  A group has ceiling 0, a simple loop n - 1.  Should that
    check fail, the ceiling is dropped and the closure runs on without one.
    """
    f, t, n = alg.field, alg.loop.table, alg.dim
    eye = alg.basis_images
    pairs = np.random.default_rng(DEFAULT_SEED).integers(0, n, size=(ALTERNATOR_SEED_PAIRS, 2))
    seeds = (f.canon(_alternators(t, eye, fam, a, b, np.arange(n)))
             for a, b in pairs for fam in (0, 1))
    left, right = alg.left_actions(), alg.right_actions()
    proj, ceiling = alg.associator_projection, alg.alternator_ceiling
    while True:
        ideal = linalg.ideal_closure(seeds, left, right, field=f, ambient_dim=n,
                                     ceiling=ceiling)
        if ideal.dim == ceiling:
            if _in_kernel(ideal, proj):
                return ideal
            ceiling, seeds = None, [ideal.basis_matrix()]
            continue
        if ideal.contains(alg.unit):
            return ideal
        cols = ideal.free_cols
        lifts = (f.canon(_alternators(t, eye, fam, cols[a], cols[b], cols[c]))
                 for fam, a, b, c in _alternator_failures(t, ideal.residues(eye), cols, f))
        head = next(lifts, None)
        if head is None:
            return ideal
        seeds = itertools.chain([ideal.basis_matrix(), head], lifts)


def _in_kernel(ideal: Subspace, proj: np.ndarray) -> bool:
    """Whether every basis row sums to zero over each class of proj, i.e.
    lies in the kernel of FQ -> F[Q/N] for the classes N of proj."""
    f = ideal.field
    classes = (proj[:, None] == np.arange(int(proj.max()) + 1)).astype(np.int64)
    return not f.canon(f.matmul(ideal.basis_matrix(), classes)).any()


class QuotientAlgebra(TensorAlgebra):
    """Quotient of an algebra by a verified ideal, in complement coordinates.

    Coordinates are the non-pivot columns of the ideal's echelon basis: the
    reduction of a vector modulo the ideal is supported exactly there, so
    reduce-then-restrict (``Subspace.residues``) is a well-defined projection
    with a linear section.  A quotient whose d^3 structure constants exceed
    QUOTIENT_ENTRY_BOUND raises DimensionBoundExceeded before it gathers them.
    """

    def __init__(self, parent: Algebra, ideal: Subspace, verify: bool = True):
        if ideal.ambient_dim != parent.dim or ideal.field != parent.field:
            raise DimensionMismatch("ideal does not live in the parent algebra")
        qdim = parent.dim - ideal.dim
        if qdim**3 > QUOTIENT_ENTRY_BOUND:
            raise DimensionBoundExceeded(
                f"a {qdim}-dimensional quotient has {qdim**3} structure constants, "
                f"beyond QUOTIENT_ENTRY_BOUND = {QUOTIENT_ENTRY_BOUND}")
        if parent.unit is not None and ideal.contains(parent.unit):
            raise IdealNotProper("the unit lies in the ideal")
        if verify:
            basis = ideal.basis_matrix()
            for side, actions in (("left", parent.left_actions()),
                                  ("right", parent.right_actions())):
                for k, act in enumerate(actions):
                    if not ideal.contains_rows(act(basis)):
                        raise IdealNotStable((side, k))
        self.parent = parent
        self.ideal = ideal
        self.section_cols = ideal.free_cols
        self.basis_images = ideal.residues(_eye(parent.field, parent.dim))
        if isinstance(parent, LoopAlgebra):
            self.loop = parent.loop
            t = parent.loop.table
            tensor = self.basis_images[t[np.ix_(self.section_cols, self.section_cols)]]
            names = tuple(parent.names[int(j)] for j in self.section_cols)
        else:
            reps = _eye(parent.field, parent.dim)[self.section_cols]
            prods = parent.mul_rows(reps, reps)
            tensor = ideal.residues(prods).reshape(qdim, qdim, qdim)
            names = tuple(f"q{int(j)}" for j in self.section_cols)
        unit = None
        if parent.unit is not None:
            unit = ideal.reduce(parent.unit)[self.section_cols]
        super().__init__(parent.field, tensor, names, unit=unit)

    def project_rows(self, m: np.ndarray) -> np.ndarray:
        return self.ideal.residues(m)

    def lift_rows(self, m: np.ndarray) -> np.ndarray:
        m = np.atleast_2d(np.asarray(m))
        out = self.field.zeros((m.shape[0], self.parent.dim))
        out[:, self.section_cols] = m
        return out


def quotient_algebra(parent: Algebra, ideal: Subspace, verify: bool = True) -> QuotientAlgebra:
    return QuotientAlgebra(parent, ideal, verify=verify)


@dataclass
class AlternativeLoopAlgebra:
    """The alternative quotient FQ / I(Q) together with its canonical data."""

    loop: Loop
    field: object
    fq: LoopAlgebra
    alternator: Subspace
    algebra: QuotientAlgebra
    images: np.ndarray            # |Q| x dim projections of the loop basis
    canonical_injective: bool
    collision: Optional[tuple]    # (q, q') with equal images, if any
    omega: Subspace               # augmentation ideal inside the quotient

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def unit_in_omega(self) -> bool:
        return self.omega.contains(self.algebra.unit)

    @property
    def omega_codim(self) -> int:
        return self.algebra.dim - self.omega.dim

    @property
    def ceiling_hit(self) -> bool:
        """Whether I(Q) has the dimension of ``alternator_ideal``'s ceiling, so
        its closure stopped there without the alternator scan."""
        return self.alternator.dim == self.fq.alternator_ceiling

    @cached_property
    def embedding_checks(self) -> tuple[bool, bool, bool]:
        """Injectivity, invertibility and multiplicativity of q -> image(q).

        An image with a two-sided inverse, the image of q^-1, is invertible;
        only the images failing that check are solved for an inverse.
        """
        quot, images = self.algebra, self.images
        distinct = _first_duplicate_rows(images) is None
        inv_images = images[self.loop.inverses()]
        e = quot.unit
        two_sided = ((quot.mul_pairwise(images, inv_images) == e).all(axis=1)
                     & (quot.mul_pairwise(inv_images, images) == e).all(axis=1))
        all_invertible = all(invert(quot, images[i]) is not None
                             for i in np.flatnonzero(~two_sided))
        prods = quot.mul_rows(images, images).reshape(images.shape[0], images.shape[0], quot.dim)
        multiplicative = bool(np.array_equal(prods, images[self.loop.table]))
        return distinct, all_invertible, multiplicative


def alternative_loop_algebra(field, loop: Loop) -> AlternativeLoopAlgebra:
    """Build F[Q] = FQ / I(Q), its augmentation ideal, and injectivity data."""
    _check_order(loop)
    fq = loop_algebra(field, loop)
    ideal = alternator_ideal(fq)
    if ideal.contains(fq.unit):
        raise AlternatorIdealFull(
            f"alternator ideal of {loop.name} over {field!r} contains the unit")
    quot = QuotientAlgebra(fq, ideal, verify=False)  # closure output is action-stable
    collision = _first_duplicate_rows(quot.basis_images)
    omega = augmentation_ideal(quot)
    return AlternativeLoopAlgebra(
        loop=loop, field=field, fq=fq, alternator=ideal, algebra=quot,
        images=quot.basis_images, canonical_injective=collision is None,
        collision=collision, omega=omega)


def _first_duplicate_rows(m: np.ndarray) -> Optional[tuple]:
    seen: dict = {}
    for i in range(m.shape[0]):
        key = tuple(m[i].tolist())
        if key in seen:
            return (seen[key], i)
        seen[key] = i
    return None


# -- alternativity checks ----------------------------------------------------

def alternative_check(alg: Algebra, mode: str = "auto", samples: int = 10**4,
                      seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Check the alternative laws (x,x,y) = (y,x,x) = 0.

    Exhaustive mode verifies the linearised alternators on basis triples and
    the diagonal ones on basis pairs, which implies the laws for arbitrary
    elements by bilinear expansion in every characteristic.  A loop-backed
    algebra (FQ or a quotient of it) scans the alternator families through
    the Cayley table on its m = len(section_cols) basis loop elements (the
    witness is the first associator of the failing form, in loop elements).
    Any other structure tensor is checked on its associator tensor
    A[a, b, c] = (e_a e_b) e_c - e_a (e_b e_c), read for a = 0, 1, ... in
    the order: the first b with (a,b,c) + (b,a,c) != 0, then (a,a,c), then
    (c,a,a).  A has d^4 entries: above QUOTIENT_ENTRY_BOUND (d > 64) the
    check raises DimensionBoundExceeded.

    Auto mode follows one rule: exhaustive for a loop-backed algebra with
    m^3 <= 10^7 or a structure tensor with d <= 32, otherwise sampled on
    ``samples`` random pairs.  An unknown mode, or ``samples`` < 1, raises
    ValueError.  Sampled mode takes two stage-1 operators per block of rows,
    both sides of x and of y: xx, xy, x(xy) come from L_x, yx and (yx)x from
    R_x, y(xx) and (xx)y from L_y and R_y.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown alternativity check mode {mode!r}")
    _check_samples(samples)
    if mode == "auto":
        small = len(alg.section_cols) ** 3 <= 10**7 if alg.loop is not None else alg.dim <= 32
        mode = "exhaustive" if small else "sampled"
    if mode == "exhaustive":
        if alg.loop is not None:
            failure = next(_alternator_failures(alg.loop.table, alg.basis_images,
                                                alg.section_cols, alg.field), None)
            if failure is None:
                return CheckOutcome(ok=True, mode="exhaustive")
            fam, a, b, c = failure
            abc = (a[0], b[0], c[0])
            return CheckOutcome(ok=False, mode="exhaustive",
                                witness=tuple(int(abc[i]) for i in _ALTERNATOR_FORMS[fam][0]))
        if not isinstance(alg, TensorAlgebra) or alg.dim**4 > QUOTIENT_ENTRY_BOUND:
            raise DimensionBoundExceeded("exhaustive alternativity check unsupported here")
        witness = _associator_witness(alg)
        return CheckOutcome(ok=witness is None, mode="exhaustive", witness=witness)
    rng = np.random.default_rng(seed)
    xs = _random_rows(alg.field, rng, samples, alg.dim)
    ys = _random_rows(alg.field, rng, samples, alg.dim)
    step, ox, oy = alg.block_rows(4), None, None
    for s in range(0, samples, step):
        x, y = xs[s:s + step], ys[s:s + step]
        ox, oy = alg.operators(x, "lr", ox), alg.operators(y, "lr", oy)
        xx_xy = alg.contract(np.stack([x, y], axis=1), ox, 0)
        xx, xy = xx_xy[:, :1], xx_xy[:, 1:]
        yx = alg.contract(y[:, None], ox, 1)
        # (x,x,y) = (xx)y - x(xy) and (y,x,x) = (yx)x - y(xx), canonical terms
        fails = ((alg.contract(xx, oy, 1) != alg.contract(xy, ox, 0))
                 | (alg.contract(yx, ox, 1) != alg.contract(xx, oy, 0)))
        bad = np.flatnonzero(fails.any(axis=(1, 2)))
        if bad.size:
            return CheckOutcome(ok=False, mode="sampled", witness=(s + int(bad[0]),),
                                samples=samples, seed=seed)
    return CheckOutcome(ok=True, mode="sampled", samples=samples, seed=seed)


def _associator_witness(alg: TensorAlgebra) -> Optional[tuple]:
    """The first failing basis triple of ``alternative_check``'s tensor order, or None."""
    f, d = alg.field, alg.dim
    eye, c2 = _eye(f, d), alg.c.reshape(d * d, d)
    assoc = f.canon(alg.mul_rows(c2, eye) - alg.mul_rows(eye, c2)).reshape(d, d, d, d)
    sym = f.canon(assoc + assoc.transpose(1, 0, 2, 3))
    diag = np.arange(d)
    # row a: (a,b,c)+(b,a,c) over (b, c), then (a,a,c) over c, then (c,a,a) over c
    fails = np.concatenate([(sym != 0).any(axis=-1).reshape(d, d * d),
                            (assoc[diag, diag] != 0).any(axis=-1),
                            (assoc[:, diag, diag] != 0).any(axis=-1).T], axis=1)
    rows = np.flatnonzero(fails.any(axis=1))
    if not rows.size:
        return None
    a = int(rows[0])
    k = int(np.flatnonzero(fails[a])[0])
    if k < d * d:
        return (a, *divmod(k, d))
    return (a, a, k - d * d) if k < d * d + d else (k - d * d - d, a, a)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")


def _random_rows(field, rng, k: int, n: int) -> np.ndarray:
    """k random rows of width n: residues over GF(p), integers in -9..9 over Q."""
    if isinstance(field, PrimeField):
        return rng.integers(0, field.p, size=(k, n), dtype=np.int64)
    raw = rng.integers(-9, 10, size=(k, n))
    out = np.empty((k, n), dtype=object)
    out[...] = [[Fraction(int(x)) for x in row] for row in raw]
    return out


def associative_check_sampled(alg: Algebra, samples: int = 10**4,
                              seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Sampled check of full associativity (x,y,z) = 0 on ``samples`` >= 1 random triples.

    Per block of rows, (xy)z is y through L_x, then R_z, and x(yz) is y
    through R_z, then L_x: two stage-1 operators, L_x and R_z.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    xs, ys, zs = (_random_rows(alg.field, rng, samples, alg.dim) for _ in range(3))
    step, lx, rz = alg.block_rows(2), None, None
    for s in range(0, samples, step):
        lx, rz = alg.operators(xs[s:s + step], "l", lx), alg.operators(zs[s:s + step], "r", rz)
        y = ys[s:s + step, None]
        xy, yz = alg.contract(y, lx, 0), alg.contract(y, rz, 0)
        bad = np.flatnonzero((alg.contract(xy, rz, 0) != alg.contract(yz, lx, 0)).any(axis=(1, 2)))
        if bad.size:
            return CheckOutcome(ok=False, mode="sampled", witness=(s + int(bad[0]),),
                                samples=samples, seed=seed)
    return CheckOutcome(ok=True, mode="sampled", samples=samples, seed=seed)


# -- augmentation ideals ----------------------------------------------------

def augmentation_ideal(alg: Algebra, sub: Optional[SubloopSet] = None) -> Subspace:
    """Ideal generated by e - h for h in the subloop (default: whole loop).

    ``alg`` is loop-backed: FQ or a quotient of it, where h stands for its
    image (a row of ``basis_images``).  With H = Q the result is
    cross-checked against the kernel of the coefficient-sum functional,
    which it must equal: the functional descends from FQ to every quotient
    by an ideal of zero-sum elements, and it is 1 on each basis image.  The
    result must have codimension 1 and every basis row must sum to zero.
    """
    if alg.loop is None:
        raise DimensionMismatch("augmentation ideal needs a loop-backed algebra")
    f, imgs = alg.field, alg.basis_images
    members = sub.members if sub is not None else range(alg.loop.order)
    gens = f.canon(imgs[0][None, :] - imgs[np.asarray(members, dtype=np.int64)])
    out = linalg.ideal_closure([gens], alg.left_actions(), alg.right_actions(),
                               field=f, ambient_dim=alg.dim)
    if len(members) == alg.loop.order and \
            (out.dim != alg.dim - 1 or not _in_kernel(out, np.zeros(alg.dim, dtype=np.int64))):
        raise IdealNotStable("augmentation ideal differs from the zero-sum hyperplane")
    return out


# -- unitization -------------------------------------------------------------

class UnitizedAlgebra(TensorAlgebra):
    """A# = A ⊕ Fe for a multiplicatively closed carrier in an ambient algebra.

    Coordinates 0..s-1 are the carrier's echelon basis, coordinate s is the
    adjoined unit; the last-coordinate functional is a unital homomorphism
    onto F whose kernel is the embedded carrier.
    """

    def __init__(self, ambient: Algebra, carrier: Subspace):
        if carrier.ambient_dim != ambient.dim:
            raise DimensionMismatch("carrier does not live in the ambient algebra")
        field = ambient.field
        s = carrier.dim
        tensor = field.zeros((s + 1, s + 1, s + 1))
        if s:
            basis = carrier.basis_matrix()
            prods = ambient.mul_rows(basis, basis)
            if not carrier.contains_rows(prods):
                raise IdealNotStable("carrier is not multiplicatively closed")
            # the echelon basis is the identity on the pivot columns, so a
            # member's coordinates are its entries there
            tensor[:s, :s, :s] = prods.reshape(s, s, ambient.dim)[..., list(carrier.pivot_cols)]
        for i in range(s + 1):
            tensor[i, s, i] = tensor[i, s, i] + 1
            if i < s:
                tensor[s, i, i] = tensor[s, i, i] + 1
        unit = field.zeros(s + 1)
        unit[s] = field.one
        names = tuple([f"r{i}" for i in range(s)] + ["e"])
        super().__init__(field, tensor, names, unit=unit)
        self.ambient = ambient
        self.carrier = carrier
        self.unit_index = s

    def embed(self, v: np.ndarray) -> np.ndarray:
        out = self.field.zeros(self.dim)
        if self.dim > 1:
            out[: self.dim - 1] = self.carrier.coords(v)
        return out

    def pi(self, v: np.ndarray):
        """The unital homomorphism A# -> F (coefficient of the unit)."""
        return v[self.unit_index]


def unitize(ambient: Algebra, carrier: Subspace) -> UnitizedAlgebra:
    return UnitizedAlgebra(ambient, carrier)


# -- inverses, quasiinverses, circle ----------------------------------------

def _mult_matrix(alg: Algebra, u: np.ndarray, side: str) -> np.ndarray:
    """Matrix with column j = u * e_j (side "l") or e_j * u (side "r"): u's
    operator on that side, whose stage-1 values are exact integers below
    2^53, so the cast to the field's type is exact."""
    f = alg.field
    return f.canon(np.asarray(alg.operators(np.asarray(u).reshape(1, -1), side)[0, 0],
                              f.dtype)).T


def left_mult_matrix(alg: Algebra, u: np.ndarray) -> np.ndarray:
    return _mult_matrix(alg, u, "l")


def right_mult_matrix(alg: Algebra, u: np.ndarray) -> np.ndarray:
    return _mult_matrix(alg, u, "r")


def _nil_series(alg: Algebra, n: np.ndarray) -> Optional[np.ndarray]:
    """n + n^2 + ... over the left-normed powers n^k = n^(k-1) n, or None.

    The powers are the Krylov sequence of n under right multiplication by n,
    so once one vanishes all later ones do, and if any vanishes then
    n^(d+1) = 0 (the nonzero powers before it are linearly independent).
    Each round doubles the block of known powers with the matching power of
    the right-multiplication matrix, so at most ceil(log2(d+1)) rounds, and
    one squaring fewer, decide whether the powers vanish.  None when
    n^(d+1) != 0.
    """
    f = alg.field
    step = right_mult_matrix(alg, n).T             # row v -> v n
    powers = n.reshape(1, -1)                      # n^1 .. n^r
    while powers[-1].any():
        if powers.shape[0] > alg.dim:
            return None
        nxt = f.canon(f.matmul(powers, step))      # n^(r+1) .. n^(2r)
        powers = np.vstack([powers, nxt])
        if nxt[-1].any() and powers.shape[0] <= alg.dim:
            step = f.canon(f.matmul(step, step))
    return f.canon(powers.sum(axis=0))


def _series_inverse(alg: Algebra, u: np.ndarray, lu: np.ndarray) -> Optional[np.ndarray]:
    """The inverse of a unipotent u as e + n + n^2 + ..., n = e - u, once certified.

    The candidate z is returned only when u z = z u = e and L_z L_u = R_z R_u = I
    hold exactly, ``lu`` being L_u.  The operator identities make L_u and
    R_u nonsingular, so z is then the unique solution of both of
    ``invert``'s systems.  None when the powers of n do not vanish or any
    identity fails.
    """
    f, e = alg.field, alg.unit
    s = _nil_series(alg, f.canon(e - u))
    if s is None:
        return None
    z = f.canon(e + s)
    ru = right_mult_matrix(alg, u)
    col = z.reshape(-1, 1)
    eye = _eye(f, alg.dim)
    certified = (np.array_equal(f.canon(f.matmul(lu, col))[:, 0], e)
                 and np.array_equal(f.canon(f.matmul(ru, col))[:, 0], e)
                 and np.array_equal(f.canon(f.matmul(left_mult_matrix(alg, z), lu)), eye)
                 and np.array_equal(f.canon(f.matmul(right_mult_matrix(alg, z), ru)), eye))
    return z if certified else None


def invert(alg: Algebra, u: np.ndarray) -> Optional[np.ndarray]:
    """Two-sided inverse of u, or None; raises if one-sided inverses differ.

    The inverse solves L_u x = e and R_u y = e, which must agree.  A
    unipotent u (e - u has vanishing powers) is inverted by its certified
    geometric series (``_series_inverse``), the unique solution of both
    systems; any other u, or a candidate that fails its certificate, goes
    to the two solves.
    """
    if alg.unit is None:
        raise ValueError("invert needs a unital algebra")
    u = alg.field.canon(np.asarray(u))
    lu = left_mult_matrix(alg, u)
    z = _series_inverse(alg, u, lu)
    if z is not None:
        return z
    x = linalg.solve_matrix(lu, alg.unit, alg.field)
    if x is None:
        return None
    y = linalg.solve_matrix(right_mult_matrix(alg, u), alg.unit, alg.field)
    if y is None:
        return None
    if not np.array_equal(x, y):
        raise SidedInverseMismatch(u)
    return x


def quasiinverse(alg: Algebra, a: np.ndarray) -> Optional[np.ndarray]:
    """a* with a + a* = a a* = a* a, via invertibility of e - a."""
    if alg.unit is None:
        raise ValueError("quasiinverse needs a unital algebra")
    a = alg.field.canon(np.asarray(a))
    w = invert(alg, alg.field.canon(alg.unit - a))
    if w is None:
        return None
    return alg.field.canon(alg.unit - w)


def circle(alg: Algebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return alg.field.canon(np.asarray(a) + np.asarray(b) - alg.mul(a, b))


def enumerate_carrier(alg: Algebra, carrier: Subspace):
    """All carrier elements in lexicographic coefficient order (zero first)."""
    if not isinstance(alg.field, PrimeField):
        raise UnsupportedRadical("carrier enumeration needs a finite field")
    p = alg.field.p
    if p ** carrier.dim > CIRCLE_ENUM_BOUND:
        raise DimensionBoundExceeded(
            f"carrier has {p}^{carrier.dim} elements, beyond the enumeration bound")
    f = alg.field
    basis = f.operand(carrier.basis_matrix())
    for coeffs in itertools.product(range(p), repeat=carrier.dim):
        cv = np.asarray(coeffs, dtype=np.int64)
        v = f.canon(f.matmul(cv, basis)) if carrier.dim else f.zeros(alg.dim)
        yield cv, v


class CircleOracleLoop(Loop):
    """Circle loop on a carrier too large to tabulate.

    Indices encode coefficient tuples over the carrier basis in base p with
    the zero vector (the ∘-identity) at index 0; indices are arbitrary
    precision since the carrier may have far more than 2^63 elements.
    Divisions go through the quasiinverse, which is valid because circle
    loops of alternative algebras have the inverse property.
    """

    def __init__(self, alg: Algebra, carrier: Subspace, name: str = "circle"):
        if not isinstance(alg.field, PrimeField):
            raise UnsupportedRadical("oracle circle loop needs a finite field")
        self.alg = alg
        self.carrier = carrier
        self._init_common(alg.field.p ** carrier.dim, name)
        self._basis = alg.field.operand(carrier.basis_matrix())
        self._pivot_cols = np.asarray(carrier.pivot_cols, dtype=np.int64)

    def _decode(self, i: int) -> np.ndarray:
        p = self.alg.field.p
        coeffs = np.zeros(self.carrier.dim, dtype=np.int64)
        i = int(i)
        for k in range(self.carrier.dim - 1, -1, -1):
            i, r = divmod(i, p)
            coeffs[k] = r
        return self.alg.field.canon(self.alg.field.matmul(coeffs, self._basis))

    def _encode(self, v: np.ndarray) -> int:
        out = 0
        for c in v[self._pivot_cols]:
            out = out * self.alg.field.p + int(c)
        return out

    def mul(self, a: int, b: int) -> int:
        return self._encode(circle(self.alg, self._decode(a), self._decode(b)))

    def mul_array(self, a, b):
        a = np.asarray(a, dtype=object)
        b = np.asarray(b, dtype=object)
        flat = [self.mul(int(x), int(y)) for x, y in zip(a.ravel(), b.ravel())]
        return np.asarray(flat, dtype=object).reshape(a.shape)

    def _quasi(self, a: int) -> int:
        q = quasiinverse(self.alg, self._decode(a))
        if q is None:
            raise NotQuasiregular(a)
        return self._encode(q)

    def ldiv(self, a: int, b: int) -> int:
        return self.mul(self._quasi(a), b)

    def rdiv(self, b: int, a: int) -> int:
        return self.mul(b, self._quasi(a))

    def inv(self, x: int) -> int:
        return self._quasi(x)

    def inverses(self):
        raise DimensionBoundExceeded("oracle circle loop does not enumerate inverses")

    def element_orders(self):
        raise DimensionBoundExceeded("oracle circle loop does not enumerate orders")

    def element_name(self, i: int) -> str:
        return f"u{i}"

    def has_table(self) -> bool:
        return False


def circle_loop(alg: Algebra, carrier: Subspace, name: str = "circle") -> Loop:
    """The loop (carrier, ∘); dense when small, oracle-backed otherwise.

    Elements of a materialised carrier must all be quasiregular; hitting a
    non-quasiregular member is an error, not a degenerate loop.  Element i
    has the base-p digits of i as coefficients over the carrier's echelon
    basis (``enumerate_carrier``'s order), so a product is looked up by its
    entries on the pivot columns; the table is filled from ``mul_rows`` on
    blocks of rows of at most CIRCLE_CHUNK_ENTRIES entries.
    """
    if not isinstance(alg.field, PrimeField):
        raise UnsupportedRadical("circle loops need a finite field carrier")
    f = alg.field
    count = f.p ** carrier.dim
    if count > CIRCLE_TABLE_BOUND:
        return CircleOracleLoop(alg, carrier, name=name)
    elems = []
    for coeffs, v in enumerate_carrier(alg, carrier):
        if quasiinverse(alg, v) is None:
            raise NotQuasiregular(tuple(int(c) for c in coeffs))
        elems.append(v)
    elems = np.vstack(elems)
    n, piv = count, np.asarray(carrier.pivot_cols, dtype=np.int64)
    weights = f.p ** np.arange(carrier.dim - 1, -1, -1, dtype=np.int64)
    table = np.empty((n, n), dtype=np.int64)
    step = max(1, CIRCLE_CHUNK_ENTRIES // (n * max(alg.dim, 1)))
    for i0 in range(0, n, step):
        a = elems[i0:i0 + step]
        circ = f.canon(np.repeat(a, n, axis=0) + np.tile(elems, (len(a), 1))
                       - alg.mul_rows(a, elems))
        keys = circ[:, piv] @ weights
        bad = np.flatnonzero((elems[keys] != circ).any(axis=1))
        if bad.size:        # a product off the carrier: the pair (i, j)
            raise IdealNotStable(divmod(i0 * n + int(bad[0]), n))
        table[i0:i0 + len(a)] = keys.reshape(len(a), n)
    names = ["0"] + [f"u{i}" for i in range(1, n)]
    return Loop(names, table, name=name)


@dataclass
class CircleIsoReport:
    eta_ok: bool
    phi_ok: bool
    mode: str
    pairs: int
    seed: Optional[int] = None

    @property
    def ok(self):
        return self.eta_ok and self.phi_ok

    def to_json(self):
        return {"eta_ok": self.eta_ok, "phi_ok": self.phi_ok, "mode": self.mode,
                "pairs": self.pairs, "seed": self.seed}


def circle_iso_check(alg: Algebra, carrier: Subspace, samples: int = 10**5,
                     seed: int = DEFAULT_SEED) -> CircleIsoReport:
    """Verify (e-a)(e-b) = e - a∘b and -(a∘b) = (-a)⊗(-b) on carrier pairs.

    Every pair when a GF(p) carrier has at most 2^8 elements, else
    ``samples`` >= 1 random pairs, drawn as ``alternative_check`` draws its
    vectors, in carrier coordinates.  Per block of pairs the one stage-1
    operator is L_a: ab = b L_a and (e-a)(e-b) = (e-b) L_e - (e-b) L_a, with
    L_e made once.
    """
    f, e = alg.field, alg.unit
    if e is None:
        raise ValueError("circle isomorphism checks need a unital algebra")
    count = f.p ** carrier.dim if isinstance(f, PrimeField) else None
    if count is not None and count * count <= 2**16:
        coeffs = np.asarray(list(itertools.product(range(f.p), repeat=carrier.dim)),
                            dtype=np.int64).reshape(count, carrier.dim)
        ca, cb = coeffs[np.repeat(np.arange(count), count)], np.tile(coeffs, (count, 1))
        mode, pairs, used_seed = "exhaustive", count * count, None
    else:
        _check_samples(samples)
        rng = np.random.default_rng(seed)
        ca = _random_rows(f, rng, samples, carrier.dim)
        cb = _random_rows(f, rng, samples, carrier.dim)
        mode, pairs, used_seed = "sampled", samples, seed
    basis = f.operand(carrier.basis_matrix())
    le = alg.operators(e[None, :], "l")
    eta_ok = phi_ok = True
    step, la = alg.block_rows(1), None
    for s in range(0, pairs, step):
        a, b = (f.canon(f.matmul(m[s:s + step], basis)) for m in (ca, cb))
        la = alg.operators(a, "l", la)
        eb = f.canon(e - b)
        ab, a_eb = alg.contract(np.stack([b, eb], axis=1), la, 0).transpose(1, 0, 2)
        otimes = ab - a - b                # (-a)⊗(-b) = (-a)(-b) + (-a) + (-b), unreduced
        lhs = alg.contract(eb[:, None], le, 0)[:, 0] - a_eb                # (e-a)(e-b)
        eta_ok = eta_ok and not f.canon(lhs - e - otimes).any()           # a∘b = -otimes
        phi_ok = phi_ok and not f.canon(f.canon(otimes) - otimes).any()   # (-a)⊗(-b) + a∘b
    return CircleIsoReport(eta_ok=bool(eta_ok), phi_ok=bool(phi_ok), mode=mode, pairs=pairs,
                           seed=used_seed)


# -- nilpotency and the quasiregular radical --------------------------------

def nilpotency_index(carrier: Subspace, alg: Algebra) -> Optional[int]:
    """Least n with carrier^n = 0 under all-bracketings powers, else None."""
    return linalg.nilpotency_index(carrier, alg.mul_rows)


def is_quasiregular_element(alg: Algebra, x: np.ndarray) -> bool:
    """Solvability of x + b - xb = x + b - bx = 0 as one stacked linear system.

    When the powers of x vanish, b = -(x + x^2 + ...) (that is e - (e - x)^-1
    in a unital algebra) is tried first: if it satisfies the stacked system
    exactly, the system is consistent and no solve is needed.
    """
    f = alg.field
    x = f.canon(np.asarray(x))
    eye = _eye(f, alg.dim)
    a = np.vstack([f.canon(eye - left_mult_matrix(alg, x)),
                   f.canon(eye - right_mult_matrix(alg, x))])
    rhs = np.concatenate([f.canon(-x), f.canon(-x)])
    s = _nil_series(alg, x)
    if s is not None and np.array_equal(f.canon(f.matmul(a, f.canon(-s).reshape(-1, 1)))[:, 0],
                                        rhs):
        return True
    return linalg.solve_matrix(a, rhs, f) is not None


def principal_ideal(alg: Algebra, v: np.ndarray) -> Subspace:
    return linalg.ideal_closure([alg.field.canon(np.asarray(v)).reshape(1, -1)],
                                alg.left_actions(), alg.right_actions(),
                                field=alg.field, ambient_dim=alg.dim)


def radical_zhevlakov(alg: Optional[Algebra] = None,
                      bundle: Optional[AlternativeLoopAlgebra] = None) -> Subspace:
    """Largest quasiregular ideal, in the two supported regimes.

    (i) For an alternative loop-algebra quotient whose augmentation ideal
    misses the unit, the radical is that augmentation ideal: its generators
    e - q are quasiregular (q is invertible) and every proper ideal is an
    augmentation ideal of a normal subloop.
    (ii) For small algebras over a finite field, brute force: join every
    principal ideal consisting entirely of quasiregular elements, then verify
    that no nonzero quasiregular principal ideal survives in the quotient.
    """
    if bundle is not None:
        if bundle.unit_in_omega:
            raise UnsupportedRadical("unit lies in the augmentation ideal; case (i) unavailable")
        for row in bundle.omega.basis_matrix():
            if not is_quasiregular_element(bundle.algebra, row):
                raise UnsupportedRadical("augmentation basis row is not quasiregular")
        return bundle.omega
    if alg is None:
        raise ValueError("pass an algebra or a loop-algebra bundle")
    if not isinstance(alg.field, PrimeField) or alg.field.p ** alg.dim > RADICAL_ENUM_BOUND:
        raise UnsupportedRadical("brute-force radical needs a small finite-field algebra")
    everything = linalg.span_rows(alg.field, alg.dim, _eye(alg.field, alg.dim))
    rad = Subspace(alg.field, alg.dim)
    for _, v in enumerate_carrier(alg, everything):
        if not v.any() or rad.contains(v):
            continue
        ide = principal_ideal(alg, v)
        if _all_quasiregular(alg, ide):
            stacked = np.vstack([rad.basis_matrix(), ide.basis_matrix()]) if rad.dim \
                else ide.basis_matrix()
            rad = linalg.span_rows(alg.field, alg.dim, stacked)
    if rad.dim < alg.dim and (alg.unit is None or not rad.contains(alg.unit)):
        quot = QuotientAlgebra(alg, rad, verify=False)
        full_q = linalg.span_rows(quot.field, quot.dim, _eye(quot.field, quot.dim))
        for _, v in enumerate_carrier(quot, full_q):
            if not v.any():
                continue
            ide = principal_ideal(quot, v)
            if ide.dim and _all_quasiregular(quot, ide):
                raise UnsupportedRadical("quotient retains a quasiregular principal ideal")
    return rad


def _all_quasiregular(alg: Algebra, sub: Subspace) -> bool:
    if alg.field.p ** sub.dim > RADICAL_ENUM_BOUND:
        raise UnsupportedRadical("quasiregularity enumeration too large")
    for _, v in enumerate_carrier(alg, sub):
        if not is_quasiregular_element(alg, v):
            return False
    return True


# -- nil subalgebra identities ----------------------------------------------

def nil_closed_form_check(alg: Algebra, u, v, w, m: int) -> bool:
    """Closed forms for the loop associator/commutator of e-u, e-v, e-w.

    Requires u^m = v^m = w^m = 0.  With S_x = e + x + ... + x^{m-1}
    (the inverse of e - x) this checks, exactly,
        [e-u, e-v, e-w] = e - ((S_w S_v) S_u)(u,v,w)
        [e-u, e-v]      = e + (S_u S_v)(u,v)
    where [a,b,c] = (a·bc)^{-1}(ab·c), [a,b] = (a^{-1}b^{-1})(ab), and
    (u,v,w), (u,v) are the algebra associator and commutator.
    """
    f = alg.field
    if m < 1:
        raise ValueError("power must be >= 1")
    x = f.canon(np.vstack([np.asarray(t) for t in (u, v, w)]))
    # left-normed powers x^k = x^{k-1} x of all three rows at once; the sums
    # S_x and the test x^m = 0 share them
    sums, power = np.repeat(alg.unit[None, :], 3, axis=0), x
    for _ in range(1, m):
        if not power.any():
            break
        sums = sums + power
        power = alg.mul_pairwise(power, x)
    if power.any():
        raise NotNil("input power does not vanish")
    u, v, w = x
    su, sv, sw = f.canon(sums)
    e = alg.unit
    a, b, c = f.canon(e - u), f.canon(e - v), f.canon(e - w)
    # every product of the two forms, one mul_pairwise per dependency level
    bc, ab, uv, vw, vu, swsv, susv = alg.mul_pairwise(
        np.vstack([b, a, u, v, v, sw, su]), np.vstack([c, b, v, w, u, sv, sv]))
    p, abc, uvw, u_vw, swsvsu = alg.mul_pairwise(
        np.vstack([a, ab, uv, u, swsv]), np.vstack([bc, c, w, vw, su]))
    p_inv = invert(alg, p)
    if p_inv is None:
        return False
    assoc, comm = f.canon(uvw - u_vw), f.canon(uv - vu)
    lhs, tail, lhs2, tail2 = alg.mul_pairwise(
        np.vstack([p_inv, swsvsu, susv, susv]), np.vstack([abc, assoc, ab, comm]))
    rhs, rhs2 = f.canon(e - tail), f.canon(e + tail2)
    return bool(np.array_equal(lhs, rhs) and np.array_equal(lhs2, rhs2))
