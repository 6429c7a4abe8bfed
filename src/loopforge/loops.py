"""Finite loops: validation, identity checks, subloops, quotients, series.

Loops carry their Cayley table as an int64 matrix with the identity fixed at
index 0.  All heavy checks (Moufang, associativity, closures, centres) run as
vectorised table gathers, chunked so that order-120 exhaustive triple scans
stay near ten megabytes.  Direct products above the dense-table bound are
represented structurally and answer multiplication through their components.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    LatinSquareViolation,
    MalformedCayley,
    NoIdentityAtZero,
    NotCommutativeMoufang,
    NotNormal,
    OrderBoundExceeded,
    SeriesMismatch,
)

DEFAULT_SEED = 0xA17E41
MOUFANG_EXHAUSTIVE_ORDER = 300
PROPERTY_SAMPLES = 10**6
ORDER_BOUND = 2000  # largest order for lattices, group type and radicals
DENSE_PRODUCT_BOUND = 4096
# triple-scan chunks, in table cells: the first holds about _FIRST_CHUNK_CELLS
# and each later one twice as many, up to _CHUNK_CELLS; a Moufang chunk makes
# a few int64 temporaries of that many cells, 2 MiB each at the top
_FIRST_CHUNK_CELLS = 1 << 13
_CHUNK_CELLS = 1 << 18
_BLOCK_CHUNK_ENTRIES = 1 << 17  # labels per block-closure chunk, table entries per merge


def validate_table(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.ndim != 2 or table.shape != (n, n):
        raise MalformedCayley("table is not square")
    if n == 0:
        raise NoIdentityAtZero("empty table")
    if table.min() < 0 or table.max() >= n:
        raise MalformedCayley(f"table entry out of range 0..{n - 1}")
    ref = np.arange(n, dtype=table.dtype)
    rows_sorted = np.sort(table, axis=1)
    bad = np.flatnonzero((rows_sorted != ref[None, :]).any(axis=1))
    if bad.size:
        r = int(bad[0])
        vals, counts = np.unique(table[r], return_counts=True)
        raise LatinSquareViolation("row", r, int(vals[counts > 1][0]))
    cols_sorted = np.sort(table, axis=0)
    bad = np.flatnonzero((cols_sorted != ref[:, None]).any(axis=0))
    if bad.size:
        c = int(bad[0])
        vals, counts = np.unique(table[:, c], return_counts=True)
        raise LatinSquareViolation("column", c, int(vals[counts > 1][0]))
    if not (np.array_equal(table[0], ref) and np.array_equal(table[:, 0], ref)):
        raise NoIdentityAtZero("index 0 is not a two-sided identity")


class Loop:
    """A finite loop on indices 0..n-1 given by a validated Cayley table."""

    def __init__(self, names: Sequence[str], table: np.ndarray, name: str = "loop",
                 _validated: bool = False):
        table = np.asarray(table, dtype=np.int64)
        if len(names) != table.shape[0]:
            raise ValueError("names/table size mismatch")
        if not _validated:
            validate_table(table)
        self._init_common(table.shape[0], name, tuple(str(x) for x in names), table)
        self._ld: Optional[np.ndarray] = None
        self._rd: Optional[np.ndarray] = None
        self._inv: Optional[np.ndarray] = None

    def _init_common(self, order: int, name: str, names=None, table=None) -> None:
        """Attributes and empty caches of every loop; loops without a table call only this."""
        self.order = order
        self.name = name
        self.names = names
        self.table = table
        self._props: dict = {}
        self._class_labels: Optional[np.ndarray] = None
        self._closures: Optional[list] = None       # _element_closures
        self._assoc_labels: Optional[np.ndarray] = None   # A(Q), see _associator_labels
        self._normal_lattice = None
        self._subloops: dict = {}   # SubloopSet.as_loop copies

    # -- basic operations ------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def mul_array(self, a, b):
        return self.table[a, b]

    @property
    def ld_table(self) -> np.ndarray:
        # ld[a, b] = x with a*x = b (each table row is a permutation)
        if self._ld is None:
            self._ld = np.argsort(self.table, axis=1)
        return self._ld

    @property
    def rd_table(self) -> np.ndarray:
        # rd[b, a] = x with x*a = b
        if self._rd is None:
            self._rd = np.argsort(self.table, axis=0)
        return self._rd

    def ldiv(self, a: int, b: int) -> int:
        return int(self.ld_table[a, b])

    def rdiv(self, b: int, a: int) -> int:
        return int(self.rd_table[b, a])

    def inverses(self) -> np.ndarray:
        """Two-sided inverses; -1 where the one-sided inverses differ."""
        if self._inv is None:
            right = self.ld_table[:, 0]
            left = self.rd_table[0, :]
            self._inv = np.where(right == left, right, -1)
        return self._inv

    def inv(self, x: int) -> int:
        v = int(self.inverses()[x])
        if v < 0:
            raise ValueError(f"element {x} has no two-sided inverse")
        return v

    def element_orders(self) -> np.ndarray:
        # x^{k+1} = x^k * x; the right-translation orbit of x must return to
        # x, which forces some left power to hit the identity within n steps
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        orders[0] = 1
        cur = np.arange(n, dtype=np.int64)
        base = np.arange(n, dtype=np.int64)
        k = 1
        while (orders == 0).any() and k <= n:
            k += 1
            cur = self.mul_array(cur, base)
            hit = (cur == 0) & (orders == 0)
            orders[hit] = k
        return orders

    def element_name(self, i: int) -> str:
        return self.names[i]

    def has_table(self) -> bool:
        return True

    def __repr__(self):
        return f"Loop({self.name!r}, order={self.order})"


class ProductLoop(Loop):
    """Structural direct product; no dense table is materialised."""

    def __init__(self, left: Loop, right: Loop, name: Optional[str] = None):
        self.left = left
        self.right = right
        self._init_common(left.order * right.order, name or f"product({left.name},{right.name})")

    def _split(self, i):
        return i // self.right.order, i % self.right.order

    def _join(self, a, b):
        return a * self.right.order + b

    def mul(self, a: int, b: int) -> int:
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return self._join(self.left.mul(a1, b1), self.right.mul(a2, b2))

    def mul_array(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        m = self.right.order
        return self.left.mul_array(a // m, b // m) * m + self.right.mul_array(a % m, b % m)

    def ldiv(self, a: int, b: int) -> int:
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return self._join(self.left.ldiv(a1, b1), self.right.ldiv(a2, b2))

    def rdiv(self, b: int, a: int) -> int:
        b1, b2 = self._split(b)
        a1, a2 = self._split(a)
        return self._join(self.left.rdiv(b1, a1), self.right.rdiv(b2, a2))

    def inverses(self) -> np.ndarray:
        li = self.left.inverses()
        ri = self.right.inverses()
        out = li[:, None] * self.right.order + ri[None, :]
        bad = (li[:, None] < 0) | (ri[None, :] < 0)
        return np.where(bad, -1, out).reshape(-1)

    def element_orders(self) -> np.ndarray:
        lo = self.left.element_orders()
        ro = self.right.element_orders()
        return np.lcm(lo[:, None], ro[None, :]).reshape(-1)

    def element_name(self, i: int) -> str:
        a, b = self._split(i)
        return f"{self.left.element_name(a)}|{self.right.element_name(b)}"

    def has_table(self) -> bool:
        return False

    def __repr__(self):
        return f"ProductLoop({self.name!r}, order={self.order})"


def loop_from_table(names: Sequence[str], table, name: str = "loop") -> Loop:
    return Loop(names, np.asarray(table, dtype=np.int64), name=name)


def loop_to_cayley(loop: Loop) -> dict:
    if not loop.has_table():
        raise OrderBoundExceeded("structural loop has no dense table to serialise")
    return {
        "order": loop.order,
        "elements": list(loop.names),
        "table": loop.table.tolist(),
    }


def loop_from_cayley(doc: dict, name: str = "loop") -> Loop:
    """Loop from a Cayley JSON document ``{"order", "elements", "table"}``."""
    if not isinstance(doc, dict):
        raise MalformedCayley(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("elements", "table"):
        if not isinstance(doc.get(key), list):
            raise MalformedCayley(f"{key!r} must be a list")
    names, table = doc["elements"], doc["table"]
    if "order" in doc and (type(doc["order"]) is not int or doc["order"] != len(table)):
        raise MalformedCayley(f"order {json.dumps(doc['order'])} disagrees with a table of "
                              f"{len(table)} rows")
    if len(set(map(str, names))) != len(names):
        raise MalformedCayley("element names are not distinct")
    n = len(table)
    if not all(isinstance(row, list) and len(row) == n for row in table):
        raise MalformedCayley("table is not square")
    # JSON gives int, float or bool; numpy would truncate 0.5 and read true as 1
    if not set().union(*(map(type, row) for row in table)) <= {int}:
        bad = next(v for row in table for v in row if type(v) is not int)
        raise MalformedCayley(f"table entry {json.dumps(bad)} is not an integer")
    try:
        arr = np.array(table, dtype=np.int64).reshape(n, n)
    except OverflowError:
        raise MalformedCayley(f"table entry out of range 0..{n - 1}") from None
    return loop_from_table(names, arr, name=name)


# -- property checks -----------------------------------------------------

@dataclass
class CheckOutcome:
    ok: bool
    mode: str                      # "exhaustive" | "sampled"
    witness: Optional[tuple] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def to_json(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "witness": list(self.witness) if self.witness is not None else None,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass
class PropertyReport:
    order: int
    moufang: CheckOutcome
    associative: CheckOutcome
    commutative: CheckOutcome
    ip: CheckOutcome
    exponent: int
    element_orders: tuple = dc_field(repr=False, default=())

    def is_p_loop(self, p: int) -> bool:
        return all(_strip_prime(o, p) == 1 for o in self.element_orders)

    def to_json(self):
        return {
            "order": self.order,
            "moufang": self.moufang.to_json(),
            "associative": self.associative.to_json(),
            "commutative": self.commutative.to_json(),
            "ip": self.ip.to_json(),
            "exponent": self.exponent,
        }


def _strip_prime(o: int, p: int) -> int:
    while o % p == 0:
        o //= p
    return o


def _moufang_mismatch_chunk(t: np.ndarray, xs: np.ndarray):
    """Violations of (x*yx)z = x(y*xz) for x in xs; smallest (x,y,z) or None."""
    t_yx = t[:, xs]                                # [y, xi] = y*x
    x_yx = t[xs[None, :], t_yx]                    # [y, xi] = x*(y*x)
    lhs = t[x_yx]                                  # [y, xi, z]
    t_xz = t[xs, :]                                # [xi, z] = x*z
    y_xz = t[:, t_xz]                              # [y, xi, z] = y*(x*z)
    rhs = t[xs[None, :, None], y_xz]               # [y, xi, z] = x*(y*(x*z))
    bad = (lhs != rhs).transpose(1, 0, 2)          # order by (xi, y, z)
    first = np.argmax(bad)
    if not bad.flat[first]:
        return None
    xi, y, z = np.unravel_index(first, bad.shape)
    return int(xs[xi]), int(y), int(z)


def _assoc_mismatch_chunk(t: np.ndarray, xs: np.ndarray):
    lhs = t[t[xs, :]]                              # [xi, y, z] = (xy)z
    rhs = t[xs][:, t]                              # [xi, y, z] = x(yz)
    bad = lhs != rhs
    first = np.argmax(bad)
    if not bad.flat[first]:
        return None
    xi, y, z = np.unravel_index(first, bad.shape)
    return int(xs[xi]), int(y), int(z)


def _scan_triples(t: np.ndarray, chunk_fn) -> Optional[tuple]:
    """First failing triple in lexicographic order, scanning chunks of x rows.

    The first chunk holds about _FIRST_CHUNK_CELLS cells and each later one
    twice as many, up to _CHUNK_CELLS: a witness among the first rows costs
    one small chunk, and a full scan only a few chunks more than at the top
    size.  Chunks follow x, so the witness is the lexicographically first.
    """
    n = t.shape[0]
    cells, x0 = max(n * n, 1), 0
    top = max(1, _CHUNK_CELLS // cells)
    step = min(top, max(1, _FIRST_CHUNK_CELLS // cells))
    while x0 < n:
        xs = np.arange(x0, min(x0 + step, n), dtype=np.int64)
        w = chunk_fn(t, xs)
        if w is not None:
            return w
        x0, step = x0 + step, min(2 * step, top)
    return None


def _sample_triples(loop: Loop, violated_fn, samples: int, seed: int) -> Optional[tuple]:
    rng = np.random.default_rng(seed)
    n = loop.order
    left = samples
    while left > 0:
        k = min(1 << 16, left)
        left -= k
        xyz = rng.integers(0, n, size=(3, k), dtype=np.int64)
        bad = violated_fn(loop, xyz[0], xyz[1], xyz[2])
        idx = np.flatnonzero(bad)
        if idx.size:
            i = int(idx[0])
            return int(xyz[0][i]), int(xyz[1][i]), int(xyz[2][i])
    return None


def _moufang_violated_arr(loop: Loop, x, y, z):
    lhs = loop.mul_array(loop.mul_array(x, loop.mul_array(y, x)), z)
    rhs = loop.mul_array(x, loop.mul_array(y, loop.mul_array(x, z)))
    return lhs != rhs


def _assoc_violated_arr(loop: Loop, x, y, z):
    lhs = loop.mul_array(loop.mul_array(x, y), z)
    rhs = loop.mul_array(x, loop.mul_array(y, z))
    return lhs != rhs


def _check_triple_identity(loop: Loop, chunk_fn, violated_fn, samples: int, seed: int) -> CheckOutcome:
    n = loop.order
    if loop.has_table() and n <= MOUFANG_EXHAUSTIVE_ORDER:
        w = _scan_triples(loop.table, chunk_fn)
        return CheckOutcome(ok=w is None, mode="exhaustive", witness=w)
    w = _sample_triples(loop, violated_fn, samples, seed)
    if w is None:
        # additionally exhaust the triples of a few 2-generated subloops
        rng = np.random.default_rng(seed ^ 0x5EED)
        for _ in range(8):
            g = [int(rng.integers(1, n)), int(rng.integers(1, n))]
            sub = subloop_generated(loop, g, max_order=128)
            if sub is None:
                continue
            ww = _scan_triples(sub.as_loop().table, chunk_fn)
            if ww is not None:
                m = sub.members
                w = (m[ww[0]], m[ww[1]], m[ww[2]])
                break
    return CheckOutcome(ok=w is None, mode="sampled", witness=w, samples=samples, seed=seed)


def _associator_witness(loop: Loop) -> Optional[tuple]:
    """First failure of (xy)z = x(yz), found (or reused) as check_properties finds it."""
    props = loop._props.get((PROPERTY_SAMPLES, DEFAULT_SEED))
    if props is not None:
        return props.associative.witness
    return _check_triple_identity(loop, _assoc_mismatch_chunk, _assoc_violated_arr,
                                  PROPERTY_SAMPLES, DEFAULT_SEED).witness


def check_properties(loop: Loop, samples: int = PROPERTY_SAMPLES,
                     seed: int = DEFAULT_SEED) -> PropertyReport:
    key = (samples, seed)
    if key in loop._props:
        return loop._props[key]
    n = loop.order

    moufang = _check_triple_identity(loop, _moufang_mismatch_chunk, _moufang_violated_arr,
                                     samples, seed)
    associative = _check_triple_identity(loop, _assoc_mismatch_chunk, _assoc_violated_arr,
                                         samples, seed)

    if loop.has_table():
        t = loop.table
        bad = np.argwhere(t != t.T)
        cw = (int(bad[0][0]), int(bad[0][1])) if bad.size else None
        commutative = CheckOutcome(ok=cw is None, mode="exhaustive", witness=cw)

        inv = loop.inverses()
        if (inv < 0).any():
            x = int(np.flatnonzero(inv < 0)[0])
            ip = CheckOutcome(ok=False, mode="exhaustive", witness=(x,))
        else:
            ar = np.arange(n)
            lv = t[inv[:, None], t] != ar[None, :]          # x^{-1}(xy) != y
            rv = t[t.T, inv[:, None]] != ar[None, :]        # (yx)x^{-1} != y
            bad = np.argwhere(lv | rv)
            iw = (int(bad[0][0]), int(bad[0][1])) if bad.size else None
            ip = CheckOutcome(ok=iw is None, mode="exhaustive", witness=iw)
    else:
        rng = np.random.default_rng(seed ^ 0xC0)
        k = min(samples, 1 << 16)
        xy = rng.integers(0, n, size=(2, k), dtype=np.int64)
        bad = loop.mul_array(xy[0], xy[1]) != loop.mul_array(xy[1], xy[0])
        idx = np.flatnonzero(bad)
        cw = (int(xy[0][idx[0]]), int(xy[1][idx[0]])) if idx.size else None
        commutative = CheckOutcome(ok=cw is None, mode="sampled", witness=cw, samples=k, seed=seed)
        ip = _ip_sampled(loop, samples=k, seed=seed)

    orders = loop.element_orders()
    exponent = 1
    for o in orders:
        exponent = math.lcm(exponent, int(o))

    report = PropertyReport(order=n, moufang=moufang, associative=associative,
                            commutative=commutative, ip=ip, exponent=exponent,
                            element_orders=tuple(int(o) for o in orders))
    loop._props[key] = report
    return report


def _ip_sampled(loop: Loop, samples: int, seed: int) -> CheckOutcome:
    rng = np.random.default_rng(seed ^ 0x1B)
    n = loop.order
    inv = loop.inverses()
    if (inv < 0).any():
        x = int(np.flatnonzero(inv < 0)[0])
        return CheckOutcome(ok=False, mode="exhaustive", witness=(x,))
    xs = rng.integers(0, n, size=samples, dtype=np.int64)
    ys = rng.integers(0, n, size=samples, dtype=np.int64)
    xinv = inv[xs]
    bad = (loop.mul_array(xinv, loop.mul_array(xs, ys)) != ys) | \
          (loop.mul_array(loop.mul_array(ys, xs), xinv) != ys)
    idx = np.flatnonzero(bad)
    w = (int(xs[idx[0]]), int(ys[idx[0]])) if idx.size else None
    return CheckOutcome(ok=w is None, mode="sampled", witness=w, samples=samples, seed=seed)


# -- associators, commutators, subloops ----------------------------------

def loop_assoc_comm(loop: Loop, x: int, y: int, z: int) -> tuple[int, int]:
    """Associator t with xy*z = (x*yz)t and commutator c with xy = (yx)c."""
    u = loop.mul(x, loop.mul(y, z))
    v = loop.mul(loop.mul(x, y), z)
    assoc = loop.ldiv(u, v)
    comm = loop.ldiv(loop.mul(y, x), loop.mul(x, y))
    return assoc, comm


@dataclass(frozen=True, eq=False)
class SubloopSet:
    parent: Loop
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or self.members[0] != 0:
            raise ValueError("a subloop must contain the identity, sorted first")
        if tuple(sorted(self.members)) != self.members:
            raise ValueError("members must be sorted")

    def order(self) -> int:
        return len(self.members)

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def is_full(self) -> bool:
        return len(self.members) == self.parent.order

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def as_loop(self, name: Optional[str] = None) -> Loop:
        """The subloop relabelled 0..k-1 in member order.

        Cached on the parent per members and name, so the copy's own caches
        (properties, conjugacy classes, element closures, associator
        subloop, lattice) are computed once.
        """
        cache, key = self.parent._subloops, (self.members, name)
        if key in cache:
            return cache[key]
        mem = np.asarray(self.members, dtype=np.int64)
        if self.parent.has_table():
            sub = self.parent.table[np.ix_(mem, mem)]
        else:
            sub = np.asarray([[self.parent.mul(int(a), int(b)) for b in mem] for a in mem])
        table = np.searchsorted(mem, sub)                 # members are sorted
        names = [self.parent.element_name(int(m)) for m in mem]
        cache[key] = Loop(names, table, name=name or f"{self.parent.name}<{len(mem)}>")
        return cache[key]

    def __eq__(self, other):
        return (isinstance(other, SubloopSet) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))


def _mul_closure(loop: Loop, mask: np.ndarray,
                 max_order: Optional[int] = None) -> Optional[np.ndarray]:
    """Closure of a boolean element mask under multiplication.

    Each round multiplies the members added last round by every member, on
    both sides.  Returns None once the closure exceeds max_order.
    """
    mask = mask.copy()
    frontier = np.flatnonzero(mask)
    while frontier.size:
        current = np.flatnonzero(mask)
        new = np.zeros_like(mask)
        new[loop.mul_array(frontier[:, None], current[None, :])] = True
        new[loop.mul_array(current[:, None], frontier[None, :])] = True
        new &= ~mask
        mask |= new
        if max_order is not None and np.count_nonzero(mask) > max_order:
            return None
        frontier = np.flatnonzero(new)
    return mask


def subloop_generated(loop: Loop, gens: Iterable[int],
                      max_order: Optional[int] = None) -> Optional[SubloopSet]:
    """Closure of gens ∪ {e} under multiplication (hence under division).

    In a finite loop a multiplicatively closed subset is closed under both
    divisions, because translations restrict to bijections of the subset.
    Returns None if the closure exceeds max_order.
    """
    mask = np.zeros(loop.order, dtype=bool)
    mask[[0, *map(int, gens)]] = True
    mask = _mul_closure(loop, mask, max_order=max_order)
    return None if mask is None else SubloopSet(loop, tuple(np.flatnonzero(mask).tolist()))


def is_subloop(loop: Loop, members: Sequence[int]) -> bool:
    mem = np.asarray(sorted(set(int(m) for m in members)), dtype=np.int64)
    if mem[0] != 0:
        return False
    # closed under multiplication implies closed under division (finite loop)
    return bool(np.isin(loop.mul_array(mem[:, None], mem[None, :]), mem).all())


def _merge(lab: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the classes of each pair (a[j], b[j]) in a label array whose
    labels are class minima: hook the larger label of every crossing pair
    onto the smaller with np.minimum.at and pointer-jump, until no pair
    crosses (a class hooked twice keeps only the smaller target)."""
    while True:
        ra, rb = lab[a], lab[b]
        cross = ra != rb
        if not cross.any():
            return
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(lab, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(lab[lab], lab):
            lab[:] = lab[lab]


def _block_labels(loop: Loop, seeds: np.ndarray) -> np.ndarray:
    """Class minima of the least congruence merging each seed row with e.

    Normal subloops are the classes of e of the congruences, the equivalences
    compatible with every L_x and R_x (Bruck).  A chunk of rows is one
    union-find on rows·n points.  Each round merges (xi, x·lab[i]) and
    (ix, lab[i]·x) for all x and every i whose label changed last round; the
    merges are forced, and at the fixpoint translations map classes into
    classes.  Chunks and scan slices stay under _BLOCK_CHUNK_ENTRIES.
    """
    if not loop.has_table():
        raise OrderBoundExceeded("normal closure needs a dense table")
    t, (k, n) = loop.table, seeds.shape
    step = max(1, _BLOCK_CHUNK_ENTRIES // n)
    out = np.empty((k, n), dtype=np.int64)
    for r0 in range(0, k, step):
        chunk = seeds[r0:r0 + step] & (np.arange(n) > 0)
        base = np.arange(len(chunk))[:, None] * n
        lab = (base + np.arange(n)).ravel()
        changed = np.flatnonzero(chunk)
        lab[changed] -= changed % n                                 # seeds point at e
        while changed.size:
            prev = lab.copy()
            for pts in np.split(changed, range(step, changed.size, step)):
                m, l, off = pts % n, prev[pts] % n, (pts - pts % n)[:, None]
                _merge(lab, (t[m] + off).ravel(), (t[l] + off).ravel())
                _merge(lab, (t[:, m].T + off).ravel(), (t[:, l].T + off).ravel())
            changed = np.flatnonzero(lab != prev)
        out[r0:r0 + step] = lab.reshape(-1, n) - base
    return out


def normal_closure(loop: Loop, gens: Iterable[int]) -> SubloopSet:
    """Smallest normal subloop containing gens (a one-row block closure)."""
    seeds = np.zeros((1, loop.order), dtype=bool)
    seeds[0, [0, *map(int, gens)]] = True
    return SubloopSet(loop, tuple(np.flatnonzero(_block_labels(loop, seeds)[0] == 0).tolist()))


def _element_closures(loop: Loop) -> list[SubloopSet]:
    """Normal closures of single elements, as one batch over the conjugacy
    classes (T(x)-orbits): conjugates have the same closure.  Classes and
    closures are cached on the loop; callers must not mutate the list."""
    if not loop.has_table():
        raise OrderBoundExceeded("normal closure needs a dense table")
    if loop._closures is not None:
        return loop._closures
    n = loop.order
    if loop._class_labels is None:
        lab, step = np.arange(n), max(1, _BLOCK_CHUNK_ENTRIES // n)
        for x0 in range(0, n, step):
            tx = loop.table.T[x0:x0 + step]                              # [x, m]: m x
            images = loop.ld_table[np.arange(x0, x0 + len(tx))[:, None], tx]  # x \ (m x)
            _merge(lab, np.broadcast_to(np.arange(n), images.shape).ravel(), images.ravel())
        loop._class_labels = lab
    reps = np.flatnonzero(loop._class_labels == np.arange(n))[1:]
    seeds = np.zeros((reps.size, n), dtype=bool)
    seeds[np.arange(reps.size), reps] = True
    loop._closures = [SubloopSet(loop, tuple(np.flatnonzero(row == 0).tolist()))
                      for row in _block_labels(loop, seeds)]
    return loop._closures


def verify_normal(loop: Loop, sub: SubloopSet) -> Optional[tuple]:
    """Exhaustively check the three normality equations; None if they hold."""
    t = loop.table
    mem = np.asarray(sub.members, dtype=np.int64)
    n = loop.order
    for x in range(n):
        if not np.array_equal(np.sort(t[x, mem]), np.sort(t[mem, x])):
            return ("xN=Nx", x)
    for x in range(n):
        a = np.sort(t[x, t[:, mem]], axis=1)      # [y, k]: x(y n_k)
        b = np.sort(t[t[x], :][:, mem], axis=1)   # [y, k]: (xy) n_k
        bad = np.flatnonzero((a != b).any(axis=1))
        if bad.size:
            return ("x(yN)=(xy)N", x, int(bad[0]))
        c = np.sort(t[t[mem, x], :], axis=0)      # [k, y]: (n_k x) y
        d = np.sort(t[mem][:, t[x]], axis=0)      # [k, y]: n_k (xy)
        bad = np.flatnonzero((c != d).any(axis=0))
        if bad.size:
            return ("(Nx)y=N(xy)", x, int(bad[0]))
    return None


def _class_quotient(loop: Loop, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class minima, projection and quotient table of a congruence given by a
    _block_labels row; classes are numbered in the order of their minima."""
    reps = np.flatnonzero(lab == np.arange(loop.order))
    proj = np.searchsorted(reps, lab)
    return reps, proj, proj[loop.table[np.ix_(reps, reps)]]


def quotient_loop(loop: Loop, sub: SubloopSet,
                  name: Optional[str] = None) -> tuple[Loop, np.ndarray]:
    """Loop on cosets modulo a normal subloop, plus the projection array.

    The cosets are the classes of the block closure of sub (the least
    congruence whose class of e contains it), numbered by their least
    element.  sub is normal exactly when that class is sub itself; otherwise
    NotNormal carries the least element the closure adds.  Well-definedness
    of the coset product is then checked on every element pair.
    """
    seeds = np.zeros((1, loop.order), dtype=bool)
    seeds[0, list(sub.members)] = True
    lab = _block_labels(loop, seeds)[0]
    if np.count_nonzero(lab == 0) > sub.order():
        raise NotNormal(int(np.setdiff1d(np.flatnonzero(lab == 0), sub.members)[0]))
    reps, proj, qtable = _class_quotient(loop, lab)
    bad = np.argwhere(qtable[proj[:, None], proj[None, :]] != proj[loop.table])
    if bad.size:
        raise NotNormal((int(bad[0][0]), int(bad[0][1])))
    names = [loop.element_name(int(r)) + "N" for r in reps]
    return Loop(names, qtable, name=name or f"{loop.name}/{sub.order()}"), proj


def center(loop: Loop) -> SubloopSet:
    t = loop.table
    members = []
    for z in range(loop.order):
        if not np.array_equal(t[z], t[:, z]):
            continue
        if not np.array_equal(t[t[z]], t[z][t]):              # (zx)y = z(xy)
            continue
        if not np.array_equal(t[t[:, z]], t[:, t[z]]):        # (xz)y = x(zy)
            continue
        v = t[:, z]
        if not np.array_equal(v[t], t[:, v]):                 # (xy)z = x(yz)
            continue
        members.append(z)
    return SubloopSet(loop, tuple(members))


# -- central series ------------------------------------------------------

@dataclass
class SeriesReport:
    kind: str                      # "upper" | "lower"
    terms: list
    stabilized: bool
    nilpotency_class: Optional[int]
    weight_alignment: Optional[str] = None

    def to_json(self):
        return {
            "kind": self.kind,
            "orders": [t.order() for t in self.terms],
            "terms": [list(t.members) for t in self.terms],
            "stabilized": self.stabilized,
            "nilpotency_class": self.nilpotency_class,
            "weight_alignment": self.weight_alignment,
        }


def upper_central_series(loop: Loop) -> SeriesReport:
    terms = [SubloopSet(loop, (0,))]
    while True:
        z = terms[-1]
        if z.is_full():
            break
        q, proj = quotient_loop(loop, z)
        zq = center(q)
        pulled = tuple(int(i) for i in np.flatnonzero(np.isin(proj, zq.members)))
        nxt = SubloopSet(loop, pulled)
        if nxt == z:
            break
        terms.append(nxt)
    reached = terms[-1].is_full()
    return SeriesReport(kind="upper", terms=terms, stabilized=True,
                        nilpotency_class=len(terms) - 1 if reached else None)


def _commutator_associator_values(loop: Loop, sources: Iterable[int],
                                  slots: str = "all") -> np.ndarray:
    """Unique commutator/associator values anchored at n in sources.

    slots="all" takes (n,x), (n,x,y), (x,n,y), (x,y,n) (what centrality of n
    modulo a normal subloop requires); slots="first" takes only (n,x) and
    (n,x,y) (the inductive weight definition).
    """
    t, ld = loop.table, loop.ld_table
    seen = np.zeros(loop.order, dtype=bool)
    for m in sources:
        seen[ld[t[:, m], t[m, :]]] = True                     # commutators (m, x)
        seen[ld[t[m][t], t[t[m]]]] = True                     # (m, x, y)
        if slots == "all":
            seen[ld[t[:, t[m]], t[t[:, m]]]] = True           # (x, m, y)
            u = t[:, m]
            seen[ld[t[:, u], u[t]]] = True                    # (x, y, m)
    return np.flatnonzero(seen)


def _lower_central_series_terms(loop: Loop) -> list[SubloopSet]:
    terms = [SubloopSet(loop, tuple(range(loop.order)))]
    while True:
        cur = terms[-1]
        if cur.is_trivial():
            break
        gens = _commutator_associator_values(loop, cur.members)
        nxt = normal_closure(loop, [int(g) for g in gens if g != 0])
        if nxt == cur:
            break
        terms.append(nxt)
    return terms


def _weight_generated_terms(loop: Loop, depth: int) -> list[SubloopSet]:
    """Subloops generated by all commutator-associators of weight 1, 2, ...

    Weight 1 is every commutator and associator; weight i+1 anchors a
    weight-i value in the first slot of a commutator or associator.
    """
    w = _commutator_associator_values(loop, range(loop.order), slots="first")
    out = []
    for _ in range(depth):
        sub = subloop_generated(loop, [int(g) for g in w if g != 0])
        out.append(sub)
        if sub.is_trivial():
            break
        w = _commutator_associator_values(loop, [int(g) for g in w], slots="first")
    return out


def lower_central_series(loop: Loop) -> SeriesReport:
    """Lower central series computed two ways and cross-checked.

    Route (a): term_{i+1} = smallest normal subloop modulo which term_i is
    central, i.e. the normal closure of the commutator-associators anchored
    in term_i.  Route (b): the subloop generated by all commutator-associators
    of weight i.  The two indexing conventions in circulation differ by one;
    both alignments are tried and the matching one is reported.  If neither
    matches, the computation is rejected rather than silently patched.
    """
    terms = _lower_central_series_terms(loop)
    weights = _weight_generated_terms(loop, depth=len(terms))

    def agree(offset: int) -> bool:
        pairs = [(i + offset, i) for i in range(len(weights))
                 if 0 <= i + offset < len(terms)]
        if not pairs:
            return False
        return all(weights[w].member_set() == terms[t].member_set()
                   for t, w in pairs)

    if agree(1):
        alignment = "weight_i_equals_term_{i+1}"
    elif agree(0):
        alignment = "weight_i_equals_term_i"
    else:
        raise SeriesMismatch(
            f"commutator-associator generation matches neither indexing on {loop.name}")
    reached = terms[-1].is_trivial()
    return SeriesReport(kind="lower", terms=terms, stabilized=True,
                        nilpotency_class=len(terms) - 1 if reached else None,
                        weight_alignment=alignment)


def central_series(loop: Loop, kind: str) -> SeriesReport:
    if kind == "upper":
        return upper_central_series(loop)
    if kind == "lower":
        return lower_central_series(loop)
    raise ValueError(f"unknown series kind {kind!r}")


# -- simplicity, products, radical ----------------------------------------

def is_simple(loop: Loop) -> tuple[bool, Optional[SubloopSet]]:
    """True iff every nonidentity element normally generates the whole loop."""
    if loop.order == 1:
        return False, None
    for n in _element_closures(loop):
        if not n.is_full():
            return False, n
    return True, None


def direct_product(a: Loop, b: Loop, name: Optional[str] = None) -> Loop:
    order = a.order * b.order
    if order > DENSE_PRODUCT_BOUND or not (a.has_table() and b.has_table()):
        return ProductLoop(a, b, name=name)
    t = a.table[:, None, :, None] * b.order + b.table[None, :, None, :]
    t = t.reshape(order, order)
    names = [f"{x}|{y}" for x in a.names for y in b.names]
    return Loop(names, t, name=name or f"product({a.name},{b.name})", _validated=True)


def _check_order(loop: Loop) -> None:
    if loop.order > ORDER_BOUND:
        raise OrderBoundExceeded(f"order {loop.order} exceeds ORDER_BOUND = {ORDER_BOUND}")


def normal_subloops(loop: Loop) -> list[SubloopSet]:
    """All normal subloops, as the join-closure of single-element closures.  The
    join of normal A and B is the product set AB, the preimage of A's image in Q/B."""
    _check_order(loop)
    if loop._normal_lattice is not None:
        return loop._normal_lattice
    seen = {(0,): SubloopSet(loop, (0,))}
    for n in _element_closures(loop):
        seen.setdefault(n.members, n)
    frontier = list(seen.values())
    while frontier:
        fresh = []
        existing = list(seen.values())
        for a in frontier:
            for b in existing:
                if a.member_set() <= b.member_set() or b.member_set() <= a.member_set():
                    continue
                members = np.unique(loop.table[np.ix_(a.members, b.members)]).tolist()
                j = SubloopSet(loop, tuple(members))
                if j.members not in seen:
                    seen[j.members] = j
                    fresh.append(j)
        frontier = fresh
    lattice = sorted(seen.values(), key=lambda s: (s.order(), s.members))
    loop._normal_lattice = lattice
    return lattice


def composition_factors(loop: Loop) -> list[Loop]:
    """Jordan-Hölder factors via largest proper normal subloops.

    The lattice is complete (join-closure of element closures), so the
    largest proper normal subloop is maximal and each factor is simple.
    """
    if loop.order == 1:
        return []
    proper = [s for s in normal_subloops(loop) if not s.is_full()]
    top = proper[-1]
    if top.is_trivial():
        return [loop]
    factor, _ = quotient_loop(loop, top)
    return composition_factors(top.as_loop()) + [factor]


def _associator_labels(loop: Loop) -> np.ndarray:
    """The _block_labels row of A(Q), the associator subloop, cached on the loop.

    A(Q) is the least normal subloop with an associative quotient (Bruck),
    the normal closure of the associators (x(yz))\\((xy)z).  It is built as
    alternator_ideal builds I(Q): close over one associator, scan the
    quotient for the next associativity failure, add the associator of its
    representatives and close again, until the quotient is associative or
    has one class.  Scans follow check_properties' exhaustive-or-sampled
    rule, and the first reuses its cached report.
    """
    if loop._assoc_labels is None:
        n = loop.order
        lab, reps, quot = np.arange(n), np.arange(n), loop
        seeds = np.zeros((1, n), dtype=bool)
        while (w := _associator_witness(quot)) is not None:
            seeds[0, loop_assoc_comm(loop, *(int(reps[i]) for i in w))[0]] = True
            lab = _block_labels(loop, seeds)[0]
            reps, _, qtable = _class_quotient(loop, lab)
            if reps.size == 1:
                break
            quot = Loop(reps, qtable, _validated=True)
        loop._assoc_labels = lab
    return loop._assoc_labels


def is_group_type(loop: Loop) -> bool:
    """True iff every composition factor is associative.

    By Jordan-Hölder for loops (Bruck) that holds exactly when the associator
    series N ⊵ A(N) ⊵ A(A(N)) ⊵ ... reaches {e}; each term comes from
    _associator_labels, and the series fails when A(N) = N.
    """
    _check_order(loop)
    while loop.order > 1:
        members = np.flatnonzero(_associator_labels(loop) == 0)
        if members.size == loop.order:
            return False
        if members.size == 1:
            return True
        loop = SubloopSet(loop, tuple(members.tolist())).as_loop()
    return True


def group_type_radical(loop: Loop) -> SubloopSet:
    """Largest normal subloop whose composition factors are all groups.

    Join of the group-type single-element normal closures (the product of two
    group-type normal subloops is again group-type).  The radical property
    Gr(L/Gr(L)) = {e} is re-verified on the output.
    """
    _check_order(loop)
    distinct = {n.members: n for n in _element_closures(loop)}
    good: set[int] = {0}
    for members, sub in sorted(distinct.items()):
        target = loop if sub.is_full() else sub.as_loop()
        if is_group_type(target):
            good.update(members)
    result = normal_closure(loop, good)
    if not is_group_type(loop if result.is_full() else result.as_loop()):
        raise SeriesMismatch("join of group-type closures is not group-type")
    # idempotence: the quotient must have trivial radical (tautological when
    # the radical is trivial, since the quotient is the loop itself)
    if not result.is_full() and not result.is_trivial():
        q, _ = quotient_loop(loop, result)
        if not group_type_radical(q).is_trivial():
            raise SeriesMismatch("group-type radical is not idempotent")
    return result


# -- commutative Moufang identity sampling ---------------------------------

def _inverse_form_associator(loop: Loop, x: int, y: int, z: int) -> int:
    # (x,y,z) = ((xy)z) * (x(yz))^{-1}
    a = loop.mul(loop.mul(x, y), z)
    b = loop.mul(x, loop.mul(y, z))
    return loop.mul(a, loop.inv(b))


def check_identity44(loop: Loop, tuple_samples: int = 1000, seed: int = DEFAULT_SEED,
                     tuples: Optional[Sequence[tuple]] = None) -> tuple[bool, Optional[tuple]]:
    """Six-factor nested-associator identity on commutative Moufang loops.

    Evaluates the left-normed product of the six depth-four associator
    factors on each 7-tuple (a,x,y,z,b,t,c); returns (ok, witness or None).
    """
    props = check_properties(loop)
    if not (props.commutative.ok and props.moufang.ok):
        raise NotCommutativeMoufang(f"{loop.name} is not a commutative Moufang loop")

    def A(x, y, z):
        return _inverse_form_associator(loop, x, y, z)

    if tuples is None:
        rng = np.random.default_rng(seed)
        tuples = [tuple(int(v) for v in rng.integers(0, loop.order, 7))
                  for _ in range(tuple_samples)]
    for tup in tuples:
        a, x, y, z, b, t, c = tup
        f1 = A(A(A(A(a, x, y), z, b), t, c), b, c)
        f2 = A(A(A(A(a, x, z), y, b), t, c), b, c)
        f3 = A(A(A(A(a, x, t), y, b), z, c), b, c)
        f4 = A(A(A(A(a, x, b), y, z), t, c), b, c)
        f5 = A(A(A(A(a, x, c), y, z), t, b), b, c)
        f6 = A(A(A(A(a, x, b), y, c), z, t), b, c)
        prod = loop.mul(f1, f2)
        prod = loop.mul(prod, loop.inv(f3))
        prod = loop.mul(prod, f4)
        prod = loop.mul(prod, f5)
        prod = loop.mul(prod, f6)
        if prod != 0:
            return False, tup
    return True, None
