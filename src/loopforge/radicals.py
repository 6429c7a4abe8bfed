"""Radical machinery bridging the loop side and the algebra side.

Decides membership in the radical class of Moufang loops by two independent
routes (group-type composition factors vs. faithfulness of the canonical map
into the alternative quotient of the loop algebra), computes the loop
radical, produces embeddability verdicts with verified witnesses, and builds
the semisimple-quotient structure report.

The algebra-side criterion used here is injectivity of the canonical map
q -> image of q in FQ/I(Q).  The coefficient-sum functional is a unital
homomorphism of any loop algebra and descends to the quotient, so the ideal
generated by the elements e - q can never reach the unit; what actually
distinguishes embeddability over a field is whether the loop survives its
own alternative quotient undamaged.  When it does, the loop visibly embeds
into the invertible elements; when it does not, the recorded collision is
the obstruction.  The loop-side class and the algebra side are cross-checked
exactly where agreement is provable (see in_class_s); elsewhere a collapse
is reported with its collision, not crashed on.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import algebras, linalg, loops as loops_mod
from .algebras import (
    AlternativeLoopAlgebra,
    alternative_loop_algebra,
    augmentation_ideal,
    nilpotency_index,
    principal_ideal,
    quotient_algebra,
)
from .errors import CrossCheckMismatch
from .loops import (
    DEFAULT_SEED,
    Loop,
    SubloopSet,
    check_properties,
    group_type_radical,
    is_group_type,
    normal_subloops,
    quotient_loop,
)

SUMMAND_DIM_BOUND = 64  # largest semisimple quotient split into principal ideals


def _require_moufang(loop: Loop) -> None:
    props = check_properties(loop)
    if not props.moufang.ok:
        raise CrossCheckMismatch(f"{loop.name} is not Moufang: witness {props.moufang.witness}")


def embedding_promised(loop: Loop, field) -> bool:
    """Whether radical-class membership provably forces a faithful quotient.

    Groups always survive (their loop algebra is associative, so nothing is
    quotiented).  A commutative nonassociative Moufang loop has a faithful
    alternative quotient only in characteristic 3: in a commutative
    alternative algebra the cyclic associators sum to 3(x,y,z) = 0, so the
    quotient is associative elsewhere, Q included.  For noncommutative
    nonassociative loops no characteristic makes an unconditional promise;
    the computation decides and records whether the canonical map survives.
    """
    props = check_properties(loop)
    if props.associative.ok:
        return True
    if props.commutative.ok:
        return field.char == 3
    return False


def find_simple_nonassociative_subloop(loop: Loop) -> Optional[SubloopSet]:
    """A subloop that is a simple nonassociative loop, if one is reachable.

    Descends through non-group-type members of the normal subloop lattice;
    each recursion step stays inside an honest subloop of the original.
    """
    lattice = normal_subloops(loop)
    proper = [s for s in lattice if not s.is_full()]
    if len(proper) == 1 and proper[0].is_trivial():
        # a simple loop is group-type exactly when it is associative
        if not is_group_type(loop):
            return SubloopSet(loop, tuple(range(loop.order)))
        return None
    for sub in sorted(proper, key=lambda s: (-s.order(), s.members)):
        if sub.is_trivial():
            continue
        if is_group_type(sub.as_loop()):
            continue
        inner = find_simple_nonassociative_subloop(sub.as_loop())
        if inner is not None:
            mem = np.asarray(sub.members, dtype=np.int64)
            lifted = tuple(int(mem[i]) for i in inner.members)
            return SubloopSet(loop, lifted)
    return None


@dataclass
class ClassSResult:
    value: bool
    r1: Optional[bool]             # algebra side: canonical map faithful over F
    r2: bool                       # loop side: group-type radical is everything
    r3: bool                       # loop side: no simple nonassociative subloop
    embedding_promised: bool
    witness: Optional[SubloopSet] = None
    collision: Optional[tuple] = None
    obstruction_contradicted: bool = False   # injective, verified, yet a simple subloop

    @property
    def field_collapse(self) -> bool:
        """In the radical class, but the canonical map over F is not faithful."""
        return bool(self.value and self.r1 is False)

    def checks_json(self):
        out = {"r1": self.r1, "r2": self.r2, "r3": self.r3,
               "embedding_promised": self.embedding_promised,
               "field_collapse": self.field_collapse}
        if self.obstruction_contradicted:   # only then, so other outputs keep their bytes
            out["obstruction_contradicted"] = True
            out["simple_subloop_order"] = self.witness.order()
        return out


def in_class_s(loop: Loop, field, bundle: Optional[AlternativeLoopAlgebra] = None) -> ClassSResult:
    """Radical-class membership with all cross-checks that must hold.

    Loop side (the class definition used here): the group-type radical is the
    whole loop, equivalently no subloop is simple nonassociative; these two
    routes must agree, always.  Algebra side: injectivity of the canonical
    map into FQ/I(Q) over the given field, which by the factoring argument is
    exactly embeddability into the invertible elements of *any* unital
    alternative algebra over that field.  An injective map on a loop with a
    simple nonassociative subloop contradicts the obstruction stated for
    such loops; it is accepted only when the images verify concretely
    (distinct, invertible, multiplicative on all pairs) and is then recorded
    as ``obstruction_contradicted``.  Paige's M*(2) = paige:2 does embed over
    GF(2), as the det-1 Zorn vector matrices it is built from.  Fatal
    disagreements: such a map whose images fail that verification, or a
    collapse where the embedding is provably promised.  A collapse of a
    radical-class loop over an unpromising field is a recorded fact, not an
    error; the collision pair documents it.
    """
    _require_moufang(loop)
    gr = group_type_radical(loop)
    r2 = gr.is_full()
    witness = None if r2 else find_simple_nonassociative_subloop(loop)
    r3 = witness is None
    if r2 != r3:
        raise CrossCheckMismatch(
            f"group-type radical and simple-subloop search disagree on {loop.name}")
    if bundle is None:
        bundle = alternative_loop_algebra(field, loop)
    r1 = bundle.canonical_injective
    promised = embedding_promised(loop, field)
    contradicted = r1 and not (r2 and r3)
    if contradicted and not all(bundle.embedding_checks):
        raise CrossCheckMismatch(
            f"{loop.name} has a simple nonassociative subloop and an injective "
            f"canonical map over {field!r} whose images fail verification")
    if promised and (r2 and r3) and not r1:
        raise CrossCheckMismatch(
            f"promised embedding of {loop.name} over {field!r} collapsed: "
            f"collision {bundle.collision}")
    return ClassSResult(value=r2 and r3, r1=r1, r2=r2, r3=r3,
                        embedding_promised=promised, witness=witness,
                        collision=bundle.collision, obstruction_contradicted=contradicted)


def loop_radical(loop: Loop, field, bundle: Optional[AlternativeLoopAlgebra] = None) -> SubloopSet:
    """The largest normal subloop in the radical class.

    Computed as the group-type radical (which group_type_radical verifies
    idempotent) and confirmed on the algebra side for the radical subloop
    itself.  ``bundle`` (the loop's alternative loop algebra) is reused when
    the radical is the whole loop.
    """
    _require_moufang(loop)
    gr = group_type_radical(loop)
    sub, sub_bundle = (loop, bundle) if gr.is_full() else (gr.as_loop(), None)
    confirmation = in_class_s(sub, field, bundle=sub_bundle)
    if not confirmation.value:
        raise CrossCheckMismatch(f"radical subloop of {loop.name} is not in the radical class")
    return gr


# -- embeddability -----------------------------------------------------------

@dataclass
class EmbeddabilityVerdict:
    loop_name: str
    field_spec: str
    outcome: str                            # "embeds" | "obstructed"
    checks: dict
    seed: int = DEFAULT_SEED
    embedding: Optional[np.ndarray] = None  # loop index -> quotient coordinates
    witness_members: Optional[tuple] = None
    witness_order: Optional[int] = None
    collision: Optional[tuple] = None
    images_distinct: Optional[bool] = None
    all_invertible: Optional[bool] = None
    multiplicative: Optional[bool] = None

    def to_json(self):
        witness = None
        if self.outcome == "obstructed":
            witness = {
                "simple_subloop_order": self.witness_order,
                "simple_subloop_members": list(self.witness_members or ()),
                "collision": list(self.collision) if self.collision else None,
            }
        return {
            "loop": self.loop_name,
            "field": self.field_spec,
            "outcome": self.outcome,
            "checks": self.checks,
            "witness": witness,
            "embedding_verified": {
                "images_distinct": self.images_distinct,
                "all_invertible": self.all_invertible,
                "multiplicative": self.multiplicative,
            } if self.outcome == "embeds" else None,
            "seed": self.seed,
        }


def embeddability(loop: Loop, field, bundle: Optional[AlternativeLoopAlgebra] = None,
                  seed: int = DEFAULT_SEED) -> EmbeddabilityVerdict:
    """Full verdict on embedding the loop into U(FQ/I(Q)) over the field.

    The embeds branch verifies the claim concretely (distinct invertible
    images, multiplicative on all pairs) without leaning on any theorem; the
    obstructed branch carries a verified simple nonassociative subloop and
    the collision actually realised in the quotient.  A verified simple
    subloop next to verified images (paige:2 over GF(2)) gives ``embeds``
    with ``obstruction_contradicted`` in its checks.
    """
    _require_moufang(loop)
    if bundle is None:
        bundle = alternative_loop_algebra(field, loop)
    result = in_class_s(loop, field, bundle=bundle)
    checks = result.checks_json()
    witness = result.witness
    if witness is not None:
        sub = loop if witness.is_full() else witness.as_loop()   # a full copy is the loop itself
        wprops = check_properties(sub)
        simple, _ = loops_mod.is_simple(sub)
        if wprops.associative.ok or not wprops.moufang.ok or not simple:
            raise CrossCheckMismatch("obstruction witness failed verification")
    if bundle.canonical_injective:
        distinct, invertible, multiplicative = bundle.embedding_checks
        if not (distinct and invertible and multiplicative):
            raise CrossCheckMismatch(
                f"embedding verification failed on {loop.name} over {field!r}")
        return EmbeddabilityVerdict(
            loop_name=loop.name, field_spec=field.spec, outcome="embeds",
            checks=checks, seed=seed, embedding=bundle.images,
            images_distinct=distinct, all_invertible=invertible,
            multiplicative=multiplicative)
    # no witness: in the radical class but the map collapsed, a characteristic effect
    members, order = (None, None) if witness is None else (witness.members, witness.order())
    return EmbeddabilityVerdict(
        loop_name=loop.name, field_spec=field.spec, outcome="obstructed",
        checks=checks, seed=seed, witness_members=members, witness_order=order,
        collision=bundle.collision)


@dataclass
class CircleEmbeddingReport:
    ok: bool
    pairs: int

    def to_json(self):
        return {"ok": self.ok, "pairs": self.pairs}


def circle_embedding(loop: Loop, field,
                     bundle: Optional[AlternativeLoopAlgebra] = None) -> CircleEmbeddingReport:
    """Verify q -> e - image(q) lands in the circle loop multiplicatively.

    (e - a) ∘ (e - b) = e - ab holds in every unital algebra, so
    (e - q) ∘ (e - q') = e - qq' holds exactly when image(q) image(q') =
    image(qq').  That is checked on every pair of elements of ``loop``, by
    its table, one block of ``block_rows(1, n, n)`` left elements at a time.
    """
    if bundle is None:
        bundle = alternative_loop_algebra(field, loop)
    quot, images = bundle.algebra, bundle.images
    n, k = len(images), quot.block_rows(1, len(images), len(images))
    ok = all(np.array_equal(quot.mul_rows(images[s:s + k], images).reshape(-1, n, quot.dim),
                            images[loop.table[s:s + k]]) for s in range(0, n, k))
    return CircleEmbeddingReport(ok=ok, pairs=n * n)


# -- structure report ---------------------------------------------------------

@dataclass
class WedderburnReport:
    loop_name: str
    field_spec: str
    radical_subloop: SubloopSet
    radical_ideal_dim: int
    algebra_dim: int
    quotient_dim: int
    dim_cross_check: bool
    quotient_is_field: bool
    sampled_principal_nilpotent: list = dc_field(default_factory=list)
    summand_dims: Optional[list] = None
    direct_sum_verified: Optional[bool] = None
    summands_span: Optional[str] = None
    seed: int = DEFAULT_SEED

    def to_json(self):
        return {
            "loop": self.loop_name,
            "field": self.field_spec,
            "radical_subloop_order": self.radical_subloop.order(),
            "radical_subloop_members": list(self.radical_subloop.members),
            "radical_ideal_dim": self.radical_ideal_dim,
            "algebra_dim": self.algebra_dim,
            "quotient_dim": self.quotient_dim,
            "checks": {
                "dim_cross_check": self.dim_cross_check,
                "quotient_is_field": self.quotient_is_field,
                "sampled_principal_nilpotent": self.sampled_principal_nilpotent,
                "summand_dims": self.summand_dims,
                "direct_sum_verified": self.direct_sum_verified,
                "summands_span": self.summands_span,
            },
            "seed": self.seed,
        }


def wedderburn_report(loop: Loop, field, bundle: Optional[AlternativeLoopAlgebra] = None,
                      seed: int = DEFAULT_SEED) -> WedderburnReport:
    """Radical ideal, semisimple quotient and its decomposition checks.

    The radical ideal is the augmentation ideal of the loop radical (the
    bundle's ω when the radical is the whole loop); the dimension of the
    quotient is cross-checked against the alternative loop algebra of the
    quotient loop.  On the semisimple quotient, the principal ideals of the
    generators e - q, each built once: sampled ones must not be nilpotent,
    and (small dimensions only) all of them must split it into a verified
    direct sum.
    """
    _require_moufang(loop)
    if bundle is None:
        bundle = alternative_loop_algebra(field, loop)
    srad = loop_radical(loop, field, bundle=bundle)
    quot_alg = bundle.algebra
    ideal = bundle.omega if srad.is_full() else augmentation_ideal(quot_alg, srad)
    qdim = quot_alg.dim - ideal.dim
    if srad.is_full():
        expected_dim = 1
    elif srad.is_trivial():
        expected_dim = bundle.dim
    else:
        qloop, _ = quotient_loop(loop, srad)
        expected_dim = alternative_loop_algebra(field, qloop).dim
    dim_ok = qdim == expected_dim
    quotient_is_field = qdim == 1
    nilpotent_flags: list = []
    summands = None
    direct_ok = None
    span = None
    if not quotient_is_field:
        semi = quotient_algebra(quot_alg, ideal, verify=False)    # loop-backed
        # generator images e - q inside the semisimple quotient
        gens = semi.field.canon(semi.basis_images[0][None, :] - semi.basis_images)
        rng = np.random.default_rng(seed)
        pick = sorted(int(i) for i in rng.choice(len(gens), size=min(6, len(gens)), replace=False))
        split = semi.dim <= SUMMAND_DIM_BOUND
        ideals = {k: principal_ideal(semi, gens[k])
                  for k in (range(len(gens)) if split else pick) if gens[k].any()}
        nilpotent_flags = [{"generator": k, "nilpotency_index": nilpotency_index(ideals[k], semi)}
                           for k in pick if k in ideals]
        if split:
            summands, direct_ok, span = _principal_splitting(semi, list(ideals.values()))
    return WedderburnReport(
        loop_name=loop.name, field_spec=field.spec, radical_subloop=srad,
        radical_ideal_dim=ideal.dim, algebra_dim=quot_alg.dim, quotient_dim=qdim,
        dim_cross_check=dim_ok, quotient_is_field=quotient_is_field,
        sampled_principal_nilpotent=nilpotent_flags,
        summand_dims=summands, direct_sum_verified=direct_ok, summands_span=span,
        seed=seed)


def _principal_splitting(alg, principal: list):
    """Minimal ideals among the principal ideals ``principal``.

    Returns (dims of the minimal ideals, direct flag, span label).  The sum
    is direct when its dimension equals the sum of the parts; the label says
    whether the minimal ideals span the whole algebra, only a proper ideal,
    or nothing.
    """
    ideals = []
    seen = set()
    for pid in principal:
        key = (pid.dim, pid.pivot_cols, tuple(tuple(r.tolist()) for r in pid.rows))
        if key in seen or pid.dim == 0:
            continue
        seen.add(key)
        ideals.append(pid)
    minimal: list = []
    for cand in sorted(ideals, key=lambda s: (s.dim, s.pivot_cols)):
        if any(m <= cand and m.dim < cand.dim for m in minimal):
            continue
        minimal = [m for m in minimal if not (cand <= m and cand.dim < m.dim)]
        if not any(cand == m for m in minimal):
            minimal.append(cand)
    if not minimal:
        return [], None, "empty"
    total = linalg.span_rows(alg.field, alg.dim,
                             np.vstack([m.basis_matrix() for m in minimal]))
    direct = bool(total.dim == sum(m.dim for m in minimal))
    span = "full" if total.is_full() else "proper"
    return [m.dim for m in minimal], direct, span
