"""Exact computations with finite Moufang loops and alternative loop algebras."""

from .fields import QQ, PrimeField, RationalField, field_from_spec
from .linalg import Subspace, ideal_closure, span_rows, subspace_power
from .loops import (
    DEFAULT_SEED,
    Loop,
    ProductLoop,
    SubloopSet,
    center,
    central_series,
    check_identity44,
    check_properties,
    composition_factors,
    direct_product,
    group_type_radical,
    is_simple,
    is_subloop,
    loop_assoc_comm,
    loop_from_cayley,
    loop_from_table,
    loop_to_cayley,
    normal_closure,
    normal_subloops,
    quotient_loop,
    subloop_generated,
    verify_normal,
)
from .constructions import (
    builtin_group,
    builtin_loop,
    chein12,
    chein_double,
    cml81,
    cyclic,
    paige_loop,
    s3,
    zorn_algebra,
    zorn_det,
    zorn_mul_coords,
)
from .algebras import (
    AlternativeLoopAlgebra,
    LoopAlgebra,
    TensorAlgebra,
    alternative_check,
    alternative_loop_algebra,
    alternator_ideal,
    augmentation_ideal,
    circle,
    circle_iso_check,
    circle_loop,
    invert,
    nil_closed_form_check,
    loop_algebra,
    nilpotency_index,
    principal_ideal,
    quasiinverse,
    quotient_algebra,
    radical_zhevlakov,
    unitize,
)
from .radicals import (
    EmbeddabilityVerdict,
    WedderburnReport,
    circle_embedding,
    embeddability,
    find_simple_nonassociative_subloop,
    in_class_s,
    loop_radical,
    wedderburn_report,
)

__version__ = "0.1.0"
