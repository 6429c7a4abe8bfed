"""Record inverses, quasiinverses and nil checks of each quotient, one JSON file per pair.

    python scripts/units_golden.py OUTDIR

For each loop/field pair of ``bases_golden.py`` whose bundle builds (its
quotient is unital), ``OUTDIR/<loop>_<field>.json`` holds ``invert`` of
every loop image and of seeded elements e - x and x (x in the augmentation
ideal ω, so e - x is unipotent when ω is nil) and of seeded elements of the
whole quotient; ``quasiinverse`` of seeded ω elements;
``is_quasiregular_element`` of every ω basis row; and
``nil_closed_form_check`` of seeded ω triples at ω's nilpotency index
(null when ω is not nilpotent).  An inverse is recorded as its row, null
for none, or the name of the error raised.  The program is imported from
the ``src/`` tree next to this script, so two trees agree when
``diff -r OUTDIR_A OUTDIR_B`` prints nothing.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from bases_golden import LOOPS, PAIRS, _matrix, lf
from loopforge.algebras import is_quasiregular_element
from loopforge.errors import AlternatorIdealFull, LoopforgeError

SEEDED = 6        # seeded elements per kind
TRIPLES = 4       # seeded triples for nil_closed_form_check


def _outcome(field, fn, *args):
    try:
        out = fn(*args)
    except LoopforgeError as exc:
        return type(exc).__name__
    if isinstance(out, (bool, np.bool_)) or out is None:
        return None if out is None else bool(out)
    return _matrix(field, np.asarray(out).reshape(1, -1))[0]


def _rows(field, rng, k, basis):
    """k seeded combinations of the rows of basis, canonical."""
    if field.finite:
        coeffs = rng.integers(0, field.p, size=(k, basis.shape[0]))
    else:
        coeffs = np.vectorize(Fraction, otypes=[object])(rng.integers(-3, 4, size=(k, basis.shape[0])))
    return field.canon(coeffs @ basis) if basis.shape[0] else np.zeros((k, basis.shape[1]),
                                                                       dtype=basis.dtype)


def units(loop_name: str, spec: str, seed: int):
    field, loop = lf.field_from_spec(spec), LOOPS[loop_name]()
    try:
        bundle = lf.alternative_loop_algebra(field, loop)
    except AlternatorIdealFull:
        return None
    quot, omega = bundle.algebra, bundle.omega
    rng = np.random.default_rng([lf.DEFAULT_SEED, seed])
    e, wb = quot.unit, omega.basis_matrix()
    eye = np.asarray([quot.basis_vec(i) for i in range(quot.dim)])
    nil = _rows(field, rng, SEEDED, wb)
    elems = {"unit_minus_omega": field.canon(e - nil), "omega": nil,
             "whole": _rows(field, rng, SEEDED, eye)}
    inv = lambda u: _outcome(field, lf.invert, quot, u)  # noqa: E731
    doc = {"images": [inv(u) for u in bundle.images]}
    for kind, rows in elems.items():
        doc[f"invert_{kind}"] = {"elements": _matrix(field, rows), "inverses": [inv(u) for u in rows]}
    quasi = _rows(field, rng, SEEDED, wb)
    doc["quasiinverse"] = {"elements": _matrix(field, quasi),
                           "values": [_outcome(field, lf.quasiinverse, quot, a) for a in quasi]}
    doc["is_quasiregular_omega_rows"] = [_outcome(field, is_quasiregular_element, quot, r)
                                         for r in wb]
    m = lf.nilpotency_index(omega, quot)
    triples = [_rows(field, rng, 3, wb) for _ in range(TRIPLES)]
    doc["nil_closed_form"] = None if m is None else {
        "m": m, "triples": [_matrix(field, t) for t in triples],
        "holds": [_outcome(field, lf.nil_closed_form_check, quot, *t, m) for t in triples]}
    return doc


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for seed, (loop_name, spec) in enumerate(PAIRS):
        name = f"{loop_name}_{spec.replace(':', '')}"
        doc = units(loop_name, spec, seed)
        if doc is None:
            print(f"{name}: no unital quotient, skipped", file=sys.stderr)
            continue
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"{name}: {len(doc['images'])} images inverted", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
