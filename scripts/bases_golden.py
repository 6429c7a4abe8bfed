"""Record the echelon bases of each bundle build, one JSON file per loop/field pair.

    python scripts/bases_golden.py OUTDIR

For each pair, ``OUTDIR/<loop>_<field>.json`` holds the pivots and rows of
the alternator ideal I(Q), the quotient's ``section_cols`` and
``basis_images``, and the pivots and rows of the augmentation ideal ω in
the quotient.  A pair whose ideal contains the unit records the ideal and
the error name instead of the quotient.  The pairs are chein12 over GF(2),
GF(3), GF(7) and Q; s3 over GF(2) and GF(3); c6 over GF(2); cml81 over
GF(2), GF(3), GF(5) and GF(7); paige:2 over GF(2), GF(3) and GF(11); and
paige:2 x C2 over GF(11).  The program is imported from the ``src/`` tree
next to this script, so the bases of two trees are identical when
``diff -r OUTDIR_A OUTDIR_B`` prints nothing.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import loopforge as lf  # noqa: E402
from loopforge.errors import AlternatorIdealFull  # noqa: E402

LOOPS = {
    "chein12": lf.chein12,
    "s3": lf.s3,
    "c6": lambda: lf.cyclic(6),
    "cml81": lf.cml81,
    "paige2": lambda: lf.paige_loop(2),
    "paige2xC2": lambda: lf.direct_product(lf.paige_loop(2), lf.cyclic(2)),
}
PAIRS = (("chein12", "gf:2"), ("chein12", "gf:3"), ("chein12", "gf:7"), ("chein12", "q"),
         ("s3", "gf:2"), ("s3", "gf:3"), ("c6", "gf:2"),
         ("cml81", "gf:2"), ("cml81", "gf:3"), ("cml81", "gf:5"), ("cml81", "gf:7"),
         ("paige2", "gf:2"), ("paige2", "gf:3"), ("paige2", "gf:11"), ("paige2xC2", "gf:11"))


def _matrix(field, m) -> list:
    """Exact entries: ints over GF(p), fraction strings over Q."""
    if field.finite:
        return [[int(x) for x in row] for row in m.tolist()]
    return [[str(Fraction(x)) for x in row] for row in m.tolist()]


def _subspace(s) -> dict:
    return {"pivots": list(s.pivot_cols), "rows": _matrix(s.field, s.basis_matrix())}


def bases(loop_name: str, spec: str) -> dict:
    field, loop = lf.field_from_spec(spec), LOOPS[loop_name]()
    try:
        bundle = lf.alternative_loop_algebra(field, loop)
    except AlternatorIdealFull as exc:
        ideal = lf.alternator_ideal(lf.loop_algebra(field, loop))
        return {"alternator": _subspace(ideal), "error": type(exc).__name__}
    return {"alternator": _subspace(bundle.alternator),
            "section_cols": [int(j) for j in bundle.algebra.section_cols],
            "basis_images": _matrix(field, bundle.images),
            "omega": _subspace(bundle.omega)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for loop_name, spec in PAIRS:
        doc = bases(loop_name, spec)
        name = f"{loop_name}_{spec.replace(':', '')}"
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"{name}: ideal dim {len(doc['alternator']['pivots'])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
