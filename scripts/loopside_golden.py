"""Record the loop-side structure of each fixture loop, one JSON file per loop.

    python scripts/loopside_golden.py OUTDIR

For each loop, ``OUTDIR/<loop>.json`` holds the normal closures of single
elements, the normal-subloop lattice, ``is_group_type`` of every member of
the lattice, the group-type radical, the composition-factor orders,
``is_simple`` with its witness, the lower and upper central series (or the
error a series raises), the table and projection of ``quotient_loop`` by
every member of the lattice, and the witness of
``find_simple_nonassociative_subloop``.  The loops are s3, c6, chein12, cml81, paige:2,
paige:2 x C2 and chein12 x C3, each built afresh so that no cache is shared.
The program is imported from the ``src/`` tree next to this script, so the
loop sides of two trees are identical when ``diff -r OUTDIR_A OUTDIR_B``
prints nothing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import loopforge as lf  # noqa: E402
from loopforge import loops  # noqa: E402
from loopforge.errors import LoopforgeError  # noqa: E402


def _fresh(loop):
    return lf.Loop(loop.names, loop.table, name=loop.name)


LOOPS = {
    "s3": lambda: _fresh(lf.s3()),
    "c6": lambda: _fresh(lf.cyclic(6)),
    "chein12": lambda: _fresh(lf.chein12()),
    "cml81": lambda: _fresh(lf.cml81()),
    "paige2": lambda: _fresh(lf.paige_loop(2)),
    "paige2xC2": lambda: lf.direct_product(lf.paige_loop(2), lf.cyclic(2)),
    "chein12xC3": lambda: lf.direct_product(lf.chein12(), lf.cyclic(3)),
}


def _series(loop, kind: str) -> dict:
    try:
        return lf.central_series(loop, kind).to_json()
    except LoopforgeError as exc:
        return {"error": type(exc).__name__}


def _quotient(loop, sub) -> dict:
    q, proj = lf.quotient_loop(loop, sub)
    return {"table": q.table.tolist(), "projection": proj.tolist()}


def loop_side(loop) -> dict:
    lattice = lf.normal_subloops(loop)
    simple, witness = lf.is_simple(loop)
    simple_sub = lf.find_simple_nonassociative_subloop(loop)
    return {
        "order": loop.order,
        "element_closures": [list(s.members) for s in loops._element_closures(loop)],
        "normal_subloops": [list(s.members) for s in lattice],
        "is_group_type": [loops.is_group_type(loop if s.is_full() else s.as_loop())
                          for s in lattice],
        "group_type_radical": list(lf.group_type_radical(loop).members),
        "composition_factor_orders": [f.order for f in lf.composition_factors(loop)],
        "is_simple": {"simple": simple,
                      "witness": None if witness is None else list(witness.members)},
        "lower_central_series": _series(loop, "lower"),
        "upper_central_series": _series(loop, "upper"),
        "quotients": [_quotient(loop, s) for s in lattice],
        "simple_nonassociative_subloop": None if simple_sub is None else list(simple_sub.members),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, build in LOOPS.items():
        doc = loop_side(build())
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"{name}: {len(doc['normal_subloops'])} normal subloops", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
