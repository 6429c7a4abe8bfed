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
``OUTDIR/scans.json`` holds ``check_properties`` of the same seven loops,
of a non-Moufang loop of order 5 and of its products with s3, chein12 and
cml81, of cml81 x C5 and of bol8, a left Bol loop that is not Moufang, each
also under two seeded relabellings that fix the identity, so that the
Moufang and associativity witnesses fall in different rows.  It also holds
the report of cml81 x cml81, a product without a table, read off the
reports of its factors.
``OUTDIR/associators.json`` holds the labels of the associator subloop A(Q)
(the least element of each class), ``is_group_type`` and the group-type
radical of four loops above that order: paige:2 x C3, cml81 x C5 and the
Chein doubles M(S3 x C25, 2) and M(S3 x C32, 2) (orders 300 and 384).
The program is imported from the ``src/`` tree next to this script, so the
loop sides of two trees are identical when ``diff -r OUTDIR_A OUTDIR_B``
prints nothing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

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

# not left alternative: (11)2 = 2 but 1(12) = 4
ORDER5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
# left Bol, not Moufang: ((21)2)0 != 2(1(20)); a transversal loop of D8 x C2
BOL8 = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6], [2, 3, 0, 1, 6, 7, 4, 5],
        [3, 2, 5, 4, 7, 6, 1, 0], [4, 5, 6, 7, 0, 1, 2, 3], [5, 4, 7, 6, 1, 0, 3, 2],
        [6, 7, 4, 5, 2, 3, 0, 1], [7, 6, 1, 0, 3, 2, 5, 4]]
SCAN_LOOPS = {
    **LOOPS,
    "order5": lambda: lf.Loop("01234", ORDER5),
    "order5xs3": lambda: lf.direct_product(lf.Loop("01234", ORDER5), lf.s3()),
    "order5xchein12": lambda: lf.direct_product(lf.Loop("01234", ORDER5), lf.chein12()),
    "order5xcml81": lambda: lf.direct_product(lf.Loop("01234", ORDER5), lf.cml81()),
    "cml81xC5": lambda: lf.direct_product(lf.cml81(), lf.cyclic(5)),
    "bol8": lambda: lf.Loop("01234567", BOL8, name="bol8"),
}
# no table to relabel
PRODUCT_SCAN_LOOPS = {"cml81xcml81": lambda: lf.direct_product(lf.cml81(), lf.cml81())}
RELABEL_SEEDS = (1, 2)
ASSOCIATOR_LOOPS = {
    "paige2xC3": lambda: lf.direct_product(lf.paige_loop(2), lf.cyclic(3)),
    "cml81xC5": lambda: lf.direct_product(lf.cml81(), lf.cyclic(5)),
    "chein:S3xC25": lambda: lf.chein_double(lf.direct_product(lf.s3(), lf.cyclic(25))),
    "chein:S3xC32": lambda: lf.chein_double(lf.direct_product(lf.s3(), lf.cyclic(32))),
}


def _relabelled(loop, seed: int):
    """An isomorphic copy under a seeded permutation fixing the identity."""
    n = loop.order
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
    table = np.empty_like(loop.table)
    table[perm[:, None], perm[None, :]] = perm[loop.table]
    names = [None] * n
    for old, new in enumerate(perm.tolist()):
        names[new] = loop.names[old]
    return lf.Loop(names, table, name=loop.name)


def scans() -> dict:
    doc = {}
    for name, build in SCAN_LOOPS.items():
        loop = build()
        doc[name] = lf.check_properties(loop).to_json()
        for seed in RELABEL_SEEDS:
            doc[f"{name}@{seed}"] = lf.check_properties(_relabelled(loop, seed)).to_json()
    for name, build in PRODUCT_SCAN_LOOPS.items():
        doc[name] = lf.check_properties(build()).to_json()
    return doc


def associators() -> dict:
    doc = {}
    for name, build in ASSOCIATOR_LOOPS.items():
        loop = build()
        doc[name] = {"labels": loops._associator_labels(loop).tolist(),
                     "is_group_type": loops.is_group_type(loop),
                     "group_type_radical": list(lf.group_type_radical(loop).members)}
    return doc


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
    (out / "scans.json").write_text(json.dumps(scans(), sort_keys=True) + "\n")
    print("scans: done", file=sys.stderr)
    (out / "associators.json").write_text(json.dumps(associators(), sort_keys=True) + "\n")
    print("associators: done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
