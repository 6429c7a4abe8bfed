"""Command-line front end.

Subcommands: construct, check, series, algebra, radical, embed, report.
Exit codes: 0 success / property verified, 1 property violation found
(witness in the output), 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebras, radicals
from .constructions import builtin_loop
from .errors import LoopforgeError
from .fields import field_from_spec
from .loops import (
    DEFAULT_SEED,
    Loop,
    central_series,
    check_identity44,
    check_properties,
    loop_from_cayley,
    loop_to_cayley,
)

_JSON_KW = dict(indent=2, sort_keys=True)


def _dump(doc, path=None) -> str:
    text = json.dumps(doc, **_JSON_KW) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def resolve_loop(spec: str) -> Loop:
    if os.path.exists(spec):
        with open(spec) as fh:
            doc = json.load(fh)
        name = os.path.splitext(os.path.basename(spec))[0]
        return loop_from_cayley(doc, name=name)
    if spec.endswith(".json") or os.sep in spec:
        raise FileNotFoundError(f"no such file: {spec!r}")
    return builtin_loop(spec)


def cmd_construct(args) -> int:
    loop = builtin_loop(args.kind)
    _dump(loop_to_cayley(loop), args.output)
    return 0


def cmd_check(args) -> int:
    loop = resolve_loop(args.loop)
    if args.property == "identity44":
        ok, witness = check_identity44(loop, tuple_samples=args.samples, seed=args.seed)
        doc = {"loop": loop.name, "property": "identity44", "ok": ok,
               "witness": list(witness) if witness else None,
               "samples": args.samples, "seed": args.seed}
        _dump(doc, args.output)
        return 0 if ok else 1
    report = check_properties(loop)
    outcome = getattr(report, args.property)
    doc = {"loop": loop.name, "order": loop.order, "property": args.property}
    doc.update(outcome.to_json())
    _dump(doc, args.output)
    return 0 if outcome.ok else 1


def cmd_series(args) -> int:
    loop = resolve_loop(args.loop)
    report = central_series(loop, args.kind)
    doc = {"loop": loop.name}
    doc.update(report.to_json())
    _dump(doc, args.output)
    return 0


def cmd_algebra(args) -> int:
    loop = resolve_loop(args.loop)
    field = field_from_spec(args.field)
    bundle = algebras.alternative_loop_algebra(field, loop)
    alt = algebras.alternative_check(bundle.algebra, mode="sampled",
                                     samples=args.samples, seed=args.seed)
    nilp = algebras.nilpotency_index(bundle.omega, bundle.algebra) \
        if not bundle.unit_in_omega else None
    doc = {
        "loop": loop.name,
        "field": field.spec,
        "dim": bundle.dim,
        "ideal_dim": bundle.alternator.dim,
        "unit_in_ideal": False,
        "omega_dim": bundle.omega.dim,
        "omega_codim": bundle.omega_codim,
        "unit_in_omega": bundle.unit_in_omega,
        "canonical_injective": bundle.canonical_injective,
        "collision": list(bundle.collision) if bundle.collision else None,
        "nilpotency_index": nilp,
        "diagonal_alternators": True,
        "alternative": alt.to_json(),
    }
    _dump(doc, args.output)
    return 0 if alt.ok else 1


def cmd_radical(args) -> int:
    loop = resolve_loop(args.loop)
    field = field_from_spec(args.field)
    bundle = algebras.alternative_loop_algebra(field, loop)
    result = radicals.in_class_s(loop, field, bundle=bundle)
    srad = radicals.loop_radical(loop, field, bundle=bundle)
    doc = {
        "loop": loop.name,
        "field": field.spec,
        "in_class_S": result.value,
        "checks": result.checks_json(),
        "radical_order": srad.order(),
        "radical_members": list(srad.members),
        "seed": args.seed,
    }
    _dump(doc, args.output)
    return 0


def cmd_embed(args) -> int:
    loop = resolve_loop(args.loop)
    field = field_from_spec(args.field)
    verdict = radicals.embeddability(loop, field, seed=args.seed)
    _dump(verdict.to_json(), args.output)
    return 0


def cmd_report(args) -> int:
    loop = resolve_loop(args.loop)
    field = field_from_spec(args.field)
    report = radicals.wedderburn_report(loop, field, seed=args.seed)
    _dump(report.to_json(), args.output)
    return 0


def _positive_int(text: str) -> int:
    """``--samples``: zero samples would check nothing and report a pass."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopforge",
        description="exact computations with finite Moufang loops and their "
                    "alternative loop algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=False, samples=False, seed=True):
        p.add_argument("--loop", required=True,
                       help="builtin name (cyclic:n, s3, chein:<g>, cml81, paige:q) "
                            "or a Cayley JSON file")
        if field:
            p.add_argument("--field", required=True, help="gf:p or q")
        if samples:
            p.add_argument("--samples", type=_positive_int, default=10**4)
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--json", action="store_true",
                       help="accepted for compatibility; output is always JSON")
        p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("construct", help="build a named loop and emit its Cayley JSON")
    p.add_argument("--kind", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("check", help="check a loop property, exit 1 on violation")
    common(p, samples=True)
    p.add_argument("--property", required=True,
                   choices=["moufang", "associative", "commutative", "ip", "identity44"])
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("series", help="upper or lower central series")
    common(p, seed=False)
    p.add_argument("--kind", choices=["upper", "lower"], default="upper")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("algebra", help="alternative loop algebra report")
    common(p, field=True, samples=True)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("radical", help="loop radical and class membership")
    common(p, field=True)
    p.set_defaults(fn=cmd_radical)

    p = sub.add_parser("embed", help="embeddability verdict")
    common(p, field=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("report", help="radical/semisimple structure report")
    common(p, field=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (LoopforgeError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
