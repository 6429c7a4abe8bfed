#!/usr/bin/env python3
"""Tabulate nilpotency of augmentation ideals against loop/field diagnostics.

The augmentation ideal of the alternative quotient is nilpotent exactly when
the loop is a p-loop and the field has characteristic p; this script prints
the computed index (or -) next to the p-loop test so the equivalence is
visible at a glance, and reports the central series class of each fixture.

Usage:
    python scripts/nilpotency_table.py [--primes 2,3,5,7]
"""
import argparse

import loopforge as lf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="2,3,5,7")
    args = parser.parse_args()
    primes = [int(p) for p in args.primes.split(",") if p]

    loops = [
        ("c3", lf.cyclic(3)),
        ("c4", lf.cyclic(4)),
        ("chein12", lf.chein12()),
        ("cml81", lf.cml81()),
    ]
    print(f"{'loop':>8} {'|Q|':>5} {'class':>6}", end="")
    for p in primes:
        print(f" {'w^n=0 @gf:' + str(p):>13}", end="")
    print()
    for name, loop in loops:
        props = lf.check_properties(loop)
        try:
            cls = lf.central_series(loop, "upper").nilpotency_class
        except Exception:
            cls = None
        print(f"{name:>8} {loop.order:>5} {str(cls):>6}", end="")
        for p in primes:
            bundle = lf.alternative_loop_algebra(lf.PrimeField(p), loop)
            idx = lf.nilpotency_index(bundle.omega, bundle.algebra)
            is_p = props.is_p_loop(p)
            mark = f"{idx}" if idx is not None else "-"
            print(f" {mark + ' (p-loop)' if is_p else mark:>13}", end="")
        print()


if __name__ == "__main__":
    main()
