#!/usr/bin/env python3
"""Survey embeddability verdicts for the fixture loops over several fields.

For each (loop, field) pair this builds the alternative quotient of the loop
algebra, decides whether the loop survives into its invertible elements, and
tabulates the verdict together with the dimension data that explains it.

Usage:
    python scripts/embeddability_survey.py [--primes 2,3,5,7,11] [--skip-paige]
"""
import argparse
import time

import loopforge as lf


def survey(primes, include_paige):
    loops = [
        ("c6", lf.cyclic(6)),
        ("s3", lf.s3()),
        ("chein12", lf.chein12()),
        ("cml81", lf.cml81()),
    ]
    if include_paige:
        loops += [("paige:2", lf.paige_loop(2)), ("paige:3", lf.paige_loop(3))]
    header = f"{'loop':>10} {'field':>6} {'dim I':>6} {'dim F[Q]':>8} " \
             f"{'faithful':>8} {'verdict':>11} {'time':>7}"
    print(header)
    print("-" * len(header))
    for name, loop in loops:
        for p in primes:
            field = lf.PrimeField(p)
            t0 = time.perf_counter()
            bundle = lf.alternative_loop_algebra(field, loop)
            verdict = lf.embeddability(loop, field, bundle=bundle)
            dt = time.perf_counter() - t0
            print(f"{name:>10} {field.spec:>6} {bundle.alternator.dim:>6} "
                  f"{bundle.dim:>8} {str(bundle.canonical_injective):>8} "
                  f"{verdict.outcome:>11} {dt:6.1f}s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="2,3,5,7,11")
    parser.add_argument("--skip-paige", action="store_true",
                        help="skip the simple loops of order 120 and 1080 (the slow rows)")
    args = parser.parse_args()
    primes = [int(p) for p in args.primes.split(",") if p]
    survey(primes, include_paige=not args.skip_paige)


if __name__ == "__main__":
    main()
