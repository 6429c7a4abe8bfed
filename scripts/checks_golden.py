"""Record ``alternative_check`` outcomes, one JSON file per set of inputs.

    python scripts/checks_golden.py OUTDIR

``OUTDIR/quotients.json`` holds, for each loop/field pair of
``bases_golden.py`` whose bundle builds, the check of its quotient in
exhaustive mode and in sampled mode with 10^3 samples.
``OUTDIR/loop_algebras.json`` holds the exhaustive check of FQ for s3, c6,
chein12, cml81 and paige:2 over GF(2), GF(3) and GF(65537), and for s3, c6
and chein12 over Q; a non-alternative FQ stops at its first witness.
``OUTDIR/tensors.json`` holds the exhaustive check of the Zorn algebra over
GF(2), GF(3) and Q, of the Zorn algebra over GF(3) plus n0 n0 = n1,
n1 n0 = n2, and of seeded sparse algebras over GF(2),
GF(3) and GF(7) of dimension 2, 3, 5 and 8, the inputs of the witness test
in ``tests/test_algebras.py``.  ``OUTDIR/sampled.json`` holds, with 10^3
samples, ``alternative_check`` and ``associative_check_sampled`` on each of
those tensors (under ``tensors``), and ``circle_iso_check`` on the ω of each
quotient above whose check samples rather than enumerates its pairs (under
``omegas``).  Each entry is ``CheckOutcome.to_json()`` or
``CircleIsoReport.to_json()``, whose keys are ``ok`` (the identity
(e-a)(e-b) = e - a∘b on every pair drawn), ``mode``, ``pairs`` and
``seed``.  ``OUTDIR/circle_embeddings.json`` holds
``circle_embedding(...).to_json()`` for each bundle above.
``OUTDIR/products.json`` holds, on seeded rows, ``mul_rows`` (5 x 3 rows),
``mul_pairwise`` (5 pairs) and the left and right multiplication matrices
of one row, for the quotient of each bundle above, the Zorn algebra over
GF(2), GF(3), GF(1048573) and Q, the 64-dimensional sum of eight Zorn
algebras over GF(3), there with 300 x 2 rows and 300 pairs, past the first
block of 256 rows, and FQ of s3, chein12 and cml81 over GF(2), GF(3) and
GF(1048573) and of chein12 over Q, with 200 x 2 rows and 200 pairs for
cml81, past its first block of 159 rows.
The program is imported from the ``src/`` tree next to this script, so two
trees agree when ``diff -r OUTDIR_A OUTDIR_B`` prints nothing.
"""
from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from bases_golden import LOOPS, PAIRS, _matrix, lf
from loopforge.errors import AlternatorIdealFull

FQ_LOOPS = {"s3": lf.s3, "c6": lambda: lf.cyclic(6), "chein12": lf.chein12,
            "cml81": lf.cml81, "paige2": lambda: lf.paige_loop(2)}


def sparse_tensor(p: int, d: int, s: int) -> lf.TensorAlgebra:
    """Seeded d-dimensional algebra over GF(p) with two or three nonzero structure constants."""
    rng = np.random.default_rng([p, d, s])
    k = 2 + s % 2
    c = np.zeros((d, d, d), dtype=np.int64)
    c[tuple(rng.integers(0, d, size=(k, 3)).T)] = rng.integers(1, p, size=k)
    return lf.TensorAlgebra(lf.PrimeField(p), c, [f"x{i}" for i in range(d)])


def zorn_plus_3() -> lf.TensorAlgebra:
    f3 = lf.PrimeField(3)
    c = np.zeros((11, 11, 11), dtype=np.int64)
    c[:8, :8, :8] = lf.zorn_algebra(f3).c
    c[8, 8, 9] = c[9, 8, 10] = 1
    return lf.TensorAlgebra(f3, c, [f"x{i}" for i in range(11)])


@functools.lru_cache(maxsize=None)
def bundles() -> dict:
    """The bundle of each loop/field pair of ``bases_golden.py`` that builds."""
    out = {}
    for loop_name, spec in PAIRS:
        try:
            out[f"{loop_name}_{spec}"] = lf.alternative_loop_algebra(
                lf.field_from_spec(spec), LOOPS[loop_name]())
        except AlternatorIdealFull:
            continue
    return out


def quotients() -> dict:
    return {name: {"exhaustive": lf.alternative_check(b.algebra, mode="exhaustive").to_json(),
                   "sampled": lf.alternative_check(b.algebra, mode="sampled",
                                                   samples=10**3).to_json()}
            for name, b in bundles().items()}


def loop_algebras() -> dict:
    pairs = [(name, spec) for name in FQ_LOOPS for spec in ("gf:2", "gf:3", "gf:65537")]
    pairs += [(name, "q") for name in ("s3", "c6", "chein12")]
    return {f"{name}_{spec}": lf.alternative_check(
                lf.loop_algebra(lf.field_from_spec(spec), FQ_LOOPS[name]()),
                mode="exhaustive").to_json()
            for name, spec in pairs}


def tensor_algebras() -> dict:
    algs = {f"zorn_{spec}": lf.zorn_algebra(lf.field_from_spec(spec))
            for spec in ("gf:2", "gf:3", "q")}
    algs["zorn_plus_3_gf:3"] = zorn_plus_3()
    algs.update({f"sparse_gf:{p}_d{d}_s{s}": sparse_tensor(p, d, s)
                 for p in (2, 3, 7) for d in (2, 3, 5, 8) for s in range(10)})
    return algs


def tensors() -> dict:
    return {name: lf.alternative_check(alg, mode="exhaustive").to_json()
            for name, alg in tensor_algebras().items()}


def sampled() -> dict:
    out = {"tensors": {name: {
        "alternative": lf.alternative_check(alg, mode="sampled", samples=10**3).to_json(),
        "associative": lf.algebras.associative_check_sampled(alg, samples=10**3).to_json()}
        for name, alg in tensor_algebras().items()}, "omegas": {}}
    for name, b in bundles().items():
        report = lf.circle_iso_check(b.algebra, b.omega, samples=10**3)
        if report.mode == "sampled":
            out["omegas"][name] = report.to_json()
    return out


def circle_embeddings() -> dict:
    return {name: lf.circle_embedding(b.loop, b.field, bundle=b).to_json()
            for name, b in bundles().items()}


def zorn_sum(copies: int, field) -> lf.TensorAlgebra:
    """The direct sum of ``copies`` Zorn algebras, one 8 x 8 x 8 block each."""
    z, d = lf.zorn_algebra(field).c, 8 * copies
    c = field.zeros((d, d, d))
    for s in range(0, d, 8):
        c[s:s + 8, s:s + 8, s:s + 8] = z
    return lf.TensorAlgebra(field, c, [f"x{i}" for i in range(d)])


def seeded_rows(field, rng, k: int, d: int) -> np.ndarray:
    """k rows of width d: residues over GF(p), fractions a/b with |a| <= 9, 1 <= b <= 5 over Q."""
    if field.finite:
        return rng.integers(0, field.p, size=(k, d))
    num, den = rng.integers(-9, 10, size=(k, d)), rng.integers(1, 6, size=(k, d))
    return np.array([[Fraction(int(x), int(y)) for x, y in zip(*r)] for r in zip(num, den)],
                    dtype=object).reshape(k, d)


def product_record(alg, ka: int, kb: int, seed: int) -> dict:
    """The products of ``ka`` seeded rows with ``kb`` rows, with ``ka`` rows
    pairwise, and the multiplication matrices of one more row."""
    f, d, rng = alg.field, alg.dim, np.random.default_rng(seed)
    a, b, c, u = (seeded_rows(f, rng, k, d) for k in (ka, kb, ka, 1))
    return {"mul_rows": _matrix(f, alg.mul_rows(a, b)),
            "mul_pairwise": _matrix(f, alg.mul_pairwise(a, c)),
            "left": _matrix(f, lf.algebras.left_mult_matrix(alg, u[0])),
            "right": _matrix(f, lf.algebras.right_mult_matrix(alg, u[0]))}


def products() -> dict:
    out = {name: product_record(b.algebra, 5, 3, i)
           for i, (name, b) in enumerate(bundles().items())}
    for spec in ("gf:2", "gf:3", "gf:1048573", "q"):
        out[f"zorn_{spec}"] = product_record(lf.zorn_algebra(lf.field_from_spec(spec)), 5, 3, 7)
    out["zorn_sum_8_gf:3"] = product_record(zorn_sum(8, lf.PrimeField(3)), 300, 2, 8)
    fq_pairs = [(name, spec) for name in ("s3", "chein12", "cml81")
                for spec in ("gf:2", "gf:3", "gf:1048573")] + [("chein12", "q")]
    for i, (name, spec) in enumerate(fq_pairs):
        fq = lf.loop_algebra(lf.field_from_spec(spec), FQ_LOOPS[name]())
        ka, kb = (200, 2) if name == "cml81" else (5, 3)
        out[f"fq_{name}_{spec}"] = product_record(fq, ka, kb, 20 + i)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, record in (("quotients", quotients), ("loop_algebras", loop_algebras),
                         ("tensors", tensors), ("sampled", sampled),
                         ("circle_embeddings", circle_embeddings), ("products", products)):
        doc = record()
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"{name}: {len(doc)} inputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
