"""Record the CLI's JSON output on the fixture set, one file per command.

    python scripts/cli_golden.py OUTDIR

Runs ``algebra``, ``radical``, ``embed`` and ``report`` on each loop/field
case, ``embed`` and ``radical`` on paige:2 over GF(11), ``embed`` on paige:2
and on paige:2 x C2 over GF(2), ``report`` on paige:2 over GF(2) (a
semisimple quotient that is not a field), ``embed`` on paige:3 (order 1080)
over GF(2) and GF(3), ``series --kind lower`` and ``--kind upper`` on cml81,
chein12, s3 and paige:2, ``check --property moufang`` and
``--property associative`` on paige:2, and ``check --property moufang`` on
paige:3 and on bol8 (a left Bol loop that is not Moufang), each in a fresh
process against the ``src/`` tree next to this script.
``OUTDIR/<cmd>_<loop>_<field>.json`` (``series_<kind>_<loop>.json`` for the
series, ``check_<property>_<loop>.json`` for the checks) holds the command's
stdout followed by a line with its exit code.
Outputs of two trees are byte-identical when ``diff -r OUTDIR_A OUTDIR_B``
prints nothing.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from loopforge import constructions, loops  # noqa: E402
from loopside_golden import BOL8  # noqa: E402

COMMANDS = ("algebra", "radical", "embed", "report")
CASES = (("chein12", "gf:7"), ("chein12", "gf:2"), ("cml81", "gf:3"),
         ("cml81", "gf:5"), ("s3", "gf:7"), ("chein12", "q"))
SERIES_LOOPS = ("cml81", "chein12", "s3", "paige:2")


def _field_run(cmd: str, loop: str, field: str) -> tuple[str, list[str]]:
    return f"{cmd}_{loop}_{field}", [cmd, "--loop", loop, "--field", field]


RUNS = [_field_run(cmd, loop, field) for loop, field in CASES for cmd in COMMANDS] \
    + [_field_run(cmd, "paige:2", "gf:11") for cmd in ("embed", "radical")] \
    + [_field_run(cmd, "paige:2", "gf:2") for cmd in ("embed", "report")] \
    + [("embed_paige2xC2_gf:2", ["embed", "--loop", "paige2xC2.json", "--field", "gf:2"])] \
    + [_field_run("embed", "paige:3", field) for field in ("gf:2", "gf:3")] \
    + [(f"series_{kind}_{loop}", ["series", "--loop", loop, "--kind", kind])
       for loop in SERIES_LOOPS for kind in ("lower", "upper")] \
    + [(f"check_{prop}_paige:2", ["check", "--loop", "paige:2", "--property", prop])
       for prop in ("moufang", "associative")] \
    + [(f"check_moufang_{loop}", ["check", "--loop", spec, "--property", "moufang"])
       for loop, spec in (("paige:3", "paige:3"), ("bol8", "bol8.json"))]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the CLI names a loop read from a Cayley file after the file, so the
    # product and bol8 are written under fixed names and run from that directory
    product = loops.direct_product(constructions.paige_loop(2), constructions.cyclic(2))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "paige2xC2.json").write_text(json.dumps(loops.loop_to_cayley(product)))
        (Path(tmp) / "bol8.json").write_text(
            json.dumps(loops.loop_to_cayley(loops.Loop("01234567", BOL8))))
        for name, args in RUNS:
            proc = subprocess.run([sys.executable, "-m", "loopforge.cli", *args],
                                  env=env, capture_output=True, text=True, cwd=tmp)
            name = name.replace(":", "")
            (out / f"{name}.json").write_text(f"{proc.stdout}{proc.returncode}\n")
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
