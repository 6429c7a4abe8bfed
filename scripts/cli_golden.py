"""Record the CLI's JSON output on the fixture set, one file per command.

    python scripts/cli_golden.py OUTDIR

Runs ``algebra``, ``radical``, ``embed`` and ``report`` on each loop/field
case, plus ``embed`` on paige:2 over GF(11), each in a fresh process against
the ``src/`` tree next to this script.  ``OUTDIR/<cmd>_<loop>_<field>.json``
holds the command's stdout followed by a line with its exit code.  Outputs
of two trees are byte-identical when ``diff -r OUTDIR_A OUTDIR_B`` prints
nothing.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = ("algebra", "radical", "embed", "report")
CASES = (("chein12", "gf:7"), ("chein12", "gf:2"), ("cml81", "gf:3"),
         ("cml81", "gf:5"), ("s3", "gf:7"), ("chein12", "q"))
RUNS = [(cmd, loop, field) for loop, field in CASES for cmd in COMMANDS] \
    + [("embed", "paige:2", "gf:11")]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for cmd, loop, field in RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "loopforge.cli", cmd, "--loop", loop, "--field", field],
            env=env, capture_output=True, text=True)
        name = f"{cmd}_{loop}_{field}".replace(":", "")
        (out / f"{name}.json").write_text(f"{proc.stdout}{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
