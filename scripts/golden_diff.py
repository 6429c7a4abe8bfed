"""Run the golden scripts of two trees and compare their outputs.

    python3 scripts/golden_diff.py --parent DIR --change DIR

DIR is the root of a checkout holding ``scripts/`` and ``src/``.  Each of
``cli_golden.py``, ``bases_golden.py``, ``loopside_golden.py``,
``units_golden.py`` and ``checks_golden.py`` runs against each tree's
``src/`` into its own directory under one temporary directory, and the two
outputs of each script are compared with ``diff -r``.  Both trees run the
change's copy of each script, so a script that the change extends or adds
compares like with like: the parent's run sits in a temporary tree holding
the change's ``scripts/`` and a link to the parent's ``src/``.  The script
prints nothing and exits 0 when every output is identical.  Otherwise it
prints each difference and each failed command with its stderr, and exits
1.  Only the standard library and the ``diff`` program are used.
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = ("cli_golden.py", "bases_golden.py", "loopside_golden.py", "units_golden.py",
           "checks_golden.py")
TREES = ("parent", "change")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    change, failed = args.change.resolve(), False
    with tempfile.TemporaryDirectory() as tmp:
        # the change's scripts/ beside a link to the parent's src/
        shim = Path(tmp, "shim")
        shutil.copytree(change / "scripts", shim / "scripts")
        (shim / "src").symlink_to(args.parent.resolve() / "src")
        for script in SCRIPTS:
            outs = []
            for tree, scripts in zip(TREES, (shim / "scripts", change / "scripts")):
                root = getattr(args, tree).resolve()
                out = Path(tmp, tree, Path(script).stem)
                proc = subprocess.run([sys.executable, str(scripts / script), str(out)],
                                      cwd=root, capture_output=True, text=True)
                if proc.returncode:
                    print(f"{tree}: scripts/{script} exited {proc.returncode}\n{proc.stderr}",
                          end="")
                    failed = True
                outs.append(str(out))
            diff = subprocess.run(["diff", "-r", *outs], capture_output=True, text=True)
            if diff.returncode:
                print(diff.stdout + diff.stderr, end="")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
