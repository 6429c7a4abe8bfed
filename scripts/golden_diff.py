"""Run the golden scripts of two trees and compare their outputs.

    python3 scripts/golden_diff.py --parent DIR --change DIR

DIR is the root of a checkout holding ``scripts/`` and ``src/``.  Each of
``cli_golden.py``, ``bases_golden.py``, ``loopside_golden.py``,
``units_golden.py`` and ``checks_golden.py`` runs from each tree into its
own directory under one temporary directory, and the two outputs of each
script are compared with ``diff -r``.  A tree that lacks a script runs the
change's copy against its own ``src/``: the copy sits in a temporary tree
holding the change's ``scripts/`` and a link to that ``src/``.  The script
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


def script_path(root: Path, script: str, change: Path, shim: Path) -> Path:
    """``root``'s copy of ``script``, or the change's copy in ``shim``, a tree
    whose ``src`` links to ``root/src``."""
    path = root / "scripts" / script
    if path.exists():
        return path
    if not shim.exists():
        shutil.copytree(change / "scripts", shim / "scripts")
        (shim / "src").symlink_to(root / "src")
    return shim / "scripts" / script


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for script in SCRIPTS:
            outs = []
            for tree in TREES:
                root = getattr(args, tree).resolve()
                out = Path(tmp, tree, Path(script).stem)
                path = script_path(root, script, args.change.resolve(), Path(tmp, "trees", tree))
                proc = subprocess.run([sys.executable, str(path), str(out)],
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
