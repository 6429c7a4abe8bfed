"""Traced stand-in for ``python -m loopforge.cli``.

    python3 perfbench/cli_shim.py <spans.json> <job id> <loopforge arguments...>

Wraps the loopforge layers from outside, runs ``loopforge.cli.main`` on the
arguments, writes the spans and aggregates to <spans.json> and exits with
the CLI's exit code.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import loopforge  # noqa: E402
import loopforge.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, job, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.job = job
    tracer.install(loopforge)
    try:
        code = loopforge.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
