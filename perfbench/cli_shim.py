"""Traced stand-in for the ``ranslicer`` console script.

    python3 perfbench/cli_shim.py SPANS_FILE ARGS...

Times ``import ranslicer.cli``, installs the span wrappers, runs
``cli_main(ARGS)`` and writes the spans to SPANS_FILE before exiting with
the command's exit code.  ``src`` must be on PYTHONPATH, as for the
untraced run.
"""

import sys
import time

_t0 = time.perf_counter()
import ranslicer.cli  # noqa: E402

_import_ms = 1000.0 * (time.perf_counter() - _t0)

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.count("cli.import_ms", _import_ms)
    tracer.install()
    try:
        return ranslicer.cli.cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
