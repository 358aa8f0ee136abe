"""Run the radrelax command line under the benchmark tracer.

Usage: ``python3 bench/traced_cli.py SPANS_FILE ARGS...`` runs
``radrelax.cli.main(ARGS)`` with every layer traced, measures the memory
peaks, writes the spans to SPANS_FILE (gzipped JSON) and exits with the
command's exit code.
Expects ``PYTHONPATH`` to hold the package's ``src`` directory, as for
``python -m radrelax.cli``.
"""

import sys

from radrelax import cli

from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.measure_peaks()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
