"""Run the fsolink CLI with tracing installed from outside the package.

    python bench/traced_cli.py <spans.json> <fsolink CLI arguments...>

The program's source tree must be importable (``PYTHONPATH=src``). The spans
and counters are written to ``<spans.json>`` when the CLI returns; the exit
code is the CLI's own.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    import fsolink.cli

    tracer = Tracer()
    tracer.install()
    try:
        return fsolink.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
