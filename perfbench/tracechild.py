"""Run one `nihobent` command with the tracer installed, for the traced
half of the cli_bent workload.

    python3 perfbench/tracechild.py SPANS_OUT -- build --family ...

Behaves like `python -m nihobent ...` (same stdout and exit code) and
writes the recorded spans and counts as JSON to SPANS_OUT.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import nihobent.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracechild.py SPANS_OUT -- ARGS...")
    tracer = Tracer()
    tracer.install()
    try:
        code = nihobent.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="ascii") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
