"""Set-up probe, run in a fresh interpreter by run.py, which times it.

Imports momentkit and runs one warm-up operation per verb of a workload on
fixed tiny inputs.  Usage::

    python3 setup_probe.py SRC_DIR OPS_JSON

where OPS_JSON is a list of ``[verb, path, expected_verdict]``.  Exits 1 if
a verdict differs from the expected one.
"""

import json
import sys


def main() -> int:
    src, ops = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from momentkit.cli import Command, run

    for verb, path, expected in ops:
        result = run(Command(verb, path))
        result.to_json()
        if result.verdict != expected:
            print(f"setup probe: {verb} on {path} gave {result.verdict!r}, "
                  f"expected {expected!r}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
