"""Run one qpgaps CLI command with the layer wrappers installed.

    python3 bench/cli_launch.py TRACE.json <qpgaps arguments...>

Times the ``import qpgaps.cli``, installs the tracing wrappers, calls
``cli.main(argv)`` and writes the spans, counts and import time to TRACE.json.
Worker processes of ``--jobs N`` sweeps are forked after the wrappers are in
place, but their spans stay in those processes and are not collected.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qpgaps.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    tracer.op = argv[0]
    try:
        return qpgaps.cli.main(argv)
    finally:
        with open(dump, "w") as fh:
            json.dump({**tracer.to_json(), "import_s": import_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
