"""Set-up probe: one fresh interpreter sets a workload up and reports ready.

``run.py`` starts this script several times and times each start-up from
process launch to the ``ready`` line: importing ``repro``, building the
workload's cells and instances, and filling the per-process memos.  The
median of those samples is ``setup_s``.

    python3 perfbench/probe.py --workload fig3-qmcpack [--scale bench]
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="bench")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from suites import make_suite

    # set-up writes nothing; the work directory is only used by passes
    make_suite(args.workload, args.scale, ROOT).setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
