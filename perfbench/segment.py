#!/usr/bin/env python3
"""One segment of a sim workload, in a fresh process.

``run.py`` starts one of these per segment, so ``setup_s`` and
``peak_rss_mb`` are those of a fresh program process.  It prints the
segment's record as one JSON line; a failed metric self-check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(args.workdir, exist_ok=True)
    tempfile.tempdir = args.workdir

    import sim
    from stats import MetricCheckError

    try:
        record = sim.run_segment(
            args.workload,
            args.seed,
            args.seconds,
            args.workdir,
            trace=bool(args.trace),
            corrupt=args.corrupt,
        )
    except MetricCheckError as exc:
        print(f"metric self-check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
