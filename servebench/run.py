#!/usr/bin/env python3
"""Serving benchmark for ``cpsec serve``: one command, three workloads.

Run from the repository root::

    python3 servebench/run.py --workload fresh-platforms --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics over HTTP; ``--trace 1``
replays the same seeded inputs and reports per-layer metrics.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it holds run details (set-up
samples, drain outcomes, latency deciles, check summary).  ``--out PATH``
also writes both to a file.  Nothing else outside ``.servebench/`` in the
working directory is written, and that scratch directory is removed at exit.
See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

#: The same names as ``inputs.WORKLOADS``; repeated here so that argument
#: parsing needs nothing from the source tree.
WORKLOADS = ("fresh-platforms", "known-platforms", "feed-and-jobs")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the run's JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("servebench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bench  # noqa: E402 - needs src/ on the path first

    run_dir = root / ".servebench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Temporary files stay inside the working directory, and a SIGTERM
    # unwinds through the teardown that stops the server's process group.
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = None
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, details = bench.Bench(args.workload, args.seed, args.seconds, root, run_dir).run(trace=bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (root / ".servebench").rmdir()
        except OSError:
            pass
    if args.out:
        Path(args.out).write_text(json.dumps({**result, "details": details}, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
