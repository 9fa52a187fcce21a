#!/usr/bin/env python3
"""Tests of the benchmark's own checks: they must be able to fail.

Run from the repository root::

    python3 servebench/selftest.py

Three tiny ``feed-and-jobs`` runs (one set-up each, a few seconds
measured): an untouched one, whose checks must pass; one in which the
client corrupts one served answer before the checks see it; and one in
which one feed batch never reaches the server although the client records
it as ingested.  The last two must each fail their checks.  Exits 0 when
all three behave so, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

SECONDS = 5.0
SEED = 11


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("selftest: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bench
    from repro.service.protocol import canonical_json

    class Corrupting(bench.Bench):
        """Adds one to a served posture total: a corrupted response."""

        def execute(self, conn, op):
            record = super().execute(conn, op)
            if op.kind == "associate" and record.ok and not getattr(self, "corrupted", False):
                answer = record.json()
                answer["posture"]["total_vulnerabilities"] += 1
                record.body = canonical_json(answer).encode("utf-8")
                self.corrupted = True
            return record

    class Dropping(bench.Bench):
        """Feed batch 1 never reaches the server; the client answers itself
        with the previous batch's response, as if it had been ingested."""

        def execute(self, conn, op):
            if op.kind == "extend" and op.meta["batch"] == 1:
                record = bench.Record(op, 0.0, 0.001, 200, self.previous_extend.body, extra=dict(self.previous_extend.extra))
                return record
            record = super().execute(conn, op)
            if op.kind == "extend":
                self.previous_extend = record
            return record

    cases = (("untouched", bench.Bench, True), ("corrupted response", Corrupting, False), ("dropped feed batch", Dropping, False))
    ok = True
    for label, cls, expect_correct in cases:
        run_dir = root / ".servebench" / f"selftest-{label.replace(' ', '-')}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            runner = cls("feed-and-jobs", SEED, SECONDS, root, run_dir)
            runner.setups = 1
            runner.min_ops = 0
            result, details = runner.run(trace=False)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        rounds = details["rounds"]
        behaved = result["correct"] == expect_correct and result["failed"] == 0 and rounds >= 2
        ok &= behaved
        print(
            f"{'ok  ' if behaved else 'FAIL'} {label}: correct={result['correct']} "
            f"(expected {expect_correct}), rounds={rounds}, failed checks: "
            f"{json.dumps(sorted(details['checks']['failed']))}",
            flush=True,
        )
    try:
        (root / ".servebench").rmdir()
    except OSError:
        pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
