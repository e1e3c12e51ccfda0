#!/usr/bin/env python3
"""Record the expected answers of every workload at the default seed.

Run from the repository root, only on a commit whose answers are known to be
right:

    python3 perfbench/record_expected.py

Each call runs once; a call whose answer fails the independent checks
stops the recording.
"""
from __future__ import annotations

import json
import sys

import run
from answers import EXPECTED_DIR, Checker, expected_entry
from workloads import DEFAULT_SEED, WORKLOADS, calls as workload_calls


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        calls = workload_calls(workload, DEFAULT_SEED)
        results = run.run_pass(calls, run.cli.main)
        expected = {
            call.label: expected_entry(code, out)
            for call, (code, out, *_) in zip(calls, results)
        }
        checker = Checker(calls, DEFAULT_SEED, expected)
        for call, (code, out, crash, _) in zip(calls, results):
            problems = checker.check(call, code, out)
            if problems or crash:
                sys.exit(f"{call.label}: {problems} {crash}")
        with open(EXPECTED_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1)
            fh.write("\n")
        print(f"{workload}: {len(calls)} calls recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
