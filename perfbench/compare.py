#!/usr/bin/env python3
"""Compare two sets of untraced run records, such as a parent commit's and a change's.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds run records (*.json) as written under .perfbench_out/.
For every workload and end-to-end metric this prints each side's median and
quartiles and the change of the median, as a share of the before median,
against the metric's bound in BENCHMARK.json.  It refuses to compare runs
whose tree-search kernel differs, because a compiled kernel is several
times faster on tree-landscape and would read as a gain.

Exit code: 0 when no metric is worse than its bound, 1 when one is, 2 when
the runs cannot be compared.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec["trace"]:
            records.append(rec)
    return records


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records if r["workload"] == workload]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("no untraced run records on one side", file=sys.stderr)
        return 2
    kernels = {r["env"]["kernel"] for r in before + after}
    if len(kernels) > 1:
        print(f"refusing to compare runs of different kernels: {sorted(map(str, kernels))}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    worse_than_bound = False
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after})
    for workload in workloads:
        for m in metrics:
            b = values(before, workload, m["name"])
            a = values(after, workload, m["name"])
            (b1, bm, b3), (a1, am, a3) = quartiles(b), quartiles(a)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (am - bm) / bm
            spread = (b3 - b1) / bm
            if worse > m["bound"]:
                verdict = "WORSE than bound"
                worse_than_bound = True
            elif spread > m["bound"]:
                verdict = "unresolved: before spread exceeds bound"
            else:
                verdict = "within bound"
            print(
                f"{workload:15} {m['name']:12} before {bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(b)}  "
                f"after {am:.4g} [{a1:.4g}, {a3:.4g}] n={len(a)}  worse by {worse:+.1%} "
                f"(bound {m['bound']:.0%}): {verdict}"
            )
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
