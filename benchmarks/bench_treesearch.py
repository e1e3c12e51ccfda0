#!/usr/bin/env python3
"""Time the tree-search kernel per case.

Runs the exhaustive maximum-relocatable-tree search on one representative
factorization per cycle type of the a5-ex2 fixture plus the toy instances,
and prints size, node count and the best-of-N time per case.

Usage: python benchmarks/bench_treesearch.py [--repeat N]
"""
import argparse
import time

from spanfact.digraph import build_toy, enumerate_factorizations, factorization_at
from spanfact.fixtures import load_fixture
from spanfact.spanning import max_relocatable_tree


def cases():
    for m in (3, 5):
        d, f = build_toy(m)
        yield f"toy:{m} b=0", f
    d = load_fixture("a5-ex2").digraph
    seen = set()
    for f in enumerate_factorizations(d):
        tp = f.f1.cycle_type()
        if tp not in seen:
            seen.add(tp)
            yield f"a5-ex2 b={f.bitmask} {tp}", f


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    header = f"{'case':<34} {'size':>4} {'nodes':>8} {'best (s)':>10}"
    print(header)
    print("-" * len(header))
    for label, f in cases():
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            result = max_relocatable_tree(f)
            best = min(best, time.perf_counter() - t0)
        print(f"{label:<34} {result.size:>4} {result.nodes:>8} {best:>10.4f}")


if __name__ == "__main__":
    main()
