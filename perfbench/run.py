#!/usr/bin/env python3
"""Layered benchmark of the spanfact CLI.

Run from the repository root:

    python3 perfbench/run.py --workload tree-landscape --seed 0 --seconds 30 --trace 0

A run sets up (interpreter start, import spanfact, the workload's configs,
expected answers and the instances the checker needs), then repeats passes
over the workload's CLI calls for up to --seconds.  The first pass always
runs, so a run whose one pass outlasts --seconds measures that pass.  Each
call runs spanfact.cli.main in this process, single-threaded, with stdout
captured to memory.  Answers are checked after each pass, outside the timed
region.  Untraced calls and the set-ups are timed at the reference host
speed (hostspeed.py), so that other tenants of a shared host do not move the
end-to-end times.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced passes with traced ones and reports the per-layer
metrics from the traced passes; the difference between the two kinds of
pass is the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the run,
with its environment, and the span file of a traced run are written under
.perfbench_out/ in the repository root.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from hostspeed import HostSpeed

# a set-up probe samples the host's speed from before it imports spanfact
SETUP_SPEED = HostSpeed(edges=0).__enter__() if "--setup-probe" in sys.argv else None

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

if not (SRC / "spanfact" / "__init__.py").is_file():
    sys.exit(f"perfbench: no spanfact source under {SRC}")
sys.path.insert(0, str(SRC))

import spanfact  # noqa: E402
from spanfact import cli, treesearch  # noqa: E402

from answers import Checker, load_expected  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, calls as workload_calls  # noqa: E402

if not Path(spanfact.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: spanfact was imported from {spanfact.__file__}, not {SRC}")

# set-up is timed this many times in fresh processes; the median is reported
SETUP_PROBES = 9

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics of one public function: suffix -> unit
FUNCTION_METRICS = {
    "groups.presentation_from_config": ("s",),
    "groups.coset_space": ("s",),
    "groups.validate_presentation": ("s",),
    "fixtures.load_fixture": ("s",),
    "digraph.build_coset_digraph": ("s",),
    "digraph.enumerate_factorizations": ("s", "items"),
    "digraph.classify_factorizations": ("s", "classes"),
    "digraph.factorization_at": ("s", "calls"),
    "blocks.position_system": ("s", "calls", "raised"),
    "blocks.phase_profile": ("s", "calls", "raised"),
    "blocks.relative_block_permutation": ("s", "calls", "raised"),
    "blocks.swap_relabel": ("s", "calls"),
    "blocks.difference_class_orbits": ("s",),
    "blocks.invariant_refinements": ("s",),
    "blocks.atoms": ("s",),
    "blocks.block_construction": ("s",),
    "treesearch.run_search": ("s", "calls"),
    "spanning.max_relocatable_tree": ("self_s",),
    "spanning.search_sharply_transitive": ("s", "calls"),
    "spanning.phase_addressing": ("s",),
    "spanning.verify_sharply_transitive": ("s",),
    "cli.load_instance": ("s",),
    "cli.emit_table": ("s", "rows"),
    "cli.main": ("self_s",),
}
SUFFIX_UNITS = {"s": "s", "self_s": "s", "calls": "count", "raised": "count",
                "items": "count", "classes": "count", "rows": "count"}
MODULES = ("bench",) + LAYERS
PER_LAYER = {
    **{f"{fn}.{suffix}": SUFFIX_UNITS[suffix]
       for fn, suffixes in FUNCTION_METRICS.items() for suffix in suffixes},
    "digraph.factorizations_per_s": "1/s",
    "treesearch.nodes": "count",
    "treesearch.nodes_per_s": "1/s",
    "treesearch.certified_ratio": "ratio",
    **{f"module.{m}.self_s": "s" for m in MODULES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    kernel = getattr(treesearch, "active_kernel_name", None)
    return {
        "kernel": kernel() if kernel else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


def setup(workload: str, seed: int, expected: dict | None = None):
    """Everything a run does before its first timed call."""
    calls = workload_calls(workload, seed)
    return calls, Checker(calls, seed, expected or load_expected(workload))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up,
    as measured and at the reference speed.  perf_counter is the system-wide
    monotonic clock, so the child's reading compares with the parent's."""
    with HostSpeed(sample=False) as speed:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True,
        )
    child = json.loads(proc.stdout.splitlines()[-1])
    return speed.scale(child["end"] - start, child["inside_s"], child["probes"])


def run_pass(calls, main, tracer=None, scale=False) -> list[tuple]:
    """Run each call as the CLI would; (exit code, stdout, traceback, seconds,
    seconds at the reference speed) per call.  The last is None unless scale
    is set, which samples the host's speed during each call (HostSpeed) and
    leaves the probes' time out of the call's seconds."""
    results = []
    for call in calls:
        if tracer is not None:
            tracer.call_id += 1
        out, err = io.StringIO(), io.StringIO()
        crash = ""
        with HostSpeed() if scale else nullcontext() as speed:
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, crash = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
        seconds, scaled = speed.scale(seconds) if scale else (seconds, None)
        results.append((code, out.getvalue(), crash, seconds, scaled))
    return results


def fingerprint(results) -> list[list]:
    return [[code, hashlib.sha256(out.encode()).hexdigest()] for code, out, *_ in results]


def measure(calls, checker, seconds: float, tracer=None) -> dict:
    """Repeat rounds of passes while the next round, at the mean round time
    so far, ends within the given seconds; with a tracer a round is an
    untraced and a traced pass, else one untraced pass.  The first round
    always runs.  Returns pass times, the untraced calls' times at the
    reference speed, call counts and fingerprints."""
    modes = ("untraced", "traced") if tracer else ("untraced",)
    samples = {mode: [] for mode in modes}
    call_samples = [[] for _ in calls]
    prints = {}
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for mode in modes:
            gc.collect()
            if mode == "traced":
                tracer.install()
                traced_pass = tracer.wrap("bench.pass", run_pass)
                t0 = time.perf_counter()
                results = traced_pass(calls, tracer.wrap("cli.main", cli.main), tracer)
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            else:
                results = run_pass(calls, cli.main, scale=True)
                elapsed = sum(r[3] for r in results)
                for times, (*_, scaled) in zip(call_samples, results):
                    times.append(scaled)
            samples[mode].append(elapsed)
            prints.setdefault(mode, fingerprint(results))
            for call, (code, out, crash, *_) in zip(calls, results):
                attempted += 1
                problems = checker.check(call, code, out)
                if problems:
                    failed += 1
                    print(f"FAILED {call.label}: {'; '.join(problems[:3])}", file=sys.stderr)
                    if crash:
                        print(crash, file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return {"samples": samples, "call_samples": call_samples, "attempted": attempted,
                    "failed": failed, "fingerprints": prints}


def tail(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(samples) - 10) / len(samples), ordered[-11]


def layer_metrics(tracer: Tracer, passes: int, untraced: list[float]) -> dict:
    """Means per traced pass, so module self times sum to trace.wall_s."""
    spans = tracer.summary()
    values = {}
    for fn, suffixes in FUNCTION_METRICS.items():
        agg = spans.get(fn, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for suffix in suffixes:
            if suffix in agg:
                total = agg[suffix]
            elif suffix == "raised":
                total = tracer.raised[fn]
            else:
                total = tracer.counts[f"{fn}.{suffix}"]
            values[f"{fn}.{suffix}"] = total / passes
    enum_s = spans.get("digraph.enumerate_factorizations", {}).get("s", 0.0)
    search = spans.get("treesearch.run_search", {"s": 0.0, "calls": 0})
    nodes = tracer.counts["treesearch.run_search.nodes"]
    values["digraph.factorizations_per_s"] = (
        tracer.counts["digraph.enumerate_factorizations.items"] / enum_s if enum_s else 0.0
    )
    values["treesearch.nodes"] = nodes / passes
    values["treesearch.nodes_per_s"] = nodes / search["s"] if search["s"] else 0.0
    values["treesearch.certified_ratio"] = (
        tracer.counts["treesearch.run_search.certified"] / search["calls"] if search["calls"] else 0.0
    )
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, agg in spans.items():
        module_self[name.split(".", 1)[0]] += agg["self_s"]
    for m in MODULES:
        values[f"module.{m}.self_s"] = module_self[m] / passes
    values["trace.wall_s"] = spans["bench.pass"]["s"] / passes
    values["trace.untraced_wall_s"] = sum(untraced) / len(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.spans"] = len(tracer.cols["end"]) / passes
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, expected: dict | None = None) -> dict:
    """One benchmark run; returns the run record, whose "result" is the
    object printed as the last line of stdout."""
    calls, checker = setup(workload, seed, expected)
    setup_samples = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    setup_scaled = [scaled for _, scaled in setup_samples]
    run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if trace else None
    m = measure(calls, checker, seconds, tracer)
    untraced = m["samples"]["untraced"]
    if trace:
        values = layer_metrics(tracer, len(m["samples"]["traced"]), untraced)
        units = PER_LAYER
    else:
        values = {
            "wall_s": sum(statistics.median(times) for times in m["call_samples"]),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {
        "run_id": run_id,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "pass_s": m["samples"],
        "call_reference_s": {call.label: times for call, times in zip(calls, m["call_samples"])},
        "setup_s": [seconds for seconds, _ in setup_samples],
        "setup_reference_s": setup_scaled,
        "fingerprints": m["fingerprints"],
        "result": result,
        "tracer": tracer,
    }


def save(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['run_id']}.json"
    tracer = record["tracer"]
    if tracer is not None:
        tracer.write(path.with_suffix(".spans"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in record.items() if k != "tracer"}, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        SETUP_SPEED.__exit__(None, None, None)
        end = time.perf_counter()
        print(json.dumps({"end": end, "inside_s": SETUP_SPEED.inside_s, "probes": SETUP_SPEED.probes}))
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = save(record)
    env = record["env"]
    print(f"env: kernel={env['kernel']} python={env['python']} nproc={env['nproc']} cpu={env['cpu']}")
    passes = dict(record["pass_s"])
    passes["untraced at reference speed"] = [sum(p) for p in zip(*record["call_reference_s"].values())]
    for mode, samples in passes.items():
        t = tail(samples)
        tail_text = f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no percentile has 10 samples beyond it"
        print(f"{mode} pass: median {statistics.median(samples):.4f} s over {len(samples)} passes; {tail_text}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
