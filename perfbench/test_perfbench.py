"""Self-tests of the benchmark harness.

Run from the repository root; each workload runs one untraced pass and one
untraced plus one traced pass, about a minute and a half in all:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import io
import json
import math
import signal
import statistics
import time
from contextlib import redirect_stdout

import pytest

import run  # puts the checkout's src on sys.path first
from answers import load_expected
from hostspeed import EDGE_PROBES, REFERENCE_S, HostSpeed
from spans import load_spans
from workloads import WORKLOADS, config_path

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _wrong(expected: dict) -> dict:
    """A copy with one deliberately wrong answer."""
    wrong = copy.deepcopy(expected)
    entry = next(iter(wrong.values()))
    if entry.get("records"):
        rec = entry["records"][0]
        field = next(k for k in rec if k != "schema")
        rec[field] += "0"
    elif "sha256" in entry:
        entry["sha256"] = "0" * 64
    else:
        entry["exit"] += 1
    return wrong


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """One untraced run against a wrong answer and one traced run, as short as runs go."""
    workload = request.param
    wrong = run.run(workload, 0, 0, trace=False, expected=_wrong(load_expected(workload)))
    traced = run.run(workload, 0, 0, trace=True)
    return wrong, traced


def test_benchmark_json_matches_harness():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_every_metric_emitted_with_its_unit(runs):
    for record, section in zip(runs, ("end_to_end", "per_layer")):
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_wrong_expected_answer_raises_error_rate(runs):
    result = runs[0]["result"]
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_traced_answers_match_untraced(runs):
    traced = runs[1]
    assert traced["result"]["correct"] and traced["result"]["failed"] == 0
    assert traced["fingerprints"]["traced"] == traced["fingerprints"]["untraced"]
    assert traced["fingerprints"]["untraced"] == runs[0]["fingerprints"]["untraced"]


def test_module_self_times_sum_to_traced_wall(runs, tmp_path):
    record = runs[1]
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    modules = sum(v for k, v in metrics.items() if k.startswith("module."))
    assert modules == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    tracer = record["tracer"]
    tracer.write(tmp_path / "run.spans")
    header, cols = load_spans(tmp_path / "run.spans")
    assert header["count"] == len(cols["end"]) == len(tracer.cols["end"]) > 0
    assert all(p < i for i, p in enumerate(cols["parent"]))
    assert all(s <= e for s, e in zip(cols["start"], cols["end"]))


def _cli_out(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        run.cli.main(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("name, n, r", [("s5-r12", 60, 12), ("agl18-r14", 28, 14), ("c2wrc4-r16", 32, 16)])
def test_config_documents_build(name, n, r):
    report = json.loads(_cli_out("build", "--config", str(config_path(name)), "--format", "json-lines"))
    assert (report["instance"], report["n"], report["alt_cycle_count"]) == (name, n, r)


@pytest.mark.parametrize("instance, classes", [
    (("--config", str(config_path("s5-r12"))), 42),
    (("--fixture", "a5-ex2"), 20),
    (("--fixture", "a5-ex3"), 4),
])
def test_class_counts(instance, classes):
    # the other configs' class counts are pinned by the classify-scale answers
    out = _cli_out("enumerate", *instance, "--classify", "--swap")
    assert len(out.splitlines()) - 1 == classes


def test_host_speed_leaves_probes_out_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        seconds = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.probes) > 2 * EDGE_PROBES and speed.inside_s > 0
    net, scaled = speed.scale(seconds)
    assert net == pytest.approx(seconds - speed.inside_s)
    assert scaled == pytest.approx(net * statistics.fmean(REFERENCE_S / p for p in speed.probes))
