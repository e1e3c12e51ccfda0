import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from spanfact import __version__, spanning
from spanfact.cli import FORMATS, emit_table, main
from spanfact.digraph import build_coset_digraph, factorization_at
from spanfact.fixtures import load_fixture
from spanfact.groups import presentation_from_config
from spanfact.perm import parse_perm

from oracles import reference_law_suite
from test_groups import FAILING_ALONE

# "<fixture>/<seed>" -> [exit code, stdout] of verify --seed <seed> --masks 200
GOLDEN_VERIFY = json.loads(Path(__file__).with_name("golden_verify.json").read_text())
# "<instance>/<flags>" -> TSV stdout of enumerate <flags>; pins each class's
# representative, the class order and the class sizes
GOLDEN_CLASSIFY = json.loads(Path(__file__).with_name("golden_classify.json").read_text())
# "<argv joined by spaces>" -> [exit code, stdout, stderr] of build, blocks,
# spanning, tree-search and verify on five fixtures, errors included
GOLDEN_CLI = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
# config name under configs/ -> [exit code, stdout] of the default verify, as
# the 2^r walk of every factorization gave it (about 15 s on s5-r20 and 28 s
# on psl27-r21)
GOLDEN_VERIFY_SCALE = json.loads(Path(__file__).with_name("golden_verify_scale.json").read_text())


def rendered(records, fmt: str) -> str:
    """What emit_table writes for the records."""
    out = io.StringIO()
    emit_table(records, fmt, out)
    return out.getvalue()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_report(capsys):
    code, out, _ = run_cli(capsys, "build", "--fixture", "a5-ex2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("schema\t")
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["n"] == "30"
    assert row["alt_cycle_count"] == "10"
    assert row["strongly_connected"] == "true"


def test_enumerate_ex3_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--fixture", "a5-ex3", "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 64
    assert all(rec["schema"] == "factorization" for rec in records)
    assert [rec["bitmask"] for rec in records] == list(range(64))


def test_enumerate_classified(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--fixture", "a5-ex3", "--classify", "--swap",
        "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 4
    assert sorted(rec["class_size"] for rec in records) == [12, 12, 20, 20]


# two of the benchmark's scale presentations (n = 60, r = 12 and n = 84, r = 14)
SCALE_CONFIGS = {
    "s5-r12": {
        "group_generators": ["(0 1 2 3 4)", "(0 1)"],
        "H_generators": ["(1 3)(2 4)"],
        "S": ["(0 2 3 4)", "(0 4)(1 3 2)"],
        "name": "s5-r12",
    },
    "agl18-r14": {
        "group_generators": ["(1 2 3 4 5 6 7)", "(0 1)(2 4)(3 7)(5 6)"],
        "H_generators": ["(0 1)(2 4)(3 7)(5 6)"],
        "S": ["(1 2 3 4 5 6 7)", "(0 1 4 6 3 2 7)"],
        "name": "agl18-r14",
    },
}


@pytest.mark.parametrize("key", sorted(GOLDEN_CLASSIFY))
def test_classify_golden(tmp_path, capsys, key):
    instance, flags = key.split("/")
    if instance in SCALE_CONFIGS:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"presentation": SCALE_CONFIGS[instance]}))
        source = ("--config", str(path))
    else:
        source = ("--fixture", instance)
    assert run_cli(capsys, "enumerate", *source, *flags.split()) == (0, GOLDEN_CLASSIFY[key], "")


def per_mask_listing(d, name: str) -> dict[str, str]:
    """The plain enumerate output in both formats, one factorization build
    and two cycle_type calls per mask, rendered without emit_table."""
    header = ["schema", "version", "instance", "bitmask", "cycle_type_f1", "cycle_type_f2", "class_id"]
    tsv = ["\t".join(header)]
    jsonl = []
    for b in range(1 << d.alt_decomposition.r):
        f = factorization_at(d, b)
        t1, t2 = f.f1.cycle_type(), f.f2.cycle_type()
        row = ["factorization", __version__, name, b, list(t1), list(t2), ""]
        tsv.append("\t".join([*map(str, row[:4]), ",".join(map(str, t1)), ",".join(map(str, t2)), ""]))
        jsonl.append(json.dumps(dict(zip(header, row)), separators=(", ", ": ")) + "\n")
    return {"tsv": "\n".join(tsv) + "\n", "json-lines": "".join(jsonl)}


# the a5-ex3 presentation under a name that JSON escapes and TSV keeps raw
ODD_NAME_CONFIG = {
    "group_generators": ["(0 1 2 3 4)", "(0 1)(2 3)"],
    "H_generators": ["(0 1)(2 3)"],
    "S": ["(0 1 2 3 4)", "(1 3 4)"],
    "name": '50% "ä"\\',
}
LISTING_CONFIGS = {**SCALE_CONFIGS, "odd-name": ODD_NAME_CONFIG}


@pytest.mark.parametrize("instance", ["a5-ex2", "a5-ex3", "morris", "toy:5", *LISTING_CONFIGS])
def test_enumerate_matches_per_mask_oracle(tmp_path, capsys, instance):
    if instance in LISTING_CONFIGS:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"presentation": LISTING_CONFIGS[instance]}))
        source = ("--config", str(path))
        d = build_coset_digraph(presentation_from_config(LISTING_CONFIGS[instance])).digraph
        name = LISTING_CONFIGS[instance]["name"]
    else:
        source = ("--fixture", instance)
        d = load_fixture(instance).digraph
        name = instance
    expected = per_mask_listing(d, name)
    for fmt, text in expected.items():
        code, out, err = run_cli(capsys, "enumerate", *source, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == text


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--fixture", "morris"],
        ["enumerate", "--fixture", "morris"],
        ["blocks", "--fixture", "toy:5"],
        ["tree-search", "--fixture", "toy:5", "--bitmask", "0"],
        ["spanning", "--fixture", "toy:5", "--method", "blocks"],
        ["verify", "--fixture", "toy:5", "--masks", "20"],
    ],
)
def test_cli_call_leaves_no_reference_cycle(argv):
    """A main call frees everything it made by reference counting alone."""
    code = main(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumerate_over_cap_leaves_stdout_empty(capsys):
    """Both listings, in both formats, refuse before writing anything."""
    for flags in ([], ["--classify"], ["--classify", "--swap"], ["--format", "json-lines"],
                  ["--classify", "--format", "json-lines"]):
        code, out, err = run_cli(capsys, "enumerate", "--fixture", "toy:25", *flags)
        assert code == 3, flags
        assert out == ""
        assert "Traceback" not in err
        assert "exceeds cap 24" in err


# the benchmark's r = 16 instance: a 65,536-row, 3.3 MB plain listing
C2WRC4_R16 = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "c2wrc4-r16.json"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # the pipe closes while the listing is being written
        (["enumerate", "--config", str(C2WRC4_R16)], 1),
        # the pipe is closed before anything is written
        (["build", "--fixture", "toy:3"], 0),
    ],
)
def test_closed_stdout_is_a_clean_exit(argv, lines):
    """A reader that stops early ends the output: exit 0 and nothing on
    stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "spanfact.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert all(line.startswith(b"schema\t") for line in read)
    assert err == b""


class CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_plain_listing_runs_in_bounded_memory():
    """The 2^r-row listing is written in chunks from the label array: no
    joined listing and no per-class member tuples (these held 10.7 MB)."""
    argv = ["enumerate", "--config", str(C2WRC4_R16)]
    sink = CountingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, sink.chars) == (0, 3_347_759)
    assert peak < 3 * 2**20


def test_blocks_toy(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--fixture", "toy:3", "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 2
    by_system = {rec["system"]: rec for rec in records}
    assert by_system["position"]["derangement"] is True
    assert by_system["cycle"]["derangement"] is False
    assert by_system["cycle"]["tau"] == "()"
    assert by_system["position"]["refinement_count"] == 3


def test_blocks_ex3_precondition_exit(capsys):
    code, out, err = run_cli(capsys, "blocks", "--fixture", "a5-ex3", "--bitmask", "0")
    assert code == 3
    assert "phase" in err


def test_tree_search_single(capsys):
    code, out, _ = run_cli(
        capsys, "tree-search", "--fixture", "toy:4", "--bitmask", "0",
        "--format", "json-lines",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["max_size"] == 8
    assert rec["certificate"] is True
    assert rec["witness"].startswith("-")


def test_tree_search_all_classes(capsys):
    code, out, _ = run_cli(
        capsys, "tree-search", "--fixture", "toy:3", "--all-classes",
        "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 4  # 8 factorizations modulo swap
    assert all(rec["certificate"] is True for rec in records)
    assert all(rec["max_size"] == 6 for rec in records)


def test_tree_search_budget_exit(capsys):
    code, out, _ = run_cli(
        capsys, "tree-search", "--fixture", "a5-ex2", "--bitmask", "0",
        "--max-nodes", "3", "--format", "json-lines",
    )
    assert code == 4
    rec = json.loads(out.strip())
    assert rec["certificate"] is False


def test_tree_search_too_many_points_exit(capsys):
    code, out, err = run_cli(capsys, "tree-search", "--fixture", "toy:130", "--bitmask", "0")
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert "at most 255 vertices, got n = 260" in err


def test_spanning_blocks_toy(capsys):
    code, out, _ = run_cli(
        capsys, "spanning", "--fixture", "toy:3", "--method", "blocks",
        "--format", "json-lines",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["size"] == 6 and rec["verified"] is True


def test_spanning_blocks_past_the_element_cap_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(spanning, "ELEMENT_CAP", 5)
    code, out, _ = run_cli(
        capsys, "spanning", "--fixture", "toy:3", "--method", "blocks",
        "--format", "json-lines",
    )
    assert code == 4
    rec = json.loads(out.strip())
    assert rec["size"] == 0 and rec["verified"] is False
    assert "cap 5" in rec["failure"]


def test_spanning_addressing_shift(capsys):
    code, out, _ = run_cli(
        capsys, "spanning", "--fixture", "shift:5", "--method", "addressing",
        "--format", "json-lines",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["size"] == 5 and rec["verified"] is True


def test_spanning_addressing_ex3_precondition(capsys):
    code, _, err = run_cli(
        capsys, "spanning", "--fixture", "a5-ex3", "--bitmask", "0",
        "--method", "addressing",
    )
    assert code == 3


def test_verify_toy(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--fixture", "toy:3", "--seed", "5", "--masks", "10",
        "--format", "json-lines",
    )
    records = [json.loads(line) for line in out.strip().split("\n")]
    laws = {rec["law"]: rec["passed"] for rec in records}
    assert laws["phase_constancy"] is True
    assert laws["atom_counts"] is True
    assert laws["swap_invariance"] is True


@pytest.mark.parametrize("key", sorted(GOLDEN_VERIFY))
def test_verify_golden(capsys, key):
    name, seed = key.split("/")
    code, out, _ = run_cli(capsys, "verify", "--fixture", name, "--seed", seed, "--masks", "200")
    assert [code, out] == GOLDEN_VERIFY[key]


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY_SCALE))
def test_verify_golden_scale(capsys, name):
    """s5-r20 (r = 20) and psl27-r21 (r = 21): no factorization has
    constant phases, and verify answers from the per-cycle tables."""
    path = Path(__file__).with_name("configs") / f"{name}.json"
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert ([code, out], err) == (GOLDEN_VERIFY_SCALE[name], "")


@pytest.mark.parametrize("key", GOLDEN_CLI)
def test_cli_golden(capsys, key):
    assert list(run_cli(capsys, *key.split())) == GOLDEN_CLI[key]


@pytest.mark.parametrize(
    "argv",
    [
        ("blocks", "--fixture", "toy:3", "--seed", "1"),
        ("build", "--fixture", "toy:3", "--max-nodes", "5"),
        ("verify", "--fixture", "toy:3", "--max-nodes", "5"),
        ("tree-search", "--fixture", "toy:3", "--bitmask", "0", "--seed", "1"),
    ],
)
def test_flags_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, config",
    [
        (("tree-search", "--bitmask", "0", "--max-nodes", "0"), None),
        (("tree-search", "--bitmask", "0", "--max-nodes", "-5"), None),
        (("verify", "--masks", "-1"), None),
        (("tree-search", "--bitmask", "0"), {"max_nodes": 0}),
        (("tree-search", "--bitmask", "0"), {"max_nodes": -5}),
        (("tree-search", "--bitmask", "0"), {"max_nodes": "100"}),
        (("tree-search", "--bitmask", "0"), {"max_nodes": True}),
        (("tree-search", "--bitmask", "0"), {"max_nodes": 2.5}),
        (("tree-search", "--bitmask", "0", "--max-nodes", "0"), {"max_nodes": 10}),
    ],
)
def test_meaningless_counts_are_config_errors(tmp_path, capsys, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}, **(config or {})}))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_max_nodes_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}, "max_nodes": 1}))
    search = ("tree-search", "--config", str(path), "--bitmask", "0", "--format", "json-lines")
    code, out, _ = run_cli(capsys, *search)
    assert code == 4
    assert json.loads(out)["certificate"] is False
    code, out, _ = run_cli(capsys, *search, "--max-nodes", "1000")
    assert code == 0
    assert json.loads(out)["certificate"] is True


def test_verify_zero_masks_samples_none(capsys):
    code, out, err = run_cli(capsys, "verify", "--fixture", "toy:3", "--masks", "0", "--format", "json-lines")
    assert code != 2 and err == ""
    checked = {rec["law"]: rec["checked"] for rec in map(json.loads, out.splitlines())}
    assert checked["swap_invariance"] == 0
    assert checked["phase_constancy"] == 8


# shift:101 has 101 difference-class orbits, so 2^101 - 1 refinement systems,
# far past what invariant_refinements lists
def test_blocks_counts_refinements_past_the_listing_cap(capsys):
    code, out, err = run_cli(capsys, "blocks", "--fixture", "shift:101", "--format", "json-lines")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["system"] for rec in records] == ["position", "cycle"]
    assert [rec["refinement_count"] for rec in records] == [2**101 - 1] * 2


def test_verify_checks_refinements_past_the_listing_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--fixture", "shift:101", "--format", "json-lines")
    assert err == ""
    records = {rec["law"]: rec for rec in map(json.loads, out.splitlines())}
    for law in ("refinements", "atom_counts"):
        assert (records[law]["checked"], records[law]["failures"]) == (2, 0)
    assert code == (0 if all(rec["passed"] for rec in records.values()) else 3)


def test_missing_instance_is_config_error(capsys):
    code, _, err = run_cli(capsys, "build")
    assert code == 2
    assert "config" in err


def test_unknown_fixture_is_config_error(capsys):
    code, _, _ = run_cli(capsys, "build", "--fixture", "bogus")
    assert code == 2


def test_config_file_presentation(tmp_path, capsys):
    doc = {
        "presentation": {
            "group_generators": ["(0 1 2 3 4)", "(0 1)(2 3)"],
            "H_generators": ["(0 1)(2 3)"],
            "S": ["(0 1 2 3 4)", "(0)(1 3 4)"],
            "name": "ex3-from-config",
        }
    }
    # S[1] is h*s computed in cycle form: images 0->0, 1->3, 2->2, 3->4, 4->1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "build", "--config", str(path))
    assert code == 0
    assert "\t30\t" in out.strip().split("\n")[1]


@pytest.mark.parametrize(
    "presentation, stderr",
    [
        *(
            (doc, f"error: invalid presentation; failing conditions: [{label!r}]\n")
            for label, doc in sorted(FAILING_ALONE.items())
        ),
        (
            {"group_generators": ["(0 1 2)"], "H_generators": [], "S": ["(0 1 2)"]},
            "error: degree-2 digraph needs |S| = 2\n",
        ),
        (
            {"group_generators": ["(0 1 2)"], "H_generators": ["(0 1)"], "S": ["(0 1 2)", "(0 2 1)"]},
            "error: generator (0 1) lies outside the group\n",
        ),
    ],
    ids=[*sorted(FAILING_ALONE), "one_S_entry", "H_generator_outside_G"],
)
def test_config_presentation_errors(tmp_path, capsys, presentation, stderr):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"presentation": presentation}))
    assert run_cli(capsys, "build", "--config", str(path)) == (3, "", stderr)


def test_config_file_toy(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}}))
    code, out, _ = run_cli(capsys, "enumerate", "--config", str(path), "--format", "json-lines")
    assert code == 0
    assert len(out.strip().split("\n")) == 16


def test_config_toy_name_names_every_row(tmp_path, capsys):
    """A root "name" beside a toy instance renames the toy fixture."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 3}, "name": "x"}))
    code, out, err = run_cli(capsys, "enumerate", "--config", str(path))
    assert (code, err) == (0, "")
    header, *rows = out.rstrip("\n").split("\n")
    assert header.split("\t")[2] == "instance"
    assert len(rows) == 8
    assert {row.split("\t")[2] for row in rows} == {"x"}


def test_config_format_toggle(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}, "format": "json-lines"}))
    code, out, _ = run_cli(capsys, "enumerate", "--config", str(path))
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert [rec["bitmask"] for rec in records] == list(range(16))
    code, out, _ = run_cli(capsys, "enumerate", "--config", str(path), "--format", "tsv")
    assert code == 0
    assert out.startswith("schema\t")


def test_config_bad_format_toggle(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}, "format": "csv"}))
    code, out, err = run_cli(capsys, "enumerate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "csv" in err


def test_config_broken_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"toy": {"m": 4}, "classify": tru')
    for command in ("enumerate", "tree-search"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")


def test_config_exactly_one_source(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}, "presentation": {}}))
    code, _, err = run_cli(capsys, "build", "--config", str(path))
    assert code == 2
    assert "exactly one" in err


def test_config_unknown_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}, "bogus_key": 1}))
    code, _, err = run_cli(capsys, "build", "--config", str(path))
    assert code == 2
    assert "bogus_key" in err


@pytest.mark.parametrize(
    "toggles, flags",
    [
        ({"classify": True}, ["--classify"]),
        ({"classify": True, "swap": True}, ["--classify", "--swap"]),
        ({"classify": True, "swap": False}, ["--classify"]),
        ({"swap": True}, ["--swap"]),
        ({"classify": False, "swap": False}, []),
    ],
)
def test_config_toggles_act_as_flags(tmp_path, capsys, toggles, flags):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"toy": {"m": 3}}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 3}, **toggles}))
    expected = run_cli(capsys, "enumerate", "--config", str(plain), *flags)
    if "--swap" in flags and "--classify" not in flags:
        # the swap acts only on a classification, so alone it is refused
        assert expected == (2, "", "config error: --swap (toggle 'swap') applies only with --classify\n")
    else:
        assert expected[0] == 0
    assert run_cli(capsys, "enumerate", "--config", str(path)) == expected


@pytest.mark.parametrize("key", ["classify", "swap"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
def test_config_toggles_must_be_booleans(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 3}, key: value}))
    for flags in ([], ["--classify", "--swap"]):
        code, out, err = run_cli(capsys, "enumerate", "--config", str(path), *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: field {key!r}, token {value!r}")


# arguments with which each subcommand runs on a valid toy config
SUBCOMMAND_ARGV = {
    "build": [],
    "enumerate": [],
    "blocks": [],
    "tree-search": ["--bitmask", "0"],
    "spanning": ["--method", "addressing"],
    "verify": ["--masks", "2"],
}
# per toggle: a bad value, the flag that would take its place, and the
# subcommands that take that flag
BAD_TOGGLES = {
    "classify": ("no", ["--classify"], {"enumerate"}),
    "swap": ("no", ["--swap"], {"enumerate"}),
    "max_nodes": ("x", ["--max-nodes", "5"], {"tree-search"}),
    "format": ("csv", ["--format", "tsv"], set(SUBCOMMAND_ARGV)),
}


@pytest.mark.parametrize(
    "command, key, flags",
    [
        (command, key, flags)
        for command in SUBCOMMAND_ARGV
        for key, (_, flag, takers) in BAD_TOGGLES.items()
        for flags in ([], flag)
        if not flags or command in takers
    ],
)
def test_bad_toggle_is_a_config_error_everywhere(tmp_path, capsys, command, key, flags):
    """A bad toggle is rejected by every subcommand, read or not, and also
    when the flag that would override it is given."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 3}, key: BAD_TOGGLES[key][0]}))
    code, out, err = run_cli(capsys, command, "--config", str(path), *SUBCOMMAND_ARGV[command], *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: field {key!r}")


@pytest.mark.parametrize("m", [True, False, 3.0, "3", None])
def test_config_toy_m_must_be_an_integer(tmp_path, capsys, m):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": m}}))
    code, out, err = run_cli(capsys, "build", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: field 'toy.m'")


def test_bad_image_array_texts(tmp_path, capsys):
    """A one-line permutation that is not a bijection is reported as the
    tuple it was read as, whether or not its points fit in a byte, and a
    config carrying one is a config error."""
    for text, shown in [("[0,0]", "(0, 0)"), ("[0,300]", "(0, 300)"), ("[1,-1]", "(1, -1)")]:
        with pytest.raises(ValueError) as exc:
            parse_perm(text)
        assert str(exc.value) == f"not a permutation image array: {shown}"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"presentation": {"group_generators": ["(0 1)"], "H_generators": [], "S": ["[0,0]"]}}))
    assert run_cli(capsys, "build", "--config", str(path)) == (
        2,
        "",
        "config error: field 'S', token '[0,0]': not a permutation image array: (0, 0)\n",
    )


def test_all_classes_excludes_bitmask(capsys):
    code, out, err = run_cli(capsys, "tree-search", "--fixture", "toy:3", "--all-classes", "--bitmask", "1")
    assert (code, out) == (2, "")
    assert err == "config error: give either --bitmask or --all-classes, not both\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    # short strings over a small alphabet keep every point, and so the degree, small
    | st.text(alphabet=" ()0123,[]", max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@given(
    value=JSON_VALUES,
    field=st.sampled_from(["group_generators", "H_generators", "S"]),
    at=st.integers(0, 2),
)
def test_config_permutation_tokens(value, field, at):
    """A token that is not a string is a config error naming its field and
    itself; any other token gives a report or a clean error."""
    presentation = dict(ODD_NAME_CONFIG)
    tokens = list(presentation[field])
    tokens.insert(min(at, len(tokens)), value)
    presentation[field] = tokens
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"presentation": presentation}))
        code, out, err = run_in_process(["build", "--config", str(path)])
    assert code in (0, 2, 3), err
    if not isinstance(value, str):
        assert (code, out) == (2, "")
        assert err == f"config error: field {field!r}, token {value!r}: expected a cycle-notation string\n"


def test_output_determinism(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--fixture", "a5-ex3", "--classify", "--swap")
    _, out2, _ = run_cli(capsys, "enumerate", "--fixture", "a5-ex3", "--classify", "--swap")
    assert out1 == out2


def test_json_lines_round_trip(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--fixture", "toy:3", "--format", "json-lines")
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert rendered(records, "json-lines") == out


CELLS = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.lists(st.integers(0, 9), max_size=4),
    st.lists(st.integers(0, 9), max_size=4).map(tuple),
)


@given(
    keys=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
    rows=st.lists(st.lists(CELLS, min_size=4, max_size=4), max_size=5),
    share=st.booleans(),
)
def test_emit_json_lines_is_json_dumps(keys, rows, share):
    """Each line is json.dumps of its record, also when records share their
    cell objects or differ in their keys."""
    records = [dict(zip(keys[: 1 + i % len(keys)], row)) for i, row in enumerate(rows)]
    if share and records:
        records += [dict(records[0]) for _ in range(2)]
    expected = "".join(json.dumps(rec, separators=(", ", ": ")) + "\n" for rec in records)
    assert rendered(records, "json-lines") == expected


def test_emit_table_zero_records():
    assert rendered([], "tsv") == "schema\n"


def test_node_cap_counts_no_extra_node(capsys):
    for cap in (1, 3):
        code, out, err = run_cli(
            capsys, "tree-search", "--fixture", "toy:4", "--bitmask", "0",
            "--max-nodes", str(cap), "--format", "json-lines",
        )
        assert (code, err) == (4, "")
        rec = json.loads(out)
        assert (rec["nodes"], rec["certificate"]) == (cap, False)


@pytest.mark.parametrize(
    "fixture, mask, cap, want",
    [
        # the include at node 7 reaches n = 8; a search run to the end visits 15
        ("toy:4", 0, 7, (0, 7, True, 8)),
        ("toy:4", 0, 6, (4, 6, False, 7)),
        # the Hamiltonian class: 137 nodes, 173 for a search run to the end
        ("a5-ex2", 6, 137, (0, 137, True, 30)),
        ("a5-ex2", 6, 136, (4, 136, False, 29)),
    ],
)
def test_search_reaching_n_within_the_node_cap_certifies(capsys, fixture, mask, cap, want):
    """The search ends once its tree has n words: a node cap that admits the
    node whose include reached n certifies, and one node fewer does not."""
    code, out, err = run_cli(
        capsys, "tree-search", "--fixture", fixture, "--bitmask", str(mask),
        "--max-nodes", str(cap), "--format", "json-lines",
    )
    rec = json.loads(out)
    assert err == ""
    assert (code, rec["nodes"], rec["certificate"], rec["max_size"]) == want


PERFBENCH_CONFIGS = {
    **SCALE_CONFIGS,
    "c2wrc4-r16": {
        "group_generators": ["(0 1)", "(0 2 4 6)(1 3 5 7)"],
        "H_generators": ["(0 1)"],
        "S": ["(0 2 4 6)(1 3 5 7)", "(0 2 4 6 1 3 5 7)"],
        "name": "c2wrc4-r16",
    },
}


@pytest.mark.parametrize("instance", PERFBENCH_CONFIGS)
def test_verify_matches_reference_law_suite(tmp_path, capsys, instance):
    path = tmp_path / f"{instance}.json"
    path.write_text(json.dumps({"presentation": PERFBENCH_CONFIGS[instance]}))
    code, out, err = run_cli(
        capsys, "verify", "--config", str(path), "--seed", "5", "--masks", "10", "--format", "json-lines",
    )
    d = build_coset_digraph(presentation_from_config(PERFBENCH_CONFIGS[instance])).digraph
    rng = random.Random(5)
    masks = [rng.randrange(1 << d.alt_decomposition.r) for _ in range(10)]
    expected = reference_law_suite(d, masks)
    got = {rec["law"]: (rec["checked"], rec["failures"]) for rec in map(json.loads, out.splitlines())}
    assert got == expected
    assert err == ""
    assert code == (0 if all(failures == 0 for _, failures in expected.values()) else 3)


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def command_lines(draw):
    """A subcommand on a small (or unknown) fixture with flags drawn from every
    subcommand's, so some are not registered for it, and values that include
    meaningless ones."""
    argv = [draw(st.sampled_from(["build", "enumerate", "blocks", "tree-search", "spanning", "verify"]))]
    argv += ["--fixture", draw(st.sampled_from(["toy:3", "toy:4", "morris", "shift:5", "shift:7", "toy:2", "toy:x", "nosuch"]))]
    options = {
        "--bitmask": st.integers(-2, 17).map(str),
        "--max-nodes": st.sampled_from(["-1", "0", "1", "2", "5", "100", "x"]),
        "--masks": st.sampled_from(["-1", "0", "3", "20", "2.5"]),
        "--seed": st.integers(-3, 3).map(str),
        "--method": st.sampled_from(["blocks", "addressing", "other"]),
        "--format": st.sampled_from(["tsv", "json-lines", "xml"]),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    for flag in ("--classify", "--swap", "--all-classes"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@given(command_lines())
def test_cli_exit_contract_and_stable_output(argv):
    first = run_in_process(argv)
    code, out, err = first
    assert code in (0, 2, 3, 4), (argv, first)
    assert "Traceback" not in err
    assert run_in_process(argv) == first


# a name may sit at the config root, in the presentation, or beside a toy
# instance; the root one wins
NAMES = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="a\t\n\r\x0b %\"", max_size=4),
    st.integers(),
    st.lists(st.text(max_size=2), max_size=2),
    st.none(),
    st.booleans(),
)


@given(name=NAMES, where=st.sampled_from(["root", "presentation", "toy"]))
def test_config_name_names_the_instance_or_is_a_config_error(name, where):
    presentation = {k: v for k, v in ODD_NAME_CONFIG.items() if k != "name"}
    if where == "toy":
        doc = {"toy": {"m": 3}, "name": name}
    elif where == "root":
        doc = {"presentation": presentation, "name": name}
    else:
        doc = {"presentation": {**presentation, "name": name}}
    valid = isinstance(name, str) and not set(name) & set("\t\n\r")
    expected = (name or "config") if where == "presentation" else name
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        for fmt in FORMATS:
            code, out, err = run_in_process(["build", "--config", str(path), "--format", fmt])
            if not valid:
                assert (code, out) == (2, "")
                assert err.startswith("config error: field 'name'")
                continue
            assert (code, err) == (0, "")
            if fmt == "tsv":
                header, row, end = out.split("\n")
                assert end == ""
                cells = row.split("\t")
                assert len(cells) == len(header.split("\t"))
                assert cells[2] == expected
            else:
                assert json.loads(out)["instance"] == expected
