import json
from pathlib import Path

import pytest

from spanfact.cli import emit_table, main

# "<fixture>/<seed>" -> [exit code, stdout] of verify --seed <seed> --masks 200
GOLDEN_VERIFY = json.loads(Path(__file__).with_name("golden_verify.json").read_text())


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


def test_config_file_toy(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"toy": {"m": 4}}))
    code, out, _ = run_cli(capsys, "enumerate", "--config", str(path), "--format", "json-lines")
    assert code == 0
    assert len(out.strip().split("\n")) == 16


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


def test_output_determinism(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--fixture", "a5-ex3", "--classify", "--swap")
    _, out2, _ = run_cli(capsys, "enumerate", "--fixture", "a5-ex3", "--classify", "--swap")
    assert out1 == out2


def test_json_lines_round_trip(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--fixture", "toy:3", "--format", "json-lines")
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert emit_table(records, "json-lines") == out


def test_emit_table_zero_records():
    assert emit_table([], "tsv") == "schema\n"
