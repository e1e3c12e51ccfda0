"""Answer checking, run outside the timed region.

CLI output is compared as parsed TSV records, not bytes, against the answers
recorded in expected/<workload>.json.  Fields that may change without the
answer changing are ignored: version, kernel, node counts, and witness or
spanning words.  Words are instead checked by the package's independent
verifiers, and class and law counts against 2^r of the instance.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from spanfact import (
    WordSet,
    build_coset_digraph,
    coset_space,
    factorization_at,
    load_fixture,
    parse_word,
    presentation_from_config,
    verify_reloc_tree,
    verify_sharply_transitive,
)

from spanfact.cli import EXIT_OK, EXIT_PRECONDITION

from workloads import DEFAULT_SEED, Call, config_path, seed_dependent

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

IGNORED_FIELDS = frozenset({"version", "kernel", "nodes", "witness", "words"})
# outputs longer than this are recorded as a count and digest of their records
DIGEST_ABOVE = 1000
# verify-report fields that depend on the sampled swap masks, i.e. on --seed
SEEDED_LAW = "swap_invariance"
SEEDED_FIELDS = ("checked", "failures", "passed")


def parse_records(text: str):
    """Yield the TSV records of one CLI output as dicts of strings."""
    lines = iter(text.splitlines())
    header = next(lines, "").split("\t")
    for line in lines:
        yield dict(zip(header, line.split("\t")))


def _compared(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k not in IGNORED_FIELDS}


def expected_entry(code: int, out: str) -> dict:
    """The recorded form of one call's answer."""
    entry = {"exit": code}
    records = [_compared(rec) for rec in parse_records(out)]
    if len(records) > DIGEST_ABOVE:
        entry.update(_digest(records))
    else:
        entry["records"] = records
    return entry


def _digest(records) -> dict:
    h = hashlib.sha256()
    count = 0
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
        count += 1
    return {"count": count, "sha256": h.hexdigest()}


def load_expected(workload: str) -> dict:
    """Expected answers by call label."""
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def build_instance(name: str):
    """The digraph of a fixture or benchmark config, built from public API."""
    path = config_path(name)
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        p = presentation_from_config(doc["presentation"])
        return build_coset_digraph(p, coset_space(p.group, list(p.H_generators))).digraph
    return load_fixture(name).digraph


class Checker:
    """Checks the exit code and output of each call of one workload and seed."""

    def __init__(self, calls: list[Call], seed: int, expected: dict):
        self.expected = expected
        self.seeded = seed != DEFAULT_SEED
        self.digraphs = {}
        for call in calls:
            if call.instance not in self.digraphs:
                self.digraphs[call.instance] = build_instance(call.instance)
        missing = [c.label for c in calls if c.label not in expected]
        if missing:
            raise KeyError(f"no expected answer for {missing}")

    def check(self, call: Call, code, out: str) -> list[str]:
        """Problems found in one call's answer; empty when it is correct."""
        if code is None:
            return ["uncaught exception"]
        exp = self.expected[call.label]
        free = self.seeded and seed_dependent(call)
        problems = []
        if code != exp["exit"] and not free:
            problems.append(f"exit {code}, expected {exp['exit']}")
        if "sha256" in exp:
            got = _digest(_compared(rec) for rec in parse_records(out))
            if got != {"count": exp["count"], "sha256": exp["sha256"]}:
                problems.append(f"{got['count']} records with digest {got['sha256'][:12]}, expected {exp['count']} with {exp['sha256'][:12]}")
            records = parse_records(out)
        else:
            records = list(parse_records(out))
            problems += _record_diffs(records, exp["records"], free)
        problems += self._independent(call, code, records)
        return problems

    def _independent(self, call: Call, code, records) -> list[str]:
        """Checks that need no recorded answer, only the instance."""
        d = self.digraphs[call.instance]
        total = 1 << d.alt_decomposition.r
        problems = []
        class_sizes = 0
        listed = 0
        laws_failed = False
        for rec in records:
            schema = rec.get("schema")
            if schema == "tree-search":
                words = tuple(parse_word(w) for w in rec["witness"].split(" "))
                f = factorization_at(d, int(rec["bitmask"]))
                report = verify_reloc_tree(words, f)
                if not report.valid or len(words) != int(rec["max_size"]):
                    problems.append(f"mask {rec['bitmask']}: witness rejected ({report.reason or 'size mismatch'})")
            elif schema == "spanning" and rec.get("verified") == "true":
                f = factorization_at(d, int(rec["bitmask"]))
                ws = WordSet.from_words([parse_word(w) for w in rec["words"].split(" ")], f)
                verdict = verify_sharply_transitive(ws, f)
                if not verdict.passed:
                    problems.append(f"spanning set rejected: {verdict.reason}")
            elif schema == "factorization-class":
                class_sizes += int(rec["class_size"])
            elif schema == "factorization":
                if int(rec["bitmask"]) != listed:
                    problems.append(f"row {listed} has bitmask {rec['bitmask']}")
                listed += 1
            elif schema == "verify-report":
                checked, failures = int(rec["checked"]), int(rec["failures"])
                laws_failed = laws_failed or failures > 0
                if rec["passed"] != ("true" if failures == 0 else "false") or failures > checked:
                    problems.append(f"law {rec['law']}: inconsistent counts {rec}")
                if rec["law"] != SEEDED_LAW and checked != total:
                    problems.append(f"law {rec['law']} checked {checked} of {total}")
        if class_sizes and class_sizes != total:
            problems.append(f"class sizes sum to {class_sizes}, not 2^r = {total}")
        if listed and listed != total:
            problems.append(f"{listed} factorizations listed, not 2^r = {total}")
        if call.argv[0] == "verify":
            want = EXIT_PRECONDITION if laws_failed else EXIT_OK
            if code != want:
                problems.append(f"verify exit {code} disagrees with its law records")
        return problems


def _record_diffs(got: list[dict], expected: list[dict], seed_free: bool) -> list[str]:
    if len(got) != len(expected):
        return [f"{len(got)} records, expected {len(expected)}"]
    problems = []
    for i, (rec, exp) in enumerate(zip(got, expected)):
        rec = _compared(rec)
        if seed_free and exp.get("law") == SEEDED_LAW:
            rec = {k: v for k, v in rec.items() if k not in SEEDED_FIELDS}
            exp = {k: v for k, v in exp.items() if k not in SEEDED_FIELDS}
        if rec != exp:
            diff = sorted(k for k in set(rec) | set(exp) if rec.get(k) != exp.get(k))
            problems.append(f"record {i} differs in {diff}")
    return problems
