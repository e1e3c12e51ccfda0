"""Golden results of the relocatable-tree kernel.

tests/golden_treesearch.json pins (size, nodes, certificate, words) per case,
keyed "<fixture>/<bitmask>"; a word is its symbol tuple written as digits.
The cases are every factorization of toy:3/4/5 and shift:5 and one class
representative per factorization class of a5-ex3 and a5-ex2.
"""
import json
from pathlib import Path

from spanfact.digraph import classify_factorizations, enumerate_factorizations, factorization_at
from spanfact.fixtures import load_fixture
from spanfact.spanning import max_relocatable_tree

GOLDEN = json.loads(Path(__file__).with_name("golden_treesearch.json").read_text())


def golden_cases():
    for name in ("toy:3", "toy:4", "toy:5", "shift:5"):
        for f in enumerate_factorizations(load_fixture(name).digraph):
            yield f"{name}/{f.bitmask}", f
    for name in ("a5-ex3", "a5-ex2"):
        fx = load_fixture(name)
        d = fx.digraph
        classes = classify_factorizations(d, fx.aut_generators(), allow_swap=True)
        for cls in classes:
            yield f"{name}/{cls.representative}", factorization_at(d, cls.representative)


def test_golden_tree_search():
    got = {}
    for key, f in golden_cases():
        res = max_relocatable_tree(f)
        assert res.kernel == "python"
        got[key] = [res.size, res.nodes, res.certificate, ["".join(map(str, w)) for w in res.words]]
    assert got == GOLDEN

