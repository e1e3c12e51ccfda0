"""Golden results of the relocatable-tree kernel, and the kernel against a
reference that runs every closure bound to completion and searches to the
end.

tests/golden_treesearch.json pins (size, nodes, certificate, words) per case,
keyed "<fixture>/<bitmask>"; a word is its symbol tuple written as digits.
The cases are every factorization of toy:3/4/5 and shift:5 and one class
representative per factorization class of a5-ex3 and a5-ex2.  The kernel
stops once its best tree has n words, so on a case of size n, nodes counts
the visits up to the one whose include reached n; the reference searches on
and must still find nothing larger.
"""
import gc
import json
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spanfact.digraph import (
    build_coset_digraph,
    classify_factorizations,
    enumerate_factorizations,
    factorization_at,
)
from spanfact.fixtures import load_fixture
from spanfact.groups import presentation_from_config
from spanfact.spanning import CLOSURE_CAP, max_relocatable_tree
from spanfact.treesearch import run_search

from oracles import exhaustive_run_search, reference_run_search

GOLDEN = json.loads(Path(__file__).with_name("golden_treesearch.json").read_text())

# the benchmark's s5-r12 presentation (n = 60, r = 12)
S5_R12 = {
    "group_generators": ["(0 1 2 3 4)", "(0 1)"],
    "H_generators": ["(1 3)(2 4)"],
    "S": ["(0 2 3 4)", "(0 4)(1 3 2)"],
    "name": "s5-r12",
}
NODE_CAP = 100_000_000


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


def kernel_and_reference(f, node_cap, closure_cap):
    args = (f.n, f.f1.images, f.f2.images, node_cap, closure_cap)
    return run_search(*args), reference_run_search(*args)


def test_kernel_matches_reference_on_golden_cases():
    for key, f in golden_cases():
        got, want = kernel_and_reference(f, NODE_CAP, CLOSURE_CAP)
        assert got == want, key


def test_kernel_stops_exactly_when_size_is_n():
    """On every golden case the kernel visits fewer nodes than the search
    run to the end exactly when its tree has n words (62 of the 82 cases),
    and the search run to the end finds no larger tree."""
    stopped = 0
    for key, f in golden_cases():
        args = (f.n, f.f1.images, f.f2.images, NODE_CAP, CLOSURE_CAP)
        size, _, nodes, certified = run_search(*args)
        full_size, _, full_nodes, full_certified, _ = exhaustive_run_search(*args)
        assert (size, certified) == (full_size, full_certified) == (GOLDEN[key][0], True), key
        assert nodes < full_nodes if size == f.n else nodes == full_nodes, key
        stopped += nodes < full_nodes
    assert stopped == 62


@pytest.mark.parametrize(
    "node_cap, closure_cap",
    [(NODE_CAP, 500), (NODE_CAP, 50), (30, CLOSURE_CAP), (30, 50)],
)
def test_kernel_matches_reference_under_caps(node_cap, closure_cap):
    """Small closure caps make cap hits common (with n = 30 and a cap of 50,
    no check runs before the cap); a small node cap cuts the search short
    (21 of the golden cases then stay uncertified)."""
    uncertified = 0
    for key, f in golden_cases():
        got, want = kernel_and_reference(f, node_cap, closure_cap)
        assert got == want, key
        uncertified += not got[3]
    assert uncertified == (21 if node_cap == 30 else 0)


def test_search_leaves_no_reference_cycle():
    """The search, whose stack holds closure sets and bound methods of image
    blobs, leaves nothing for the cyclic collector: on the Hamiltonian class
    of a5-ex2, on its node-heavy mask 13 and on the closure-heavy class of
    a5-ex3."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, mask, size in (("a5-ex2", 6, 30), ("a5-ex2", 13, 19), ("a5-ex3", 1, 9)):
            f = factorization_at(load_fixture(name).digraph, mask)
            gc.collect()
            assert run_search(f.n, f.f1.images, f.f2.images, NODE_CAP, CLOSURE_CAP)[0] == size
            assert gc.collect() == 0, (name, mask)
    finally:
        if enabled:
            gc.enable()


@cache
def digraph_of(name: str):
    if name == "s5-r12":
        return build_coset_digraph(presentation_from_config(S5_R12)).digraph
    return load_fixture(name).digraph


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["a5-ex2", "a5-ex3", "morris", "s5-r12"]),
    node_cap=st.sampled_from([NODE_CAP, 1, 2, 40, 200]),
    closure_cap=st.sampled_from([CLOSURE_CAP, 500, 50]),
)
def test_kernel_matches_reference_on_drawn_masks(data, name, node_cap, closure_cap):
    d = digraph_of(name)
    mask = data.draw(st.integers(0, (1 << d.alt_decomposition.r) - 1), label="mask")
    got, want = kernel_and_reference(factorization_at(d, mask), node_cap, closure_cap)
    assert got == want
