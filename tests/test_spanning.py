import itertools

import pytest

from spanfact.blocks import phase_profile, position_system
from spanfact.digraph import (
    Digraph2,
    build_shift,
    build_toy,
    enumerate_factorizations,
    factorization_at,
)
from spanfact import spanning
from spanfact.errors import PreconditionError, SizeCapError
from spanfact.fixtures import load_fixture
from spanfact.perm import word_str
from spanfact.spanning import (
    WordSet,
    max_relocatable_tree,
    phase_addressing,
    search_sharply_transitive,
    splice_generators,
    verify_reloc_tree,
    verify_sharply_transitive,
)

from oracles import naive_max_tree_size, reference_verify_sharply_transitive
from test_random_instances import product_digraph


@pytest.fixture()
def toy3():
    return build_toy(3)[1]


def test_verify_singleton_n1():
    d = Digraph2([(0, 0)])
    f = factorization_at(d, 0)
    ws = WordSet.from_words([()], f, root=0)
    assert verify_sharply_transitive(ws, f).passed


def test_verify_flags_equivalent_words(toy3):
    ws = WordSet.from_words([(), (1, 1, 1), (2,), (1,), (2, 1), (2, 2)], toy3, root=0)
    verdict = verify_sharply_transitive(ws, toy3)
    assert not verdict.passed
    assert verdict.first_violation == ((), (1, 1, 1))


def test_verify_size_mismatch(toy3):
    ws = WordSet.from_words([(), (1,)], toy3, root=0)
    assert not verify_sharply_transitive(ws, toy3).passed


def test_verifier_readings_agree_on_many_sets(toy3):
    # the verdict and its first violation match the column-set and naive
    # pairwise oracle
    words_pool = [(), (1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 2)]
    for combo in itertools.combinations(words_pool, 6):
        ws = WordSet.from_words(list(combo), toy3, root=0)
        verdict = verify_sharply_transitive(ws, toy3)
        assert (verdict.passed, verdict.first_violation) == reference_verify_sharply_transitive(ws, toy3)


def test_search_sharply_transitive_toys():
    for m in (3, 4, 5):
        d, f = build_toy(m)
        ws = search_sharply_transitive(f, root=0, required=((), (1,), (2,)))
        assert ws is not None
        assert len(ws) == d.n
        assert {(), (1,), (2,)} <= set(ws.words)
        assert verify_sharply_transitive(ws, f).passed


def test_search_past_the_element_cap_raises(monkeypatch):
    d, f = build_toy(3)
    monkeypatch.setattr(spanning, "ELEMENT_CAP", d.n - 1)
    with pytest.raises(SizeCapError, match=f"cap {d.n - 1}"):
        search_sharply_transitive(f, root=0, required=((), (1,), (2,)))


def test_max_tree_n1():
    d = Digraph2([(0, 0)])
    f = factorization_at(d, 0)
    res = max_relocatable_tree(f)
    assert res.size == 1 and res.certificate
    assert res.words == ((),)


@pytest.mark.parametrize("m", [3, 4])
def test_max_tree_matches_naive_oracle(m):
    d, _ = build_toy(m)
    for f in enumerate_factorizations(d):
        res = max_relocatable_tree(f)
        assert res.certificate
        assert res.size == naive_max_tree_size(f)
        report = verify_reloc_tree(res.words, f)
        assert report.valid, report.reason


def test_max_tree_budget_flag():
    d = load_fixture("a5-ex2").digraph
    f = factorization_at(d, 0)
    res = max_relocatable_tree(f, node_cap=3)
    assert not res.certificate


def test_witness_tree_reverified_independently():
    d, f = build_shift(5)
    res = max_relocatable_tree(f)
    assert verify_reloc_tree(res.words, f).valid


def test_prefix_mode_conventions():
    d, f = build_shift(5)
    # (1, 2) = F1 after F2: its prefix drops the last-applied symbol, so it is
    # (2,), not the first-applied (1,)
    assert verify_reloc_tree(((), (2,), (1, 2)), f).valid
    assert not verify_reloc_tree(((), (1,), (1, 2)), f).valid


def test_phase_addressing_shift():
    for n in (4, 5, 7):
        d, f = build_shift(n)
        ps = position_system(f)
        pp = phase_profile(f, ps)
        s0 = phase_addressing(f, ps, pp)
        assert len(s0) == n
        assert s0.root == 0
        assert verify_sharply_transitive(s0, f).passed
        s = splice_generators(s0, f)
        assert {(), (1,), (2,)} <= set(s.words)
        assert verify_sharply_transitive(s, f).passed


def test_phase_addressing_morris():
    # r = 3 cycles of length m = 2 with transitive top action: the addressing
    # construction succeeds exactly when some phase is nonzero
    d = load_fixture("morris").digraph
    successes = 0
    for f in enumerate_factorizations(d):
        ps = position_system(f)
        pp = phase_profile(f, ps)
        if all(dd == 0 for dd in pp.delta):
            with pytest.raises(PreconditionError):
                phase_addressing(f, ps, pp)
            continue
        s = splice_generators(phase_addressing(f, ps, pp), f)
        assert len(s) == 6
        assert {(), (1,), (2,)} <= set(s.words)
        assert verify_sharply_transitive(s, f).passed
        successes += 1
    assert successes == 7


def test_phase_addressing_toy_precondition():
    d, f = build_toy(3)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    with pytest.raises(PreconditionError):
        phase_addressing(f, ps, pp)


def test_phase_addressing_orders_words_by_sigma():
    """Z_2 x Z_3 at mask 3 has m = 3, r = 2 and phases (2, 2), so sigma is
    nonzero on a cycle and its sign sets the word order; listing cycle i's
    words by x^(j + sigma) would give "- 12' 12'12' 12'1 2 1", which also
    verifies."""
    f = factorization_at(product_digraph(2, 3), 3)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    assert (ps.m, ps.r, pp.delta) == (3, 2, (2, 2))
    s = splice_generators(phase_addressing(f, ps, pp), f)
    assert " ".join(map(word_str, s.words)) == "- 12' 12'12' 2 1 12'1"
    assert verify_sharply_transitive(s, f).passed


def test_splice_preserves_root_images():
    d, f = build_shift(7)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    s0 = phase_addressing(f, ps, pp)
    s = splice_generators(s0, f)
    before = sorted(img(s0.root) for img in s0.images)
    after = sorted(img(s.root) for img in s.images)
    assert before == after


def test_splice_noop_when_already_present():
    d, f = build_toy(3)
    ws = search_sharply_transitive(f, root=0, required=((), (1,), (2,)))
    s = splice_generators(ws, f)
    assert set(s.words) == set(ws.words)


def test_word_str_on_witness():
    d, f = build_toy(3)
    res = max_relocatable_tree(f)
    rendered = [word_str(w) for w in res.words]
    assert rendered[0] == "-"
    assert all(set(s) <= set("12'-") for s in rendered)
