import json
import random
from pathlib import Path

import pytest

from spanfact import groups
from spanfact.cli import instance_from_config
from spanfact.digraph import build_coset_digraph, factorization_at
from spanfact.errors import ConfigError, NotASubgroupError, SizeCapError, SpanfactError
from spanfact.fixtures import load_fixture, morris_presentation
from spanfact.groups import (
    ConditionCheck,
    Presentation,
    ValidationReport,
    coset_space,
    enumerate_group,
    local_action_kernel,
    left_multiplication,
    normalize_degree2,
    presentation_from_config,
    validate_presentation,
)
from spanfact.perm import Perm, compose, evaluate, parse_perm

from oracles import reference_local_action_kernel, reference_normalize_degree2, reference_validate_presentation
from test_random_instances import random_digraph

S5CYCLE = Perm([1, 2, 3, 4, 0])
H_EX2 = Perm([2, 3, 0, 1, 4])


def a5():
    return enumerate_group([S5CYCLE, H_EX2])


def test_a5_order():
    g = enumerate_group([parse_perm("(0 1 2 3 4)"), parse_perm("(0 1 2)", n=5)])
    assert len(g) == 60


def test_trivial_group():
    g = enumerate_group([])
    assert len(g) == 1


def test_morris_group_order():
    p = morris_presentation()
    assert len(p.group) == 24


def test_closure_cap():
    with pytest.raises(SizeCapError):
        enumerate_group([S5CYCLE, H_EX2], cap=10)


def assert_words_are_first_bfs_words(group):
    """Each element is the product of the generators along its word (symbol
    k + 1 is generators[k], rightmost first), and the word is as long as the
    element's distance from the identity in a separate BFS."""
    gens = [g.images for g in group.generators]
    ident = tuple(range(group.degree))
    depth = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[x] for x in g)
                if h not in depth:
                    depth[h] = depth[g] + 1
                    nxt.append(h)
        frontier = nxt
    assert len(depth) == len(group) == len(group.words)
    for elem, word in zip(group.elements, group.words):
        acc = ident
        for sym in reversed(word):
            acc = tuple(gens[sym - 1][x] for x in acc)
        assert acc == tuple(elem.images)
        assert len(word) == depth[acc]


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
# the benchmark's configs and the two large ones that only the tests use
CONFIGS = sorted(BENCH_CONFIGS.glob("*.json")) + sorted(Path(__file__).with_name("configs").glob("*.json"))


def _fixture_and_config_presentations():
    fxs = [load_fixture(name) for name in ("a5-ex2", "a5-ex3", "morris")]
    fxs += [instance_from_config(json.loads(p.read_text())) for p in CONFIGS]
    return [fx.coset.presentation for fx in fxs]


def test_group_words_multiply_to_their_elements():
    groups = [p.group for p in _fixture_and_config_presentations()]
    assert len(groups) == 8
    for group in groups:
        assert_words_are_first_bfs_words(group)


def test_factor_group_words_evaluate_to_their_elements():
    """On G = <F1, F2>, perm.evaluate reads each word back to its element."""
    digraphs = [load_fixture(name).digraph for name in ("toy:3", "toy:4", "toy:6", "shift:5", "shift:9", "morris")]
    for seed in range(10):
        rng = random.Random(seed)
        digraphs.append(random_digraph(rng, rng.randint(4, 6)))
    for d in digraphs:
        for mask in range(min(4, 1 << d.alt_decomposition.r)):
            f = factorization_at(d, mask)
            group = enumerate_group([f.f1, f.f2])
            assert_words_are_first_bfs_words(group)
            assert all(evaluate(w, f.f1, f.f2) == e for e, w in zip(group.elements, group.words))


def assert_labels_right_cosets(space, size):
    """coset_of labels the right cosets gH, each of size elements; coset 0 is
    H and each representative is the least index in its coset."""
    group, coset_of = space.group, space.coset_of
    assert len(coset_of) == len(group)
    members = [[i for i, c in enumerate(coset_of) if c == cid] for cid in range(len(space))]
    # the labels partition the group into cosets of the given size
    assert all(len(c) == size for c in members)
    assert members[0] == sorted(space.subgroup_elements)
    H = [group.elements[h] for h in space.subgroup_elements]
    for rep, c in zip(space.representative, members):
        assert rep == c[0]
        assert sorted(group.index[compose(group.elements[rep], h)] for h in H) == c


def test_coset_space_a5():
    g = a5()
    space = coset_space(g, [H_EX2])
    assert len(space) == 30
    assert_labels_right_cosets(space, 2)


def test_coset_space_morris():
    p = morris_presentation()
    space = coset_space(p.group, list(p.H_generators))
    assert len(space) == 6
    assert len(space.subgroup_elements) == 4
    assert_labels_right_cosets(space, 4)


def test_coset_space_trivial_subgroup():
    space = coset_space(a5(), [])
    assert len(space) == 60 and space.subgroup_elements == (0,)
    assert_labels_right_cosets(space, 1)


def test_coset_space_whole_group():
    g = a5()
    space = coset_space(g, [S5CYCLE, H_EX2])
    assert len(space) == 1


def test_not_a_subgroup():
    g = enumerate_group([Perm([1, 0, 2])])
    with pytest.raises(NotASubgroupError):
        coset_space(g, [Perm([0, 2, 1])])


def ex2_presentation() -> Presentation:
    g = a5()
    hs = compose(H_EX2, S5CYCLE)
    return Presentation(g, (H_EX2,), (g.index[S5CYCLE], g.index[hs]))


def test_validate_morris():
    report = validate_presentation(morris_presentation())
    assert report.valid
    assert [c.passed for c in report.checks] == [True] * 4


def test_validate_a5_ex2():
    assert validate_presentation(ex2_presentation()).valid


def test_validate_s_in_h_fails_condition_one():
    g = a5()
    p = Presentation(g, (H_EX2,), (g.index[H_EX2], g.index[S5CYCLE]))
    report = validate_presentation(p)
    assert not report.checks[0].passed
    assert not report.valid


# config presentations on which exactly one of the four conditions fails,
# keyed by that condition's label (found by a seeded search over groups of
# degree <= 5)
FAILING_ALONE = {
    "S_disjoint_from_H": {
        "group_generators": ["(0 1 2 3)"],
        "H_generators": ["(0 2)(1 3)"],
        "S": ["(0 2)(1 3)", "(0 1 2 3)"],
    },
    "HSH_equals_SH": {
        "group_generators": ["(0 3)", "(0 2)(1 3)"],
        "H_generators": ["(0 3)"],
        "S": ["(0 2 3 1)", "(1 2)"],
    },
    "S_one_rep_per_coset": {
        "group_generators": ["(0 1 2 3)"],
        "H_generators": ["(0 2)(1 3)"],
        "S": ["(0 1 2 3)", "(0 3 2 1)"],
    },
    "S_and_H_generate_G": {
        "group_generators": ["(0 1 2)", "(1 2)"],
        "H_generators": [],
        "S": ["(0 2 1)", "(0 1 2)"],
    },
}


@pytest.mark.parametrize("label", sorted(FAILING_ALONE))
def test_validate_one_condition_failing(label):
    report = validate_presentation(presentation_from_config(FAILING_ALONE[label]))
    labels = ("S_disjoint_from_H", "HSH_equals_SH", "S_one_rep_per_coset", "S_and_H_generate_G")
    assert report.checks == tuple(ConditionCheck(lb, lb != label) for lb in labels)


def test_validation_invariant_under_right_h_adjustment():
    # replacing u in S by u*k for k in H gives identical verdicts
    p = morris_presentation()
    g = p.group
    H = [g.elements[i] for i in coset_space(g, list(p.H_generators)).subgroup_elements]
    base = [c.passed for c in validate_presentation(p).checks]
    s_i, t_i = p.S
    for k in H:
        for which in (0, 1):
            new_s = list(p.S)
            new_s[which] = g.index[compose(g.elements[new_s[which]], k)]
            q = Presentation(g, p.H_generators, tuple(new_s))
            assert [c.passed for c in validate_presentation(q).checks] == base


def _outcome(fn, p):
    """fn(p), or the type and message of what it raised."""
    try:
        return fn(p)
    except SpanfactError as exc:
        return type(exc), str(exc)


def _random_presentation(rng: random.Random) -> Presentation:
    """Degree <= 5, 0-2 H generators (one in ten drawn from the whole
    symmetric group, so it may lie outside G) and 0-3 S entries."""
    d = rng.randint(1, 5)

    def perm():
        images = list(range(d))
        rng.shuffle(images)
        return Perm(images)

    g = enumerate_group([perm() for _ in range(rng.randint(1, 2))])
    H = tuple(g.elements[rng.randrange(len(g))] if rng.random() < 0.9 else perm() for _ in range(rng.randint(0, 2)))
    return Presentation(g, H, tuple(rng.randrange(len(g)) for _ in range(rng.randint(0, 3))))


def test_presentation_checks_match_element_set_reference():
    """The coset-id readings give the reports, normalizations, kernels and
    errors of the element-set references, on every fixture and config and
    on 2,000 seeded random presentations, which meet all 16 pass/fail
    patterns of the four conditions."""
    rng = random.Random(25)
    cases = _fixture_and_config_presentations() + [_random_presentation(rng) for _ in range(2000)]
    patterns = set()
    for p in cases:
        report = _outcome(validate_presentation, p)
        assert report == _outcome(reference_validate_presentation, p)
        if isinstance(report, ValidationReport):
            patterns.add(tuple(c.passed for c in report.checks))
        if len(p.S) == 2:
            assert _outcome(normalize_degree2, p) == _outcome(reference_normalize_degree2, p)
            assert _outcome(local_action_kernel, p) == _outcome(reference_local_action_kernel, p)
    assert len(patterns) == 16


def test_coset_digraph_closes_h_once(monkeypatch):
    s5_r12 = json.loads((BENCH_CONFIGS / "s5-r12.json").read_text())["presentation"]
    closed = []

    def counting(generators, *args):
        closed.append(tuple(generators))
        return enumerate_group(generators, *args)

    monkeypatch.setattr(groups, "enumerate_group", counting)
    for p in (ex2_presentation(), presentation_from_config(s5_r12)):
        closed.clear()
        build_coset_digraph(p)
        assert closed == [p.H_generators]


def test_normalize_a5_already_normal():
    p = ex2_presentation()
    res = normalize_degree2(p)
    assert res.swapped
    assert res.presentation.S == p.S
    # hs = t * k with k the identity
    assert p.group.elements[res.k_index].is_identity()


def test_normalize_trivial_h_no_swap():
    # Cayley presentation of Z6 = <(012345)> with S = {+1, +2}, H trivial
    rot = Perm([1, 2, 3, 4, 5, 0])
    g = enumerate_group([rot])
    p = Presentation(g, (), (g.index[rot], g.index[compose(rot, rot)]))
    assert validate_presentation(p).valid
    res = normalize_degree2(p)
    assert not res.swapped
    assert res.presentation == p


def test_normalize_morris():
    p = morris_presentation()
    res = normalize_degree2(p)
    assert res.swapped
    h = p.group.elements[res.h_index]
    assert not h.is_identity()
    # rewritten S' = {s, hs}
    s_i = p.S[0]
    hs = p.group.mul(res.h_index, s_i)
    assert res.presentation.S == (s_i, hs)


def test_local_action_kernel_morris():
    res = local_action_kernel(morris_presentation())
    assert len(res.kernel_elements) == 2
    assert not res.normal_in_group


def test_local_action_kernel_trivial_h():
    rot = Perm([1, 2, 3, 4, 5, 0])
    g = enumerate_group([rot])
    p = Presentation(g, (), (g.index[rot], g.index[compose(rot, rot)]))
    res = local_action_kernel(p)
    assert len(res.kernel_elements) == 1
    assert res.normal_in_group


def test_local_action_kernel_a5():
    res = local_action_kernel(ex2_presentation())
    assert len(res.kernel_elements) == 1
    assert res.normal_in_group


def test_left_multiplication_is_group_action():
    g = a5()
    space = coset_space(g, [H_EX2])
    lam_s = left_multiplication(space, S5CYCLE)
    lam_h = left_multiplication(space, H_EX2)
    prod = left_multiplication(space, compose(S5CYCLE, H_EX2))
    assert compose(lam_s, lam_h) == prod


def test_presentation_from_config():
    doc = {
        "group_generators": ["(0 1 2 3 4)", "(0 2)(1 3)"],
        "H_generators": ["(0 2)(1 3)"],
        "S": ["(0 1 2 3 4)", "(0 3 4 2 1)"],
        "name": "ex2",
    }
    p = presentation_from_config(doc)
    assert len(p.group) == 60
    assert p.name == "ex2"
    assert validate_presentation(p).valid


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({}, "group_generators"),
        ({"group_generators": [], "H_generators": [], "S": []}, "group_generators"),
        (
            {"group_generators": ["(0 1"], "H_generators": [], "S": []},
            "(0 1",
        ),
        (
            {
                "group_generators": ["(0 1 2 3 4)"],
                "H_generators": [],
                "S": ["(0 1)"],
            },
            "(0 1)",
        ),
    ],
)
def test_config_errors_cite_field_and_token(doc, needle):
    with pytest.raises(ConfigError) as err:
        presentation_from_config(doc)
    assert needle in str(err.value)


def test_fixture_names():
    assert load_fixture("a5-ex2").digraph.n == 30
    assert load_fixture("morris").digraph.n == 6
    with pytest.raises(ConfigError):
        load_fixture("nonsense")
