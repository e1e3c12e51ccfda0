import json
import random

import pytest
from hypothesis import example, given, strategies as st

from spanfact import spanning
from spanfact.cli import instance_from_config
from spanfact.errors import SizeMismatchError
from spanfact.perm import (
    ImageBlob,
    Perm,
    compose,
    evaluate,
    cycle_string,
    first_agreeing_pair,
    parse_perm,
    parse_word,
    word_str,
)
from spanfact.digraph import build_toy, factorization_at, mask_action
from spanfact.groups import enumerate_group
from spanfact.fixtures import load_fixture

from test_groups import CONFIGS

TOY3_F1 = Perm([1, 2, 0, 4, 5, 3])
TOY3_F2 = Perm([4, 5, 3, 1, 2, 0])


def perms(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(Perm)
    )


def test_compose_identity():
    p = Perm([2, 0, 1, 3])
    assert compose(p, Perm.identity(4)) == p
    assert compose(Perm.identity(4), p) == p


def test_toy_x_composition():
    assert compose(TOY3_F2.inverse(), TOY3_F1) == Perm([3, 4, 5, 0, 1, 2])


def test_compose_inverse_law():
    assert compose(TOY3_F1, TOY3_F1.inverse()).is_identity()


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(Perm.identity(3), Perm.identity(4))


def test_inverse_examples():
    assert Perm.identity(5).inverse() == Perm.identity(5)
    assert TOY3_F2.inverse() == Perm([5, 3, 4, 2, 0, 1])


def test_cycle_type_examples():
    assert Perm.identity(6).cycle_type() == (1, 1, 1, 1, 1, 1)
    assert TOY3_F2.cycle_type() == (6,)


def test_orbits_examples():
    x = Perm([3, 4, 5, 0, 1, 2])
    assert x.cycles() == ((0, 3), (1, 4), (2, 5))
    assert Perm.identity(4).cycles() == ((0,), (1,), (2,), (3,))


def test_is_derangement():
    assert not Perm.identity(3).is_derangement()
    assert Perm([3, 4, 5, 0, 1, 2]).is_derangement()
    assert not Perm([0, 2, 1]).is_derangement()


def test_evaluate_examples():
    assert evaluate((), TOY3_F1, TOY3_F2).is_identity()
    assert evaluate((1,), TOY3_F1, TOY3_F2) == TOY3_F1
    assert evaluate((2, 1), TOY3_F1, TOY3_F2) == compose(TOY3_F2, TOY3_F1)
    assert evaluate((2, 1), TOY3_F1, TOY3_F2) == Perm([5, 3, 4, 2, 0, 1])


def test_evaluate_inverse_symbols():
    x = evaluate((-2, 1), TOY3_F1, TOY3_F2)
    assert x == compose(TOY3_F2.inverse(), TOY3_F1)


@given(perms(), perms(), perms())
def test_compose_associative(a, b, c):
    n = max(a.n, b.n, c.n)
    a, b, c = (Perm(list(p.images) + list(range(p.n, n))) for p in (a, b, c))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perms())
def test_orbits_of_inverse_same_partition(p):
    part = {frozenset(c) for c in p.cycles()}
    part_inv = {frozenset(c) for c in p.inverse().cycles()}
    assert part == part_inv


@given(perms(max_n=12))
def test_cycle_type_is_sorted_cycle_lengths(p):
    assert p.cycle_type() == tuple(sorted(len(c) for c in p.cycles()))


@given(perms())
def test_derangement_iff_no_fixed_cycle(p):
    assert p.is_derangement() == (1 not in p.cycle_type())


@given(
    st.lists(st.sampled_from([1, 2, -1, -2]), max_size=6),
    st.lists(st.sampled_from([1, 2, -1, -2]), max_size=6),
)
def test_evaluate_concat_homomorphism(u, v):
    d, f = build_toy(3)
    u, v = tuple(u), tuple(v)
    lhs = evaluate(u + v, f.f1, f.f2)
    rhs = compose(evaluate(u, f.f1, f.f2), evaluate(v, f.f1, f.f2))
    assert lhs == rhs


@given(perms())
def test_cycle_string_round_trip(p):
    assert parse_perm(cycle_string(p), n=p.n) == p


@given(perms())
def test_oneline_round_trip(p):
    assert parse_perm("[" + ",".join(map(str, p.images)) + "]") == p


def test_parse_perm_forms():
    assert parse_perm("(0 2)(1 3)") == Perm([2, 3, 0, 1])
    assert parse_perm("()", n=4) == Perm.identity(4)
    assert parse_perm("[1,2,0]") == Perm([1, 2, 0])
    with pytest.raises(ValueError):
        parse_perm("(0 2")
    with pytest.raises(ValueError):
        parse_perm("(0 5)", n=3)


@given(st.lists(st.sampled_from([1, 2, -1, -2]), max_size=8))
def test_word_str_round_trip(syms):
    w = tuple(syms)
    assert parse_word(word_str(w)) == w


def test_word_str_rejects_a_bad_symbol():
    with pytest.raises(ValueError, match="bad word symbol 7"):
        word_str((1, 2, 7))


@pytest.mark.parametrize("word, bad", [((0,), 0), ((1, 3), 3), ((-3, 2, -1), -3)])
def test_evaluate_rejects_a_bad_symbol(word, bad):
    d, f = build_toy(3)
    with pytest.raises(ValueError, match=f"^bad word symbol {bad}$"):
        evaluate(word, f.f1, f.f2)


def test_word_str_orientation():
    # "112" means F2 after F1 after F1
    w = parse_word("112")
    assert w == (2, 1, 1)
    d, f = build_toy(3)
    assert evaluate(w, f.f1, f.f2) == compose(f.f2, compose(f.f1, f.f1))


def naive_first_agreeing(images, image, start):
    return next(
        (j for j in range(start, len(images)) if any(a == b for a, b in zip(images[j], image))),
        None,
    )


@st.composite
def image_lists(draw):
    """Rows of the cyclic Latin square on n points (distinct shifts never
    agree, equal ones agree everywhere) with a few entries overwritten, so
    that agreements land in any lane, the last one included; n = 257 and 300
    need 2-byte lanes."""
    n = draw(st.sampled_from([1, 2, 3, 7, 255, 256, 257, 300]))
    shifts = draw(st.lists(st.integers(0, n - 1), max_size=6))
    images = [[(v + s) % n for v in range(n)] for s in shifts]
    if images:
        edits = st.tuples(st.integers(0, len(images) - 1), st.integers(0, n - 1), st.integers(0, n - 1))
        for i, v, value in draw(st.lists(edits, max_size=3)):
            images[i][v] = value
    return n, images


@given(image_lists())
@example((4, [[0, 1, 2, 3], [1, 2, 3, 0], [1, 3, 0, 2], [0, 0, 1, 1]]))
def test_first_agreeing_pair_matches_pairwise_scan(case):
    _, images = case
    naive = next(
        ((i, j) for i in range(len(images)) for j in range(i + 1, len(images))
         if any(a == b for a, b in zip(images[i], images[j]))),
        None,
    )
    assert first_agreeing_pair(images) == naive


@given(image_lists(), st.data())
def test_image_blob_first_agreeing_matches_scan(case, data):
    n, images = case
    blob = ImageBlob(n, images)
    probe = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for image in (*images, probe):
        assert bool(blob.agrees_packed(blob.pack(image))) == (naive_first_agreeing(images, image, 0) is not None)


@given(image_lists(), st.integers(0, 6))
def test_image_blob_pop_restores_push(case, keep):
    n, images = case
    keep = min(keep, len(images))
    blob = ImageBlob(n, images)
    for _ in range(len(images) - keep):
        blob.pop()
    assert (blob.count, blob.value) == (keep, ImageBlob(n, images[:keep]).value)
    for image in images:
        assert bool(blob.agrees_packed(blob.pack(image))) == (naive_first_agreeing(images[:keep], image, 0) is not None)


@pytest.mark.parametrize("n", [3, 256, 257, 300])
def test_agreement_in_the_last_lane_only(n):
    images = [[(v + s) % n for v in range(n)] for s in range(3)]
    images[2][n - 1] = images[1][n - 1]
    assert first_agreeing_pair(images) == (1, 2)
    blob = ImageBlob(n, images[:2])
    assert blob.agrees_packed(blob.pack(images[2]))
    blob.pop()
    assert not blob.agrees_packed(blob.pack(images[2]))


def reference_inverse(images):
    out = [0] * len(images)
    for v, w in enumerate(images):
        out[w] = v
    return out


def reference_cycles(images):
    """Cycles of a plain image list, each from its least point, by least point."""
    seen, out = set(), []
    for start in range(len(images)):
        if start not in seen:
            cycle = [start]
            while images[cycle[-1]] != start:
                cycle.append(images[cycle[-1]])
            seen.update(cycle)
            out.append(tuple(cycle))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 5, 255, 256, 257, 300])
def test_perm_matches_a_list_reference_on_both_sides_of_256(n):
    """Up to 256 points a Perm stores bytes and above them a tuple; either
    way every operation reads as on plain image lists."""
    rng = random.Random(n)
    a, b = rng.sample(range(n), n), rng.sample(range(n), n)
    pa, pb = Perm(a), Perm(b)
    assert type(pa.images) is type(compose(pa, pb).images) is type(pa.inverse().images) is (bytes if n <= 256 else tuple)
    assert list(compose(pa, pb).images) == [a[v] for v in b]
    assert list(pa.inverse().images) == reference_inverse(a)
    factors = {1: a, 2: b, -1: reference_inverse(a), -2: reference_inverse(b)}
    word = (2, -1, 1, -2, 2, 2)
    ref = list(range(n))
    for sym in reversed(word):
        ref = [factors[sym][v] for v in ref]
    assert list(evaluate(word, pa, pb).images) == ref
    assert pa.cycles() == reference_cycles(a)
    assert pa.cycle_type() == tuple(sorted(map(len, reference_cycles(a))))
    assert [pa(v) for v in range(n)] == list(pa.images) == a
    assert repr(pa) == f"Perm({a})"
    for same in (Perm(tuple(a)), Perm(iter(a)), Perm(a, check=False), compose(pa, Perm.identity(n))):
        assert same == pa and hash(same) == hash(pa)
    assert (pa == pb) == (a == b)
    assert compose(pa, pa.inverse()) == Perm.identity(n)
    with pytest.raises(SizeMismatchError, match=f"degree mismatch: {n} != {n + 1}"):
        compose(pa, Perm.identity(n + 1))
    # 1-byte lanes up to 256 points, 2-byte lanes above
    width = 1 if n <= 256 else 2
    blob = ImageBlob(n, [pa.images, pb.images])
    probes = [pa, pb, compose(pa, pb), compose(pb, pa), pa.inverse(), Perm.identity(n)]
    probes.append(Perm([(v + 1) % n for v in a]))
    for probe in probes:
        packed = blob.pack(probe.images)
        assert len(packed) == width * n and packed == blob.pack(list(probe.images))
        agrees = any(probe(v) in (a[v], b[v]) for v in range(n))
        assert bool(blob.agrees_packed(packed)) == agrees


FIXTURES = ["toy:3", "toy:5", "shift:7", "shift:101", "a5-ex2", "a5-ex3", "morris"]


@pytest.mark.parametrize("source", FIXTURES + [p.name for p in CONFIGS])
def test_fixtures_and_configs_store_bytes(source):
    """Every fixture and test config has at most 256 vertices, so F1, F2,
    the group elements, word set images and mask maps are all bytes: the
    fast product cannot quietly fall back to tuples."""
    if source in FIXTURES:
        fx = load_fixture(source)
    else:
        fx = instance_from_config(json.loads(next(p for p in CONFIGS if p.name == source).read_text()))
    d = fx.digraph
    f = factorization_at(d, 0)
    perms = [f.f1, f.f2, f.x()]
    if fx.coset is not None:
        perms += fx.coset.presentation.group.elements
    perms += spanning.WordSet.from_words([(), (1,), (-2,), (2, 1), (-1, 2, 2)], f).images
    if source in ("toy:3", "toy:5", "shift:7", "morris"):
        perms += spanning.search_sharply_transitive(f, 0).images
    assert all(type(p.images) is bytes for p in perms)
    r = d.alt_decomposition.r
    actions = [mask_action(d, phi) for phi in fx.aut_generators()]
    group = enumerate_group(actions or [Perm.identity(2 * r)])
    assert all(type(e.images) is bytes for e in group.elements)
