import gc
import json
import random
import struct
import weakref
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest

from spanfact import digraph
from spanfact.blocks import law_suite
from spanfact.digraph import (
    Digraph2,
    bitmask_of,
    build_coset_digraph,
    build_doubled_cycle,
    build_shift,
    build_toy,
    classify_factorizations,
    enumerate_factorizations,
    factor_images,
    factorization_at,
    is_digraph_automorphism,
    mask_action,
)
from spanfact.errors import PreconditionError, SizeCapError, StrongConnectivityError
from spanfact.fixtures import load_fixture
from spanfact.groups import DEFAULT_GROUP_CAP, enumerate_group, normalize_degree2, presentation_from_config
from spanfact.perm import Perm, images_cycle_type

from oracles import (
    burnside_class_count,
    conjugation_table,
    f1_by_tail_position,
    factorization_classes,
    reference_classify,
)


def test_build_toy_values():
    d, f = build_toy(3)
    assert d.n == 6
    assert f.f1 == Perm([1, 2, 0, 4, 5, 3])
    assert f.f2 == Perm([4, 5, 3, 1, 2, 0])
    assert f.x() == Perm([3, 4, 5, 0, 1, 2])


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_toy_order(m):
    d, _ = build_toy(m)
    assert d.n == 2 * m


def test_toy_m_too_small():
    with pytest.raises(PreconditionError):
        build_toy(2)


def test_strong_connectivity_rejected():
    for out_edges in ([(1, 1), (0, 0), (3, 3), (2, 2)], []):
        with pytest.raises(StrongConnectivityError, match="^digraph is not strongly connected$"):
            Digraph2(out_edges)


def test_in_degree_rejected():
    with pytest.raises(PreconditionError, match=r"^vertices with in-degree != 2: \[1, 2\]$"):
        Digraph2([(1, 1), (1, 0), (0, 2)])
    # a head out of range is refused before any in-degree is counted
    with pytest.raises(PreconditionError, match="^edge head 3 out of range$"):
        Digraph2([(1, 1), (0, 3), (0, -1)])


def test_coset_digraph_sizes():
    assert load_fixture("a5-ex2").digraph.n == 30
    assert load_fixture("a5-ex3").digraph.n == 30
    assert load_fixture("morris").digraph.n == 6


def test_invalid_presentation_rejected():
    from spanfact.groups import Presentation, enumerate_group

    s = Perm([1, 2, 3, 4, 0])
    h = Perm([2, 3, 0, 1, 4])
    g = enumerate_group([s, h])
    bad = Presentation(g, (h,), (g.index[h], g.index[s]))
    with pytest.raises(PreconditionError):
        build_coset_digraph(bad)


def test_initial_factorization_valid():
    for name in ("a5-ex2", "a5-ex3", "morris"):
        d = load_fixture(name).digraph
        f = factorization_at(d, 0)
        assert f.is_valid()
        assert f.bitmask == 0


def test_doubled_two_cycle_forced():
    d = build_doubled_cycle(2)
    f = factorization_at(d, 0)
    assert f.f1 == Perm([1, 0])
    assert f.f2 == Perm([1, 0])


def test_alternating_cycles_toy():
    d, _ = build_toy(3)
    dec = d.alt_decomposition
    assert dec.r == 3
    assert all(len(c) == 4 for c in dec.cycles)


def test_alternating_cycles_counts():
    assert load_fixture("a5-ex3").digraph.alt_decomposition.r == 6
    assert load_fixture("a5-ex2").digraph.alt_decomposition.r == 10
    # x = id on the doubled 2-cycle, so each doubled out-pair is its own
    # 2-edge alternating cycle
    assert build_doubled_cycle(2).alt_decomposition.r == 2
    assert all(len(c) == 2 for c in build_doubled_cycle(2).alt_decomposition.cycles)


def test_x_orbit_structure_of_fixtures():
    # computed structure: ex3 has six 5-cycles, ex2 ten 3-cycles
    for name, (m, r) in (("a5-ex3", (5, 6)), ("a5-ex2", (3, 10))):
        d = load_fixture(name).digraph
        x = factorization_at(d, 0).x()
        lens = sorted(len(c) for c in x.cycles())
        assert lens == [m] * r, name


def test_alt_cycles_match_orbit_description():
    # the cycle through v's out-edges consists of the F1- and F2-out-edges
    # of the x-orbit of v, for every enumerated factorization
    d, _ = build_toy(4)
    dec = d.alt_decomposition
    cycle_of_edge = {e: i for i, cyc in enumerate(dec.cycles) for e in cyc}
    for f in enumerate_factorizations(d):
        x = f.x()
        for v in range(d.n):
            orbit = next(c for c in x.cycles() if v in c)
            expect = set()
            for u in orbit:
                for sl in (0, 1):
                    expect.add((u, sl))
            cyc = dec.cycles[cycle_of_edge[(v, 0)]]
            assert set(cyc) == expect


def test_enumeration_counts_and_complement():
    d, _ = build_toy(3)
    facs = enumerate_factorizations(d)
    assert len(facs) == 8
    full = 7
    for f in facs:
        assert f.is_valid()
        g = facs[f.bitmask ^ full]
        assert (f.f1, f.f2) == (g.f2, g.f1)
    assert facs[0].f1 == factorization_at(d, 0).f1


def test_enumeration_cap(monkeypatch):
    fx = load_fixture("a5-ex2")
    d = fx.digraph
    monkeypatch.setattr(digraph, "DEFAULT_CYCLE_CAP", 9)
    with pytest.raises(SizeCapError):
        enumerate_factorizations(d)
    with pytest.raises(SizeCapError):
        classify_factorizations(d, fx.aut_generators(), allow_swap=True)
    with pytest.raises(SizeCapError):
        law_suite(d, [])


# even vertices have parallel edges (3 parallel cycles and one 6-cycle)
MIXED_6 = tuple((v + 1, v + 1) if v % 2 == 0 else ((v + 1) % 6, (v + 3) % 6) for v in range(6))


def test_bitmask_roundtrip():
    for name in ("a5-ex3", "morris", "mixed-6"):
        d = Digraph2(MIXED_6) if name == "mixed-6" else load_fixture(name).digraph
        # the bit of a cycle of two parallel edges does not change the factorization
        parallel = sum(1 << j for j, cyc in enumerate(d.alt_decomposition.cycles) if len(cyc) == 2)
        assert (parallel != 0) == (name == "mixed-6")
        for b in range(1 << d.alt_decomposition.r):
            f = factorization_at(d, b)
            assert bitmask_of(d, f.f1) == b & ~parallel, (name, b)
            assert factorization_at(d, b | parallel).f1 == f.f1, (name, b)


def test_ex3_cycle_type_families():
    d = load_fixture("a5-ex3").digraph
    facs = enumerate_factorizations(d)
    assert len(facs) == 64
    cnt = Counter((f.f1.cycle_type(), f.f2.cycle_type()) for f in facs)
    assert cnt == {
        ((3, 3, 3, 3, 3, 5, 10), (3, 3, 3, 3, 3, 5, 10)): 12,
        ((3, 3, 3, 3, 18), (3, 3, 3, 3, 18)): 20,
        ((3, 12, 15), (3, 12, 15)): 20,
        ((5, 10, 15), (5, 10, 15)): 12,
    }


def test_left_multiplications_are_automorphisms():
    for name in ("a5-ex2", "a5-ex3", "morris"):
        fx = load_fixture(name)
        for lam in fx.aut_generators():
            assert is_digraph_automorphism(lam, fx.digraph)


def test_classify_trivial_group_no_swap():
    d, _ = build_toy(3)
    classes = classify_factorizations(d, [], allow_swap=False)
    assert len(classes) == 8
    assert all(c.size == 1 for c in classes)


def test_classify_swap_only_pairs_complements():
    d, _ = build_toy(3)
    classes = classify_factorizations(d, [], allow_swap=True)
    assert len(classes) == 4
    assert all(c.size == 2 for c in classes)


def test_classify_ex3():
    fx = load_fixture("a5-ex3")
    classes = classify_factorizations(fx.digraph, fx.aut_generators(), allow_swap=True)
    assert len(classes) == 4
    assert sum(c.size for c in classes) == 64
    sizes = sorted(c.size for c in classes)
    assert sizes == [12, 12, 20, 20]


def composed_conjugation_tables(d, generators) -> set[tuple[int, ...]]:
    """Every composition of the generators' conjugation tables, the
    identity included, as the image tuple of every mask."""
    tables = [conjugation_table(d, phi) for phi in generators]
    identity = tuple(range(1 << d.alt_decomposition.r))
    found = {identity}
    frontier = [identity]
    while frontier:
        images = frontier.pop()
        for table in tables:
            composed = tuple(table[c] for c in images)
            if composed not in found:
                found.add(composed)
                frontier.append(composed)
    return found


def signed_image(e: bytes | tuple[int, ...], b: int) -> int:
    """The image of mask b under the signed permutation e of the bit values
    2s + v: the value v of bit s of b becomes bit j of the image, valued w,
    where e[2s + v] = 2j + w."""
    out = 0
    for s in range(len(e) // 2):
        j, w = divmod(e[2 * s + (b >> s & 1)], 2)
        out |= w << j
    return out


def lane_tables(group, r: int) -> list[tuple[int, ...]]:
    """Per element of the mask group, its image of every mask."""
    return [tuple(signed_image(e.images, b) for b in range(1 << r)) for e in group.elements]


@pytest.mark.parametrize("name", ["a5-ex2", "a5-ex3", "morris", "doubled-4-cycle"])
def test_mask_action_matches_conjugation(name):
    """Each element of the mask group is one composition of the generators'
    conjugation tables, and each composition is one element, with each mask
    read as the factorization it names: the bit of a cycle of two parallel
    edges names none."""
    d, generators = instance(name)
    r = d.alt_decomposition.r
    group = enumerate_group([mask_action(d, phi) for phi in generators])
    assert group.elements[0] == Perm.identity(2 * r)
    tables = lane_tables(group, r)
    assert len(set(tables)) == len(tables)
    named = [bitmask_of(d, factorization_at(d, b).f1) for b in range(1 << r)]
    assert {tuple(named[c] for c in t) for t in tables} == {
        tuple(named[c] for c in t) for t in composed_conjugation_tables(d, generators)
    }


def test_mask_action_permutes_parallel_cycles():
    """Every cycle of the doubled 4-cycle is two parallel edges, one per
    tail, and the rotation carries cycle s onto cycle s + 1: it moves bit s
    of a mask to bit s + 1, unflipped."""
    d = build_doubled_cycle(4)
    rot = Perm([1, 2, 3, 0])
    assert is_digraph_automorphism(rot, d)
    assert mask_action(d, rot) == Perm([2, 3, 4, 5, 6, 7, 0, 1])
    group = enumerate_group([mask_action(d, rot)])
    assert len(group) == 4
    assert lane_tables(group, 4) == [
        tuple((b << k | b >> (4 - k)) & 15 for b in range(16)) for k in range(4)
    ]


@pytest.mark.parametrize(
    "name",
    ["a5-ex2", "a5-ex3", "morris", "s5-r12", "agl18-r14", "c2wrc4-r16", "s5-r20", "psl27-r21",
     "doubled-3-cycle", "doubled-4-cycle"],
)
def test_mask_action_is_the_conjugate_mask(name):
    """Each generator's mask map sends a mask to the bitmask of phi F1 phi^-1,
    on mask 0, every one-bit mask and seeded random ones, with each mask read
    as the factorization it names: the bit of a cycle of two parallel edges
    names none."""
    d, generators = instance(name)
    r = d.alt_decomposition.r
    rng = random.Random(r)
    masks = [0, *(1 << j for j in range(r)), *(rng.randrange(1 << r) for _ in range(100))]
    for phi in generators:
        images = mask_action(d, phi).images
        named = [bitmask_of(d, factorization_at(d, signed_image(images, b)).f1) for b in masks]
        assert named == conjugation_table(d, phi, masks), phi


def test_mask_group_lanes_are_the_affine_maps():
    """At r = 18 a mask spans three byte columns, the top one partial.  The
    group holds the identity and a random signed permutation and is closed
    under it, and on sampled masks every lane is its element's map."""
    rng = random.Random(18)
    r = 18
    target = list(range(r))
    rng.shuffle(target)
    flip = rng.getrandbits(r)
    images = [0] * (2 * r)
    for s, j in enumerate(target):
        for v in (0, 1):
            images[2 * s + v] = 2 * j + (v ^ flip >> j & 1)
    gen = Perm(images)
    group = enumerate_group([gen])
    elements = set(group.elements)
    assert len(elements) == len(group)
    assert {Perm.identity(2 * r), gen} <= elements
    for e in group.elements:
        assert Perm([gen(x) for x in e.images]) in elements
    columns = digraph._mask_columns(group.elements, r)
    assert len(columns) == 3
    unpack = struct.Struct(f"<{len(group)}I").unpack
    for b in [0, (1 << r) - 1, *rng.sample(range(1 << r), 4000)]:
        x = 0
        for k, column in enumerate(columns):
            x ^= column[b >> 8 * k & 255]
        for e, image in zip(group.elements, unpack(x.to_bytes(4 * len(group), "little"))):
            assert image == signed_image(e.images, b), b


def translation(r: int, t: int) -> Perm:
    """The mask map b -> b ^ t as a signed permutation: 2s + v to
    2s + (v ^ bit s of t)."""
    return Perm([x ^ (t >> (x >> 1) & 1) for x in range(2 * r)])


@pytest.mark.parametrize(
    "name", ["toy:3", "toy:5", "morris", "a5-ex3", "a5-ex2", "doubled-3-cycle", "doubled-4-cycle"]
)
@pytest.mark.parametrize("allow_swap", [False, True])
def test_mask_maps_form_a_group(name, allow_swap):
    """The automorphisms' mask maps, with the translation by each parallel
    cycle's bit and, with the swap, by every bit, close into a group of
    bijections on the masks, and Burnside's mean number of masks fixed by
    its elements is the class count."""
    d, generators = instance(name)
    r = d.alt_decomposition.r
    maps = [mask_action(d, phi) for phi in generators]
    maps += [translation(r, 1 << j) for j, (tails, _) in enumerate(d._cycle_rows) if len(tails) == 1]
    if allow_swap:
        maps.append(translation(r, (1 << r) - 1))
    tables = lane_tables(enumerate_group(maps or [Perm.identity(2 * r)]), r)
    masks = tuple(range(1 << r))
    assert all(tuple(sorted(t)) == masks for t in tables)
    found = set(tables)
    assert len(found) == len(tables)
    assert all(itemgetter(*t)(g) in found for g in tables for t in tables)
    fixed = sum(t[b] == b for t in tables for b in masks)
    assert fixed % len(tables) == 0
    classes = classify_factorizations(d, generators, allow_swap)
    assert fixed // len(tables) == len(classes) == burnside_class_count(d, generators, allow_swap)


def test_classify_refuses_a_mask_group_past_the_group_cap():
    """Layer i of this digraph holds vertices 2i and 2i + 1, each with an
    edge to both vertices of layer i + 1, and alternating cycle i leaves
    layer i.  The rotation permutes the cycles, and swapping layer 0 flips
    the bits of cycles 0 and m - 1, so the mask group is the rotations
    times the flips of even weight: m 2^(m-1) elements, 11,264 at m = 11,
    past DEFAULT_GROUP_CAP."""
    m = 11
    d = Digraph2([((2 * i + 2) % (2 * m), (2 * i + 3) % (2 * m)) for i in range(m) for _ in (0, 1)])
    assert d.alt_decomposition.r == m
    rotation = Perm([(v + 2) % (2 * m) for v in range(2 * m)])
    swap = Perm([1, 0, *range(2, 2 * m)])
    with pytest.raises(SizeCapError, match=f"^group closure exceeded cap {DEFAULT_GROUP_CAP}$"):
        classify_factorizations(d, [rotation, swap], allow_swap=False)


def test_classify_doubled_cycle_is_one_class():
    # every mask gives the same factorization, so there is one class of all 8
    d = build_doubled_cycle(3)
    classes = classify_factorizations(d, [Perm([1, 2, 0])], allow_swap=False)
    assert [(c.representative, c.size) for c in classes] == [(0, 8)]
    assert list(classes.label) == [0] * 8


def labelled_classes(d, classes) -> set[frozenset[int]]:
    """The masks of each class, read from the label array, after checking
    that each class is listed at its least mask, in mask order, with its
    size and the cycle types of its representative."""
    label = classes.label
    assert label.typecode == "I" and len(label) == 1 << d.alt_decomposition.r
    members = [[] for _ in classes]
    for b, cid in enumerate(label):
        members[cid].append(b)
    for cls, masks in zip(classes, members):
        f = factorization_at(d, cls.representative)
        assert (cls.representative, cls.size) == (masks[0], len(masks))
        assert cls.cycle_type_pair == (f.f1.cycle_type(), f.f2.cycle_type())
    assert [cls.representative for cls in classes] == sorted(m[0] for m in members)
    return {frozenset(masks) for masks in members}


@pytest.mark.parametrize(
    "out_edges, generators",
    [
        # the directed 5-cycle with doubled edges, and its rotation
        (tuple(((v + 1) % 5, (v + 1) % 5) for v in range(5)), [Perm([1, 2, 3, 4, 0])]),
        # vertex 0 has parallel edges, the others do not; (2 3) is an automorphism
        (((1, 1), (2, 3), (0, 3), (0, 2)), [Perm([0, 1, 3, 2])]),
        (((1, 1), (2, 3), (0, 3), (0, 2)), []),
        (MIXED_6, [Perm([(v + 2) % 6 for v in range(6)])]),
        # no parallel cycles
        *((fx.digraph.out_edges, fx.aut_generators()) for fx in map(load_fixture, ("a5-ex3", "morris"))),
        # toy:5, with its column shift and its row swap
        (build_toy(5)[0].out_edges,
         [Perm([5 * i + (j + 1) % 5 for i in (0, 1) for j in range(5)]),
          Perm([5 * (1 - i) + j for i in (0, 1) for j in range(5)])]),
    ],
    ids=["doubled-5-cycle", "mixed-4", "mixed-4-no-generators", "mixed-6", "a5-ex3", "morris", "toy:5"],
)
@pytest.mark.parametrize("allow_swap", [False, True])
def test_classify_with_parallel_cycles_matches_oracle(out_edges, generators, allow_swap):
    d = Digraph2(out_edges)
    classes = classify_factorizations(d, generators, allow_swap)
    assert sum(c.size for c in classes) == 1 << d.alt_decomposition.r
    assert labelled_classes(d, classes) == factorization_classes(d, generators, allow_swap)
    assert classes == reference_classify(d, generators, allow_swap)
    assert len(classes) == burnside_class_count(d, generators, allow_swap)


BENCHMARK_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
TEST_CONFIGS = Path(__file__).with_name("configs")


def instance(name: str) -> tuple[Digraph2, list[Perm]]:
    """A fixture, or a benchmark or test config by name, with its
    automorphisms; doubled-n-cycle is the doubled n-cycle and circulant-n-k
    the circulant v -> v + 1, v -> v + k on Z_n, each with its rotation.
    The circulant's alternating cycles step by k - 1, so it has
    gcd(n, k - 1) of them."""
    kind, *sizes = name.split("-")
    if kind in ("doubled", "circulant"):
        n = int(sizes[0])
        rotation = [Perm([(v + 1) % n for v in range(n)])]
        if kind == "doubled":
            return build_doubled_cycle(n), rotation
        k = int(sizes[1])
        return Digraph2([((v + 1) % n, (v + k) % n) for v in range(n)]), rotation
    for configs in (BENCHMARK_CONFIGS, TEST_CONFIGS):
        path = configs / f"{name}.json"
        if path.is_file():
            cd = build_coset_digraph(presentation_from_config(json.loads(path.read_text())["presentation"]))
            return cd.digraph, cd.default_aut_generators()
    fx = load_fixture(name)
    return fx.digraph, fx.aut_generators()


@pytest.mark.parametrize(
    "name",
    ["a5-ex2", "a5-ex3", "morris", "toy:3", "toy:5", "toy:8", "shift:7", "shift:16",
     "s5-r12", "agl18-r14", "c2wrc4-r16", "circulant-264-9"],
)
@pytest.mark.parametrize("allow_swap", [False, True])
def test_classify_matches_reference(name, allow_swap):
    """Representatives, sizes, cycle types and every mask's label equal the
    per-mask walk's."""
    d, generators = instance(name)
    assert classify_factorizations(d, generators, allow_swap) == reference_classify(d, generators, allow_swap)


@pytest.mark.parametrize(
    "name", ["a5-ex2", "a5-ex3", "morris", "toy:5", "shift:7", "s5-r12", "agl18-r14", "c2wrc4-r16"]
)
@pytest.mark.parametrize("allow_swap", [False, True])
def test_class_count_matches_burnside(name, allow_swap):
    d, generators = instance(name)
    classes = classify_factorizations(d, generators, allow_swap)
    assert len(classes) == burnside_class_count(d, generators, allow_swap)


def test_classify_rejects_non_automorphism():
    d, _ = build_toy(3)
    bad = Perm([1, 0, 2, 3, 4, 5])
    with pytest.raises(PreconditionError):
        classify_factorizations(d, [bad], allow_swap=False)


@pytest.mark.parametrize(
    "phi",
    # degree 2, and toy:3's column shift with two fixed points added
    [Perm([1, 0]), Perm([1, 2, 0, 4, 5, 3, 6, 7])],
    ids=["degree-2", "degree-8"],
)
def test_classify_rejects_permutation_of_another_degree(phi):
    d, _ = build_toy(3)
    assert not is_digraph_automorphism(phi, d)
    with pytest.raises(PreconditionError, match="is not a digraph automorphism"):
        classify_factorizations(d, [phi], allow_swap=False)


@pytest.mark.parametrize(
    "name, allow_swap, count",
    [("s5-r20", False, 8920), ("s5-r20", True, 4872), ("psl27-r21", False, 12528), ("psl27-r21", True, 6264)],
)
def test_large_config_class_counts(name, allow_swap, count):
    d, generators = instance(name)
    classes = classify_factorizations(d, generators, allow_swap)
    assert len(classes) == count == burnside_class_count(d, generators, allow_swap)
    assert sum(c.size for c in classes) == len(classes.label) == 1 << d.alt_decomposition.r


def test_normalize_preserves_edge_set():
    from spanfact.fixtures import morris_presentation

    p = morris_presentation()
    res = normalize_degree2(p)
    d1 = build_coset_digraph(p).digraph
    d2 = build_coset_digraph(res.presentation).digraph
    assert [sorted(e) for e in d1.out_edges] == [sorted(e) for e in d2.out_edges]


def test_shift_digraph():
    d, f = build_shift(5)
    assert d.n == 5
    assert f.is_valid()
    assert d.alt_decomposition.r == 1


def test_matching_survives_a_path_through_every_vertex():
    """One alternating cycle through all n tails: factorization 0 is built
    without recursion, however long the cycle."""
    n = 999
    d = Digraph2([((v + 2) % n, (v + 1) % n) for v in range(n - 1)] + [(0, 1)])
    assert d.alt_decomposition.r == 1
    assert factorization_at(d, 0).is_valid()


def test_digraph_is_freed_without_the_cyclic_collector():
    d = load_fixture("a5-ex2").digraph
    d = Digraph2(d.out_edges)
    assert len(d._cycle_rows) == d.alt_decomposition.r
    ref = weakref.ref(d)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del d
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", ["toy:3", "morris", "a5-ex2", "shift:7"])
def test_factor_images_match_factorization(name):
    d = load_fixture(name).digraph
    for b in range(1 << d.alt_decomposition.r):
        f = factorization_at(d, b)
        assert factor_images(d, b) == (list(f.f1.images), list(f.f2.images))


@pytest.mark.parametrize(
    "name",
    ["a5-ex2", "a5-ex3", "morris", "toy:3", "toy:5", "shift:7", "mixed-6", "doubled-3-cycle",
     "doubled-4-cycle", "circulant-264-9",
     "s5-r12", "agl18-r14", "c2wrc4-r16", "s5-r20", "psl27-r21"],
)
def test_f1_columns_are_f1_by_tail_position(name):
    """Reading the F1 columns at a mask, one lookup per mask byte, gives F1
    at that mask relabelled by tail position: on every mask of the small
    instances (circulant-264-9 has 264 vertices, past one byte), and on 200
    seeded masks of each config (psl27-r21 has r = 21, so its last column
    is partial)."""
    d = Digraph2(MIXED_6) if name == "mixed-6" else instance(name)[0]
    r = d.alt_decomposition.r
    masks = range(1 << r)
    if name in ("s5-r12", "agl18-r14", "c2wrc4-r16", "s5-r20", "psl27-r21"):
        masks = [0, (1 << r) - 1, *random.Random(r).sample(masks, 200)]
    low, mid, high = digraph._f1_columns(d)
    assert len(low) == 1 << min(r, 8)
    for b in masks:
        assert list(low[b & 255] + mid[b >> 8 & 255] + high[b >> 16]) == f1_by_tail_position(d, b), b


@pytest.mark.parametrize("allow_swap", [False, True])
def test_classify_walks_f1_once_per_class(monkeypatch, allow_swap):
    """Without the swap, one F1 walk per class gives both of its cycle
    types; with it, F1 is also walked at the representative's complement.
    No class builds an image list: only mask_action reads F1 at mask 0,
    once per generator."""
    d, generators = instance("agl18-r14")
    walks = []
    built = []

    def walk(images):
        walks.append(images)
        return images_cycle_type(images)

    def build(d, b):
        built.append(b)
        return factor_images(d, b)

    monkeypatch.setattr(digraph, "images_cycle_type", walk)
    monkeypatch.setattr(digraph, "factor_images", build)
    classes = classify_factorizations(d, generators, allow_swap)
    assert len(walks) == (2 if allow_swap else 1) * len(classes)
    assert built == [0] * len(generators)
    assert classes == reference_classify(d, generators, allow_swap)
