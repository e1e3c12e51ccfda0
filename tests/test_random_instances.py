"""Seeded random small digraphs: cross-validate enumeration invariants, the
tree-search kernel and the sharply transitive search against the oracles."""
import json
import random
from pathlib import Path
from typing import NoReturn

import pytest

from spanfact import digraph
from spanfact.blocks import (
    BlockSystem,
    _block_images,
    _count_masks,
    _phase_counts,
    difference_class_orbits,
    invariant_refinements,
    law_suite,
    phase_profile,
    position_block_system,
    position_system,
    relative_block_permutation,
    swap_relabel,
)
from spanfact.cli import instance_from_config
from spanfact.digraph import (
    Digraph2,
    build_coset_digraph,
    build_doubled_cycle,
    classify_factorizations,
    enumerate_factorizations,
    factor_images,
    factorization_at,
)
from spanfact.errors import (
    PhaseInconsistencyError,
    SpanfactError,
    StrongConnectivityError,
    UniformityError,
)
from spanfact.fixtures import load_fixture
from spanfact.groups import Presentation, enumerate_group
from spanfact.perm import Perm
from spanfact.spanning import (
    CLOSURE_CAP,
    _top_action,
    max_relocatable_tree,
    phase_addressing,
    search_sharply_transitive,
    splice_generators,
    verify_sharply_transitive,
)
from spanfact.treesearch import run_search

from oracles import (
    brute_force_refinement_families,
    f1_by_tail_position,
    naive_max_tree_size,
    reference_alt_cycles,
    reference_classify,
    reference_law_suite,
    reference_matching_f1,
    reference_phase_addressing,
    reference_phase_profile,
    reference_position_system,
    reference_run_search,
    reference_sharply_transitive,
    reference_strongly_connected,
)


# Draws each generator below may make before its test fails rather than
# hangs.  The most any seed in these tests uses is 156 (random_digraph; 40
# for random_uniform_digraph, 6 for random_multidigraph, 8 for
# random_cayley_digraph), so every seed draws the instances that unbounded
# retries drew.
ATTEMPTS = 2000


def out_of_attempts(generator: str, size) -> NoReturn:
    pytest.fail(f"{generator}: no digraph of size {size} accepted in {ATTEMPTS} attempts")


def random_digraph(rng: random.Random, n: int) -> Digraph2:
    """A random 2-regular strongly connected simple digraph on n vertices."""
    for _ in range(ATTEMPTS):
        f1 = list(range(n))
        rng.shuffle(f1)
        f2 = list(range(n))
        rng.shuffle(f2)
        if any(a == v or b == v or a == b for v, (a, b) in enumerate(zip(f1, f2))):
            continue
        try:
            return Digraph2(list(zip(f1, f2)))
        except SpanfactError:
            continue
    out_of_attempts("random_digraph", n)


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_invariants_random(seed):
    rng = random.Random(seed)
    d = random_digraph(rng, rng.choice([4, 5, 6, 7, 8]))
    dec = d.alt_decomposition
    facs = enumerate_factorizations(d)
    assert len(facs) == 1 << dec.r
    full = (1 << dec.r) - 1
    for f in facs:
        assert f.is_valid()
        g = facs[f.bitmask ^ full]
        assert (f.f1, f.f2) == (g.f2, g.f1)
        # labeling independence: x-orbit tails match the decomposition cycles
        tails = {frozenset(e[0] for e in cyc) for cyc in dec.cycles}
        xc = {frozenset(c) for c in f.x().cycles()}
        assert xc == tails


def random_cayley_digraph(rng: random.Random) -> tuple[Digraph2, list[Perm]]:
    """The Cayley digraph g -> gs, g -> gt (H trivial) of the group that two
    random permutations s, t of at most 6 points generate, with the left
    multiplications by s and t.  Drawn again when s or t is the identity,
    s = t, the group has more than 120 elements or r exceeds 12."""
    for _ in range(ATTEMPTS):
        k = rng.randint(3, 6)
        s, t = (Perm(rng.sample(range(k), k)) for _ in range(2))
        try:
            group = enumerate_group([s, t], cap=120)
            cd = build_coset_digraph(Presentation(group, (), (group.index[s], group.index[t])))
        except SpanfactError:
            continue
        if cd.digraph.alt_decomposition.r <= 12:
            return cd.digraph, cd.default_aut_generators()
    out_of_attempts("random_cayley_digraph", "<= 120")


def test_f1_columns_random():
    """On random Cayley digraphs, the F1 columns read at every mask give F1
    at that mask relabelled by tail position."""
    for seed in range(50):
        d, _ = random_cayley_digraph(random.Random(seed))
        low, mid, high = digraph._f1_columns(d)
        for b in range(1 << d.alt_decomposition.r):
            got = low[b & 255] + mid[b >> 8 & 255] + high[b >> 16]
            assert list(got) == f1_by_tail_position(d, b), (seed, b)


def test_classify_matches_reference_random():
    """Representatives, sizes, cycle types and every mask's label equal the
    per-mask walk's on random Cayley digraphs, with and without the swap."""
    sizes = set()
    for seed in range(200):
        d, generators = random_cayley_digraph(random.Random(seed))
        sizes.add(d.n)
        for allow_swap in (False, True):
            got = classify_factorizations(d, generators, allow_swap)
            assert got == reference_classify(d, generators, allow_swap), (seed, allow_swap)
    assert len(sizes) > 5


def assert_positions_match_reference(d: Digraph2) -> tuple[int, int]:
    """On every factorization of d, the position system read off the
    alternating cycles equals the one from the cycles of x itself, and the
    phase profile equals the one read from the tied blocks as sets: it
    raises exactly where the reference finds a drifting offset.  Returns
    the number of factorizations with constant phases and of those that
    raise."""
    r = d.alt_decomposition.r
    assert r <= 10
    constant = drifting = 0
    for b in range(1 << r):
        f = factorization_at(d, b)
        ref = reference_position_system(f)
        if ref is None:
            with pytest.raises(UniformityError):
                position_system(f)
            continue
        ps = position_system(f)
        assert (ps.m, ps.r, ps.cycle_list, ps.blocks) == (ref.m, ref.r, ref.cycle_list, ref.blocks), b
        for v in range(d.n):
            assert (ps.cycle_of[v], ps.pos_of[v]) == (ref.cycle_of[v], ref.pos_of[v]), (b, v)
        ref_pp = reference_phase_profile(f, ref)
        if ref_pp is None:
            with pytest.raises(PhaseInconsistencyError):
                phase_profile(f, ps)
            drifting += 1
            continue
        pp = phase_profile(f, ps)
        assert (pp.delta, pp.phase_counts, pp.tied_blocks) == (
            ref_pp.delta,
            ref_pp.phase_counts,
            ref_pp.tied_blocks,
        ), b
        constant += 1
    return constant, drifting


@pytest.mark.parametrize(
    "name",
    ["toy:3", "toy:4", "toy:5", "toy:8", "morris", "a5-ex2", "a5-ex3", "shift:5", "shift:8", "shift:11"],
)
def test_position_system_matches_reference(name):
    assert_positions_match_reference(load_fixture(name).digraph)


def test_position_system_matches_reference_random():
    """Seeded random digraphs, most with x-cycles of unequal lengths, and
    digraphs with parallel edges."""
    uniform = constant = drifting = 0
    for seed in range(300):
        rng = random.Random(seed)
        d = random_digraph(rng, rng.randint(4, 10))
        counts = assert_positions_match_reference(d)
        constant += counts[0]
        drifting += counts[1]
        uniform += len({len(c) for c in d.alt_decomposition.cycles}) == 1
    assert 0 < uniform < 300
    assert constant and drifting
    for d in (build_doubled_cycle(3), build_doubled_cycle(4), Digraph2([(1, 1), (2, 0), (0, 2)])):
        assert_positions_match_reference(d)


def random_out_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """The out-edge pairs of a random 2-in, 2-out digraph on n vertices, not
    necessarily strongly connected, loops and parallel edges allowed, each
    vertex's two slots in random order."""
    f1 = list(range(n))
    rng.shuffle(f1)
    f2 = list(range(n))
    rng.shuffle(f2)
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(f1, f2)]


def random_multidigraph(rng: random.Random, n: int) -> Digraph2:
    """A random strongly connected 2-regular digraph on n vertices, loops and
    parallel edges allowed, each vertex's two slots in random order."""
    for _ in range(ATTEMPTS):
        try:
            return Digraph2(random_out_edges(rng, n))
        except SpanfactError:
            continue
    out_of_attempts("random_multidigraph", n)


def test_digraph_build_matches_reference_random():
    """Unfiltered random 2-in, 2-out digraphs, and disjoint unions of two of
    them with the vertices shuffled: Digraph2 accepts exactly the inputs the
    two-BFS oracle calls strongly connected, refuses the rest with its one
    message, and walks the edge-level oracle's alternating cycles."""
    kinds = dict.fromkeys(("connected", "disconnected", "loop", "parallel"), 0)
    for seed in range(2000):
        rng = random.Random(seed)
        edges = random_out_edges(rng, rng.randint(1, 9))
        if seed % 2:
            k = len(edges)
            edges += [(a + k, b + k) for a, b in random_out_edges(rng, rng.randint(1, 9))]
            label = list(range(len(edges)))
            rng.shuffle(label)
            shuffled = [None] * len(edges)
            for v, (a, b) in enumerate(edges):
                shuffled[label[v]] = (label[a], label[b])
            edges = shuffled
        kinds["loop"] += any(v in pair for v, pair in enumerate(edges))
        kinds["parallel"] += any(a == b for a, b in edges)
        if reference_strongly_connected(edges):
            kinds["connected"] += 1
            assert Digraph2(edges).alt_decomposition.cycles == reference_alt_cycles(edges), seed
        else:
            kinds["disconnected"] += 1
            with pytest.raises(StrongConnectivityError, match="^digraph is not strongly connected$"):
                Digraph2(edges)
    assert all(kinds.values()), kinds


def assert_cycle_table_matches_decomposition(d: Digraph2) -> None:
    """Digraph2._cycle_rows and _cycle_of against the edge-level alternating
    cycles: every vertex's cycle holds both its out-edges, the one-row cycles
    are the 2-edge ones, and at both bits row j + 1 holds x of row j's tail,
    starting from the least tail, with F1 and F2 swapped at bit 1."""
    dec = d.alt_decomposition
    cycle_of_edge = {e: i for i, cyc in enumerate(dec.cycles) for e in cyc}
    for v in range(d.n):
        assert d._cycle_of[v] == cycle_of_edge[(v, 0)] == cycle_of_edge[(v, 1)], v
    assert [len(rows) == 1 for rows, _ in d._cycle_rows] == [len(cyc) == 2 for cyc in dec.cycles]
    for cyc, (rows0, rows1) in zip(dec.cycles, d._cycle_rows):
        tails = sorted(e[0] for e in cyc[::2])
        assert sorted(row[0] for row in rows0) == sorted(row[0] for row in rows1) == tails
        assert {(v, b, a) for v, a, b in rows0} == set(rows1)
        for rows in (rows0, rows1):
            f2_tail = {b: v for v, _, b in rows}
            assert rows[0][0] == tails[0]
            for j, (_, a, _) in enumerate(rows):
                assert f2_tail[a] == rows[(j + 1) % len(rows)][0]


@pytest.mark.parametrize(
    "name", ["toy:3", "toy:8", "morris", "a5-ex2", "a5-ex3", "shift:5", "shift:11", "shift:101"]
)
def test_cycle_table_matches_decomposition(name):
    assert_cycle_table_matches_decomposition(load_fixture(name).digraph)


def test_cycle_table_matches_decomposition_random():
    """Seeded random digraphs, simple and with loops or parallel edges, and
    the doubled cycles, whose every cycle is a one-row cycle."""
    one_row = 0
    for seed in range(300):
        rng = random.Random(seed)
        for d in (random_digraph(rng, rng.randint(4, 12)), random_multidigraph(rng, rng.randint(1, 12))):
            assert_cycle_table_matches_decomposition(d)
            one_row += sum(len(rows) == 1 for rows, _ in d._cycle_rows)
    assert one_row
    for n in (1, 2, 3, 7):
        assert_cycle_table_matches_decomposition(build_doubled_cycle(n))


def assert_factors_share_cycle_action(d: Digraph2) -> bool:
    """At every mask, F1 and F2 have one block action on the x-cycles (the
    tail sets of the alternating cycles), defined exactly when it is at mask
    0, which is returned."""
    r = d.alt_decomposition.r
    cycles = BlockSystem(d._cycle_of, r)
    defined = _block_images(factor_images(d, 0)[0], cycles) is not None
    for b in range(1 << r):
        f1, f2 = factor_images(d, b)
        images = _block_images(f1, cycles)
        assert images == _block_images(f2, cycles), b
        assert (images is not None) == defined, b
    return defined


@pytest.mark.parametrize(
    "name", ["toy:3", "toy:8", "morris", "a5-ex2", "a5-ex3", "shift:5", "shift:11", "shift:101"]
)
def test_factors_share_cycle_action(name):
    """Defined on the toys, morris and the shifts; undefined on the a5 fixtures."""
    assert assert_factors_share_cycle_action(load_fixture(name).digraph) == (name[:3] != "a5-")


def test_factors_share_cycle_action_random():
    """Seeded random digraphs, simple and with loops or parallel edges."""
    defined = 0
    for seed in range(300):
        rng = random.Random(seed)
        for d in (random_digraph(rng, rng.randint(4, 10)), random_multidigraph(rng, rng.randint(1, 10))):
            defined += assert_factors_share_cycle_action(d)
    assert 0 < defined < 600


FIXTURES = (
    *(f"toy:{k}" for k in range(3, 10)), "morris", "a5-ex2", "a5-ex3",
    *(f"shift:{k}" for k in range(3, 17)), "shift:101",
)
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.json"))


def config_digraph(path: Path) -> Digraph2:
    return instance_from_config(json.loads(path.read_text())).digraph


def product_digraph(k: int, q: int) -> Digraph2:
    """The Cayley digraph of Z_k x Z_q on (1, 0) and (1, 1), vertex (a, b)
    numbered q*a + b.  Its x-cycles have length q, and there are k of them."""

    def step(v: int, db: int) -> int:
        return q * ((v // q + 1) % k) + (v % q + db) % q

    return Digraph2([(step(v, 0), step(v, 1)) for v in range(k * q)])


def sampled_masks(d: Digraph2, rng: random.Random, count: int) -> list[int]:
    """Every mask when there are at most count of them, else count at random."""
    total = 1 << d.alt_decomposition.r
    return list(range(total)) if total <= count else [rng.randrange(total) for _ in range(count)]


def assert_position_tau_is_shift(d: Digraph2, masks: list[int]) -> tuple[int, int]:
    """At every mask with uniform x-cycle lengths, F2 permutes the position
    blocks exactly when F1 does, and then tau is the shift j -> j - 1 mod m,
    a derangement exactly when m > 1.  Wherever the top action of F1 on the
    x-cycles is defined, it is one r-cycle.  Returns the number of masks
    where tau and where the top action are defined."""
    tau_defined = top_defined = 0
    for b in masks:
        f = factorization_at(d, b)
        try:
            ps = position_system(f)
        except UniformityError:
            continue
        bs = position_block_system(ps)
        permuted = _block_images(f.f1.images, bs) is not None
        assert permuted == (_block_images(f.f2.images, bs) is not None), b
        if permuted:
            tau, is_der = relative_block_permutation(f, bs)
            assert tau == Perm([(j - 1) % ps.m for j in range(ps.m)]), b
            assert is_der == (ps.m > 1), b
            tau_defined += 1
        top = _top_action(f, ps, f.f1)
        if top is not None:
            assert top.cycle_type() == (ps.r,), b
            top_defined += 1
    return tau_defined, top_defined


@pytest.mark.parametrize("name", FIXTURES)
def test_position_tau_is_shift(name):
    d = load_fixture(name).digraph
    assert_position_tau_is_shift(d, list(range(1 << d.alt_decomposition.r)))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_position_tau_is_shift_configs(path):
    d = config_digraph(path)
    assert_position_tau_is_shift(d, sampled_masks(d, random.Random(path.stem), 200))


def test_position_tau_is_shift_random():
    """300 seeded random digraphs, simple and with loops or parallel edges."""
    tau_defined = top_defined = 0
    for seed in range(150):
        rng = random.Random(seed)
        for d in (random_digraph(rng, rng.randint(4, 12)), random_multidigraph(rng, rng.randint(1, 12))):
            counts = assert_position_tau_is_shift(d, sampled_masks(d, rng, 64))
            tau_defined += counts[0]
            top_defined += counts[1]
    assert tau_defined and top_defined


def addressing_outcome(build, f, ps, pp):
    """The words, images and root build gives, or its error type and message."""
    try:
        ws = build(f, ps, pp)
    except SpanfactError as exc:
        return type(exc), str(exc)
    return ws.words, ws.images, ws.root


def assert_addressing_matches_reference(d: Digraph2, masks: list[int]) -> int:
    """phase_addressing against the reference that runs every check, at each
    mask with constant phases.  Returns the number of sets built with
    m >= 3 and r >= 2, where the sign of each sigma sets the word order."""
    wide = 0
    for b in masks:
        f = factorization_at(d, b)
        try:
            ps = position_system(f)
            pp = phase_profile(f, ps)
        except (UniformityError, PhaseInconsistencyError):
            continue
        got = addressing_outcome(phase_addressing, f, ps, pp)
        assert got == addressing_outcome(reference_phase_addressing, f, ps, pp), b
        wide += len(got) == 3 and ps.m >= 3 and ps.r >= 2
    return wide


@pytest.mark.parametrize("name", FIXTURES)
def test_phase_addressing_matches_reference(name):
    d = load_fixture(name).digraph
    assert_addressing_matches_reference(d, list(range(1 << d.alt_decomposition.r)))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_phase_addressing_matches_reference_configs(path):
    d = config_digraph(path)
    assert_addressing_matches_reference(d, sampled_masks(d, random.Random(path.stem), 200))


def test_phase_addressing_matches_reference_products():
    """Each Z_k x Z_q with k >= 2 and q >= 3 builds one set with m = q and
    r = k."""
    wide = 0
    for k in range(2, 5):
        for q in range(2, 7):
            d = product_digraph(k, q)
            wide += assert_addressing_matches_reference(d, list(range(1 << d.alt_decomposition.r)))
    assert wide == 3 * 4


def test_phase_addressing_matches_reference_random():
    """Seeded random digraphs with up to 24 vertices, simple and with loops
    or parallel edges; a few build sets with m >= 3 and r >= 2."""
    wide = 0
    for seed in range(2000):
        rng = random.Random(seed)
        for d in (random_digraph(rng, rng.randint(4, 24)), random_multidigraph(rng, rng.randint(1, 24))):
            wide += assert_addressing_matches_reference(d, sampled_masks(d, rng, 64))
    assert wide


def test_matching_matches_recursive_reference():
    """F1 of mask 0, read off the alternating-cycle walk, is the matching the
    recursive augmenting-path search finds."""
    fixtures = ("toy:3", "toy:8", "morris", "a5-ex2", "a5-ex3", "shift:11")
    named = [(name, load_fixture(name).digraph) for name in fixtures]
    named += [(p.stem, config_digraph(p)) for p in CONFIGS]
    assert len(named) == 9
    for name, d in named:
        assert factor_images(d, 0)[0] == list(reference_matching_f1(d)), name
    for seed in range(1000):
        rng = random.Random(seed)
        d = random_multidigraph(rng, rng.randint(1, 60))
        assert factor_images(d, 0)[0] == list(reference_matching_f1(d)), seed


@pytest.mark.parametrize("seed", range(6))
def test_tree_search_matches_oracle_random(seed):
    rng = random.Random(100 + seed)
    d = random_digraph(rng, rng.choice([4, 5, 6]))
    for f in enumerate_factorizations(d):
        res = max_relocatable_tree(f)
        assert res.certificate
        assert res.size == naive_max_tree_size(f)


def test_tree_kernel_matches_reference_random():
    """The tree kernel against the reference, which runs every closure BFS
    to the end, on seeded random digraphs with n <= 10, four masks each.
    Under each closure cap some BFS runs end, so that their children search
    inside the closure, and some stop early at a check; a cap of 8 makes
    some pass the cap, which shows as more nodes where a prune is lost.  A
    node cap of 12 cuts some searches short; one of 40 rarely binds at this
    size."""
    cut = capped = 0
    for seed in range(90):
        rng = random.Random(2300 + seed)
        if seed % 3 == 0:
            d = random_digraph(rng, rng.randint(3, 10))
        elif seed % 3 == 1:
            d = random_multidigraph(rng, rng.randint(1, 10))
        else:
            r = rng.randint(1, 5)
            d = random_uniform_digraph(rng, r, rng.randint(1, 10 // r))
        for mask in sampled_masks(d, rng, 4):
            f = factorization_at(d, mask)
            for node_cap in (10**8, 40, 12):
                results = []
                for closure_cap in (CLOSURE_CAP, 50, 8):
                    args = (f.n, f.f1.images, f.f2.images, node_cap, closure_cap)
                    got = run_search(*args)
                    assert got == reference_run_search(*args), (seed, mask, node_cap, closure_cap)
                    results.append(got)
                cut += not results[0][3]
                capped += results[2][2] > results[0][2]
    assert cut and capped, (cut, capped)


def test_sharply_transitive_search_matches_reference_random():
    """The search's yes or no against the plain-BFS backtracking oracle, on
    groups <F1, F2> that are mostly larger than n, some with no set."""
    non_regular = no_set = 0
    for seed in range(30):
        rng = random.Random(seed)
        d = random_digraph(rng, rng.randint(4, 7))
        for mask in range(min(4, 1 << d.alt_decomposition.r)):
            f = factorization_at(d, mask)
            ws = search_sharply_transitive(f, root=rng.randrange(d.n), required=((), (1,), (2,)))
            assert (ws is not None) == reference_sharply_transitive(f), (seed, mask)
            if ws is None:
                no_set += 1
            else:
                assert {(), (1,), (2,)} <= set(ws.words)
                assert verify_sharply_transitive(ws, f).passed, (seed, mask)
            non_regular += len(enumerate_group([f.f1, f.f2])) > d.n
    assert non_regular and no_set


@pytest.mark.parametrize("seed", range(4))
def test_refinements_match_oracle_random(seed):
    rng = random.Random(200 + seed)
    d = random_digraph(rng, rng.choice([4, 6, 8]))
    for f in enumerate_factorizations(d):
        try:
            ps = position_system(f)
            pi = difference_class_orbits(f, ps)
        except (UniformityError, PhaseInconsistencyError):
            continue
        refs = invariant_refinements(f, ps, pi)
        returned = {frozenset(rs.system.blocks) for rs in refs if rs.invariant}
        assert returned == brute_force_refinement_families(f)
        assert all(_block_images(f.x().images, rs.system) is not None for rs in refs)


@pytest.mark.parametrize("seed", range(4))
def test_swap_relabel_always_valid_random(seed):
    rng = random.Random(300 + seed)
    d = random_digraph(rng, rng.choice([5, 6, 7]))
    r = d.alt_decomposition.r
    f = factorization_at(d, 0)
    for _ in range(20):
        mask = rng.randrange(1 << r)
        g = swap_relabel(f, mask)
        assert g.is_valid()
        assert swap_relabel(g, mask) == f


def test_phase_addressing_doubled_cycle():
    # m = 1: singleton x-cycles, trivial phases, transitive top action
    d = build_doubled_cycle(3)
    f = factorization_at(d, 0)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    s0 = phase_addressing(f, ps, pp)
    assert verify_sharply_transitive(s0, f).passed
    # both out-edges of the root share a head here, so the splice that would
    # inject the two single-factor words must refuse
    from spanfact.errors import PreconditionError

    with pytest.raises(PreconditionError):
        splice_generators(s0, f)


def random_uniform_digraph(rng: random.Random, r: int, m: int) -> Digraph2:
    """A random strongly connected 2-regular digraph whose r alternating
    cycles all have m tails, loops and parallel edges allowed: F1 is a
    random permutation and x one with r cycles of length m, F2 = F1 x^-1,
    and each vertex's two slots are in random order."""
    n = r * m
    for _ in range(ATTEMPTS):
        order = list(range(n))
        rng.shuffle(order)
        x = [0] * n
        for i in range(0, n, m):
            cyc = order[i:i + m]
            for j, v in enumerate(cyc):
                x[v] = cyc[(j + 1) % m]
        f1 = list(range(n))
        rng.shuffle(f1)
        f2 = [0] * n
        for v in range(n):
            f2[x[v]] = f1[v]
        try:
            return Digraph2([(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(f1, f2)])
        except SpanfactError:
            continue
    out_of_attempts("random_uniform_digraph", (r, m))


def test_law_suite_matches_reference_uniform_random():
    """The law suite against the listing oracle on seeded random digraphs
    whose x-cycles all have one length, with mask lists that hold 0 and the
    full mask, so that the count of factorizations on which F1 permutes the
    position blocks reaches the swap law.  The digraphs cover factorizations
    with and without constant phases, and F1 permuting the blocks on
    factorizations whose phases are not constant, with one cycle and with
    several.  two_maps counts the digraphs with r > 1 on which F1 permutes
    the position blocks by at least two actions, so that permuted sums more
    than one common map."""
    seen = {
        "some_const": 0,
        "unequal": 0,
        "permuted_not_uniform": 0,
        "wide": 0,
        "swap_fail": 0,
        "two_maps": 0,
    }
    for seed in range(600):
        rng = random.Random(seed)
        r, m = rng.randint(1, 6), rng.randint(1, 5)
        d = random_uniform_digraph(rng, r, m)
        assert d.alt_decomposition.r == r
        full = (1 << r) - 1
        masks = [0, full] + [rng.randrange(full + 1) for _ in range(rng.randint(0, 4))]
        laws = law_suite(d, masks)
        assert laws == reference_law_suite(d, masks), seed
        const, uniform, permuted = _phase_counts(d, m)
        seen["some_const"] += 0 < const < 1 << r
        seen["unequal"] += const > uniform
        seen["permuted_not_uniform"] += permuted > uniform
        seen["wide"] += permuted > uniform and r > 1
        seen["swap_fail"] += laws["swap_invariance"][1] > 0
        bs = position_block_system(position_system(factorization_at(d, 0)))
        images = (_block_images(factor_images(d, b)[0], bs) for b in range(full + 1))
        seen["two_maps"] += r > 1 and len({tuple(a) for a in images if a is not None}) > 1
    assert all(seen.values()), seen


def test_count_masks_matches_walk_random():
    """_count_masks against a walk over all 2^r masks on seeded random scope
    systems, r <= 10: each scope holds its own cycle and 0-5 others, and the
    truth tables are random, some all false and some all true."""
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        r = rng.randint(1, 10)
        scopes = [
            sorted({i, *rng.sample([c for c in range(r) if c != i], rng.randint(0, min(5, r - 1)))})
            for i in range(r)
        ]
        holds = []
        for scope in scopes:
            kind, p = rng.random(), rng.random()
            holds.append(
                [kind >= 0.05 and (kind < 0.3 or rng.random() < p) for _ in range(1 << len(scope))]
            )
        walked = sum(
            all(
                table[sum(((mask >> c) & 1) << p for p, c in enumerate(scope))]
                for scope, table in zip(scopes, holds)
            )
            for mask in range(1 << r)
        )
        assert _count_masks(scopes, holds) == walked, seed
        outcomes.add((walked == 0, not all(map(any, holds))))
    assert outcomes == {(True, True), (True, False), (False, False)}, outcomes


def test_law_suite_matches_reference_products():
    """The Cayley digraphs of Z_k x Z_q with q >= 3, whose x-cycles have
    length q, with 0 and the full mask among the masks."""
    for k in range(1, 6):
        for q in range(3, 7):
            d = product_digraph(k, q)
            full = (1 << d.alt_decomposition.r) - 1
            for masks in ([0, full], [full, 0, full, full // 2]):
                assert law_suite(d, masks) == reference_law_suite(d, masks), (k, q, masks)


def test_law_suite_matches_reference_random():
    """The law suite against the listing oracle on seeded random digraphs,
    some of which fail the refinement law."""
    refinement_failures = 0
    for seed in range(1000):
        rng = random.Random(seed)
        d = random_digraph(rng, rng.randint(4, 12))
        masks = [rng.randrange(1 << d.alt_decomposition.r) for _ in range(6)]
        laws = law_suite(d, masks)
        assert laws == reference_law_suite(d, masks), seed
        refinement_failures += laws["refinements"][1]
    assert refinement_failures
