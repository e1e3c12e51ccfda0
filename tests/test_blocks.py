import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from spanfact import blocks
from spanfact.blocks import (
    BlockSystem,
    atoms,
    block_action,
    block_construction,
    cycle_block_system,
    difference_class_orbits,
    invariant_refinements,
    law_suite,
    phase_profile,
    position_block_system,
    position_system,
    relative_block_permutation,
    swap_relabel,
)
from spanfact.digraph import (
    Digraph2,
    build_doubled_cycle,
    build_shift,
    build_toy,
    enumerate_factorizations,
    factorization_at,
)
from spanfact.errors import (
    NonInvarianceError,
    PhaseInconsistencyError,
    PreconditionError,
    SizeCapError,
    UniformityError,
)
from spanfact.fixtures import load_fixture
from spanfact.perm import Perm
from spanfact.spanning import WordSet, verify_sharply_transitive

from oracles import (
    _reference_atom_laws,
    brute_force_refinement_families,
    reference_difference_class_orbits,
    reference_law_suite,
    reference_position_system,
    swap_invariance_counts,
)


def test_position_system_toy():
    d, f = build_toy(3)
    ps = position_system(f)
    assert (ps.m, ps.r) == (2, 3)
    assert ps.cycle_list == ((0, 3), (1, 4), (2, 5))
    assert ps.blocks == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_position_system_fixture_shapes():
    # computed x-structure: ex3 five blocks of six, ex2 three blocks of ten
    f3 = factorization_at(load_fixture("a5-ex3").digraph, 0)
    ps3 = position_system(f3)
    assert (ps3.m, ps3.r) == (5, 6)
    f2 = factorization_at(load_fixture("a5-ex2").digraph, 0)
    ps2 = position_system(f2)
    assert (ps2.m, ps2.r) == (3, 10)


def test_position_system_single_cycle():
    d, f = build_shift(5)
    ps = position_system(f)
    assert (ps.m, ps.r) == (5, 1)
    assert all(len(b) == 1 for b in ps.blocks)


@pytest.mark.parametrize("name", ["toy:3", "toy:5", "morris", "a5-ex3"])
def test_position_blocks_agree_with_the_position_labelling(name):
    """The set view of the position blocks, derived from cycle_list, is the
    partition that pos_of labels, and pos_of numbers every cycle along it."""
    d = load_fixture(name).digraph
    for b in range(1 << d.alt_decomposition.r):
        ps = position_system(factorization_at(d, b))
        assert ps.blocks == position_block_system(ps).blocks, b
        for cyc in ps.cycle_list:
            assert [ps.pos_of[v] for v in cyc] == list(range(ps.m)), b


def test_position_system_uniformity_error():
    d = Digraph2([(1, 1), (2, 0), (0, 2)])
    f = factorization_at(d, 0)
    with pytest.raises(UniformityError):
        position_system(f)


def test_phase_profile_toy_values():
    d, f = build_toy(3)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    assert pp.delta == (0, 0, 0)
    assert pp.phase_counts == (3, 0)
    assert pp.tied_blocks[0] == frozenset({0, 1, 2})


def test_identity_phase_when_f1_fixes_blocks():
    # all-zero phases exactly when F1 maps every position block to itself
    d, f = build_toy(4)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    fixes = all(frozenset(f.f1(v) for v in blk) == blk for blk in ps.blocks)
    assert fixes == all(dd == 0 for dd in pp.delta)


@pytest.mark.parametrize("m", [3, 5])
def test_phase_laws_all_toy_factorizations(m):
    d, _ = build_toy(m)
    for f in enumerate_factorizations(d):
        ps = position_system(f)
        pp = phase_profile(f, ps)
        A = atoms(f, ps, pp)
        assert sum(pp.phase_counts) == ps.r
        for j in range(ps.m):
            for dd in range(ps.m):
                assert len(A[(j, (j + dd) % ps.m)]) == pp.phase_counts[dd]
        # atoms really are the meet of positions and tied blocks
        for j in range(ps.m):
            for k in range(ps.m):
                assert A[(j, k)] == ps.blocks[j] & pp.tied_blocks[k]


def test_phase_profile_ex3_inconsistent():
    # computed truth: no factorization of this digraph has constant phases
    d = load_fixture("a5-ex3").digraph
    for b in (0, 17, 63):
        f = factorization_at(d, b)
        ps = position_system(f)
        with pytest.raises(PhaseInconsistencyError):
            phase_profile(f, ps)


def test_atoms_toy_values():
    d, f = build_toy(3)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    A = atoms(f, ps, pp)
    assert A[(0, 0)] == frozenset({0, 1, 2})
    assert A[(0, 1)] == frozenset()


def test_atoms_single_cycle():
    d, f = build_shift(4)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    A = atoms(f, ps, pp)
    for j in range(ps.m):
        nonempty = [k for k in range(ps.m) if A[(j, k)]]
        assert len(nonempty) == 1


def test_difference_class_orbits_toy():
    d, f = build_toy(3)
    ps = position_system(f)
    assert difference_class_orbits(f, ps) == ((0,), (1,))


def test_difference_class_orbits_m1():
    d = build_doubled_cycle(3)
    f = factorization_at(d, 0)
    ps = position_system(f)
    assert ps.m == 1
    assert difference_class_orbits(f, ps) == ((0,),)


# The Cayley digraph of Z_4 x Z_4 on (1, 0) and (3, 1), vertex (a, b)
# numbered 4a + b.  On its constant-phase masks three of the four difference
# classes are realised and F1 joins them in a chain; the fixtures realise at
# most two classes, or only singleton orbits.
Z4_SQUARED = Digraph2(
    [(4 * ((v // 4 + 1) % 4) + v % 4, 4 * ((v // 4 + 3) % 4) + (v % 4 + 1) % 4) for v in range(16)]
)


def test_difference_class_orbits_match_reference():
    """On every factorization with constant phases of these fixtures (none
    on a5-ex3 and a5-ex2) and of Z4_SQUARED, tracing F1 alone gives the
    orbits of F1 and x."""
    checked = 0
    for name in ("toy:3", "toy:4", "toy:5", "toy:8", "toy:11", "morris",
                 "shift:5", "shift:7", "shift:9", "shift:11", "a5-ex3", "a5-ex2", "z4-squared"):
        d = Z4_SQUARED if name == "z4-squared" else load_fixture(name).digraph
        for b in range(1 << d.alt_decomposition.r):
            f = factorization_at(d, b)
            try:
                ps = position_system(f)
                pp = phase_profile(f, ps)
            except (UniformityError, PhaseInconsistencyError):
                continue
            assert difference_class_orbits(f, ps, pp) == reference_difference_class_orbits(f, ps, pp), (name, b)
            checked += 1
    assert checked == 2378


def test_refinement_count_and_full_union():
    d, f = build_toy(3)
    ps = position_system(f)
    pi = difference_class_orbits(f, ps)
    refs = invariant_refinements(f, ps, pi)
    assert len(refs) == (1 << len(pi)) - 1
    full = [rs for rs in refs if rs.class_orbits == pi]
    assert len(full) == 1
    assert set(full[0].system.blocks) == set(ps.blocks)
    assert all(rs.invariant for rs in refs)


def test_refinement_block_sizes_uniform():
    for m in (3, 4, 5):
        d, _ = build_toy(m)
        for f in enumerate_factorizations(d):
            ps = position_system(f)
            pi = difference_class_orbits(f, ps)
            for rs in invariant_refinements(f, ps, pi):
                assert all(len(b) == rs.block_size for b in rs.system.blocks)


def test_refinement_listing_is_capped(monkeypatch):
    """shift:n has n singleton difference-class orbits, so 2^n - 1 systems;
    past the cap the listing raises before it starts."""
    for n in (17, 101):
        _, f = build_shift(n)
        ps = position_system(f)
        pi = difference_class_orbits(f, ps)
        assert len(pi) == n
        with pytest.raises(SizeCapError, match=f"orbit count {n} exceeds cap 16"):
            invariant_refinements(f, ps, pi)
    monkeypatch.setattr(blocks, "REFINEMENT_ORBIT_CAP", 7)
    for n, listed in ((7, 127), (8, None)):
        _, f = build_shift(n)
        ps = position_system(f)
        pi = difference_class_orbits(f, ps)
        if listed is None:
            with pytest.raises(SizeCapError, match="exceeds cap 7"):
                invariant_refinements(f, ps, pi)
        else:
            assert len(invariant_refinements(f, ps, pi)) == listed


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_toy(3),
        lambda: build_toy(4),
        lambda: build_toy(5),
        lambda: build_shift(4),
        lambda: build_shift(5),
        lambda: (load_fixture("morris").digraph, None),
    ],
)
def test_refinements_match_brute_force(builder):
    d, _ = builder()
    for f in enumerate_factorizations(d):
        ps = position_system(f)
        try:
            pi = difference_class_orbits(f, ps)
        except PhaseInconsistencyError:
            continue
        refs = invariant_refinements(f, ps, pi)
        returned = {frozenset(rs.system.blocks) for rs in refs if rs.invariant}
        oracle = brute_force_refinement_families(f)
        assert returned == oracle
        # x carries every listed system's blocks onto blocks, so invariance
        # is F1's alone
        assert all(blocks._block_images(f.x().images, rs.system) is not None for rs in refs)


def test_phase_laws_morris():
    # a coset instance where the covering group respects the x-cycles:
    # constant phases for all 8 labelings, nonzero for 7 of them
    d = load_fixture("morris").digraph
    nonzero = 0
    for f in enumerate_factorizations(d):
        ps = position_system(f)
        pp = phase_profile(f, ps)
        assert sum(pp.phase_counts) == ps.r
        A = atoms(f, ps, pp)
        for j in range(ps.m):
            for dd in range(ps.m):
                assert len(A[(j, (j + dd) % ps.m)]) == pp.phase_counts[dd]
        if any(dd != 0 for dd in pp.delta):
            nonzero += 1
    assert nonzero == 7


def test_block_action_toy():
    d, f = build_toy(3)
    ps = position_system(f)
    cyc = cycle_block_system(ps)
    pos = position_block_system(ps)
    assert block_action(f.f1, cyc) == block_action(f.f2, cyc) == Perm([1, 2, 0])
    assert block_action(Perm.identity(6), cyc).is_identity()
    assert block_action(f.f1, pos).is_identity()
    assert block_action(f.f2, pos) == Perm([1, 0])


def test_block_action_non_invariance():
    d, f = build_toy(3)
    bs = BlockSystem([0, 0, 1, 1, 2, 2], 3)
    with pytest.raises(NonInvarianceError):
        block_action(f.f1, bs)


def set_block_images(images, block_of, k):
    """The block each block of the labelling is carried onto, from its vertex
    set; None when some block's images meet two blocks or leave the support."""
    out = []
    for i in range(k):
        targets = {block_of[images[v]] for v in range(len(images)) if block_of[v] == i}
        if len(targets) != 1 or -1 in targets:
            return None
        out.append(targets.pop())
    return out


@st.composite
def labelled_maps(draw):
    """(images, block_of, k): a permutation with either a random labelling
    (ids renumbered 0..k-1 by first use, -1 outside the support) or an
    invariant system of k equal blocks, the latter perhaps perturbed by one
    exchange of two images, which can split a block or leave the support."""
    if draw(st.booleans()):
        images = draw(st.permutations(range(draw(st.integers(1, 10)))))
        ids: dict[int, int] = {}
        raw = draw(st.lists(st.integers(-1, 3), min_size=len(images), max_size=len(images)))
        block_of = [-1 if t < 0 else ids.setdefault(t, len(ids)) for t in raw]
        return images, block_of, len(ids)
    k, size, extra = draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    n = k * size + extra
    if n == 0:
        return [], [], 0
    order = draw(st.permutations(range(n)))
    sigma = draw(st.permutations(range(k)))
    block_of = [-1] * n
    images = [0] * n
    for b in range(k):
        inner = draw(st.permutations(range(size)))
        for j in range(size):
            block_of[order[b * size + j]] = b
            images[order[b * size + j]] = order[sigma[b] * size + inner[j]]
    rest = order[k * size:]
    for v, w in zip(rest, draw(st.permutations(rest))):
        images[v] = w
    if draw(st.booleans()):
        u, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        images[u], images[w] = images[w], images[u]
    return images, block_of, k


@given(labelled_maps())
def test_block_images_match_set_definition(case):
    images, block_of, k = case
    bs = BlockSystem(block_of, k)
    expected = set_block_images(images, block_of, k)
    assert blocks._block_images(images, bs) == expected
    if expected is None:
        with pytest.raises(NonInvarianceError):
            block_action(Perm(images), bs)
    else:
        assert block_action(Perm(images), bs) == Perm(expected)


def test_relative_block_permutation_toy():
    d, f = build_toy(3)
    ps = position_system(f)
    tau_c, der_c = relative_block_permutation(f, cycle_block_system(ps))
    assert tau_c.is_identity() and not der_c
    tau_p, der_p = relative_block_permutation(f, position_block_system(ps))
    assert tau_p == Perm([1, 0]) and der_p


def test_relative_block_permutation_equal_factors():
    d = build_doubled_cycle(3)
    f = factorization_at(d, 0)
    ps = position_system(f)
    tau, der = relative_block_permutation(f, cycle_block_system(ps))
    assert tau.is_identity() and not der


def test_swap_relabel_masks():
    d, f = build_toy(3)
    dec = d.alt_decomposition
    full = (1 << dec.r) - 1
    assert swap_relabel(f, 0) == f
    g = swap_relabel(f, full)
    assert (g.f1, g.f2) == (f.f2, f.f1)
    mixed = swap_relabel(f, 1)
    assert mixed.is_valid()
    # labels swapped exactly on the masked cycle
    for v, s in dec.cycles[0]:
        head = d.out_edges[v][s]
        assert (f.f1(v) == head) == (mixed.f2(v) == head)
    for ci in (1, 2):
        for v, s in dec.cycles[ci]:
            head = d.out_edges[v][s]
            assert (f.f1(v) == head) == (mixed.f1(v) == head)


def test_swap_invariance_cycle_blocks_toy():
    rng = random.Random(11)
    for m in (3, 5):
        d, _ = build_toy(m)
        r = d.alt_decomposition.r
        for f in enumerate_factorizations(d):
            ps = position_system(f)
            bs = cycle_block_system(ps)
            tau0, _ = relative_block_permutation(f, bs)
            for _ in range(20):
                mask = rng.randrange(1 << r)
                g = swap_relabel(f, mask)
                tau1, _ = relative_block_permutation(g, bs)
                assert tau1 == tau0


SWAP_INSTANCES = ("toy:3", "toy:4", "toy:5", "shift:5", "shift:7", "morris", "a5-ex3", "doubled:4")


@lru_cache(maxsize=None)
def _digraph(name: str) -> Digraph2:
    if name.startswith("doubled:"):
        return build_doubled_cycle(int(name.split(":")[1]))
    return load_fixture(name).digraph


@pytest.mark.parametrize("name", SWAP_INSTANCES + ("a5-ex2", "toy:8", "shift:101"))
def test_out_edges_share_an_alternating_cycle(name):
    d = _digraph(name)
    cycle_of_edge = {e: i for i, cyc in enumerate(d.alt_decomposition.cycles) for e in cyc}
    assert all(cycle_of_edge[(v, 0)] == cycle_of_edge[(v, 1)] for v in range(d.n))


@pytest.mark.parametrize("name", ["toy:3", "toy:5", "shift:7", "morris", "a5-ex3", "doubled:4"])
def test_law_suite_swap_counts_match_oracle(name):
    d = _digraph(name)
    rng = random.Random(7)
    r = d.alt_decomposition.r
    masks = [rng.randrange(1 << r) for _ in range(40)] + [0, (1 << r) - 1, (1 << r) - 1]
    assert law_suite(d, masks)["swap_invariance"] == swap_invariance_counts(d, masks)


# shift:16 has 16 difference-class orbits, the most the listing oracle takes
LAW_SUITE_INSTANCES = (
    "toy:3", "toy:4", "toy:5", "toy:8", "morris", "a5-ex2", "a5-ex3", "doubled:3", "doubled:4",
    *(f"shift:{n}" for n in range(5, 12)), "shift:16",
)


@pytest.mark.parametrize("name", LAW_SUITE_INSTANCES)
def test_position_blocks_hold_one_tail_of_every_cycle(name):
    """Each block of the position system read off the cycles of x meets
    every alternating cycle in one tail, so a swap mask other than 0 and the
    full mask masks part of every block: law_suite counts on this."""
    d = _digraph(name)
    dec = d.alt_decomposition
    cycle_of_edge = {e: i for i, cyc in enumerate(dec.cycles) for e in cyc}
    for b in range(1 << dec.r):
        ps = reference_position_system(factorization_at(d, b))
        for blk in ps.blocks:
            assert sorted(cycle_of_edge[(v, 0)] for v in blk) == list(range(dec.r)), b


@pytest.mark.parametrize("name", LAW_SUITE_INSTANCES)
def test_law_suite_matches_reference(name):
    d = _digraph(name)
    rng = random.Random(11)
    masks = [rng.randrange(1 << d.alt_decomposition.r) for _ in range(30)]
    assert law_suite(d, masks) == reference_law_suite(d, masks)


@given(
    st.sampled_from(("toy:3", "toy:4", "morris", "a5-ex3", "shift:7", "doubled:3")),
    st.lists(st.integers(min_value=0), max_size=12),
)
def test_law_suite_matches_reference_on_mask_lists(name, raw_masks):
    d = _digraph(name)
    masks = [mask % (1 << d.alt_decomposition.r) for mask in raw_masks]
    assert law_suite(d, masks) == reference_law_suite(d, masks)


def test_law_suite_toy_20():
    """Every one of the 2^20 factorizations of toy:20 has constant phases,
    and all but two have unequal ones.  The counts were checked once against
    the walk over every factorization (about 19 s)."""
    d, _ = build_toy(20)
    full = (1 << 20) - 1
    assert law_suite(d, [0, full, 0, 5]) == {
        "phase_constancy": (1 << 20, 0),
        "atom_counts": (1 << 20, 0),
        "refinements": (1 << 20, (1 << 20) - 2),
        "swap_invariance": (4 * (1 << 20) + 6, 0),
    }


@pytest.mark.parametrize("name, b", [("toy:3", 0), ("toy:5", 9), ("morris", 7), ("shift:7", 1)])
def test_atom_counts_fail_when_two_tied_blocks_are_exchanged(name, b):
    """Two vertices of one x-cycle lie at different positions and in
    different tied blocks; exchanging their tied blocks breaks the atom law
    for the reference's atom sets."""
    f = factorization_at(_digraph(name), b)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    assert _reference_atom_laws(f, ps, pp)
    # F1 carries P_j onto tied block j
    tied = [0] * f.n
    for v, a in enumerate(f.f1.images):
        tied[a] = ps.pos_of[v]
    assert all(w in pp.tied_blocks[k] for w, k in enumerate(tied))
    u, v = ps.cycle_list[0][:2]
    tied[u], tied[v] = tied[v], tied[u]
    exchanged = tuple(frozenset(w for w in range(f.n) if tied[w] == k) for k in range(ps.m))
    assert not _reference_atom_laws(f, ps, pp._replace(tied_blocks=exchanged))


def test_law_suite_rejects_out_of_range_mask():
    d, _ = build_toy(3)
    with pytest.raises(PreconditionError):
        law_suite(d, [8])


def test_block_construction_toy_success():
    d, f = build_toy(3)
    ps = position_system(f)
    ws = block_construction(f, ps)
    assert isinstance(ws, WordSet)
    assert len(ws) == 6
    assert {(), (1,), (2,)} <= set(ws.words)
    assert verify_sharply_transitive(ws, f).passed


def test_block_construction_cycle_blocks_precondition():
    """F1 and F2 carry every x-cycle alike, so on the x-cycle system tau is
    the identity wherever it is defined and the derangement gate never
    passes."""
    defined = 0
    for name in SWAP_INSTANCES:
        d = _digraph(name)
        for b in range(1 << d.alt_decomposition.r):
            f = factorization_at(d, b)
            ps = position_system(f)
            bs = cycle_block_system(ps)
            with pytest.raises(PreconditionError):
                block_construction(f, ps, blocks=bs)
            try:
                tau, _ = relative_block_permutation(f, bs)
            except NonInvarianceError:
                continue
            assert tau == Perm.identity(ps.r), (name, b)
            defined += 1
    assert defined


def test_block_construction_n1():
    d = Digraph2([(0, 0)])
    f = factorization_at(d, 0)
    ps = position_system(f)
    ws = block_construction(f, ps)
    assert isinstance(ws, WordSet)
    assert ws.words == ((),)
