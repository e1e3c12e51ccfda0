"""Position systems, tied refinements, phases, atoms, invariant refinements,
block actions, the block-derangement criterion, and the law suite that checks
the block/phase laws over every factorization of a digraph.

The phase of an x-cycle is the constant offset between a vertex's position
and the index of the tied block containing it; the profile computation
verifies that constancy along every cycle and reports the failing cycle
when the offset drifts.

Positions are a property of the digraph: the x-cycles of every
factorization are the tail sets of the alternating cycles, and a cycle's bit
only sets the direction in which x walks it.  Digraph2._cycle_rows lists
each cycle's rows (v, F1(v), F2(v)) at both bits by position, so a tail's
position is its row index at either bit, and Digraph2._cycle_of gives the
cycle of every vertex.  position_system reads each cycle's tails from that
table at the cycle's bit, numbered by row index, and phase_profile reads the
tied blocks off F1 and the positions: F1 carries P_j onto tied block j, so
F1(v) lies in tied block pos_of[v].

law_suite visits no factorization.  The tied blocks of a cycle's tails
depend only on its own bit and the bits of the cycles that hold its tails'
in-edges, its scope, so _local_maps tabulates them per cycle at every
setting of its scope.  _phase_counts reads each law as one predicate per
cycle on those tables, and _count_masks counts the masks on which every
cycle's predicate holds, in one frontier pass over the bits.  Constant
phases imply the atom counts, and the refinement systems are all invariant
exactly when the phases are all equal, so neither law needs a count of its
own.  No refinement system is listed.

A block system labels every vertex with its block id (positions, cycle
indices), and every block action is one pass of _block_images over the
vertices; tau = sigma(F1)^-1 sigma(F2) is composed from two of them.

Both out-edges of a tail lie on its alternating cycle, so at either bit F1
and F2 carry a cycle's tails onto that cycle's heads.  On the x-cycle
system, then, F1 and F2 of every factorization have one block action, and
tau is the identity wherever it is defined.  On the position system, F2 =
F1 x^-1 and x carries P_j onto P_(j+1), so F2 permutes the position blocks
exactly when F1 does, with sigma(F2)(j) = sigma(F1)(j - 1): tau is the
shift j -> j - 1 mod m wherever it is defined.  Each position block holds
one tail of every cycle, so a swap mask other than 0 and the full mask
masks part of every position block.  law_suite counts swap invariance from
these facts and the number of factorizations on which F1 permutes the
position blocks, without relabelling.
"""
from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .digraph import Digraph2, Factorization, check_cycle_cap, factor_images, factorization_at
from .errors import (
    NonInvarianceError,
    PhaseInconsistencyError,
    PreconditionError,
    SizeCapError,
    UniformityError,
)
from .perm import Perm, compose

# orbit operator convention used throughout; its inverse yields the same
# orbit partition, so position systems are convention-independent
X_CONVENTION = "F2^-1 F1"

# invariant_refinements lists 2^k - 1 systems for k difference-class orbits
REFINEMENT_ORBIT_CAP = 16


class PositionSystem(NamedTuple):
    """The m position blocks P_j = x^j(P_0) built from the canonical transversal.

    cycle_list holds the x-cycles sorted by minimum vertex, each starting at
    its minimum vertex, so P_0 is the set of cycle minima.  cycle_of and
    pos_of label each vertex with its x-cycle and its position.
    """

    m: int
    r: int
    cycle_list: tuple[tuple[int, ...], ...]
    cycle_of: Sequence[int]
    pos_of: Sequence[int]

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The vertex set of every position block, by position."""
        return tuple(map(frozenset, zip(*self.cycle_list)))


def position_system(f: Factorization) -> PositionSystem:
    d = f.digraph
    m = _cycle_length(d)
    if not m:
        raise UniformityError(
            f"x-cycle lengths are not uniform: {sorted(len(rows) for rows, _ in d._cycle_rows)}"
        )
    cycles = tuple(
        tuple(v for v, _, _ in pair[(f.bitmask >> ci) & 1]) for ci, pair in enumerate(d._cycle_rows)
    )
    pos_of = [0] * d.n
    for cyc in cycles:
        for j, v in enumerate(cyc):
            pos_of[v] = j
    return PositionSystem(m, len(cycles), cycles, d._cycle_of, pos_of)


def _cycle_length(d: Digraph2) -> int:
    """The common length m of the x-cycles, the same on every factorization
    of d, or 0 when the lengths are not uniform."""
    lengths = {len(rows) for rows, _ in d._cycle_rows}
    return lengths.pop() if len(lengths) == 1 else 0


class PhaseProfile(NamedTuple):
    """Per-cycle phases, their counts, and the tied refinement F1(P_j)."""

    delta: tuple[int, ...]
    phase_counts: tuple[int, ...]
    tied_blocks: tuple[frozenset[int], ...]


def phase_profile(f: Factorization, ps: PositionSystem) -> PhaseProfile:
    """Phases from tied-block membership, verified constant along every cycle."""
    m = ps.m
    f1, pos_of = f.f1.images, ps.pos_of
    # F1 carries P_j onto tied block j
    tied = [0] * f.n
    for v, a in enumerate(f1):
        tied[a] = pos_of[v]
    delta = []
    for i, cyc in enumerate(ps.cycle_list):
        g = [tied[v] for v in cyc]
        j = _drift(g, m)
        if j:
            raise PhaseInconsistencyError(
                f"phase not constant on cycle {i}: offset {g[0]} at position 0 "
                f"but {(g[j] - j) % m} at position {j}"
            )
        delta.append(g[0])
    tied_blocks = tuple(frozenset(f1[v] for v in blk) for blk in zip(*ps.cycle_list))
    return PhaseProfile(tuple(delta), tuple(map(delta.count, range(m))), tied_blocks)


def _drift(g: Sequence[int], m: int) -> int:
    """The first position j where g, a cycle's map from positions to tied
    blocks, leaves the shift j -> g[0] + j mod m, or 0 when g is that shift:
    then the cycle's phase is constant, g[0]."""
    for j in range(1, m):
        if g[j] != (g[0] + j) % m:
            return j
    return 0


def atoms(
    f: Factorization, ps: PositionSystem, pp: PhaseProfile
) -> dict[tuple[int, int], frozenset[int]]:
    """A_{j,k} = P_j intersect tied block k; empty atoms included."""
    m = ps.m
    out = {}
    for j in range(m):
        for k in range(m):
            d = (k - j) % m
            out[(j, k)] = frozenset(
                cyc[j] for i, cyc in enumerate(ps.cycle_list) if pp.delta[i] == d
            )
    return out


def difference_class_orbits(
    f: Factorization, ps: PositionSystem, pp: PhaseProfile | None = None
) -> tuple[tuple[int, ...], ...]:
    """Orbits on difference classes d in Z_m under the images of atoms by F1
    and x; empty classes stay singleton orbits.  x maps every x-cycle onto
    itself, so only F1 joins classes: d(cycle of v) with d(cycle of F1(v)).
    pp is f's phase profile, computed here when not given."""
    if pp is None:
        pp = phase_profile(f, ps)
    # orbit[d]: the least class joined with d so far
    orbit = list(range(ps.m))
    delta, cycle_of = pp.delta, ps.cycle_of
    for v, w in enumerate(f.f1.images):
        a, b = orbit[delta[cycle_of[v]]], orbit[delta[cycle_of[w]]]
        if a != b:
            lo, hi = min(a, b), max(a, b)
            orbit = [lo if o == hi else o for o in orbit]
    orbits: dict[int, list[int]] = {}
    for d, label in enumerate(orbit):
        orbits.setdefault(label, []).append(d)
    return tuple(map(tuple, orbits.values()))


class BlockSystem(NamedTuple):
    """Equal-size blocks partitioning their support (usually all of V):
    block_of[v] is v's block id in 0..k-1, or -1 outside the support.  It is
    read by vertex only, so any mapping from the vertices 0..n-1 serves."""

    block_of: Sequence[int]
    k: int

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The vertex set of every block, by block id."""
        vertices = range(len(self.block_of))
        return tuple(frozenset(v for v in vertices if self.block_of[v] == i) for i in range(self.k))


def position_block_system(ps: PositionSystem) -> BlockSystem:
    """The m transversal-position blocks of size r."""
    return BlockSystem(ps.pos_of, ps.m)


def cycle_block_system(ps: PositionSystem) -> BlockSystem:
    """The r x-cycle blocks of size m (labeling-independent)."""
    return BlockSystem(ps.cycle_of, ps.r)


class RefinementSystem(NamedTuple):
    """One class-union coarsening, tagged by its subcollection of class orbits.

    invariant records whether F1 maps every block onto a block.  x always
    does, as it carries each position j to j + 1 within its own cycle, so
    F1 alone decides whether the covering group <F1, x> respects the
    system.  The flag is reported rather than enforced so callers can see
    exactly which subcollections the covering group respects.
    """

    class_orbits: tuple[tuple[int, ...], ...]
    block_size: int
    system: BlockSystem
    invariant: bool


def invariant_refinements(
    f: Factorization,
    ps: PositionSystem,
    pi: tuple[tuple[int, ...], ...],
    pp: PhaseProfile | None = None,
) -> list[RefinementSystem]:
    """One system per nonempty subcollection of Pi, each with its verified
    invariance flag; deterministic order by subcollection bitmask.  pp is f's
    phase profile, computed here when not given.  More than
    REFINEMENT_ORBIT_CAP orbits raise SizeCapError before any is listed.
    A system's blocks are the m positions on the chosen cycles, or none when
    no cycle is chosen, as a cycle meets every position."""
    k = len(pi)
    if k > REFINEMENT_ORBIT_CAP:
        raise SizeCapError(f"difference-class orbit count {k} exceeds cap {REFINEMENT_ORBIT_CAP}")
    if pp is None:
        pp = phase_profile(f, ps)
    cycle_of, pos_of = ps.cycle_of, ps.pos_of
    out = []
    for mask in range(1, 1 << k):
        chosen = tuple(pi[t] for t in range(k) if (mask >> t) & 1)
        classes = {d for orb in chosen for d in orb}
        kept = [d in classes for d in pp.delta]
        block_of = [pos_of[v] if kept[cycle_of[v]] else -1 for v in range(f.n)]
        size = sum(pp.phase_counts[d] for d in classes)
        system = BlockSystem(block_of, ps.m if size else 0)
        invariant = _block_images(f.f1.images, system) is not None
        out.append(RefinementSystem(chosen, size, system, invariant))
    return out


def block_action(g: Perm, bs: BlockSystem) -> Perm:
    """The induced permutation of block ids, or NonInvarianceError if g splits
    a block or maps one outside the support."""
    images = _block_images(g.images, bs)
    if images is None:
        raise NonInvarianceError(f"{g} splits a block or maps one outside the support")
    return Perm(images)


def _block_images(images: Sequence[int], bs: BlockSystem) -> list[int] | None:
    """The block id each block is carried onto by the map with these images,
    in one pass over the vertices, or None when it splits a block or maps one
    outside the support."""
    block_of = bs.block_of
    out = [-1] * bs.k
    for v, w in enumerate(images):
        b = block_of[v]
        if b < 0:
            continue
        t = block_of[w]
        if t < 0:
            return None
        if out[b] != t:
            if out[b] >= 0:
                return None
            out[b] = t
    return out


def relative_block_permutation(f: Factorization, bs: BlockSystem) -> tuple[Perm, bool]:
    """tau = sigma(F1)^{-1} sigma(F2) on block ids, with its derangement flag;
    NonInvarianceError when F1 or F2 does not permute the blocks.  On the
    position system tau is the shift j -> j - 1 mod m wherever it is
    defined, and on the x-cycle system the identity."""
    tau = compose(block_action(f.f1, bs).inverse(), block_action(f.f2, bs))
    return tau, tau.is_derangement()


def swap_relabel(f: Factorization, swap_mask: int) -> Factorization:
    """Swap the F1/F2 labels on exactly the masked alternating cycles.  The
    acceptance suite reads this; law_suite counts the taus it would give
    without building it."""
    r = f.digraph.alt_decomposition.r
    if not 0 <= swap_mask < (1 << r):
        raise PreconditionError(f"mask {swap_mask} out of range for r={r}")
    return factorization_at(f.digraph, f.bitmask ^ swap_mask)


def law_suite(d: Digraph2, masks: list[int]) -> dict[str, tuple[int, int]]:
    """(checked, failures) per law over all 2^r factorizations of d, keyed
    phase_constancy, atom_counts, refinements and swap_invariance.

    phase_constancy and refinements are checked once per factorization (a
    factorization without constant phases skips refinements).  atom_counts
    is implied by constant phases: tied[v] = pos_of[v] + the phase of v's
    cycle, so P_j meets F1(P_(j+d)) in the position-j vertex of every cycle
    of phase d.  No factorization is visited: _phase_counts counts, from
    per-cycle tables, the factorizations with constant phases, those whose
    phases are moreover all equal, and those on which F1 permutes the
    position blocks, with one _count_masks pass per predicate.  A
    constant-phase factorization fails the refinement law exactly when its
    phases are not all equal.  No refinement system is listed, so the
    difference-class orbit count is not capped.

    swap_invariance compares tau before and after swap_relabel by each of
    masks, on the position and the cycle block systems, counting only the
    pairs where both are defined.  It is counted without relabelling.  The
    relabelled F1 is F2 on the tails of the masked cycles and F1 elsewhere,
    and at either bit F1 and F2 both carry a cycle's tails onto its heads.
    On the cycle system, then, F1 and F2 of every factorization have one
    block action, defined on all factorizations or on none, and tau is the
    identity: every pair is checked and holds.  On the position system, F2
    permutes the blocks exactly when F1 does, and tau is then the shift
    j -> j - 1 mod m, so the count of factorizations where F1 permutes them
    decides it.  When m = 1 the shift is the identity and every mask keeps
    it.  Otherwise sigma(F1) and sigma(F2) send every block apart, and each
    position block holds one tail of each cycle, so every mask but two
    splits a block: 0 keeps tau, and the full mask swaps the factors, which
    inverts tau.  The inverse differs from the shift exactly when m > 2.
    """
    r = d.alt_decomposition.r
    check_cycle_cap(r)
    for mask in masks:
        if not 0 <= mask < (1 << r):
            raise PreconditionError(f"mask {mask} out of range for r={r}")
    total = 1 << r
    m = _cycle_length(d)
    # every factorization has the same x-cycle lengths, so when they differ
    # none has constant phases and none is checked further
    const, uniform, permuted = _phase_counts(d, m) if m else (0, 0, 0)
    swap_checked = swap_fail = 0
    if m and _block_images(factor_images(d, 0)[0], BlockSystem(d._cycle_of, r)) is not None:
        swap_checked = total * len(masks)
    # tau is the shift j -> j - 1 on every factorization counted in permuted:
    # the identity when m = 1, so every mask keeps it; otherwise only masks 0
    # (tau) and the full mask (tau^-1) are defined, and tau^-1 != tau for m > 2
    inverted = masks.count(total - 1)
    swap_checked += permuted * (len(masks) if m == 1 else masks.count(0) + inverted)
    if m > 2:
        swap_fail = permuted * inverted
    return {
        "phase_constancy": (total, total - const),
        "atom_counts": (total, 0),
        "refinements": (total, const - uniform),
        "swap_invariance": (swap_checked, swap_fail),
    }


def _local_maps(d: Digraph2) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Per cycle i, its scope and its map g_i at every setting of the scope.

    The scope is i and the cycles that hold the in-edges of i's tails,
    ascending; bit p of a setting is the bit of the scope's p-th cycle.  g_i
    lists, by position at i's bit, the tied block of each tail t of i: the
    row index of t as an F1 head in the rows of t's in-edge cycle at that
    cycle's bit.  Nothing else of the mask moves g_i."""
    n = d.n
    in_cycle = [0] * n
    tied = ([0] * n, [0] * n)
    for ci, pair in enumerate(d._cycle_rows):
        for bit, rows in enumerate(pair):
            for j, (_, a, _) in enumerate(rows):
                tied[bit][a] = j
                in_cycle[a] = ci
    out = []
    for i, pair in enumerate(d._cycle_rows):
        scope = sorted({i, *(in_cycle[v] for v, _, _ in pair[0])})
        slot = {c: p for p, c in enumerate(scope)}
        own = slot[i]
        reads = {v: slot[in_cycle[v]] for v, _, _ in pair[0]}
        table = [
            tuple(tied[(local >> reads[v]) & 1][v] for v, _, _ in pair[(local >> own) & 1])
            for local in range(1 << len(scope))
        ]
        out.append((scope, table))
    return out


def _phase_counts(d: Digraph2, m: int) -> tuple[int, int, int]:
    """(const, uniform, permuted) over the 2^r factorizations of d, whose
    x-cycles all have length m: the number with constant phases, with all
    phases moreover equal, and on which F1 permutes the position blocks.

    Three facts about the maps g_i of _local_maps decide each count.  Cycle
    i has a constant phase delta_i iff g_i is the shift j -> j + delta_i mod
    m.  So the phases are constant and all equal iff every g_i is the same
    shift.  F1 carries P_j onto tied block j, so it permutes the position
    blocks iff every g_i is the same map: each position block holds one tail
    of every cycle, and the block sizes force that map to be a bijection.

    _count_masks counts each law from one predicate per cycle: const with
    "g_i is a shift", and, for every bijection g that each cycle takes at
    some setting, the masks on which every g_i is g.  Those counts sum to
    permuted, and the ones where g is a shift to uniform; a shared map that
    is not a bijection counts 0 by the block sizes, and is skipped.
    """
    maps = _local_maps(d)
    scopes = [scope for scope, _ in maps]
    const = _count_masks(scopes, [[not _drift(g, m) for g in table] for _, table in maps])
    uniform = permuted = 0
    shared = set.intersection(*(set(table) for _, table in maps))
    for g in (g for g in shared if len(set(g)) == m):
        count = _count_masks(scopes, [[h == g for h in table] for _, table in maps])
        permuted += count
        if not _drift(g, m):
            uniform += count
    return const, uniform, permuted


def _count_masks(scopes: list[list[int]], holds: list[list[bool]]) -> int:
    """The number of masks of len(scopes) bits on which holds[i] is true at
    the setting of scopes[i] for every cycle i; bit p of a setting is the
    mask's bit scopes[i][p], and each scope ascends.  One frontier pass over
    the bits in ascending order: a state is the setting of the bits that a
    cycle not yet read still needs, and a cycle is read, and the states it
    fails dropped, once the last bit of its scope is set."""
    # a cycle that holds nowhere empties the states only at its last bit,
    # after the pass has carried every frontier setting up to it
    if not all(any(table) for table in holds):
        return 0
    r = len(scopes)
    # the cycles read once bit k is set, and the bits still needed after it
    read_at: list[list[tuple[list[int], list[bool]]]] = [[] for _ in range(r)]
    live = [0] * r
    for scope, table in zip(scopes, holds):
        read_at[scope[-1]].append((scope, table))
        for c in scope[:-1]:
            for k in range(c, scope[-1]):
                live[k] |= 1 << c
    states = {0: 1}
    for k in range(r):
        nxt: dict[int, int] = {}
        for bits, count in states.items():
            for b in (bits, bits | 1 << k):
                if all(
                    table[sum(((b >> c) & 1) << p for p, c in enumerate(scope))]
                    for scope, table in read_at[k]
                ):
                    nxt[b & live[k]] = nxt.get(b & live[k], 0) + count
        states = nxt
    return sum(states.values())


class BlockConstructionFailure(NamedTuple):
    """No set: G passed the element cap or has none; not a precondition failure."""

    reason: str


def block_construction(
    f: Factorization,
    ps: PositionSystem,
    blocks: BlockSystem | None = None,
):
    """Build a sharply transitive word set containing the empty word and both
    single-factor words, gated by the block-derangement criterion.

    blocks defaults to the transversal position system, on which tau is the
    shift j -> j - 1 mod m wherever it is defined, so the gate passes
    exactly when F1 permutes the position blocks and m > 1.  Another
    system, such as one of G's own, tests the criterion it induces instead.
    On the x-cycle system tau is the identity wherever it is defined, so
    the gate never passes there when n > 1.  Returns the unverified set that
    search_sharply_transitive finds in G = <F1, F2>, or a
    BlockConstructionFailure naming the element cap or saying G has no set;
    raises PreconditionError when the relative block permutation is
    undefined or not a derangement.
    """
    # imported here because spanning imports this module
    from .spanning import WordSet, search_sharply_transitive

    if f.n == 1:
        return WordSet.from_words([()], f, root=0)
    bs = blocks if blocks is not None else position_block_system(ps)
    tau, is_der = relative_block_permutation(f, bs)
    if not is_der:
        raise PreconditionError(
            f"relative block permutation {tau} has a fixed block; criterion fails"
        )
    root = ps.cycle_list[0][0]
    try:
        result = search_sharply_transitive(f, root=root, required=((), (1,), (2,)))
    except SizeCapError as exc:
        return BlockConstructionFailure(f"G = <F1, F2> not searched: {exc}")
    if result is None:
        return BlockConstructionFailure(
            "no sharply transitive set in G = <F1, F2> contains (), (1) and (2)"
        )
    return result
