"""Position systems, tied refinements, phases, atoms, invariant refinements,
block actions, the block-derangement criterion, and the law suite that checks
the block/phase laws over every factorization of a digraph.

The phase of an x-cycle is the constant offset between a vertex's position
and the index of the tied block containing it; the profile computation
verifies that constancy along every cycle and reports the failing cycle
when the offset drifts.

The phase law is read on image lists, by the helpers behind both
position_system/phase_profile and law_suite: one walk over x gives every
vertex's cycle index and position, and F1(v) lies in tied block pos_of[v].
law_suite reads each factorization as the F1, F2 and x image lists of
digraph.factor_images and every law from those labellings: the atom counts
in one pass over the vertices, and the refinements as the invariance of the
position system, which holds exactly when every system invariant_refinements
would list is invariant.  It builds no object per factorization and lists
no refinement system.

A block system labels every vertex with its block id (positions, cycle
indices), and every block action, tau = sigma(F1)^-1 sigma(F2) included, is
one pass of _block_images over the vertices.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .digraph import DEFAULT_CYCLE_CAP, Digraph2, Factorization, factor_images, factorization_at
from .errors import (
    NonInvarianceError,
    PhaseInconsistencyError,
    PreconditionError,
    SizeCapError,
    UniformityError,
)
from .perm import Perm

# orbit operator convention used throughout; its inverse yields the same
# orbit partition, so position systems are convention-independent
X_CONVENTION = "F2^-1 F1"

# invariant_refinements lists 2^k - 1 systems for k difference-class orbits
REFINEMENT_ORBIT_CAP = 16


@dataclass(frozen=True)
class PositionSystem:
    """The m position blocks P_j = x^j(P_0) built from the canonical transversal.

    cycle_list holds the x-cycles sorted by minimum vertex, each starting at
    its minimum vertex, so P_0 is the set of cycle minima.  _cycle_of and
    _pos_of are indexed by vertex.
    """

    m: int
    r: int
    cycle_list: tuple[tuple[int, ...], ...]
    blocks: tuple[frozenset[int], ...]
    _cycle_of: list[int]
    _pos_of: list[int]

    def position_of(self, v: int) -> int:
        return self._pos_of[v]


def position_system(f: Factorization) -> PositionSystem:
    cycles, cycle_of, pos_of, m = _positions(f.x().images)
    if not m:
        raise UniformityError(
            f"x-cycle lengths are not uniform: {sorted(len(c) for c in cycles)}"
        )
    return PositionSystem(
        m, len(cycles), tuple(map(tuple, cycles)), tuple(map(frozenset, zip(*cycles))),
        cycle_of, pos_of,
    )


def _positions(x: Sequence[int]) -> tuple[list[list[int]], list[int], list[int], int]:
    """The cycles of x sorted by minimum, each from its minimum, the cycle
    index and the position of every vertex, and the common cycle length m
    (0 when the lengths are not uniform)."""
    n = len(x)
    cycle_of = [-1] * n
    pos_of = [0] * n
    cycles = []
    for start in range(n):
        if cycle_of[start] >= 0:
            continue
        i = len(cycles)
        cyc = []
        v = start
        while cycle_of[v] < 0:
            cycle_of[v] = i
            pos_of[v] = len(cyc)
            cyc.append(v)
            v = x[v]
        cycles.append(cyc)
    lengths = set(map(len, cycles))
    return cycles, cycle_of, pos_of, lengths.pop() if len(lengths) == 1 else 0


@dataclass(frozen=True)
class PhaseProfile:
    """Per-cycle phases, their counts, and the tied refinement F1(P_j)."""

    delta: tuple[int, ...]
    phase_counts: tuple[int, ...]
    tied_blocks: tuple[frozenset[int], ...]


def phase_profile(f: Factorization, ps: PositionSystem) -> PhaseProfile:
    """Phases from tied-block membership, verified constant along every cycle."""
    m = ps.m
    f1 = f.f1.images
    tied = _tied_positions(f1, ps._pos_of)
    delta, drift = _phases(tied, ps.cycle_list, m)
    if drift is not None:
        i, j = drift
        cyc = ps.cycle_list[i]
        raise PhaseInconsistencyError(
            f"phase not constant on cycle {i}: offset {tied[cyc[0]] % m} at position 0 "
            f"but {(tied[cyc[j]] - j) % m} at position {j}"
        )
    tied_blocks = tuple(frozenset(f1[v] for v in blk) for blk in ps.blocks)
    return PhaseProfile(tuple(delta), tuple(map(delta.count, range(m))), tied_blocks)


def _tied_positions(f1: Sequence[int], pos_of: list[int]) -> list[int]:
    """The tied block of every vertex: F1 carries P_j onto tied block j, so
    F1(v) lies in tied block pos_of[v]."""
    tied = [0] * len(f1)
    for v, w in enumerate(f1):
        tied[w] = pos_of[v]
    return tied


def _phases(
    tied: list[int], cycles: Sequence[Sequence[int]], m: int
) -> tuple[list[int], tuple[int, int] | None]:
    """Per-cycle phases, the offset of tied block over position mod m, and
    the first (cycle, position) where a cycle's offset differs from its
    offset at position 0; the phases are complete only when that is None."""
    delta = []
    for i, cyc in enumerate(cycles):
        d0 = tied[cyc[0]] % m
        for j in range(1, m):
            if (tied[cyc[j]] - j) % m != d0:
                return delta, (i, j)
        delta.append(d0)
    return delta, None


def _atom_counts_hold(pos_of: Sequence[int], tied: Sequence[int], delta: list[int], m: int) -> bool:
    """|P_j intersect F1(P_(j+d))| = r_d for all j and d, r_d the number of
    x-cycles of phase d, in one pass over the vertices: v lies in position
    block pos_of[v] and in tied block tied[v]."""
    atom = [0] * (m * m)
    for j, k in zip(pos_of, tied):
        atom[j * m + (k - j) % m] += 1
    return atom == list(map(delta.count, range(m))) * m


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
    m = ps.m
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    delta, cycle_of = pp.delta, ps._cycle_of
    for v, w in enumerate(f.f1.images):
        union(delta[cycle_of[v]], delta[cycle_of[w]])
    orbits: dict[int, list[int]] = {}
    for d in range(m):
        orbits.setdefault(find(d), []).append(d)
    return tuple(tuple(sorted(o)) for o in sorted(orbits.values(), key=min))


@dataclass(frozen=True, slots=True)
class BlockSystem:
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
    return BlockSystem(ps._pos_of, ps.m)


def cycle_block_system(ps: PositionSystem) -> BlockSystem:
    """The r x-cycle blocks of size m (labeling-independent)."""
    return BlockSystem(ps._cycle_of, ps.r)


@dataclass(frozen=True)
class RefinementSystem:
    """One class-union coarsening, tagged by its subcollection of class orbits.

    invariant records whether F1 and x both map every block onto a block;
    the flag is reported rather than enforced so callers can see exactly
    which subcollections the covering group respects.
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
    cycle_of, pos_of = ps._cycle_of, ps._pos_of
    out = []
    generators = (f.f1.images, f.x().images)
    for mask in range(1, 1 << k):
        chosen = tuple(pi[t] for t in range(k) if (mask >> t) & 1)
        classes = {d for orb in chosen for d in orb}
        kept = [d in classes for d in pp.delta]
        block_of = [pos_of[v] if kept[cycle_of[v]] else -1 for v in range(f.n)]
        size = sum(pp.phase_counts[d] for d in classes)
        system = BlockSystem(block_of, ps.m if size else 0)
        invariant = all(_block_images(g, system) is not None for g in generators)
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
    """tau = sigma(F1)^{-1} sigma(F2) on block ids, with its derangement flag."""
    s1 = block_action(f.f1, bs)
    s2 = block_action(f.f2, bs)
    tau = Perm(_relative(s1.images, s2.images))
    return tau, tau.is_derangement()


def swap_relabel(f: Factorization, swap_mask: int) -> Factorization:
    """Swap the F1/F2 labels on exactly the masked alternating cycles.  The
    law suite reads swap_relabelled_taus instead; the acceptance suite reads
    this."""
    r = f.digraph.alt_decomposition.r
    if not 0 <= swap_mask < (1 << r):
        raise PreconditionError(f"mask {swap_mask} out of range for r={r}")
    return factorization_at(f.digraph, f.bitmask ^ swap_mask)


def swap_relabelled_taus(
    f: Factorization, bs: BlockSystem, masks: list[int]
) -> tuple[tuple[int, ...], list[tuple[int, ...] | None]] | None:
    """tau on block ids for f and for swap_relabel(f, mask), per mask, without
    building the relabelled factorizations; None when f's own tau is
    undefined, and a None entry where the relabelled one is."""
    return _swap_taus(f.f1.images, f.f2.images, bs, _tail_bits(f.digraph), masks)


def _tail_bits(d: Digraph2) -> list[int]:
    """1 << (the alternating cycle holding v's out-edges), per vertex v."""
    cycle_of_edge = d.alt_decomposition.cycle_of_edge
    return [1 << cycle_of_edge[(v, 0)] for v in range(d.n)]


def _swap_taus(
    f1: Sequence[int],
    f2: Sequence[int],
    bs: BlockSystem,
    tail_bits: list[int],
    masks: list[int],
) -> tuple[tuple[int, ...], list[tuple[int, ...] | None]] | None:
    """swap_relabelled_taus on image lists.

    Both out-edges of a vertex lie on one alternating cycle, so the relabelled
    F1 is F2 on the vertices of masked cycles and F1 elsewhere.  A block whose
    cycles are all masked therefore swaps sigma(F1) and sigma(F2), one with no
    masked cycle keeps them, and a partly masked block is split by both
    relabelled factors unless sigma(F1) and sigma(F2) agree on it.
    """
    s1 = _block_images(f1, bs)
    s2 = None if s1 is None else _block_images(f2, bs)
    if s2 is None:
        return None
    tau0 = _relative(s1, s2)
    if s1 == s2:
        return tau0, [tau0] * len(masks)
    block_of = bs.block_of
    block_bits = [0] * bs.k
    for v in range(len(f1)):
        b = block_of[v]
        if b >= 0:
            block_bits[b] |= tail_bits[v]
    movers = [(i, block_bits[i]) for i in range(bs.k) if s1[i] != s2[i]]
    taus: list[tuple[int, ...] | None] = []
    for mask in masks:
        t1, t2 = s1, s2
        for i, bits in movers:
            hit = mask & bits
            if hit == 0:
                continue
            if hit != bits:
                taus.append(None)
                break
            if t1 is s1:
                t1, t2 = s1.copy(), s2.copy()
            t1[i], t2[i] = s2[i], s1[i]
        else:
            taus.append(tau0 if t1 is s1 else _relative(t1, t2))
    return tau0, taus


def _relative(s1: Sequence[int], s2: Sequence[int]) -> tuple[int, ...]:
    """s1^-1 s2 on block ids."""
    inv = [0] * len(s1)
    for i, t in enumerate(s1):
        inv[t] = i
    return tuple(inv[t] for t in s2)


def law_suite(d: Digraph2, masks: list[int]) -> dict[str, tuple[int, int]]:
    """(checked, failures) per law over all 2^r factorizations of d, keyed
    phase_constancy, atom_counts, refinements and swap_invariance.

    phase_constancy, atom_counts and refinements are checked once per
    factorization (a factorization without constant phases skips the other
    two).  swap_invariance compares tau before and after swap_relabel by each
    of masks, on the position and the cycle block systems, counting only the
    pairs where both are defined.  The 2^r factorizations are walked once and
    nothing is kept between them.  Each is read as the F1, F2 and x image
    lists, and every law from the labellings of one walk over x: positions,
    cycle indices, tied positions and phases.  No object is built per
    factorization and no refinement system is listed, so the difference-class
    orbit count is not capped.
    """
    r = d.alt_decomposition.r
    if r > DEFAULT_CYCLE_CAP:
        raise SizeCapError(f"alternating cycle count {r} exceeds cap {DEFAULT_CYCLE_CAP}")
    for mask in masks:
        if not 0 <= mask < (1 << r):
            raise PreconditionError(f"mask {mask} out of range for r={r}")
    tail_bits = _tail_bits(d)
    phase_fail = law_fail = refinement_fail = 0
    swap_checked = swap_fail = 0
    for b in range(1 << r):
        f1, f2, x = factor_images(d, b)
        cycles, cycle_of, pos_of, m = _positions(x)
        if not m:
            phase_fail += 1
            continue
        positions = BlockSystem(pos_of, m)
        tied = _tied_positions(f1, pos_of)
        delta, drift = _phases(tied, cycles, m)
        if drift is not None:
            phase_fail += 1
        else:
            if not _atom_counts_hold(pos_of, tied, delta, m):
                law_fail += 1
            # invariant_refinements lists one system per nonempty union of
            # difference-class orbits, 2^k - 1 in all: the position system
            # restricted to the x-cycles whose phases the union holds.  An
            # orbit joins the phase of v's cycle with that of F1(v)'s, and x
            # maps every cycle onto itself, so F1 and x map those cycles
            # onto themselves, and restricting an invariant system to them
            # keeps it invariant.  The union of all orbits is the position
            # system itself, so every listed system is invariant exactly
            # when the position system is.
            if _block_images(f1, positions) is None or _block_images(x, positions) is None:
                refinement_fail += 1
        for bs in (positions, BlockSystem(cycle_of, len(cycles))):
            taus = _swap_taus(f1, f2, bs, tail_bits, masks)
            if taus is None:
                continue
            tau0, relabelled = taus
            for tau1 in relabelled:
                if tau1 is not None:
                    swap_checked += 1
                    if tau1 != tau0:
                        swap_fail += 1
    total = 1 << r
    return {
        "phase_constancy": (total, phase_fail),
        "atom_counts": (total, law_fail),
        "refinements": (total, refinement_fail),
        "swap_invariance": (swap_checked, swap_fail),
    }


@dataclass(frozen=True)
class BlockConstructionFailure:
    """Bounded search ended without a verified set; not a precondition failure."""

    reason: str


def block_construction(
    f: Factorization,
    ps: PositionSystem,
    blocks: BlockSystem | None = None,
):
    """Build a sharply transitive word set containing the empty word and both
    single-factor words, gated by the block-derangement criterion.

    blocks defaults to the transversal position system; pass the x-cycle
    system to test the criterion it induces instead.  Returns a WordSet or a
    BlockConstructionFailure; raises PreconditionError when the relative
    block permutation is not a derangement.
    """
    # imported here because spanning imports this module
    from .spanning import WordSet, search_sharply_transitive, verify_sharply_transitive

    if f.n == 1:
        return WordSet.from_words([()], f, root=0)
    bs = blocks if blocks is not None else position_block_system(ps)
    tau, is_der = relative_block_permutation(f, bs)
    if not is_der:
        raise PreconditionError(
            f"relative block permutation {tau} has a fixed block; criterion fails"
        )
    root = ps.cycle_list[0][0]
    result = search_sharply_transitive(f, root=root, required=((), (1,), (2,)))
    if result is None:
        # search_sharply_transitive cuts its universe at words of length 4n
        return BlockConstructionFailure(
            f"no sharply transitive completion within word length {4 * f.n}"
        )
    verdict = verify_sharply_transitive(result, f)
    if not verdict.passed:
        return BlockConstructionFailure(f"candidate set failed verification: {verdict.reason}")
    return result
