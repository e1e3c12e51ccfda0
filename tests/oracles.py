"""Independent test-side oracles.

These deliberately share no code with the tree-search kernel, the refinement
classifier, the bitmask action, the swap shortcut or the list-based law
suite: the tree oracle enumerates word trees directly, the reference tree
kernel runs every closure bound to completion, the refinement oracle
enumerates candidate class subsets and checks invariance inline, the
conjugation and class oracles build and conjugate every factorization, the
class reference walks every mask through one table of 2^r images per
generator (expanded from mask_action, which the tests match to the
conjugation oracle), the F1 column oracle relabels factor_images' F1 by tail
position, the Burnside count closes the affine mask maps, read off conjugated
factorizations, into a group and counts fixed masks by linear algebra, the
swap oracle builds every relabelled factorization and computes its block
actions inline, the difference-class oracle traces both F1 and x over a
vertex dict, the reference law suite builds every factorization, its
position system and its tied blocks as objects, one mask at a time, the
reference matching is the recursive augmenting-path search, the
connectivity oracle runs a forward and a backward BFS, the alternating
cycle oracle walks a set of edge tuples, the sharply transitive oracle lists <F1, F2> as image tuples by a plain BFS and
backtracks over all of it, the verifier oracle reads each vertex's
images as a set and scans word pairs one by one, the reference
addressing walks the top action until it returns and checks transitivity, shift uniformity and
bijectivity at the root, and the reference presentation checks compare
sets of group elements (SH against HSH, <S>H against G, the cosets sH
as frozensets) where spanfact.groups reads coset ids.
"""
from __future__ import annotations

import math
import sys
from array import array
from collections import deque
from collections.abc import Iterable

from spanfact.blocks import (
    BlockSystem,
    PhaseProfile,
    PositionSystem,
    atoms,
    cycle_block_system,
    invariant_refinements,
    position_block_system,
    swap_relabel,
)
from spanfact.digraph import (
    DEFAULT_CYCLE_CAP,
    Classification,
    Digraph2,
    Factorization,
    FactorizationClass,
    bitmask_of,
    factor_images,
    factorization_at,
    mask_action,
)
from spanfact.errors import NotASubgroupError, PreconditionError, SizeCapError
from spanfact.groups import (
    ConditionCheck,
    FiniteGroup,
    LocalActionKernel,
    NormalizationResult,
    Presentation,
    ValidationReport,
    enumerate_group,
)
from spanfact.perm import Perm, compose, images_cycle_type
from spanfact.spanning import X_WORD, WordSet, _top_action


def conjugation_table(d: Digraph2, phi: Perm, masks: Iterable[int] | None = None) -> list[int]:
    """Bitmask of phi F1 phi^-1 for the factorization at each of masks,
    every bitmask by default."""
    phi_inv = phi.inverse()
    if masks is None:
        masks = range(1 << d.alt_decomposition.r)
    return [bitmask_of(d, compose(phi, compose(factorization_at(d, b).f1, phi_inv))) for b in masks]


def factorization_classes(
    d: Digraph2, generators: list[Perm], allow_swap: bool
) -> set[frozenset[int]]:
    """Masks grouped by the orbit of their factorization (f1, f2) under
    conjugation by the generators, and the swap when allowed."""
    r = d.alt_decomposition.r
    by_pair: dict[tuple, list[int]] = {}
    for b in range(1 << r):
        f = factorization_at(d, b)
        by_pair.setdefault((f.f1.images, f.f2.images), []).append(b)
    moves = []
    for phi in generators:
        phi_inv = phi.inverse()
        moves.append(lambda p, q, phi=phi, phi_inv=phi_inv: (
            compose(phi, compose(p, phi_inv)), compose(phi, compose(q, phi_inv))))
    if allow_swap:
        moves.append(lambda p, q: (q, p))
    seen: set[tuple] = set()
    classes = set()
    for pair in by_pair:
        if pair in seen:
            continue
        orbit = {pair}
        stack = [pair]
        while stack:
            p, q = stack.pop()
            for move in moves:
                p2, q2 = move(Perm(p), Perm(q))
                img = (p2.images, q2.images)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        seen |= orbit
        classes.add(frozenset(b for pr in orbit for b in by_pair[pr]))
    return classes


def _affine_conjugation(d: Digraph2, phi: Perm) -> tuple[tuple[int, ...], int]:
    """Conjugation by phi on masks as b -> c ^ (XOR of cols[s] over the bits s
    of b), read off the conjugates of factorization 0 and of each one-bit
    factorization."""
    phi_inv = phi.inverse()

    def image(b: int) -> int:
        return bitmask_of(d, compose(phi, compose(factorization_at(d, b).f1, phi_inv)))

    c = image(0)
    return tuple(image(1 << s) ^ c for s in range(d.alt_decomposition.r)), c


def _apply_linear(cols: tuple[int, ...], b: int) -> int:
    out = 0
    for s, col in enumerate(cols):
        if b >> s & 1:
            out ^= col
    return out


def _fixed_mask_count(cols: tuple[int, ...], c: int) -> int:
    """The number of masks b with (L + I) b = c, by Gaussian elimination over
    GF(2) on the rows of the augmented system."""
    r = len(cols)
    # row j: the coefficients of equation j (bit s is the entry of column s), then c_j
    rows = []
    for j in range(r):
        coeffs = sum(((cols[s] >> j & 1) ^ (s == j)) << s for s in range(r))
        rows.append((coeffs, c >> j & 1))
    rank = 0
    for s in range(r):
        pivot = next((i for i in range(rank, r) if rows[i][0] >> s & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pc, pv = rows[rank]
        rows = [(rc ^ pc, rv ^ pv) if i != rank and rc >> s & 1 else (rc, rv)
                for i, (rc, rv) in enumerate(rows)]
        rank += 1
    if any(rc == 0 and rv for rc, rv in rows):
        return 0
    return 1 << (r - rank)


def burnside_class_count(d: Digraph2, generators: list[Perm], allow_swap: bool) -> int:
    """The number of factorization classes by Burnside's lemma: the mean,
    over the group the affine mask maps generate, of the masks each fixes.

    The bit of a cycle of two parallel edges names no factorization, and the
    translation by it is in the group, so every class is closed under
    changing it: the count is taken on the other bits, the quotient by the
    parallel ones.  The conjugations keep that set of bits, and their maps
    are read off factorizations, which see only those bits; the
    translations act trivially on it, and the swap, when allowed, XORs all
    of it."""
    cycles = d.alt_decomposition.cycles
    kept = [s for s, cyc in enumerate(cycles) if len(cyc) != 2]

    def quotient(b: int) -> int:
        return sum((b >> s & 1) << i for i, s in enumerate(kept))

    unit = tuple(1 << i for i in range(len(kept)))
    gens = []
    for phi in generators:
        cols, c = _affine_conjugation(d, phi)
        gens.append((tuple(quotient(cols[s]) for s in kept), quotient(c)))
    if allow_swap:
        gens.append((unit, (1 << len(kept)) - 1))
    group = {(unit, 0)}
    frontier = list(group)
    while frontier:
        cols, c = frontier.pop()
        for gcols, gflip in gens:
            # g after (cols, c): b -> gflip ^ G(c ^ L b)
            elem = (tuple(_apply_linear(gcols, col) for col in cols), gflip ^ _apply_linear(gcols, c))
            if elem not in group:
                group.add(elem)
                frontier.append(elem)
    fixed = sum(_fixed_mask_count(cols, c) for cols, c in group)
    assert fixed % len(group) == 0
    return fixed // len(group)


# masks XORed at once while mask_action_table doubles (256 KiB a run)
_XOR_LANES = 1 << 16


def mask_action_table(action: Perm) -> array:
    """The image of every mask in range(2^r) under mask_action's signed
    permutation of the bit values 2s + v, 4 bytes a mask.

    Built by doubling: the masks in [2^s, 2^(s+1)) are those below 2^s with
    bit s set, and bit s moves the image by targets[s], so the new half is
    the old one XOR that constant, taken on runs of up to _XOR_LANES masks,
    each read as one integer: the constant times the integer with a 1 in
    every 4-byte lane holds the constant in every lane, and XOR carries
    nothing from one lane to the next."""
    r = action.n // 2
    flip = 0
    targets = []
    for s in range(r):
        # bit s of a mask lands on bit j: as its 0 value at v0, as its 1 at v1
        j, v0 = divmod(action(2 * s), 2)
        _, v1 = divmod(action(2 * s + 1), 2)
        flip |= v0 << j
        targets.append((v0 ^ v1) << j)
    table = array("I", [flip])
    lane_one = array("I", [1]).tobytes()
    for t in targets:
        n = len(table)
        step = min(n, _XOR_LANES)
        moved = t * int.from_bytes(lane_one * step, sys.byteorder)
        for lo in range(0, n, step):
            run = int.from_bytes(table[lo : lo + step], sys.byteorder) ^ moved
            table.frombytes(run.to_bytes(step * table.itemsize, sys.byteorder))
    return table


def f1_by_tail_position(d: Digraph2, b: int) -> list[int]:
    """F1 at mask b, from its image list, with every vertex relabelled by
    its tail position: the vertices listed cycle by cycle, each cycle's
    bit-0 rows in order."""
    order = [v for tails, _ in d._cycle_rows for v, _, _ in tails]
    position = {v: i for i, v in enumerate(order)}
    f1 = factor_images(d, b)[0]
    return [position[f1[v]] for v in order]


def reference_classify(d: Digraph2, aut_generators: list[Perm], allow_swap: bool) -> Classification:
    """Classification by a breadth-first walk per class: from the least
    unlabelled mask (and its complement, with the swap), through one table
    of 2^r images per generator and the XOR with the bit of each cycle of
    two parallel edges, labelling each mask as it is queued."""
    rows = d._cycle_rows
    total = 1 << len(rows)
    maps = [mask_action_table(mask_action(d, phi)) for phi in aut_generators]
    xors = [1 << j for j, (tails, _) in enumerate(rows) if len(tails) == 1]
    unlabelled = 0xFFFFFFFF
    label = array("I", [unlabelled]) * total
    classes = []
    b0 = 0
    while True:
        cid = len(classes)
        orbit = [b0, b0 ^ (total - 1)] if allow_swap else [b0]
        for b in orbit:
            label[b] = cid
        for b in orbit:
            for action in maps:
                c = action[b]
                if label[c] == unlabelled:
                    label[c] = cid
                    orbit.append(c)
            for x in xors:
                c = b ^ x
                if label[c] == unlabelled:
                    label[c] = cid
                    orbit.append(c)
        f1, f2 = factor_images(d, b0)
        classes.append(
            FactorizationClass(b0, len(orbit), (images_cycle_type(f1), images_cycle_type(f2)))
        )
        try:
            b0 = label.index(unlabelled, b0 + 1)
        except ValueError:
            return Classification(tuple(classes), label)


def swap_invariance_counts(d: Digraph2, masks: list[int]) -> tuple[int, int]:
    """(checked, failures) of the swap-invariance law by building every
    relabelled factorization: tau before and after swap_relabel by each mask,
    on the position and cycle systems, where both are defined."""
    checked = failures = 0
    for b in range(1 << d.alt_decomposition.r):
        f = factorization_at(d, b)
        ps = reference_position_system(f)
        if ps is None:
            continue
        for system in (position_block_system(ps), cycle_block_system(ps)):
            tau0 = relabelled_tau(f, system, 0)
            if tau0 is None:
                continue
            for mask in masks:
                tau1 = relabelled_tau(f, system, mask)
                if tau1 is not None:
                    checked += 1
                    failures += tau1 != tau0
    return checked, failures


def relabelled_tau(f: Factorization, system: BlockSystem, mask: int) -> Perm | None:
    """sigma(G1)^-1 sigma(G2) on block ids for G = swap_relabel(f, mask),
    None when G1 or G2 splits a block or leaves the support."""
    g = swap_relabel(f, mask)
    lookup = {v: i for i, blk in enumerate(system.blocks) for v in blk}

    def action(p: Perm) -> Perm | None:
        images = []
        for blk in system.blocks:
            targets = {lookup.get(p(v)) for v in blk}
            if None in targets or len(targets) != 1:
                return None
            images.append(targets.pop())
        return Perm(images)

    s1, s2 = action(g.f1), action(g.f2)
    if s1 is None or s2 is None:
        return None
    return compose(s1.inverse(), s2)


def _word_image(word, f1: Perm, f2: Perm) -> tuple[int, ...]:
    acc = tuple(range(f1.n))
    for sym in reversed(word):
        table = f1.images if sym == 1 else f2.images
        acc = tuple(table[v] for v in acc)
    return acc


def naive_max_tree_size(f: Factorization) -> int:
    """Exhaustive DFS over prefix-closed, pairwise-relocatable word trees."""
    f1, f2 = f.f1, f.f2

    def disjoint(a, b):
        return all(x != y for x, y in zip(a, b))

    best = 1

    def rec(members_words, members_imgs, frontier, banned):
        nonlocal best
        best = max(best, len(members_words))
        if not frontier:
            return
        w, img = frontier[0]
        rest = frontier[1:]
        # include w
        keep = [(fw, fi) for fw, fi in rest if disjoint(fi, img)]
        for sym in (1, 2):
            cw = (sym,) + w
            ci = _word_image(cw, f1, f2)
            if cw in banned:
                continue
            if all(disjoint(ci, mi) for mi in members_imgs) and all(
                cw != fw for fw, _ in keep
            ):
                keep.append((cw, ci))
        rec(members_words + [w], members_imgs + [img], keep, banned)
        # exclude w
        rec(members_words, members_imgs, rest, banned | {w})

    ident = tuple(range(f.n))
    frontier0 = []
    for sym in (1, 2):
        w = (sym,)
        img = _word_image(w, f1, f2)
        if disjoint(img, ident):
            frontier0.append((w, img))
    rec([()], [ident], frontier0, set())
    return best


def brute_force_refinement_families(f: Factorization):
    """All C-invariant families of the class-union form, over every nonempty
    subset of Z_m, as a set of frozensets of blocks (empty family included
    when some subset covers nothing)."""
    x = compose(f.f2.inverse(), f.f1)
    cycles = x.cycles()
    m = len(cycles[0])
    assert all(len(c) == m for c in cycles)
    # per-cycle phase offset: tied-block index minus position, from position 0
    tied_pos = {}
    blocks = [frozenset(c[j] for c in cycles) for j in range(m)]
    for k in range(m):
        for v in blocks[k]:
            tied_pos[f.f1(v)] = k
    delta = []
    for cyc in cycles:
        offs = {(tied_pos[cyc[j]] - j) % m for j in range(m)}
        assert len(offs) == 1, "phase not constant; oracle needs compliant instances"
        delta.append(offs.pop())

    def family_for(subset):
        fam = []
        for j in range(m):
            blk = frozenset(cyc[j] for i, cyc in enumerate(cycles) if delta[i] in subset)
            if blk:
                fam.append(blk)
        return frozenset(fam)

    def invariant(fam, g: Perm) -> bool:
        lookup = {}
        for i, blk in enumerate(fam):
            for v in blk:
                lookup[v] = i
        for blk in fam:
            targets = {lookup.get(g(v)) for v in blk}
            if None in targets or len(targets) != 1:
                return False
        return True

    found = set()
    for mask in range(1, 1 << m):
        subset = {d for d in range(m) if (mask >> d) & 1}
        fam = family_for(subset)
        if invariant(fam, f.f1) and invariant(fam, x):
            found.add(fam)
    return found


def reference_run_search(n, f1_images, f2_images, node_cap, closure_cap):
    """Returns (best_size, witness, nodes, certified), which
    spanfact.treesearch.run_search must match exactly: the exhaustive
    search's result, except that once its best first reaches n, which no
    tree can exceed, it is n, that witness, the node count at that moment
    and certified True."""
    size, witness, nodes, certified, nodes_at_n = exhaustive_run_search(
        n, f1_images, f2_images, node_cap, closure_cap
    )
    if nodes_at_n is not None:
        return n, witness, nodes_at_n, True
    return size, witness, nodes, certified


def exhaustive_run_search(n, f1_images, f2_images, node_cap, closure_cap):
    """The tree kernel with every closure bound run to completion (or to
    the cap, which counts as n), and the walk run to the end even once the
    best tree has n words.  Returns (best_size, witness, nodes, certified,
    nodes_at_n), nodes_at_n being the node count when the best first
    reached n, or None."""
    tables = (
        bytes(f1_images) + bytes(range(n, 256)),
        bytes(f2_images) + bytes(range(n, 256)),
    )
    identity = bytes(range(n))
    from_bytes = int.from_bytes

    def agrees(a: bytes, b: bytes) -> bool:
        return any(x == y for x, y in zip(a, b))

    members = [identity]
    member_set = {identity}
    blob = from_bytes(identity, "little")
    prov = [(-1, 0)]
    excluded: set[bytes] = set()

    def lanes(k: int) -> tuple[int, int]:
        low = from_bytes(b"\x01" * (n * k), "little")
        return low, low << 7

    best_size = 1
    best_witness = list(prov)
    nodes = 0
    nodes_at_n = None
    aborted = False

    def closure_bound(frontier) -> int:
        k = len(members)
        low, high = lanes(k)
        seen = set()
        queue = [entry[0] for entry in frontier]
        for e in queue:
            if e in seen:
                continue
            seen.add(e)
            if len(seen) > closure_cap:
                return n
            for table in tables:
                ne = e.translate(table)
                if ne in seen or ne in excluded:
                    continue
                x = from_bytes(ne * k, "little") ^ blob
                if (x - low) & ~x & high:
                    continue
                queue.append(ne)
        return min(len(set(col)) for col in zip(*seen))

    def rec(frontier) -> None:
        nonlocal best_size, best_witness, nodes, nodes_at_n, aborted, blob
        if nodes >= node_cap:
            aborted = True
            return
        nodes += 1
        if not frontier:
            return
        if len(members) + closure_bound(frontier) <= best_size:
            return
        elem, parent, sym = frontier[0]

        # include
        outer_blob = blob
        blob |= from_bytes(elem, "little") << (8 * n * len(members))
        members.append(elem)
        member_set.add(elem)
        prov.append((parent, sym))
        my_index = len(members) - 1
        k = len(members)
        low, high = lanes(k)
        new_frontier = [f for f in frontier[1:] if not agrees(f[0], elem)]
        for s, table in ((1, tables[0]), (2, tables[1])):
            ne = elem.translate(table)
            if ne in excluded or ne in member_set:
                continue
            if any(ne == f[0] for f in new_frontier):
                continue
            x = from_bytes(ne * k, "little") ^ blob
            if (x - low) & ~x & high:
                continue
            new_frontier.append((ne, my_index, s))
        if len(members) > best_size:
            best_size = len(members)
            best_witness = list(prov)
            if best_size == n:
                nodes_at_n = nodes
        rec(new_frontier)
        members.pop()
        member_set.discard(elem)
        prov.pop()
        blob = outer_blob
        if aborted:
            return

        # exclude
        excluded.add(elem)
        rec(frontier[1:])
        excluded.discard(elem)

    frontier0 = []
    for s, table in ((1, tables[0]), (2, tables[1])):
        ne = identity.translate(table)
        if not agrees(ne, identity) and all(ne != f[0] for f in frontier0):
            frontier0.append((ne, 0, s))
    rec(frontier0)
    return best_size, best_witness[:best_size], nodes, not aborted, nodes_at_n


def reference_matching_f1(d: Digraph2) -> tuple[int, ...]:
    """F1 of factorization 0 by the recursive augmenting-path search: from
    each unmatched tail in turn, try its heads in slot order and, at a
    matched head, recurse into its tail.  The recursion is as deep as the
    path is long, so d must be well below the recursion limit in size."""
    n = d.n
    match_l = [-1] * n
    match_r = [-1] * n

    def augment(v: int, visited: list[bool]) -> bool:
        for u in d.out_edges[v]:
            if visited[u]:
                continue
            visited[u] = True
            if match_r[u] == -1 or augment(match_r[u], visited):
                match_l[v] = u
                match_r[u] = v
                return True
        return False

    for v in range(n):
        if match_l[v] == -1:
            augment(v, [False] * n)
    return tuple(match_l)


def reference_strongly_connected(out_edges) -> bool:
    """Every vertex reaches vertex 0 and is reached from it: one BFS over the
    out-edges and one over the in-edges, with no use of regularity."""
    n = len(out_edges)
    if n == 0:
        return False
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for v, (a, b) in enumerate(out_edges):
        fwd[v] += [a, b]
        bwd[a].append(v)
        bwd[b].append(v)
    for adj in (fwd, bwd):
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        if not all(seen):
            return False
    return True


def reference_alt_cycles(out_edges) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The alternating cycles of a 2-in, 2-out digraph as edge lists (tail,
    slot): each cycle starts at the first unseen edge in (tail, slot) order
    and alternates an edge with the other in-edge of its head, then the other
    out-edge of that edge's tail.  Every edge is tracked in a set."""
    edges = [(v, s) for v in range(len(out_edges)) for s in (0, 1)]
    ins = {}
    for e in edges:
        ins.setdefault(out_edges[e[0]][e[1]], []).append(e)
    seen = set()
    cycles = []
    for e0 in edges:
        if e0 in seen:
            continue
        cyc = []
        e = e0
        while True:
            a, b = ins[out_edges[e[0]][e[1]]]
            f = b if a == e else a
            cyc += [e, f]
            seen.update((e, f))
            e = (f[0], 1 - f[1])
            if e == e0:
                break
        cycles.append(tuple(cyc))
    return tuple(cycles)


def reference_position_system(f: Factorization) -> PositionSystem | None:
    """The position system from the cycles of x = F2^-1 F1 as Perm objects,
    with dict lookups; None when the cycle lengths are not uniform."""
    cycles = compose(f.f2.inverse(), f.f1).cycles()
    if len({len(c) for c in cycles}) != 1:
        return None
    cycle_of = {v: i for i, cyc in enumerate(cycles) for v in cyc}
    pos_of = {v: j for cyc in cycles for j, v in enumerate(cyc)}
    return PositionSystem(len(cycles[0]), len(cycles), cycles, cycle_of, pos_of)


def reference_phase_profile(f: Factorization, ps: PositionSystem) -> PhaseProfile | None:
    """Phases read from the tied blocks F1(P_k) as frozensets; None when the
    offset is not constant along some x-cycle."""
    m = ps.m
    tied = tuple(frozenset(f.f1(v) for v in ps.blocks[k]) for k in range(m))
    tied_pos = {v: k for k, blk in enumerate(tied) for v in blk}
    delta = []
    for cyc in ps.cycle_list:
        offsets = {(tied_pos[v] - j) % m for j, v in enumerate(cyc)}
        if len(offsets) != 1:
            return None
        delta.append(offsets.pop())
    counts = tuple(delta.count(d) for d in range(m))
    return PhaseProfile(tuple(delta), counts, tied)


def reference_law_suite(d: Digraph2, masks: list[int]) -> dict[str, tuple[int, int]]:
    """The law suite one factorization object at a time: its position system
    and phase profile as objects, and swap invariance from the block actions
    of the Perms on per-block vertex sets (the relabelled taus by the
    cycle-bit shortcut).  spanfact.blocks.law_suite must match it exactly."""
    r = d.alt_decomposition.r
    if r > DEFAULT_CYCLE_CAP:
        raise SizeCapError(f"alternating cycle count {r} exceeds cap {DEFAULT_CYCLE_CAP}")
    for mask in masks:
        if not 0 <= mask < (1 << r):
            raise PreconditionError(f"mask {mask} out of range for r={r}")
    phase_fail = law_fail = refinement_fail = 0
    swap_checked = swap_fail = 0
    for b in range(1 << r):
        f = factorization_at(d, b)
        ps = reference_position_system(f)
        if ps is None:
            phase_fail += 1
            continue
        pp = reference_phase_profile(f, ps)
        if pp is None:
            phase_fail += 1
        else:
            if not _reference_atom_laws(f, ps, pp):
                law_fail += 1
            pi = reference_difference_class_orbits(f, ps, pp)
            refs = invariant_refinements(f, ps, pi, pp)
            if len(refs) != (1 << len(pi)) - 1 or not all(rs.invariant for rs in refs):
                refinement_fail += 1
        for system in (position_block_system(ps), cycle_block_system(ps)):
            taus = _reference_swap_taus(f, system, masks)
            if taus is None:
                continue
            tau0, relabelled = taus
            for tau1 in relabelled:
                if tau1 is not None:
                    swap_checked += 1
                    swap_fail += tau1 != tau0
    total = 1 << r
    return {
        "phase_constancy": (total, phase_fail),
        "atom_counts": (total, law_fail),
        "refinements": (total, refinement_fail),
        "swap_invariance": (swap_checked, swap_fail),
    }


def reference_difference_class_orbits(
    f: Factorization, ps: PositionSystem, pp: PhaseProfile
) -> tuple[tuple[int, ...], ...]:
    """Orbits on difference classes under F1 and x, both traced over a
    vertex-to-class dict; spanfact.blocks.difference_class_orbits must match."""
    parent = list(range(ps.m))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    class_of_vertex = {v: pp.delta[i] for i, cyc in enumerate(ps.cycle_list) for v in cyc}
    for g in (f.f1, f.x()):
        for v, d in class_of_vertex.items():
            ra, rb = find(d), find(class_of_vertex[g(v)])
            parent[max(ra, rb)] = min(ra, rb)
    orbits: dict[int, list[int]] = {}
    for d in range(ps.m):
        orbits.setdefault(find(d), []).append(d)
    return tuple(tuple(orbit) for orbit in sorted(orbits.values(), key=min))


def _reference_atom_laws(f: Factorization, ps: PositionSystem, pp: PhaseProfile) -> bool:
    m = ps.m
    A = atoms(f, ps, pp)
    counts_ok = sum(pp.phase_counts) == ps.r and all(
        len(A[(j, (j + dd) % m)]) == pp.phase_counts[dd] for j in range(m) for dd in range(m)
    )
    return counts_ok and all(
        A[(j, k)] == (ps.blocks[j] & pp.tied_blocks[k]) for j in range(m) for k in range(m)
    )


def _reference_swap_taus(f: Factorization, system: BlockSystem, masks: list[int]):
    """(tau0, relabelled taus) from block actions on vertex sets: a block
    whose cycles are all masked swaps sigma(F1) and sigma(F2), one with no
    masked cycle keeps them, and a partly masked block is split unless they
    agree on it."""
    lookup = {v: i for i, blk in enumerate(system.blocks) for v in blk}

    def action(p: Perm) -> list[int] | None:
        out = []
        for blk in system.blocks:
            targets = {lookup.get(p(v)) for v in blk}
            if None in targets or len(targets) != 1:
                return None
            out.append(targets.pop())
        return out

    def relative(s1: list[int], s2: list[int]) -> tuple[int, ...]:
        inv = {t: i for i, t in enumerate(s1)}
        return tuple(inv[t] for t in s2)

    s1, s2 = action(f.f1), action(f.f2)
    if s1 is None or s2 is None:
        return None
    tau0 = relative(s1, s2)
    cycle_of_edge = {e: i for i, cyc in enumerate(f.digraph.alt_decomposition.cycles) for e in cyc}
    movers = {
        i: sum({1 << cycle_of_edge[(v, 0)] for v in blk})
        for i, blk in enumerate(system.blocks)
        if s1[i] != s2[i]
    }
    taus = []
    for mask in masks:
        t1, t2 = list(s1), list(s2)
        for i, bits in movers.items():
            hit = mask & bits
            if hit == 0:
                continue
            if hit != bits:
                taus.append(None)
                break
            t1[i], t2[i] = s2[i], s1[i]
        else:
            taus.append(relative(t1, t2))
    return tau0, taus


def reference_sharply_transitive(f: Factorization) -> bool:
    """Whether some n elements of G = <F1, F2>, the identity, F1 and F2 among
    them, agree pairwise at no vertex.  G is listed by a plain BFS over image
    tuples; the backtracking picks, vertex by vertex in ascending order, an
    element sending vertex 0 there, and tries every one."""
    n = f.n
    gens = (f.f1.images, f.f2.images)
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[x] for x in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    by_image: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(n)}
    for g in seen:
        by_image[g[0]].append(g)
    chosen = [ident, gens[0], gens[1]]
    if len({g[0] for g in chosen}) != 3:
        raise PreconditionError("vertex 0, F1(0) and F2(0) are not distinct")
    if any(a[v] == b[v] for a in chosen for b in chosen if a is not b for v in range(n)):
        return False
    todo = [v for v in range(n) if v not in {g[0] for g in chosen}]

    def extend(k: int) -> bool:
        if k == len(todo):
            return True
        for g in by_image[todo[k]]:
            if all(g[v] != c[v] for c in chosen for v in range(n)):
                chosen.append(g)
                if extend(k + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


def reference_verify_sharply_transitive(ws: WordSet, f: Factorization) -> tuple[bool, tuple | None]:
    """(passed, first_violation) of the sharp-transitivity verifier.  A set
    of n words passes iff each vertex's column of images, read as a set, has
    n members; its violation is the first word pair, in set order, that a
    plain pairwise scan finds agreeing at some vertex."""
    n = f.n
    if len(ws) != n:
        return False, None
    images = [img.images for img in ws.images]
    passed = all(len(set(column)) == n for column in zip(*images))
    violation = next(
        ((ws.words[i], ws.words[j]) for i in range(n) for j in range(i + 1, n)
         if any(a == b for a, b in zip(images[i], images[j]))),
        None,
    )
    return passed, violation


def reference_phase_addressing(f: Factorization, ps: PositionSystem, pp: PhaseProfile) -> WordSet:
    """The addressing words u_i x^(j - sigma(i)) with every check run: the
    top action must be transitive, each u_i must shift every position of
    cycle 0 by one amount, and the family must hit every vertex from the
    root.  spanfact.spanning.phase_addressing must match its words, images,
    root and errors."""
    m, r = ps.m, ps.r
    top = _top_action(f, ps, f.f1)
    if top is None:
        raise PreconditionError("top action undefined: F1 does not permute the x-cycles")
    if m > 1 and math.gcd(m, *pp.delta) != 1:
        raise PreconditionError(f"phases {pp.delta} generate a proper subgroup of Z_{m}")
    u_words = {0: ()}
    u_elems = {0: Perm.identity(f.n)}
    i = 0
    while (j := top(i)) not in u_words:
        u_words[j] = (1,) + u_words[i]
        u_elems[j] = compose(f.f1, u_elems[i])
        i = j
    if len(u_words) != r:
        raise PreconditionError(
            f"top action is not transitive: reached {len(u_words)} of {r} cycles"
        )
    root_cycle = ps.cycle_list[0]
    sigma = {}
    for i in range(r):
        e = u_elems[i]
        shift = ps.pos_of[e(root_cycle[0])] % m
        for j in range(1, m):
            sj = (ps.pos_of[e(root_cycle[j])] - j) % m
            if sj != shift:
                raise PreconditionError(
                    f"transversal word for cycle {i} has non-uniform shift "
                    f"({shift} at position 0, {sj} at position {j})"
                )
        sigma[i] = shift
    x = f.x()
    x_powers = [Perm.identity(f.n)]
    for _ in range(1, m):
        x_powers.append(compose(x, x_powers[-1]))
    root = root_cycle[0]
    words, images = [], []
    for i in range(r):
        for j in range(m):
            e = (j - sigma[i]) % m
            words.append(u_words[i] + X_WORD * e)
            images.append(compose(u_elems[i], x_powers[e]))
    if len({img(root) for img in images}) != f.n:
        raise PreconditionError("addressing family is not bijective at the root")
    return WordSet(tuple(words), tuple(images), root)


def reference_subgroup_closure(group: FiniteGroup, H_generators: list[Perm]) -> tuple[int, ...]:
    """Element indices of <H_generators> inside group, ascending."""
    idx = group.index
    for h in H_generators:
        if h not in idx:
            raise NotASubgroupError(f"generator {h} lies outside the group")
    sub = enumerate_group(list(H_generators) or [Perm.identity(group.degree)])
    out = []
    for h in sub.elements:
        if h not in idx:
            raise NotASubgroupError(f"element {h} of the closure lies outside the group")
        out.append(idx[h])
    return tuple(sorted(out))


def reference_validate_presentation(p: Presentation) -> ValidationReport:
    """Check the four coset-presentation conditions; failures are report entries."""
    group = p.group
    idx = group.index
    H = reference_subgroup_closure(group, list(p.H_generators))
    H_set = set(H)
    S = list(p.S)

    c1 = all(i not in H_set for i in S)

    SH = {group.mul(s, h) for s in S for h in H}
    HSH = {group.mul(h1, group.mul(s, h2)) for s in S for h1 in H for h2 in H}
    c2 = HSH == SH

    coset_of_el = {}
    for s in SH:
        members = frozenset(group.mul(s, h) for h in H)
        coset_of_el[s] = members
    s_cosets = [coset_of_el[s] for s in S]
    c3 = len(set(s_cosets)) == len(S) and len(SH) == len(S) * len(H)

    gen_sub = enumerate_group([group.elements[i] for i in S] or [Perm.identity(group.degree)])
    span = {idx[compose(a, group.elements[h])] for a in gen_sub.elements for h in H}
    c4 = len(span) == len(group)

    return ValidationReport(
        (
            ConditionCheck("S_disjoint_from_H", c1),
            ConditionCheck("HSH_equals_SH", c2),
            ConditionCheck("S_one_rep_per_coset", c3),
            ConditionCheck("S_and_H_generate_G", c4),
        )
    )


def reference_normalize_degree2(p: Presentation) -> NormalizationResult:
    """Rewrite S = {s, t} as {s, hs} when some h in H moves the coset sH.

    Such a rewrite never changes the digraph; when no h in H works the
    presentation is returned unchanged with swapped=False.
    """
    if len(p.S) != 2:
        raise PreconditionError("normalization applies to |S| = 2 only")
    if not reference_validate_presentation(p).valid:
        raise PreconditionError("presentation is not valid")
    group = p.group
    H = reference_subgroup_closure(group, list(p.H_generators))
    s_i, t_i = p.S
    sH = frozenset(group.mul(s_i, h) for h in H)
    tH = frozenset(group.mul(t_i, h) for h in H)
    for h in H:
        hs = group.mul(h, s_i)
        if hs not in sH:
            # hs lies in tH, so hs = t*k for a unique k in H
            t_inv = group.inv(t_i)
            k = group.mul(t_inv, hs)
            new_p = Presentation(group, p.H_generators, (s_i, hs), p.name)
            return NormalizationResult(new_p, True, h_index=h, k_index=k)
    return NormalizationResult(p, False)


def reference_local_action_kernel(p: Presentation) -> LocalActionKernel:
    """Kernel of H acting by left multiplication on the two cosets {sH, tH}."""
    if len(p.S) != 2:
        raise PreconditionError("local action defined for |S| = 2 only")
    group = p.group
    H = reference_subgroup_closure(group, list(p.H_generators))
    s_i, t_i = p.S
    sH = frozenset(group.mul(s_i, h) for h in H)
    tH = frozenset(group.mul(t_i, h) for h in H)
    kernel = []
    for h in H:
        h_sH = frozenset(group.mul(h, x) for x in sH)
        h_tH = frozenset(group.mul(h, x) for x in tH)
        if h_sH == sH and h_tH == tH:
            kernel.append(h)
    kernel_set = set(kernel)
    normal = all(
        group.mul(g, group.mul(k, group.inv(g))) in kernel_set
        for g in range(len(group))
        for k in kernel
    )
    return LocalActionKernel(tuple(kernel), normal)
