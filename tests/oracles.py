"""Independent test-side oracles.

These deliberately share no code with the tree-search kernel, the refinement
classifier or the bitmask action: the tree oracle enumerates word trees
directly, the refinement oracle enumerates candidate class subsets and checks
invariance inline, and the conjugation oracle builds and conjugates every
factorization.
"""
from __future__ import annotations

from spanfact.digraph import Digraph2, Factorization, bitmask_of, factorization_at
from spanfact.perm import Perm, compose


def conjugation_table(d: Digraph2, phi: Perm) -> list[int]:
    """Bitmask of phi F1 phi^-1 for the factorization at every bitmask."""
    phi_inv = phi.inverse()
    return [
        bitmask_of(d, compose(phi, compose(factorization_at(d, b).f1, phi_inv)))
        for b in range(1 << d.alt_decomposition.r)
    ]


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
