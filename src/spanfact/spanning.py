"""Walk semantics over a factorization: sharply transitive verification,
relocatable-tree search, and the phase-corrected addressing construction
with generator splicing.

"Do two words' images agree at some vertex?" is asked two ways here.  The
verifiers, verify_sharply_transitive and verify_reloc_tree, read a whole
word set by columns with perm.first_agreeing_pair.  The sharply transitive
search grows its members one at a time in a perm.ImageBlob and tests each
candidate against all of them with one SWAR zero-lane test.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .blocks import PhaseProfile, PositionSystem, _block_images, cycle_block_system
from .digraph import Factorization
from .errors import PreconditionError
from .groups import enumerate_group
from .perm import ImageBlob, Perm, Word, compose, evaluate, first_agreeing_pair
from . import treesearch


# closure elements the tree search's bound reads before it counts as n
CLOSURE_CAP = 4000
# elements of <F1, F2> the sharply transitive search lists before SizeCapError
ELEMENT_CAP = 200_000
# tree-search nodes visited before the search stops without a certificate
NODE_CAP = 100_000_000


class WordSet:
    """Words with cached evaluation images and an optional distinguished root."""

    __slots__ = ("words", "images", "root")

    def __init__(self, words: tuple[Word, ...], images: tuple[Perm, ...], root: int | None = None):
        self.words = words
        self.images = images
        self.root = root

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_words(cls, words, f: Factorization, root: int | None = None) -> "WordSet":
        words = tuple(tuple(w) for w in words)
        images = tuple(evaluate(w, f.f1, f.f2) for w in words)
        return cls(words, images, root)


class Verdict(NamedTuple):
    passed: bool
    reason: str = ""
    first_violation: tuple | None = None


def verify_sharply_transitive(ws: WordSet, f: Factorization) -> Verdict:
    """Size n and no two words agreeing at any vertex: the n images at every
    vertex are distinct, so the images form a Latin square and every ordered
    vertex pair is hit by exactly one word.  first_violation is the least
    agreeing word pair in set order."""
    n = f.n
    if len(ws) != n:
        return Verdict(False, f"size {len(ws)} != n = {n}")
    pair = first_agreeing_pair([img.images for img in ws.images])
    if pair is not None:
        violation = (ws.words[pair[0]], ws.words[pair[1]])
        return Verdict(False, "two words agree at a vertex", violation)
    return Verdict(True)


# --- relocatable trees --------------------------------------------------------


class RelocTreeReport(NamedTuple):
    valid: bool
    reason: str = ""


def verify_reloc_tree(words: tuple[Word, ...], f: Factorization) -> RelocTreeReport:
    """Independent post-hoc check: contains the empty word, prefix-closed,
    pairwise relocatable.  A word's prefix drops its last-applied (leftmost)
    symbol.
    """
    wordset = set(words)
    if () not in wordset:
        return RelocTreeReport(False, "missing empty word")
    for w in words:
        if not w:
            continue
        if w[1:] not in wordset:
            return RelocTreeReport(False, f"missing prefix of {w}")
    pair = first_agreeing_pair([evaluate(w, f.f1, f.f2).images for w in words])
    if pair is not None:
        i, j = pair
        return RelocTreeReport(False, f"words {words[i]} and {words[j]} agree at a vertex")
    return RelocTreeReport(True)


class TreeSearchResult(NamedTuple):
    size: int
    words: tuple[Word, ...]
    certificate: bool
    nodes: int
    kernel: str


def max_relocatable_tree(f: Factorization, node_cap: int = NODE_CAP) -> TreeSearchResult:
    """Exact branch-and-bound over prefix-closed pairwise-relocatable word
    trees; certificate is emitted only when the search ran to exhaustion or
    found a tree of n words, which no tree can exceed."""
    size, witness, nodes, certified = treesearch.run_search(
        f.n, f.f1.images, f.f2.images, node_cap, CLOSURE_CAP
    )
    words: list[Word] = []
    for parent, sym in witness:
        if parent < 0:
            words.append(())
        else:
            words.append((sym,) + words[parent])
    return TreeSearchResult(
        size, tuple(words), certified, nodes, treesearch.active_kernel_name()
    )


# --- exact sharply transitive search -----------------------------------------


def search_sharply_transitive(
    f: Factorization,
    root: int,
    required: tuple[Word, ...] = ((),),
) -> WordSet | None:
    """Exact backtracking search over G = <F1, F2> for a sharply transitive
    word set containing the required words.  Words with one image agree
    everywhere, so one word per element of G loses nothing and None is a
    proof; more than ELEMENT_CAP elements raise SizeCapError."""
    n = f.n
    group = enumerate_group([f.f1, f.f2], cap=ELEMENT_CAP)
    req_imgs = [evaluate(w, f.f1, f.f2) for w in required]
    if len({img(root) for img in req_imgs}) != len(required):
        raise PreconditionError("required words collide at the root")
    # the members' images, in member order
    blob = ImageBlob(n)
    for img in req_imgs:
        if blob.agrees_packed(blob.pack(img.images)):
            return None
        blob.push(img.images)
    members: list[tuple[Word, Perm]] = list(zip(required, req_imgs))

    by_root_image: dict[int, list[tuple[Perm, Word]]] = {v: [] for v in range(n)}
    for elem, w in zip(group.elements, group.words):
        by_root_image[elem(root)].append((elem, w))
    for v in by_root_image:
        by_root_image[v].sort(key=lambda ew: (len(ew[1]), ew[1]))

    # G is transitive, as a Digraph2 is strongly connected, so every vertex
    # has |G| / n candidates and ascending order is the fewest-first order
    taken_roots = {img(root) for img in req_imgs}
    vertices = [v for v in range(n) if v not in taken_roots]

    # depth-first over the vertices with an explicit stack rather than a
    # recursive closure, which would reference itself and be left to the
    # cyclic collector; tried[k] counts the candidates tried at vertices[k]
    tried = [0]
    while len(tried) <= len(vertices):
        candidates = by_root_image[vertices[len(tried) - 1]]
        i = tried[-1]
        while i < len(candidates) and blob.agrees_packed(blob.pack(candidates[i][0].images)):
            i += 1
        if i == len(candidates):
            tried.pop()
            if not tried:
                return None
            members.pop()
            blob.pop()
            continue
        tried[-1] = i + 1
        elem, w = candidates[i]
        members.append((w, elem))
        blob.push(elem.images)
        tried.append(0)
    words = tuple(w for w, _ in members)
    images = tuple(e for _, e in members)
    return WordSet(words, images, root)


# --- phase-corrected addressing ----------------------------------------------

X_WORD: Word = (-2, 1)  # F2^{-1} after F1


def _top_action(f: Factorization, ps: PositionSystem, g: Perm) -> Perm | None:
    """Induced permutation of x-cycle indices, or None when g splits a cycle."""
    images = _block_images(g.images, cycle_block_system(ps))
    return None if images is None else Perm(images)


def phase_addressing(
    f: Factorization, ps: PositionSystem, pp: PhaseProfile
) -> WordSet:
    """Addressing words u_i x^(j - sigma(i)) evaluating bijectively at the root.

    Preconditions: the top action on the x-cycles exists, and the phases
    generate all of Z_m.  F1 and F2 both carry an alternating cycle's tails
    onto its heads, so they have one top action, and as G = <F1, F2> is
    transitive it is a single r-cycle.  The transversal word u_i is F1^k for
    the k steps from x-cycle 0 to x-cycle i along it.  The words u_i x^e
    over e in Z_m hit every vertex of cycle i whatever sigma(i), the
    position of u_i(root), is: sigma only orders cycle i's words, so that
    the word at index j hits the position-j vertex.
    """
    m, r = ps.m, ps.r
    top = _top_action(f, ps, f.f1)
    if top is None:
        raise PreconditionError("top action undefined: F1 does not permute the x-cycles")
    if m > 1 and math.gcd(m, *pp.delta) != 1:
        raise PreconditionError(
            f"phases {pp.delta} generate a proper subgroup of Z_{m}"
        )
    x = f.x()
    x_powers = [Perm.identity(f.n)]
    for _ in range(1, m):
        x_powers.append(compose(x, x_powers[-1]))
    root = ps.cycle_list[0][0]
    family: list[list[tuple[Word, Perm]]] = [[] for _ in range(r)]
    i, u_word, u_elem = 0, (), x_powers[0]
    for _ in range(r):
        sigma = ps.pos_of[u_elem(root)]
        family[i] = [
            (u_word + X_WORD * e, compose(u_elem, x_powers[e]))
            for e in ((j - sigma) % m for j in range(m))
        ]
        i, u_word, u_elem = top(i), (1,) + u_word, compose(f.f1, u_elem)
    words, images = zip(*(pair for cycle in family for pair in cycle))
    return WordSet(words, images, root)


def splice_generators(s0: WordSet, f: Factorization) -> WordSet:
    """Replace the three words hitting v0, F1(v0), F2(v0) by the empty word
    and the two single-factor words; bijectivity at the root is preserved."""
    if s0.root is None:
        raise PreconditionError("word set has no distinguished root")
    root = s0.root
    targets = (root, f.f1(root), f.f2(root))
    if len(set(targets)) != 3:
        raise PreconditionError("root and its two out-neighbors are not distinct")
    replacements = {targets[0]: (), targets[1]: (1,), targets[2]: (2,)}
    new_words = []
    new_images = []
    for w, img in zip(s0.words, s0.images):
        hit = img(root)
        if hit in replacements:
            nw = replacements[hit]
            new_words.append(nw)
            new_images.append(evaluate(nw, f.f1, f.f2))
        else:
            new_words.append(w)
            new_images.append(img)
    return WordSet(tuple(new_words), tuple(new_images), root)
