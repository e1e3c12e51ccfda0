"""2-regular digraphs, their 1-factorizations, and classification up to symmetry.

Edges are addressed as (tail, slot) with slot in {0, 1} indexing the out-edge
pair, so parallel edges stay distinguishable.  The alternating-cycle
decomposition is computed from the digraph alone.  Each cycle's edges
alternate between two perfect matchings of its tails onto its heads, so a
1-factorization is exactly a choice of orientation bit per alternating cycle:
one walk round each cycle gives both of its matchings and the x order of its
tails, with no matching search.  That gives the 2^r enumeration, the
complement pairing, and mask-based relabeling for free.
"""
from __future__ import annotations

import struct
from array import array
from functools import cached_property, partial
from typing import NamedTuple

from .errors import PreconditionError, SizeCapError, StrongConnectivityError
from .groups import CosetSpace, Presentation, coset_space, enumerate_group
from .groups import left_multiplication, validate_presentation
from .perm import Perm, compose, images_cycle_type

Edge = tuple[int, int]
Row = tuple[int, int, int]  # (v, F1(v), F2(v))

DEFAULT_CYCLE_CAP = 24
# the label of a mask no class has reached yet; class ids stay below 2^24
_UNLABELLED = 0xFFFFFFFF


class Digraph2:
    """A digraph in which every vertex has out-degree and in-degree 2."""

    def __init__(self, out_edges):
        self.out_edges: tuple[tuple[int, int], ...] = tuple(
            (int(a), int(b)) for a, b in out_edges
        )
        self.n = n = len(self.out_edges)
        # _ins[a]: the in-edges (tail, slot) of head a
        self._ins: list[list[Edge]] = [[] for _ in range(n)]
        for v, pair in enumerate(self.out_edges):
            for s, u in enumerate(pair):
                if not 0 <= u < n:
                    raise PreconditionError(f"edge head {u} out of range")
                self._ins[u].append((v, s))
        bad = [v for v in range(n) if len(self._ins[v]) != 2]
        if bad:
            raise PreconditionError(f"vertices with in-degree != 2: {bad}")
        if not self._strongly_connected():
            raise StrongConnectivityError("digraph is not strongly connected")

    def _strongly_connected(self) -> bool:
        """Every vertex has in-degree equal to its out-degree, so each weakly
        connected part is Eulerian and hence strongly connected: one forward
        search from vertex 0 decides it."""
        if self.n == 0:
            return False
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        while stack:
            for u in self.out_edges[stack.pop()]:
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        return all(seen)

    def __repr__(self) -> str:
        return f"Digraph2(n={self.n})"

    @cached_property
    def alt_decomposition(self) -> "AltCycleDecomposition":
        """Alternating cycles, independent of any factorization labeling.

        Every head has in-degree 2, so the walk leaves an edge by the other
        in-edge of its head and then by the other out-edge of that edge's
        tail.  Both out-edges of a tail lie on one cycle, so a cycle starts
        at (least unmarked tail, 0) and marking tails is enough.
        """
        ins = self._ins
        marked = bytearray(self.n)
        cycles: list[tuple[Edge, ...]] = []
        for v0 in range(self.n):
            if marked[v0]:
                continue
            cyc: list[Edge] = []
            v, s = v0, 0
            while True:
                marked[v] = 1
                e = (v, s)
                a, b = ins[self.out_edges[v][s]]
                f = b if a == e else a
                cyc += (e, f)
                v, s = f[0], 1 - f[1]
                if v == v0 and s == 0:
                    break
            cycles.append(tuple(cyc))
        return AltCycleDecomposition(tuple(cycles))

    @cached_property
    def _cycle_rows(self) -> tuple[tuple[tuple[Row, ...], tuple[Row, ...]], ...]:
        """Per alternating cycle, at bit 0 and at bit 1, one row (v, F1(v),
        F2(v)) per tail v, listed by the position of v: row j holds x^j of
        the cycle's least tail, x = F2^-1 F1 at that bit.  A cycle of two
        parallel edges is the one-row cycle.

        Both out-edges of a tail, and both in-edges of a head, lie on one
        cycle, so a cycle's two orientations are its two perfect matchings:
        its even edges cyc[::2] and its odd edges cyc[1::2].  The walk
        starts at (least tail, 0), and the odd edge after an even one leaves
        the next tail for the same head, so with F1 on the even edges x of a
        tail is the next tail of the walk: the even rows are the walk order.
        The odd rows swap F1 and F2 and walk it backwards from the least
        tail.  Bit 0 is the matching that holds the slot-0 edge of the
        cycle's largest tail, the one an augmenting-path search over the
        tails in order, slot 0 first, finds (tests/oracles.py keeps that
        search as the reference).
        """
        out = []
        for cyc in self.alt_decomposition.cycles:
            even = tuple(
                (v, self.out_edges[v][s], self.out_edges[v][1 - s]) for v, s in cyc[::2]
            )
            odd = tuple((v, b, a) for v, a, b in even[:1] + even[:0:-1])
            _, s = max(cyc[::2])
            out.append((even, odd) if s == 0 else (odd, even))
        return tuple(out)

    @cached_property
    def _cycle_of(self) -> tuple[int, ...]:
        """The alternating cycle holding the out-edges of every vertex."""
        out = [0] * self.n
        for ci, (rows, _) in enumerate(self._cycle_rows):
            for v, _, _ in rows:
                out[v] = ci
        return tuple(out)


class AltCycleDecomposition(NamedTuple):
    """Edge partition into alternating cycles; each edge list alternates direction."""

    cycles: tuple[tuple[Edge, ...], ...]

    @property
    def r(self) -> int:
        return len(self.cycles)


class Factorization(NamedTuple):
    """An ordered pair of 1-factors tagged with its orientation bitmask."""

    digraph: Digraph2
    f1: Perm
    f2: Perm
    bitmask: int

    @property
    def n(self) -> int:
        return self.digraph.n

    def x(self) -> Perm:
        """The orbit operator F2^{-1} F1."""
        return compose(self.f2.inverse(), self.f1)

    def is_valid(self) -> bool:
        return all(
            sorted((self.f1(v), self.f2(v))) == sorted(self.digraph.out_edges[v])
            for v in range(self.n)
        )


def factor_images(d: Digraph2, bitmask: int) -> tuple[list[int], list[int]]:
    """Image lists of F1 and F2 for the factorization at bitmask: one row per
    vertex, read from its cycle's bit; not range-checked."""
    n = d.n
    f1 = [0] * n
    f2 = [0] * n
    for ci, rows in enumerate(d._cycle_rows):
        for v, a, b in rows[(bitmask >> ci) & 1]:
            f1[v] = a
            f2[v] = b
    return f1, f2


def factorization_at(d: Digraph2, bitmask: int) -> Factorization:
    """The 1-factorization selected by flipping the masked alternating cycles."""
    r = d.alt_decomposition.r
    if not 0 <= bitmask < (1 << r):
        raise PreconditionError(f"bitmask {bitmask} out of range for r={r}")
    f1, f2 = factor_images(d, bitmask)
    return Factorization(d, Perm(f1), Perm(f2), bitmask)


def bitmask_of(d: Digraph2, f1: Perm) -> int:
    """Recover the orientation bitmask of the factorization whose first factor
    is f1: bit j is set iff f1 and F1 of factorization 0 differ at the first
    tail of cycle j (never, on a one-row cycle)."""
    mask = 0
    for j, (rows, _) in enumerate(d._cycle_rows):
        w, a, _ = rows[0]
        if f1(w) != a:
            mask |= 1 << j
    return mask


def check_cycle_cap(r: int) -> None:
    """Refuse r past DEFAULT_CYCLE_CAP, read at call time.  It guards the
    2^r walks of the listing and the classification, and bounds the law
    suite's counts, which walk no mask, to the same instances."""
    if r > DEFAULT_CYCLE_CAP:
        raise SizeCapError(f"alternating cycle count {r} exceeds cap {DEFAULT_CYCLE_CAP}")


def enumerate_factorizations(d: Digraph2) -> list[Factorization]:
    """All 2^r factorizations, bitmask ascending.  No CLI path reads this
    list (the listing and classification walk bitmasks); the acceptance suite
    and the tests do."""
    r = d.alt_decomposition.r
    check_cycle_cap(r)
    return [factorization_at(d, b) for b in range(1 << r)]


# --- builders ----------------------------------------------------------------


class CosetDigraph(NamedTuple):
    """A coset digraph together with its group context."""

    digraph: Digraph2
    space: CosetSpace
    presentation: Presentation

    def default_aut_generators(self) -> list[Perm]:
        """Left multiplications by the group's defining generators."""
        return [left_multiplication(self.space, g) for g in self.presentation.group.generators]


def build_coset_digraph(p: Presentation, space: CosetSpace | None = None) -> CosetDigraph:
    """Vertices are right cosets gH; out-edges of gH are gsH for s in S.  The
    one coset space, given or built here, also decides the presentation's
    conditions."""
    if space is None:
        space = coset_space(p.group, list(p.H_generators))
    report = validate_presentation(p, space)
    if not report.valid:
        failed = [c.label for c in report.checks if not c.passed]
        raise PreconditionError(f"invalid presentation; failing conditions: {failed}")
    if len(p.S) != 2:
        raise PreconditionError("degree-2 digraph needs |S| = 2")
    group = p.group
    s_el, t_el = (group.elements[i] for i in p.S)
    out = []
    for rep in space.representative:
        g = group.elements[rep]
        out.append(
            (
                space.coset_of[group.index[compose(g, s_el)]],
                space.coset_of[group.index[compose(g, t_el)]],
            )
        )
    return CosetDigraph(Digraph2(out), space, p)


def build_toy(m: int) -> tuple[Digraph2, Factorization]:
    """The two-row family on {0,1} x Z_m with vertex id m*i + j.

    F1 keeps the row, F2 flips it; both advance the column by one.
    """
    if m < 3:
        raise PreconditionError("toy family needs m >= 3")
    n = 2 * m
    f1 = [0] * n
    f2 = [0] * n
    for i in (0, 1):
        for j in range(m):
            v = m * i + j
            f1[v] = m * i + (j + 1) % m
            f2[v] = m * (1 - i) + (j + 1) % m
    d = Digraph2(tuple(zip(f1, f2)))
    p1 = Perm(f1)
    return d, Factorization(d, p1, Perm(f2), bitmask_of(d, p1))


def build_shift(n: int) -> tuple[Digraph2, Factorization]:
    """Circulant digraph on Z_n with out-edges v -> v+1, v -> v+2; for n < 3
    the steps 1 and 2 are not distinct and nonzero mod n."""
    if n < 3:
        raise PreconditionError("shift digraph needs n >= 3 and distinct nonzero steps")
    f1 = [(v + 1) % n for v in range(n)]
    f2 = [(v + 2) % n for v in range(n)]
    d = Digraph2(tuple(zip(f1, f2)))
    p1 = Perm(f1)
    return d, Factorization(d, p1, Perm(f2), bitmask_of(d, p1))


def build_doubled_cycle(n: int) -> Digraph2:
    """Directed n-cycle with every edge doubled (parallel edges)."""
    return Digraph2(tuple(((v + 1) % n, (v + 1) % n) for v in range(n)))


# --- classification ----------------------------------------------------------


def is_digraph_automorphism(phi: Perm, d: Digraph2) -> bool:
    if phi.n != d.n:
        return False
    for v in range(d.n):
        a, b = d.out_edges[v]
        img = sorted((phi(a), phi(b)))
        tgt = sorted(d.out_edges[phi(v)])
        if img != tgt:
            return False
    return True


class FactorizationClass(NamedTuple):
    representative: int
    size: int
    cycle_type_pair: tuple[tuple[int, ...], tuple[int, ...]]


class Classification:
    """The classes, in order of their representatives, and the class id of
    every mask: label[b] indexes classes.  Reads as the sequence of its
    classes; two classifications with equal classes and labels are equal."""

    __slots__ = ("classes", "label")

    def __init__(self, classes: tuple[FactorizationClass, ...], label: array):
        self.classes = classes
        self.label = label

    def __eq__(self, other):
        if not isinstance(other, Classification):
            return NotImplemented
        return self.classes == other.classes and self.label == other.label

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def mask_action(d: Digraph2, phi: Perm) -> Perm:
    """How conjugation by the automorphism phi acts on orientation bitmasks,
    as a signed permutation of the cycle bits.

    Point 2s + v means "bit s of the mask is v".  phi carries the out-edges
    of u = phi^-1(w_j), w_j the first tail of cycle j, onto those of w_j,
    and both out-edges of u lie on one cycle s, so the map sends 2s + v to
    2j + (v ^ flip_j).  flip_j is bit j of the image of mask 0, the bitmask
    of phi F1_0 phi^-1: it is set iff phi(F1_0(u)) is not a_j, the head of
    F1_0 at w_j.  A cycle of two parallel edges has no flip, and phi
    carries it onto another such cycle.
    """
    phi_inv = phi.inverse()
    f1_0 = factor_images(d, 0)[0]
    images = [0] * (2 * len(d._cycle_rows))
    for j, (rows, _) in enumerate(d._cycle_rows):
        w, a, _ = rows[0]
        u = phi_inv(w)
        flip = phi(f1_0[u]) != a
        s = d._cycle_of[u]
        for v in (0, 1):
            images[2 * s + v] = 2 * j + (v ^ flip)
    return Perm(images, check=False)


def _lanes(values: list[int]) -> int:
    """One integer holding values[i] in its 4-byte lane i."""
    return int.from_bytes(struct.pack(f"<{len(values)}I", *values), "little")


def _mask_columns(elements: tuple[Perm, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Every element's map of masks, as mask_action's signed permutations of
    the 2r bit values, read a byte of the mask at a time, lane by lane: lane
    i of an image integer, its bits [32i, 32i + 32), holds element i's image
    of one mask, and the XOR over the mask's bytes k of columns[k][byte k]
    is that integer.  An element e sends source bit s to bit j flipped by v
    where e[2s] = 2j + v, so its lane takes 1 << j from bit s and v << j
    from the flip.  columns[k][v] is the part of mask v << 8k, columns[0]
    also holds the flips, and each column is built by doubling."""
    images = [e.images for e in elements]
    flip = _lanes([sum((e[2 * s] & 1) << (e[2 * s] >> 1) for s in range(r)) for e in images])
    columns = []
    for lo in range(0, r, 8):
        column = [0 if columns else flip]
        for s in range(lo, min(lo + 8, r)):
            u = _lanes([1 << (e[2 * s] >> 1) for e in images])
            column += [v ^ u for v in column]
        columns.append(tuple(column))
    return tuple(columns)


def _f1_columns(d: Digraph2) -> tuple[tuple[bytes | array, ...], ...]:
    """F1 at every mask, relabelled by tail position, read a byte of the
    mask at a time.  A vertex's tail position is its cycle's offset plus its
    row index in that cycle's bit-0 rows, so each cycle holds a run of
    positions.  Its segment at bit 0 is F1's relabelled images on that run;
    at bit 1, F1 and F2 exchange, so it is F2's.  F1 at mask b, conjugate
    to F1 by the relabelling, is the join of columns[k][byte k of b] over
    the three bytes check_cycle_cap allows: columns[k][v] joins the
    segments of cycles 8k..8k+7 at the bits of v, and is built by doubling;
    a column past r holds the empty join.  Segments are bytes up to 256
    vertices, else arrays of 4-byte items, so the columns take 256 items
    per vertex."""
    rows = d._cycle_rows
    stored = bytes if d.n <= 256 else partial(array, "I")
    pos = [0] * d.n
    for i, v in enumerate(v for tails, _ in rows for v, _, _ in tails):
        pos[v] = i
    segments = [
        (stored([pos[a] for _, a, _ in tails]), stored([pos[b] for _, _, b in tails]))
        for tails, _ in rows
    ]
    columns = []
    for lo in (0, 8, 16):
        column = [stored()]
        for zero, one in segments[lo : lo + 8]:
            column = [v + zero for v in column] + [v + one for v in column]
        columns.append(tuple(column))
    return tuple(columns)


def classify_factorizations(
    d: Digraph2,
    aut_generators: list[Perm],
    allow_swap: bool,
) -> Classification:
    """Orbits of all 2^r factorizations under conjugation by <aut_generators>
    (and the F1<->F2 swap when allowed); canonical representative is the
    minimal orientation bitmask in each orbit.

    Works on bitmasks alone.  The generators' affine mask maps are closed
    once into the group A by groups.enumerate_group, and A's images of a
    mask are read with one lookup per byte of the mask into at most
    ceil(r/8) x 256 lane integers of 4|A| bytes.  The closure is capped at
    DEFAULT_GROUP_CAP: from the CLI the generators are left multiplications
    of a group G closed under that cap, so |A| <= |G| <= the cap, and a
    larger A raises SizeCapError.  A cycle of two parallel edges has a bit
    that does not change the factorization, and A permutes those bits
    among themselves, so the orbit of b0 is A's images of b0 translated by
    every sum of those bits.
    The swap, b -> b ^ (2^r - 1), commutes with every map of A, so with it
    the orbit is also translated by 2^r - 1.
    Each translation is one XOR across all lanes, which doubles them.
    Lanes repeat a mask where maps agree on b0, so a mask counts toward
    the class size when it is labelled.  Orbits partition the masks, so the
    first unlabelled mask starts the next class and is its least member.
    A class's cycle types are read off F1 alone: a cycle's bit-1 rows are
    its bit-0 rows with F1 and F2 exchanged, so F2 at b is F1 at b ^ (2^r - 1),
    and conjugation and the parallel-cycle translations keep cycle types.
    Without the swap, F2's type is F1's at the class of the complement of
    the representative, read off the labels once they are all set; with it,
    F1 is walked at the representative and at its complement.  F1 at a mask
    is the join of one lookup per mask byte into _f1_columns, so beyond A
    the cost is 4 bytes of label per mask and one or two F1 walks per class,
    and no image list is built.
    """
    rows = d._cycle_rows
    r = len(rows)
    check_cycle_cap(r)
    for phi in aut_generators:
        if not is_digraph_automorphism(phi, d):
            raise PreconditionError(f"{phi} is not a digraph automorphism")
    full = (1 << r) - 1
    group = enumerate_group([mask_action(d, phi) for phi in aut_generators] or [Perm.identity(2 * r)])
    translations = [1 << j for j, (tails, _) in enumerate(rows) if len(tails) == 1]
    if allow_swap:
        translations.append(full)
    # (the translation in every lane, the shift that appends the moved lanes)
    lanes = len(group)
    moves = []
    for t in translations:
        moves.append((_lanes([t] * lanes), 32 * lanes))
        lanes *= 2
    width = 4 * lanes
    unpack = struct.Struct(f"<{lanes}I").unpack
    # check_cycle_cap keeps r <= 24, so a mask has at most three bytes
    low, mid, high = (*_mask_columns(group.elements, r), (0,), (0,))[:3]
    f1_low, f1_mid, f1_high = _f1_columns(d)

    def f1_type(b: int) -> tuple[int, ...]:
        return images_cycle_type(f1_low[b & 255] + f1_mid[b >> 8 & 255] + f1_high[b >> 16])

    label = array("I", [_UNLABELLED]) * (full + 1)
    representatives = []
    sizes = []
    f1_types = []
    f2_types = []
    b0 = 0
    while True:
        cid = len(representatives)
        x = low[b0 & 255] ^ mid[b0 >> 8 & 255] ^ high[b0 >> 16]
        for t, shift in moves:
            x |= (x ^ t) << shift
        size = 0
        for b in unpack(x.to_bytes(width, "little")):
            if label[b] != cid:
                label[b] = cid
                size += 1
        representatives.append(b0)
        sizes.append(size)
        f1_types.append(f1_type(b0))
        if allow_swap:
            f2_types.append(f1_type(b0 ^ full))
        try:
            b0 = label.index(_UNLABELLED, b0 + 1)
        except ValueError:
            break
    if not allow_swap:
        f2_types = [f1_types[label[b ^ full]] for b in representatives]
    classes = map(FactorizationClass, representatives, sizes, zip(f1_types, f2_types))
    return Classification(tuple(classes), label)
