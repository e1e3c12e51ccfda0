"""Finite permutation groups, right cosets, and Cayley-coset presentations.

Groups are explicit element lists from enumerate_group, the one closure:
breadth-first from the identity with generators applied in their given
order, which makes every downstream choice of representatives
deterministic.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError, NotASubgroupError, PreconditionError, SizeCapError
from .perm import Perm, Word, compose, parse_perm

DEFAULT_GROUP_CAP = 10_000


class FiniteGroup:
    """words[i] is the first breadth-first word of elements[i], in perm.Word
    form with symbol k + 1 for generators[k] (a Schreier tree's words).
    index maps each element to its position.  Groups compare and hash by
    degree, generators and elements; index and words are derived from them."""

    __slots__ = ("degree", "generators", "elements", "index", "words")

    def __init__(
        self,
        degree: int,
        generators: tuple[Perm, ...],
        elements: tuple[Perm, ...],
        index: dict[Perm, int],
        words: tuple[Word, ...],
    ):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.index = index
        self.words = words

    def _key(self) -> tuple:
        return self.degree, self.generators, self.elements

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        return self.index[compose(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return self.index[self.elements[i].inverse()]


def enumerate_group(generators: list[Perm], cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Closure of the generators under composition, breadth-first from the
    identity: the growing element list is the queue, so a word's length is
    its element's distance from the identity.  Raises SizeCapError past cap."""
    if generators:
        degree = generators[0].n
        for g in generators:
            if g.n != degree:
                raise PreconditionError("generators act on different point counts")
    else:
        degree = 0
    e = Perm.identity(degree)
    elements = [e]
    words: list[Word] = [()]
    index = {e: 0}
    for g, w in zip(elements, words):
        for k, s in enumerate(generators):
            h = compose(s, g)
            if h not in index:
                if len(elements) >= cap:
                    raise SizeCapError(f"group closure exceeded cap {cap}")
                index[h] = len(elements)
                elements.append(h)
                words.append((k + 1,) + w)
    return FiniteGroup(degree, tuple(generators), tuple(elements), index, tuple(words))


class CosetSpace:
    """Right cosets gH of a subgroup H, as a labelling of group-element
    indices: coset_of[i] is the coset id of elements[i], and
    representative[c] the least element index in coset c."""

    __slots__ = ("group", "subgroup_elements", "representative", "coset_of")

    def __init__(
        self,
        group: FiniteGroup,
        subgroup_elements: tuple[int, ...],
        representative: tuple[int, ...],
        coset_of: tuple[int, ...],
    ):
        self.group = group
        self.subgroup_elements = subgroup_elements
        self.representative = representative
        self.coset_of = coset_of

    def __len__(self) -> int:
        return len(self.representative)


def coset_space(group: FiniteGroup, H_generators: list[Perm]) -> CosetSpace:
    """Right cosets gH; coset 0 is H.  Each coset is labelled from the first
    element index that no earlier coset holds, its least index and its
    representative.  This is the one closure of H; products of elements of
    G stay in G, so only the generators are checked."""
    idx = group.index
    for h in H_generators:
        if h not in idx:
            raise NotASubgroupError(f"generator {h} lies outside the group")
    sub = enumerate_group(list(H_generators) or [Perm.identity(group.degree)])
    H = tuple(sorted(idx[h] for h in sub.elements))
    coset_of = [-1] * len(group)
    reps: list[int] = []
    for i, g in enumerate(group.elements):
        if coset_of[i] == -1:
            for h in sub.elements:
                coset_of[idx[compose(g, h)]] = len(reps)
            reps.append(i)
    return CosetSpace(group, H, tuple(reps), tuple(coset_of))


class Presentation(NamedTuple):
    """A triple (G, S, H) given by generators; S as group-element indices."""

    group: FiniteGroup
    H_generators: tuple[Perm, ...]
    S: tuple[int, ...]
    name: str = ""


class ConditionCheck(NamedTuple):
    label: str
    passed: bool


class ValidationReport(NamedTuple):
    checks: tuple[ConditionCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_presentation(p: Presentation, space: CosetSpace | None = None) -> ValidationReport:
    """Check the four coset-presentation conditions; failures are report entries.

    Each is read off the coset ids of space (built here when not given;
    coset 0 is H), not compared as sets of group elements.  1: no s has
    coset 0.  2: HSH = SH; HSH is the union of the cosets hsH, so every hs
    has the coset of some s.  3: the s lie in distinct cosets, which makes
    |SH| = |S||H|.  4: <S>H = G; <S>H is the union of the cosets wH over the
    positive words w in S, so left multiplication by S carries coset 0
    onto every coset.
    """
    if space is None:
        space = coset_space(p.group, list(p.H_generators))
    group, coset_of = p.group, space.coset_of
    heads = {coset_of[s] for s in p.S}
    c2 = all(coset_of[group.mul(h, s)] in heads for h in space.subgroup_elements for s in p.S)
    moves = [left_multiplication(space, group.elements[s]).images for s in p.S]
    orbit = [0]
    reached = {0}
    for c in orbit:
        for images in moves:
            if images[c] not in reached:
                reached.add(images[c])
                orbit.append(images[c])
    return ValidationReport(
        (
            ConditionCheck("S_disjoint_from_H", 0 not in heads),
            ConditionCheck("HSH_equals_SH", c2),
            ConditionCheck("S_one_rep_per_coset", len(heads) == len(p.S)),
            ConditionCheck("S_and_H_generate_G", len(orbit) == len(space)),
        )
    )


class NormalizationResult(NamedTuple):
    """Either the rewritten presentation with the chosen (h, k), or a no-swap report."""

    presentation: Presentation
    swapped: bool
    h_index: int | None = None
    k_index: int | None = None


def normalize_degree2(p: Presentation) -> NormalizationResult:
    """Rewrite S = {s, t} as {s, hs} when some h in H moves the coset sH.

    Such a rewrite never changes the digraph; when no h in H works the
    presentation is returned unchanged with swapped=False.
    """
    if len(p.S) != 2:
        raise PreconditionError("normalization applies to |S| = 2 only")
    space = coset_space(p.group, list(p.H_generators))
    if not validate_presentation(p, space).valid:
        raise PreconditionError("presentation is not valid")
    group, coset_of = p.group, space.coset_of
    s_i, t_i = p.S
    for h in space.subgroup_elements:
        hs = group.mul(h, s_i)
        if coset_of[hs] != coset_of[s_i]:
            # hs lies in tH, so hs = t*k for a unique k in H
            k = group.mul(group.inv(t_i), hs)
            new_p = Presentation(group, p.H_generators, (s_i, hs), p.name)
            return NormalizationResult(new_p, True, h_index=h, k_index=k)
    return NormalizationResult(p, False)


class LocalActionKernel(NamedTuple):
    kernel_elements: tuple[int, ...]
    normal_in_group: bool


def local_action_kernel(p: Presentation) -> LocalActionKernel:
    """Kernel of H acting by left multiplication on the two cosets {sH, tH}."""
    if len(p.S) != 2:
        raise PreconditionError("local action defined for |S| = 2 only")
    space = coset_space(p.group, list(p.H_generators))
    group, coset_of = p.group, space.coset_of
    s_i, t_i = p.S
    # h sH = sH iff hs lies in sH
    kernel = [
        h
        for h in space.subgroup_elements
        if coset_of[group.mul(h, s_i)] == coset_of[s_i] and coset_of[group.mul(h, t_i)] == coset_of[t_i]
    ]
    kernel_set = set(kernel)
    normal = all(
        group.mul(g, group.mul(k, group.inv(g))) in kernel_set
        for g in range(len(group))
        for k in kernel
    )
    return LocalActionKernel(tuple(kernel), normal)


def left_multiplication(space: CosetSpace, g: Perm) -> Perm:
    """The permutation of coset ids induced by kH -> gkH."""
    group = space.group
    if g not in group.index:
        raise PreconditionError(f"{g} is not a group element")
    images = []
    for rep in space.representative:
        k = group.elements[rep]
        images.append(space.coset_of[group.index[compose(g, k)]])
    return Perm(images)


# --- configuration parsing ---------------------------------------------------


def _parse_perm_field(field_name: str, token, degree: int | None) -> Perm:
    if not isinstance(token, str):
        raise ConfigError(f"field {field_name!r}, token {token!r}: expected a cycle-notation string")
    try:
        return parse_perm(token, n=degree)
    except ValueError as exc:
        raise ConfigError(f"field {field_name!r}, token {token!r}: {exc}") from exc


def config_name(name) -> str:
    """A config name as given: it names the instance in every record, so it
    must be a string that cannot split a TSV cell."""
    if not isinstance(name, str) or any(c in name for c in "\t\n\r"):
        raise ConfigError(
            f"field 'name', token {name!r}: expected a string without tab, newline or carriage return"
        )
    return name


def presentation_from_config(doc: dict) -> Presentation:
    """Build a Presentation from a config document.

    Expected fields: group_generators, H_generators, S (lists of cycle-notation
    strings), optional name. Parse errors cite the field and token.
    """
    if not isinstance(doc, dict):
        raise ConfigError("presentation config must be an object")
    for fld in ("group_generators", "H_generators", "S"):
        if fld not in doc:
            raise ConfigError(f"field {fld!r}: missing")
        if not isinstance(doc[fld], list):
            raise ConfigError(f"field {fld!r}: expected a list of cycle-notation strings")
    raw_gens = doc["group_generators"]
    if not raw_gens:
        raise ConfigError("field 'group_generators': must be nonempty")
    degree = max(_parse_perm_field("group_generators", tok, None).n for tok in raw_gens)
    gens = [_parse_perm_field("group_generators", tok, degree) for tok in raw_gens]
    group = enumerate_group(gens)
    H_gens = tuple(_parse_perm_field("H_generators", tok, degree) for tok in doc["H_generators"])
    S_perms = [_parse_perm_field("S", tok, degree) for tok in doc["S"]]
    S_idx = []
    for tok, sp in zip(doc["S"], S_perms):
        if sp not in group.index:
            raise ConfigError(f"field 'S', token {tok!r}: not an element of the generated group")
        S_idx.append(group.index[sp])
    if len(S_idx) not in (1, 2):
        raise ConfigError(f"field 'S': expected 1 or 2 entries, got {len(S_idx)}")
    return Presentation(group, H_gens, tuple(S_idx), config_name(doc.get("name", "")))
