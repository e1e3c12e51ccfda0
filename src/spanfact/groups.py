"""Finite permutation groups, right cosets, and Cayley-coset presentations.

Groups are explicit element lists from enumerate_group, the one closure:
breadth-first from the identity with generators applied in their given
order, which makes every downstream choice of representatives
deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, NotASubgroupError, PreconditionError, SizeCapError
from .perm import Perm, Word, compose, parse_perm

DEFAULT_GROUP_CAP = 10_000


@dataclass(frozen=True)
class FiniteGroup:
    """words[i] is the first breadth-first word of elements[i], in perm.Word
    form with symbol k + 1 for generators[k] (a Schreier tree's words)."""

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    index: dict[Perm, int] = field(compare=False, repr=False)
    words: tuple[Word, ...] = field(compare=False, repr=False)

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


@dataclass(frozen=True)
class CosetSpace:
    """Right cosets gH of a subgroup H, as sets of group-element indices."""

    group: FiniteGroup
    subgroup_elements: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]
    representative: tuple[int, ...]
    coset_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cosets)


def subgroup_closure(group: FiniteGroup, H_generators: list[Perm]) -> tuple[int, ...]:
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


def coset_space(group: FiniteGroup, H_generators: list[Perm]) -> CosetSpace:
    """Right cosets gH; representatives are minimal element indices; coset 0 is H."""
    H = subgroup_closure(group, H_generators)
    n_el = len(group)
    coset_of = [-1] * n_el
    cosets: list[tuple[int, ...]] = []
    reps: list[int] = []
    for i in range(n_el):
        if coset_of[i] != -1:
            continue
        g = group.elements[i]
        members = tuple(sorted(group.index[compose(g, group.elements[h])] for h in H))
        cid = len(cosets)
        cosets.append(members)
        reps.append(members[0])
        for m in members:
            coset_of[m] = cid
    return CosetSpace(group, H, tuple(cosets), tuple(reps), tuple(coset_of))


@dataclass(frozen=True)
class Presentation:
    """A triple (G, S, H) given by generators; S as group-element indices."""

    group: FiniteGroup
    H_generators: tuple[Perm, ...]
    S: tuple[int, ...]
    name: str = ""


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_presentation(p: Presentation) -> ValidationReport:
    """Check the four coset-presentation conditions; failures are report entries."""
    group = p.group
    idx = group.index
    H = subgroup_closure(group, list(p.H_generators))
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


@dataclass(frozen=True)
class NormalizationResult:
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
    if not validate_presentation(p).valid:
        raise PreconditionError("presentation is not valid")
    group = p.group
    H = subgroup_closure(group, list(p.H_generators))
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


@dataclass(frozen=True)
class LocalActionKernel:
    kernel_elements: tuple[int, ...]
    normal_in_group: bool


def local_action_kernel(p: Presentation) -> LocalActionKernel:
    """Kernel of H acting by left multiplication on the two cosets {sH, tH}."""
    if len(p.S) != 2:
        raise PreconditionError("local action defined for |S| = 2 only")
    group = p.group
    H = subgroup_closure(group, list(p.H_generators))
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
    first = _parse_perm_field("group_generators", raw_gens[0], None)
    degree = first.n
    for tok in raw_gens[1:]:
        degree = max(degree, _parse_perm_field("group_generators", tok, None).n)
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
