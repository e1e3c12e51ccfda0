"""Built-in named instances so the standard experiments run with no config.

a5-ex2 / a5-ex3: the two 30-vertex coset digraphs on A5 (involution h,
5-cycle s, S = {s, hs}, H = <h>).  morris: the order-24 group C2^3 x| C3
realized on 6 points, S = {b, a2*b}, H = <a2, a3>.  toy:m: the two-row
family on {0,1} x Z_m.  shift:n is a circulant used by tests and examples.
"""
from __future__ import annotations

from typing import NamedTuple

from .digraph import (
    CosetDigraph,
    Digraph2,
    build_coset_digraph,
    build_shift,
    build_toy,
)
from .errors import ConfigError
from .groups import Presentation, enumerate_group
from .perm import Perm, compose


class Fixture(NamedTuple):
    name: str
    digraph: Digraph2
    coset: CosetDigraph | None

    def aut_generators(self):
        return self.coset.default_aut_generators() if self.coset else []


def _a5_presentation(h: Perm, name: str) -> Presentation:
    s = Perm([1, 2, 3, 4, 0])
    group = enumerate_group([s, h])
    hs = compose(h, s)
    return Presentation(group, (h,), (group.index[s], group.index[hs]), name)


def morris_presentation() -> Presentation:
    """C2^3 x| C3 on 6 points: a_i swaps block i, b rotates the blocks."""
    a1 = Perm.from_cycles(6, [(0, 1)])
    a2 = Perm.from_cycles(6, [(2, 3)])
    a3 = Perm.from_cycles(6, [(4, 5)])
    b = Perm.from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    group = enumerate_group([a1, a2, a3, b])
    s = b
    t = compose(a2, b)
    return Presentation(group, (a2, a3), (group.index[s], group.index[t]), "morris")


def load_fixture(name: str) -> Fixture:
    family, sep, param = name.partition(":")
    build = {"toy": build_toy, "shift": build_shift}.get(family) if sep else None
    if build is not None:
        try:
            size = int(param)
        except ValueError as exc:
            raise ConfigError(f"fixture {name!r}: bad {family} parameter") from exc
        return Fixture(name, build(size)[0], None)
    if name == "a5-ex2":
        p = _a5_presentation(Perm([2, 3, 0, 1, 4]), name)
    elif name == "a5-ex3":
        p = _a5_presentation(Perm([1, 0, 3, 2, 4]), name)
    elif name == "morris":
        p = morris_presentation()
    else:
        raise ConfigError(f"unknown fixture {name!r}")
    cd = build_coset_digraph(p)
    return Fixture(name, cd.digraph, cd)
