"""Command-line front end: build, enumerate, blocks, tree-search, spanning, verify.

Exit codes: 0 ok, 2 config error, 3 precondition/framework error, 4 budget
exhausted.  Output is deterministic for a fixed config and tool version;
records carry a schema field and the version.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import __version__
from .blocks import (
    BlockConstructionFailure,
    X_CONVENTION,
    block_construction,
    cycle_block_system,
    difference_class_orbits,
    law_suite,
    phase_profile,
    position_block_system,
    position_system,
    relative_block_permutation,
)
from .digraph import Classification, build_coset_digraph, classify_factorizations, factorization_at
from .errors import ConfigError, SpanfactError
from .fixtures import Fixture, load_fixture
from .groups import config_name, presentation_from_config
from .perm import cycle_string, word_str
from .spanning import (
    NODE_CAP,
    max_relocatable_tree,
    phase_addressing,
    splice_generators,
    verify_sharply_transitive,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

FORMATS = ("tsv", "json-lines")


# the config's toggles (its "name" is read by instance_from_config): key ->
# (whether a value is valid, what is expected)
_TOGGLES = {
    "classify": (lambda value: isinstance(value, bool), "true or false"),
    "swap": (lambda value: isinstance(value, bool), "true or false"),
    "max_nodes": (lambda value: type(value) is int and value >= 1, "an integer >= 1"),
    "format": (lambda value: value in FORMATS, f"one of {', '.join(FORMATS)}"),
}


def load_instance(args) -> Fixture:
    """Resolve --fixture/--config into a Fixture; the config document is read
    and parsed once.  Each toggle of the config is checked here, whichever
    subcommand runs, and set on args unless its flag was given."""
    if getattr(args, "fixture", None) and getattr(args, "config", None):
        raise ConfigError("give either --fixture or --config, not both")
    if getattr(args, "fixture", None):
        return load_fixture(args.fixture)
    if not getattr(args, "config", None):
        raise ConfigError("one of --fixture or --config is required")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    fx = instance_from_config(doc)
    for key, (valid, expected) in _TOGGLES.items():
        if key in doc:
            if not valid(doc[key]):
                raise ConfigError(f"field {key!r}, token {doc[key]!r}: expected {expected}")
            # a flag not given reads None, or False for a switch; 0 is given
            given = getattr(args, key, None)
            if given is None or given is False:
                setattr(args, key, doc[key])
    return fx


def instance_from_config(doc) -> Fixture:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - {"presentation", "toy", "name", *_TOGGLES}
    if unknown:
        raise ConfigError(f"field {sorted(unknown)[0]!r}: unknown")
    name = config_name(doc["name"]) if "name" in doc else None
    has_p = "presentation" in doc
    has_t = "toy" in doc
    if has_p == has_t:
        raise ConfigError("exactly one of 'presentation' or 'toy' must be present")
    if has_t:
        toy = doc["toy"]
        if not isinstance(toy, dict) or "m" not in toy:
            raise ConfigError("field 'toy': expected an object with field 'm'")
        if type(toy["m"]) is not int:
            raise ConfigError(f"field 'toy.m', token {toy['m']!r}: expected an integer")
        fx = load_fixture(f"toy:{toy['m']}")
        return fx if name is None else fx._replace(name=name)
    p = presentation_from_config(doc["presentation"])
    cd = build_coset_digraph(p)
    return Fixture((p.name or "config") if name is None else name, cd.digraph, cd)


# --- record emission ----------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_cell(v) for v in value)
    return str(value)


# json.dumps(value, separators=(", ", ": ")), the one JSON cell renderer
_json = json.JSONEncoder(separators=(", ", ": ")).encode


def emit_table(records: list[dict] | _FactorizationRows, fmt: str, out) -> None:
    """Write records (dicts with string keys) to the text stream out; TSV
    always carries a header row; both forms are byte-stable for identical
    records, and each JSON line is json.dumps of its record, byte for byte.
    The plain factorization listing writes itself from its shared cells."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    if isinstance(records, _FactorizationRows):
        records.write(fmt, out)
    elif fmt == "json-lines":
        out.write("".join([_json(rec) + "\n" for rec in records]))
    elif not records:
        out.write("schema\n")
    else:
        header = list(records[0].keys())
        blanks = [""] * len(header)
        lines = ["\t".join(header)]
        for rec in records:
            lines.append("\t".join(map(_cell, map(rec.get, header, blanks))))
        out.write("\n".join(lines) + "\n")


def _base_record(schema: str, fx: Fixture) -> dict:
    return {"schema": schema, "version": __version__, "instance": fx.name}


# --- subcommands ---------------------------------------------------------------


def cmd_build(args, fx: Fixture) -> tuple[list[dict], int]:
    d = fx.digraph
    rec = _base_record("digraph-report", fx)
    rec.update(
        n=d.n,
        edges=2 * d.n,
        strongly_connected=True,
        alt_cycle_count=d.alt_decomposition.r,
    )
    return [rec], EXIT_OK


class _FactorizationRows:
    """The plain listing: per bitmask, a record of the base cells, the
    bitmask and the cycle types its conjugation class shares, read from the
    classification's label array.  Callers read its length and have it
    write itself."""

    # rows rendered per write, so the listing is never one 2^r-row string
    CHUNK = 4096

    def __init__(self, base: dict, classes: Classification):
        self._base = base
        self._classes = classes

    def __len__(self) -> int:
        return len(self._classes.label)

    @staticmethod
    def _class_cells(pair) -> dict:
        return {"cycle_type_f1": pair[0], "cycle_type_f2": pair[1], "class_id": ""}

    def write(self, fmt: str, out) -> None:
        """emit_table of the records, each row written as the base cells
        (rendered once), its bitmask and the cells of its class (rendered
        once per distinct cycle-type pair), CHUNK rows per write."""
        pairs = [cls.cycle_type_pair for cls in self._classes]
        # classes share few pairs: 148 among the 1,140 classes of c2wrc4-r16
        distinct = dict.fromkeys(pairs)
        if fmt == "json-lines":
            # the JSON of a dict is "{", its cells joined by ", ", then "}"
            head = _json(self._base)[:-1] + ', "bitmask": '
            cells = {pair: ", " + _json(self._class_cells(pair))[1:] + "\n" for pair in distinct}
        else:
            out.write("\t".join([*self._base, "bitmask", *self._class_cells(pairs[0])]) + "\n")
            head = "".join(_cell(v) + "\t" for v in self._base.values())
            cells = {
                pair: "".join("\t" + _cell(v) for v in self._class_cells(pair).values()) + "\n"
                for pair in distinct
            }
        tails = [cells[pair] for pair in pairs]
        label = self._classes.label
        for lo in range(0, len(label), self.CHUNK):
            chunk = label[lo : lo + self.CHUNK]
            out.write("".join([f"{head}{b}{tails[c]}" for b, c in enumerate(chunk, lo)]))


def cmd_enumerate(args, fx: Fixture) -> tuple[list[dict] | _FactorizationRows, int]:
    """Cycle types are invariant under conjugation by an automorphism, so the
    plain listing reads them per class (no swap, which exchanges F1 and F2)
    and each mask's class from the classification's label array."""
    if args.swap and not args.classify:
        raise ConfigError("--swap (toggle 'swap') applies only with --classify")
    classes = classify_factorizations(fx.digraph, fx.aut_generators(), allow_swap=args.swap)
    if not args.classify:
        return _FactorizationRows(_base_record("factorization", fx), classes), EXIT_OK
    records = []
    for cid, cls in enumerate(classes):
        rec = _base_record("factorization-class", fx)
        rec.update(
            bitmask=cls.representative,
            cycle_type_f1=list(cls.cycle_type_pair[0]),
            cycle_type_f2=list(cls.cycle_type_pair[1]),
            class_id=cid,
            class_size=cls.size,
        )
        records.append(rec)
    return records, EXIT_OK


def cmd_blocks(args, fx: Fixture) -> tuple[list[dict], int]:
    d = fx.digraph
    f = factorization_at(d, args.bitmask)
    ps = position_system(f)
    pp = phase_profile(f, ps)
    pi = difference_class_orbits(f, ps, pp)
    records = []
    for name, system in (
        ("position", position_block_system(ps)),
        ("cycle", cycle_block_system(ps)),
    ):
        rec = _base_record("block-report", fx)
        rec.update(
            bitmask=args.bitmask,
            x_convention=X_CONVENTION,
            m=ps.m,
            r=ps.r,
            delta=list(pp.delta),
            phase_counts=list(pp.phase_counts),
            class_orbits=[list(o) for o in pi],
            # invariant_refinements lists one system per nonempty
            # subcollection of the orbits
            refinement_count=(1 << len(pi)) - 1,
            system=name,
        )
        try:
            tau, der = relative_block_permutation(f, system)
            rec.update(tau=cycle_string(tau), derangement=der, invariant=True)
        except SpanfactError:
            rec.update(tau="", derangement=False, invariant=False)
        records.append(rec)
    return records, EXIT_OK


def _count(value, where: str, minimum: int) -> int:
    """value if it is an integer no smaller than minimum; otherwise a
    ConfigError naming where the value came from."""
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{where}, token {value!r}: expected an integer >= {minimum}")
    return value


def cmd_tree_search(args, fx: Fixture) -> tuple[list[dict], int]:
    node_cap = NODE_CAP
    if args.max_nodes is not None:
        node_cap = _count(args.max_nodes, "flag '--max-nodes'", 1)
    d = fx.digraph
    targets: list[tuple[str, int]] = []
    if args.all_classes:
        if args.bitmask is not None:
            raise ConfigError("give either --bitmask or --all-classes, not both")
        classes = classify_factorizations(d, fx.aut_generators(), allow_swap=True)
        targets = [(str(cid), cls.representative) for cid, cls in enumerate(classes)]
    else:
        if args.bitmask is None:
            raise ConfigError("tree-search needs --bitmask or --all-classes")
        targets = [("", args.bitmask)]
    records = []
    exhausted = False
    for cid, mask in targets:
        f = factorization_at(d, mask)
        res = max_relocatable_tree(f, node_cap=node_cap)
        exhausted = exhausted or not res.certificate
        rec = _base_record("tree-search", fx)
        rec.update(
            class_id=cid,
            bitmask=mask,
            max_size=res.size,
            certificate=res.certificate,
            nodes=res.nodes,
            kernel=res.kernel,
            witness=" ".join(word_str(w) for w in res.words),
        )
        records.append(rec)
    return records, EXIT_BUDGET if exhausted else EXIT_OK


def cmd_spanning(args, fx: Fixture) -> tuple[list[dict], int]:
    d = fx.digraph
    f = factorization_at(d, args.bitmask)
    ps = position_system(f)
    rec = _base_record("spanning", fx)
    rec.update(bitmask=args.bitmask, method=args.method)
    if args.method == "blocks":
        result = block_construction(f, ps)
        if isinstance(result, BlockConstructionFailure):
            rec.update(size=0, verified=False, words="", failure=result.reason)
            return [rec], EXIT_BUDGET
        ws = result
    else:
        pp = phase_profile(f, ps)
        ws = splice_generators(phase_addressing(f, ps, pp), f)
    verdict = verify_sharply_transitive(ws, f)
    rec.update(
        size=len(ws),
        verified=verdict.passed,
        words=" ".join(word_str(w) for w in ws.words),
    )
    return [rec], EXIT_OK if verdict.passed else EXIT_PRECONDITION


def cmd_verify(args, fx: Fixture) -> tuple[list[dict], int]:
    d = fx.digraph
    count = _count(args.masks, "flag '--masks'", 0)
    rng = random.Random(args.seed)
    masks = [rng.randrange(1 << d.alt_decomposition.r) for _ in range(count)]
    records = []
    for law, (checked, failures) in law_suite(d, masks).items():
        rec = _base_record("verify-report", fx)
        rec.update(law=law, checked=checked, failures=failures, passed=failures == 0)
        records.append(rec)
    all_ok = all(rec["passed"] for rec in records)
    return records, EXIT_OK if all_ok else EXIT_PRECONDITION


# --- entry point ----------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON config document")
    sp.add_argument("--fixture", help="built-in instance, e.g. a5-ex2, a5-ex3, morris, toy:3")
    sp.add_argument("--format", choices=FORMATS, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(prog="spanfact", description=__doc__)
    ap.add_argument("--version", action="version", version=f"spanfact {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("build", help="digraph report")
    _add_common(sp)
    sp.set_defaults(func=cmd_build)

    sp = subs.add_parser("enumerate", help="all 2^r factorizations, optionally classified")
    _add_common(sp)
    sp.add_argument("--classify", action="store_true")
    sp.add_argument("--swap", action="store_true")
    sp.set_defaults(func=cmd_enumerate)

    sp = subs.add_parser("blocks", help="phase profile and block criteria for one factorization")
    _add_common(sp)
    sp.add_argument("--bitmask", type=int, default=0)
    sp.set_defaults(func=cmd_blocks)

    sp = subs.add_parser("tree-search", help="maximum relocatable tree search")
    _add_common(sp)
    sp.add_argument("--bitmask", type=int, default=None)
    sp.add_argument("--all-classes", action="store_true")
    sp.add_argument("--max-nodes", type=int, default=None)
    sp.set_defaults(func=cmd_tree_search)

    sp = subs.add_parser("spanning", help="construct a spanning word set")
    _add_common(sp)
    sp.add_argument("--bitmask", type=int, default=0)
    sp.add_argument("--method", choices=("blocks", "addressing"), required=True)
    sp.set_defaults(func=cmd_spanning)

    sp = subs.add_parser("verify", help="run the block/phase law suite on an instance")
    _add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--masks", type=int, default=200)
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        fx = load_instance(args)
        records, code = args.func(args, fx)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpanfactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        emit_table(records, args.format or "tsv", sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what it did not read is dropped, and stdout
        # points at the null device so that the flush at exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
