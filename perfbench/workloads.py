"""The benchmark's workloads: the CLI calls that make up one pass of each.

tree-landscape spends nearly all its time in the relocatable-tree search,
classify-scale in bulk 2^r enumeration and classification, and law-suite in
the block/phase layer and single-mask factorization builds.  Each later
optimisation should move one of them and leave the others unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# the seed the expected answers were recorded with
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  label keys the expected answer and must not
    depend on the seed; instance names the fixture or config it runs on."""

    label: str
    argv: tuple[str, ...]
    instance: str


def config_path(name: str) -> Path:
    return CONFIG_DIR / f"{name}.json"


def _on(instance: str) -> tuple[str, ...]:
    """The CLI arguments that select an instance by fixture or config name."""
    if config_path(instance).is_file():
        return ("--config", str(config_path(instance)))
    return ("--fixture", instance)


def _call(label: str, command: str, instance: str, *extra: str) -> Call:
    return Call(label, (command, *_on(instance), *extra), instance)


def tree_landscape(seed: int) -> list[Call]:
    # a5-ex2 mask 13 is node-heavy (427 nodes) and mask 6 is the Hamiltonian
    # class (a 30-word tree); a5-ex3 mask 1 is closure-heavy (41 nodes).
    # a5-ex2 --all-classes takes 20-30 s, too long to repeat within a run.
    return [
        _call("tree-search a5-ex3 --all-classes", "tree-search", "a5-ex3", "--all-classes"),
        *(_call(f"tree-search a5-ex2 --bitmask {mask}", "tree-search", "a5-ex2", "--bitmask", str(mask))
          for mask in (13, 6)),
    ]


def classify_scale(seed: int) -> list[Call]:
    return [
        _call("enumerate c2wrc4-r16 --classify --swap", "enumerate", "c2wrc4-r16", "--classify", "--swap"),
        _call("enumerate agl18-r14 --classify --swap", "enumerate", "agl18-r14", "--classify", "--swap"),
        _call("enumerate c2wrc4-r16", "enumerate", "c2wrc4-r16"),
    ]


def law_suite(seed: int) -> list[Call]:
    calls = [
        _call(f"verify {name} --masks 200", "verify", name, "--seed", str(seed), "--masks", "200")
        for name in ("toy:8", "a5-ex2")
    ]
    calls.append(_call("verify s5-r12 --masks 50", "verify", "s5-r12", "--masks", "50"))
    for name, mask in (("shift:101", 0), ("toy:11", 0), ("morris", 0), ("morris", 7)):
        calls.append(
            _call(f"spanning {name} blocks {mask}", "spanning", name, "--method", "blocks", "--bitmask", str(mask))
        )
    for name, mask in (("shift:101", 0), ("morris", 1), ("a5-ex3", 0)):
        calls.append(
            _call(f"spanning {name} addressing {mask}", "spanning", name, "--method", "addressing", "--bitmask", str(mask))
        )
    calls += [_call(f"blocks {name}", "blocks", name) for name in ("toy:3", "morris")]
    return calls


WORKLOADS = {
    "tree-landscape": tree_landscape,
    "classify-scale": classify_scale,
    "law-suite": law_suite,
}


def calls(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](seed)


def seed_dependent(call: Call) -> bool:
    """Whether the call's answer depends on the workload seed."""
    return "--seed" in call.argv
