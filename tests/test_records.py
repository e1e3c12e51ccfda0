"""spanfact's records: defined without generated code, and still values.

A record is a NamedTuple, and a plain slotted class only where it reads as
a sequence of something else, by its own __len__ or __iter__.  Neither
execs code when its module is imported, as a dataclass does, about 0.6 ms
per class on every CLI start.  Nor does spanfact import anything outside
the standard library.
"""
import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spanfact
from spanfact.blocks import position_system
from spanfact.digraph import Digraph2, classify_factorizations, factorization_at
from spanfact.fixtures import load_fixture
from spanfact.groups import FiniteGroup, enumerate_group
from spanfact.perm import ImageBlob, Perm
from spanfact.spanning import Verdict, max_relocatable_tree

SRC = Path(spanfact.__file__).resolve().parents[1]
TOY5 = load_fixture("toy:5").digraph


def _spanfact_classes():
    modules = [importlib.import_module(m.name) for m in pkgutil.iter_modules(spanfact.__path__, "spanfact.")]
    return [
        obj
        for module in [spanfact, *modules]
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


def test_no_spanfact_class_is_a_dataclass():
    classes = _spanfact_classes()
    assert len(classes) > 20
    assert [cls.__qualname__ for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


def test_only_sequence_like_records_are_plain_classes():
    """Every class that is not a NamedTuple, an exception or one of the
    non-record types defines __len__ or __iter__."""
    others = (Perm, ImageBlob, Digraph2)
    plain = [
        cls
        for cls in _spanfact_classes()
        if not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
        and not issubclass(cls, BaseException)
        and cls not in others
    ]
    assert len(plain) >= 4
    assert [cls.__qualname__ for cls in plain if not {"__len__", "__iter__"} & set(vars(cls))] == []


def test_importing_the_cli_imports_no_dataclasses():
    """Compared inside the subprocess, so a site that imports dataclasses at
    start-up does not count against spanfact."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import spanfact.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'dataclasses'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_spanfact_imports_only_the_standard_library():
    """spanfact has no runtime dependencies: every import in its source names
    a standard-library module or spanfact itself."""
    imported = set()
    for path in (SRC / "spanfact").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert len(imported) > 10
    foreign = [
        (name, module)
        for name, module in imported
        if module.split(".")[0] not in sys.stdlib_module_names | {"spanfact"}
    ]
    assert sorted(foreign) == []


@pytest.mark.parametrize(
    "build",
    [
        # a digraph compares by identity, so both factorizations share one
        pytest.param(lambda: factorization_at(TOY5, 3), id="Factorization"),
        pytest.param(lambda: Verdict(False, "two words agree at a vertex", ((1,), (2, 1))), id="Verdict"),
        pytest.param(
            lambda: max_relocatable_tree(factorization_at(load_fixture("a5-ex2").digraph, 6)),
            id="TreeSearchResult",
        ),
        pytest.param(lambda: enumerate_group([Perm([1, 2, 3, 4, 0]), Perm([2, 3, 0, 1, 4])]), id="FiniteGroup"),
        pytest.param(lambda: load_fixture("morris").coset.presentation, id="Presentation"),
    ],
)
def test_equal_fields_make_equal_records_that_hash_alike(build):
    """Two records built from equal fields, each by its own call."""
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_factorizations_differ_by_mask():
    assert factorization_at(TOY5, 3) != factorization_at(TOY5, 2)


def test_classifications_compare_by_classes_and_labels():
    fx = load_fixture("a5-ex2")
    a, b = (classify_factorizations(fx.digraph, fx.aut_generators(), allow_swap=True) for _ in "ab")
    assert a is not b and a == b
    c = classify_factorizations(fx.digraph, fx.aut_generators(), allow_swap=False)
    assert len(c) > len(a) and a != c
    # the label array is unhashable, as it was in the dataclass
    with pytest.raises(TypeError):
        hash(a)


def test_groups_compare_by_degree_generators_and_elements():
    g = enumerate_group([Perm([1, 2, 3, 4, 0]), Perm([2, 3, 0, 1, 4])])
    # index and words are derived from the elements and take no part
    same = FiniteGroup(g.degree, g.generators, g.elements, {}, ())
    assert same == g and hash(same) == hash(g)
    reordered = enumerate_group([Perm([2, 3, 0, 1, 4]), Perm([1, 2, 3, 4, 0])])
    assert len(reordered) == len(g) and reordered != g
    assert g != g.elements


@pytest.mark.parametrize(
    "record, field",
    [
        (factorization_at(load_fixture("toy:3").digraph, 0), "bitmask"),
        (Verdict(True), "passed"),
        (load_fixture("a5-ex2").coset.presentation, "name"),
        (load_fixture("toy:3"), "name"),
        (classify_factorizations(load_fixture("toy:3").digraph, [], allow_swap=False).classes[0], "size"),
        (position_system(factorization_at(load_fixture("toy:3").digraph, 0)), "pos_of"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_named_tuple_fields_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before
