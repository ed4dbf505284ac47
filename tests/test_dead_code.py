"""A dead-code guard over ``src/cqsing``, read with the standard library's
``ast``: every imported name is used in its module, every module-level
function, class and constant is referenced somewhere in ``src/`` or
``tests/`` outside its own definition, and every parameter of a function
or lambda is read in its body.

A reference is found by name: a variable read, an attribute, or a string
equal to the name (as in ``monkeypatch.setattr(deform, "VariableTable",
...)``).  ``from __future__ import annotations`` and the re-exports of
``__init__`` are exempt, as are dunder names such as ``__all__``.  A
public definition referenced from ``tests/`` only fails too, unless
``cqsing.__all__`` exports it or ``TEST_ONLY`` names it with a reason.  A
parameter counts as read when its name is read anywhere in the body, a
nested function or lambda included; the parameters of dunder methods,
which keep the signature Python calls them with, and parameters named with
a leading underscore are exempt.  Every annotated field of a ``NamedTuple``
record is read as an attribute by some module of ``src/`` outside its own
class body, unless ``UNREAD_FIELDS`` names it with a reason.
"""

import ast
from pathlib import Path

import pytest

import cqsing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cqsing"
TREES = {
    path: ast.parse(path.read_text(), filename=str(path))
    for folder in ("src", "tests")
    for path in sorted((ROOT / folder).rglob("*.py"))
}
MODULES = sorted(path for path in TREES if path.parent == PACKAGE)


def _imports(tree):
    """(name, line) of each name an import binds, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _reads(tree):
    """The names a module reads as variables."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _references(tree):
    """(name, line) of each read of a variable, each attribute and each
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and assigned constant, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node.lineno, node.end_lineno


def _unread_parameters(tree):
    """(function, parameter, line) of each parameter that its function's
    body never reads, exemptions aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            name, body = node.name, node.body
        else:
            continue
        reads = set().union(*map(_reads, body))
        args = node.args
        for arg in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg):
            if arg is not None and not arg.arg.startswith("_") and arg.arg not in reads:
                yield name, arg.arg, arg.lineno


def _record_fields(tree):
    """(record, field, line, class first line, class last line) of each
    annotated field of each class that subclasses ``NamedTuple``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno, node.lineno, node.end_lineno


REFERENCES = {}  # name -> [(path, line), ...]
for _path, _tree in TREES.items():
    for _name, _line in _references(_tree):
        REFERENCES.setdefault(_name, []).append((_path, _line))

ATTRIBUTE_READS = {}  # attribute -> [(path, line), ...] of its reads in src/
for _path in MODULES:
    for _node in ast.walk(TREES[_path]):
        if isinstance(_node, ast.Attribute) and isinstance(_node.ctx, ast.Load):
            ATTRIBUTE_READS.setdefault(_node.attr, []).append((_path, _node.lineno))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.stem
)
def test_every_import_is_used(path):
    tree = TREES[path]
    reads = _reads(tree)
    unused = [f"{name} (line {n})" for name, n in _imports(tree) if name not in reads]
    assert not unused, f"{path.name} imports but never uses {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_definition_is_referenced(path):
    unreferenced = [
        f"{name} (line {first})"
        for name, first, last in _definitions(TREES[path])
        if not any(
            where != path or not first <= line <= last
            for where, line in REFERENCES.get(name, ())
        )
    ]
    assert not unreferenced, (
        f"{path.name} defines but nothing references {', '.join(unreferenced)}"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = [
        f"{name}({arg}) (line {line})" for name, arg, line in _unread_parameters(TREES[path])
    ]
    assert not unread, f"{path.name} never reads the parameters {', '.join(unread)}"


# The public definitions that only tests/ references, each with the reason
# it stays in the package.
TEST_ONLY = {
    "buchberger": "polyring's Groebner API: the tests' Buchberger oracle",
    "leading_term": "polyring's Groebner API: the oracles' reading of a lead",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_definition_is_test_only(path):
    # a reference from src/ outside the definition itself, the re-exports
    # of __init__ aside, keeps a public definition; so do cqsing.__all__
    # and TEST_ONLY
    test_only = [
        f"{name} (line {first})"
        for name, first, last in _definitions(TREES[path])
        if not name.startswith("_")
        and name not in cqsing.__all__
        and name not in TEST_ONLY
        and not any(
            where.parent == PACKAGE and where.name != "__init__.py"
            and (where != path or not first <= line <= last)
            for where, line in REFERENCES.get(name, ())
        )
    ]
    assert not test_only, f"{path.name} defines for the tests only {', '.join(test_only)}"


# The record fields that no module of src/ reads, each with the reason it
# stays in its record.
UNREAD_FIELDS = {
    "Identities.sum_b": "a field of cqsing.identities, which cqsing.__all__ exports",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_record_field_is_read(path):
    unread = [
        f"{record}.{field} (line {line})"
        for record, field, line, first, last in _record_fields(TREES[path])
        if f"{record}.{field}" not in UNREAD_FIELDS
        and not any(
            where != path or not first <= at <= last
            for where, at in ATTRIBUTE_READS.get(field, ())
        )
    ]
    assert not unread, f"{path.name} has record fields that src/ never reads: {', '.join(unread)}"
