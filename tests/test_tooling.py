"""Source guards: certificates must not depend on `assert` statements,
which `python -O` strips, nor on `raise AssertionError`, which the CLI
cannot map to an exit code."""

import ast
from pathlib import Path

import pytest

import qdp

SRC = Path(qdp.__file__).resolve().parent

COVERED = ["steenrod.py", "fixrank.py", "groups.py", "reports.py", "cli.py", "errors.py",
           "characters.py", "dimfun.py"]


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", COVERED)
def test_no_assert_statements(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} has assert statements at lines {lines}"


@pytest.mark.parametrize("name", COVERED)
def test_no_raise_assertion_error(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert lines == [], f"{name} raises AssertionError at lines {lines}"


def test_every_module_is_listed():
    modules = {p.name for p in SRC.glob("*.py")} - {"__init__.py"}
    assert modules == set(COVERED)
