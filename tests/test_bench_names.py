"""The bench's span recorder wraps program attributes by name; a rename or
removal would break only traced bench runs, so the names are checked here."""

import ast
import importlib
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def wrapped_names():
    """(module, attribute) of every ``rec.wrap(module, "attr", ...)`` call,
    with an attribute named by a loop variable expanded over the loop's
    tuple of strings."""
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    loops = {
        node.target.id: [elt.value for elt in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "rec"):
            module, attr = node.args[:2]
            attrs = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            names += [(modules[module.id], a) for a in attrs]
    return names


NAMES = wrapped_names()


def test_spans_wraps_cli_optimizer_and_solver():
    assert {module for module, _ in NAMES} == {
        "fairmap.cli", "fairmap.optimizer", "fairmap.solver"}
    assert ("fairmap.cli", "cohort_delta_table") in NAMES  # loop-expanded


@pytest.mark.parametrize("module, attr", NAMES)
def test_wrapped_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)
