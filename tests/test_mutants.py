"""The mutation catalogue still applies to the program as it is."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_before_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.before) == 1
    assert mutant.after != mutant.before and mutant.tests


def _test_ids(path: str) -> set[str]:
    """The ids of the test functions of a test file, as pytest names
    them without parametrize ids: ``path::name`` and
    ``path::Class::name``."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            ids.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef):
            ids.update(f"{path}::{node.name}::{item.name}"
                       for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return ids


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    # a renamed test fails here, not only when the catalogue is run
    for test in mutant.tests:
        name = test.split("[")[0]
        assert name in _test_ids(name.split("::")[0]), test


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
