"""The mutation catalogue still applies to the program as it is."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_before_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.before) == 1
    assert mutant.after != mutant.before and mutant.tests


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
