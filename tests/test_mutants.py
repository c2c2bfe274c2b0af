"""The mutant list stays runnable: each old text still occurs exactly once
in its module, and each test target exists. Running the mutants is
`python tests/mutants.py`."""
import pytest

from mutants import MUTANTS, ROOT, SRC


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once(mutant):
    text = (SRC / f"{mutant.module}.py").read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests and mutant.why
    for target in mutant.tests:
        assert (ROOT / target.split("::")[0]).is_file(), target
