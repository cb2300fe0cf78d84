"""The mutant list of `tests/mutants.py` fits the sources. Running the mutants
is not a tier-1 test: `python tests/mutants.py` does it."""

from mutants import MUTANTS, ROOT, mutated


def test_every_mutant_applies_and_parses():
    # mutated() raises unless the old text occurs once, the new differs and the result parses
    for mutant in MUTANTS:
        mutated(mutant)
    modules = {path.name for path in (ROOT / "src" / "sqdc").glob("*.py")}
    assert {mutant[0] for mutant in MUTANTS} == modules - {"__init__.py"}
