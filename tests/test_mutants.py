"""The mutant list of `tests/mutants.py` fits the sources and README's count, and each
test it deselects exists. Running the mutants is not a tier-1 test:
`python tests/mutants.py` does it."""

import re

from mutants import DESELECTED, MUTANTS, ROOT, mutated


def test_every_mutant_applies_and_parses():
    # mutated() raises unless the old text occurs once, the new differs and the result parses
    for mutant in MUTANTS:
        mutated(mutant)
    modules = {path.name for path in (ROOT / "src" / "sqdc").glob("*.py")}
    assert {mutant[0] for mutant in MUTANTS} == modules - {"__init__.py"}
    assert f"lists {len(MUTANTS)} mutants" in (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_deselected_test_exists():
    # pytest ignores a --deselect that names nothing: a renamed guard, which fails on every
    # mutant, would then kill each one, and a renamed pin file would count pin kills again
    for test in DESELECTED:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        source = (ROOT / path).read_text(encoding="utf-8")
        assert not name or re.search(rf"^def {name}\(", source, re.M), test
