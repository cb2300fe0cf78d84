"""The mutant list of `tests/mutants.py` fits the sources and README's count, and its
summary reads a kill matrix by the rule. Running the mutants is not a tier-1 test:
`python tests/mutants.py` does it."""

from mutants import MUTANTS, ROOT, mutated, summary


def test_every_mutant_applies_and_parses():
    # mutated() raises unless the old text occurs once, the new differs and the result parses
    for mutant in MUTANTS:
        mutated(mutant)
    modules = {path.name for path in (ROOT / "src" / "sqdc").glob("*.py")}
    assert {mutant[0] for mutant in MUTANTS} == modules - {"__init__.py"}
    assert f"lists {len(MUTANTS)} mutants" in (ROOT / "README.md").read_text(encoding="utf-8")


def test_summary_of_a_fixed_matrix():
    a, b, c, d, e = (f"tests/test_x.py::test_{name}" for name in "abcde")
    matrix = {
        "#0 m": [a, b],  # a and b: each the other's only cover, so only a can go
        "#1 m": [c],
        "#2 m": [],  # a survivor binds no test
        "#3 m": [d, c],
    }
    sole, removable = summary(matrix, [a, b, c, d, e])
    assert sole == {c: ["#1 m"]}
    assert removable == [a, d, e]  # e kills nothing
