"""Rules read off the sources. The package runs on the standard library
alone: numpy and other packages may be installed where the tests run, so an
import of one would pass every other test. Only `keys` copies CPython's
random draws. Every session, of a run or of a document, runs through
`harness.run_trial`. One helper turns a ValueError into a ConfigError. The
command line declares the flags that name an experiment once. And the engine
holds labels, not amplitudes."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sqdc"


def owners(tree) -> dict:
    """id of each node -> name of the innermost function around it."""
    # ast.walk is breadth first, so the innermost function is written last
    return {
        id(node): func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_only_keys_copies_the_stdlib_draws():
    # Reports reproduce only while the draws copy CPython's `_randbelow`; one
    # module owns that copy, so a CPython change is mended in one place.
    users = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            names += [alias.name for alias in getattr(node, "names", [])]
            if "getrandbits" in names:
                users.append(f"{path.name}:{node.lineno}")
    assert {user.split(":")[0] for user in users} == {"keys.py"}, users


def test_config_errors_are_translated_in_one_place():
    # `harness._checked` is the one ValueError -> ConfigError translation;
    # only the document parser, which also reads JSON, keeps handlers of its own.
    translators = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = owners(tree)
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and any(
                isinstance(node, ast.Raise)
                and "ConfigError" in {getattr(sub, "id", None) for sub in ast.walk(node)}
                for node in ast.walk(handler)
            ):
                translators.append(f"{path.name}::{owner.get(id(handler))}")
    assert set(translators) == {"harness.py::_checked", "harness.py::load_session_config"}


def test_only_keys_walks_k1():
    # `keys.interleave` and `deinterleave` are the one map from k1 bits to
    # positions; a loop over k1 elsewhere would be a second copy of it.
    walkers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "keys.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                continue
            names = {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node.iter)}
            if "k1" in names:
                walkers.append(f"{path.name}:{node.iter.lineno}")
    assert walkers == []


def test_sessions_run_only_through_run_trial():
    # A second caller of trial_seeds or run_session would be a second trial
    # path, free to drift from the one that reports are pinned on.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("trial_seeds", "run_session"):
                    calls.append(f"{path.name}::{owner.get(id(node))} calls {name}")
    assert sorted(calls) == [
        "harness.py::run_trial calls run_session",
        "harness.py::run_trial calls trial_seeds",
    ]


def test_cli_names_an_experiment_once():
    # `run` and `analytic` share one parent parser for the flags that name an
    # experiment, and one ExperimentConfig is built for both commands.
    tree = ast.parse((SRC / "cli.py").read_text(), "cli.py")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    built = [c for c in calls if getattr(c.func, "id", None) == "ExperimentConfig"]
    flags = [
        c.args[0].value
        for c in calls
        if getattr(c.func, "attr", None) == "add_argument" and isinstance(c.args[0], ast.Constant)
    ]
    assert len(built) == 1
    assert [flags.count(flag) for flag in ("--attack", "--attack-param", "--n")] == [1, 1, 1]


def test_package_holds_no_amplitudes():
    # Every state the protocols reach is a label; the amplitudes those labels
    # stand for are written once, in the tests' dense oracle.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, complex)
        or "complex" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert found == []
