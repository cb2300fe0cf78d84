"""Rules read off the sources. The package runs on the standard library
alone: numpy and other packages may be installed where the tests run, so an
import of one would pass every other test. Only `keys` copies CPython's
random draws. Every session, of a run or of a document, runs through
`harness.run_trial`, which alone builds its register, and no test patches
sqdc to reach one. One helper turns a ValueError into a ConfigError. One
property states which variant takes a k2. The command line declares the flags
that name an experiment once. And the engine holds labels, not amplitudes."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sqdc"
TESTS = Path(__file__).resolve().parent


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


def test_only_check_keys_tests_k2_against_none():
    # `protocol.check_keys` is the one k2-against-variant rule, and
    # `Variant.holds_k2` the one statement of which variant holds a k2. A
    # second `.k2 is None` test, or a Variant member compared on a line or in
    # a function that names k2, would be a copy free to drift from them.
    # `keys.KeyMaterial` checks a present k2's shape, not the variant.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "keys.py":
            continue
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines), str(path))
        owner = owners(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            site = (f"{path.name}::{owner.get(id(node))}", node.lineno)
            operands = [node.left, *node.comparators]
            if any(getattr(o, "attr", None) == "k2" for o in operands) and any(
                isinstance(o, ast.Constant) and o.value is None for o in operands
            ):
                found.append(site)
            if "k2" in site[0] + lines[node.lineno - 1] and any(
                getattr(getattr(o, "value", None), "id", None) == "Variant" for o in operands
            ):
                found.append(site)
    assert {site for site, _ in found} == {"protocol.py::check_keys", "protocol.py::holds_k2"}, found


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


def test_only_run_trial_builds_a_register():
    # A trial's register is built from its seed in `run_trial`, which takes
    # the class to build, so a test observes a trial by passing a subclass.
    # `bell_probabilities` builds a scratch register that draws nothing.
    builders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = owners(tree)
        classes = {"QuantumRegister"}  # and each parameter that defaults to it
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                params = [*node.posonlyargs, *node.args, *node.kwonlyargs]
                defaults = [*node.defaults, *node.kw_defaults]
                named = zip(params[len(params) - len(defaults) :], defaults)
                classes |= {p.arg for p, d in named if getattr(d, "id", None) == "QuantumRegister"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) in classes:
                    builders.append(f"{path.name}::{owner.get(id(node))}")
    assert sorted(builders) == ["harness.py::run_trial", "qsim.py::bell_probabilities"]


def test_no_test_patches_sqdc():
    # Tests reach the engine through its parameters (`run_trial`'s
    # `register=`), not by rebinding a module, class or function of sqdc.
    patchers = {"patch", "setattr", "delattr", "setitem", "delitem"}  # and patch's own methods
    found = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sqdc_names = {"sqdc"}  # names bound to sqdc or to something in it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqdc":
                sqdc_names |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                sqdc_names |= {a.asname or a.name for a in node.names if a.name.startswith("sqdc")}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            parts = ast.unparse(node.func).split(".")
            if parts[-1] not in patchers and parts[-2:-1] != ["patch"]:
                continue
            target = node.args[0]
            while isinstance(target, ast.Attribute):
                target = target.value
            root = getattr(target, "id", getattr(target, "value", None))
            if isinstance(root, str) and root.split(".")[0] in sqdc_names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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
