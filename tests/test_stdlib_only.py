"""Rules read off the sources. The package runs on the standard library
alone: numpy and other packages may be installed where the tests run, so an
import of one would pass every other test. And only `keys` copies CPython's
random draws."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sqdc"


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
