"""Every pin of `tests/pins.py` holds, and it is the one pin mechanism."""

import ast
import json

import pytest

from pins import DIGEST_PINS, DIGESTS, GOLDEN, TEXT_PINS


@pytest.mark.parametrize("name", TEXT_PINS)  # as lines, so a failure names the first that moved
def test_text_pin(name):
    assert TEXT_PINS[name]().splitlines(True) == (GOLDEN / name).read_bytes().decode().splitlines(True)


@pytest.mark.parametrize("name", DIGEST_PINS)
def test_digest_pin(name):
    assert DIGEST_PINS[name]() == json.loads(DIGESTS.read_bytes())[name]


def test_every_pin_file_is_checked():
    # a pin dropped from the table must not leave a file that nothing reads
    files = {path.relative_to(GOLDEN).as_posix() for path in GOLDEN.rglob("*") if path.is_file()}
    assert files == set(TEXT_PINS)
    assert set(json.loads(DIGESTS.read_bytes())) == set(DIGEST_PINS)


def test_only_the_pin_table_computes_digests():
    # a digest checked elsewhere would fail without a diff and re-pin by hand
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(GOLDEN.parent.rglob("*.py"))
        if path.name != "pins.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "hexdigest"
    ]
    assert callers == []
