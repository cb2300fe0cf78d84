"""Property tests: no input ends in a traceback.

Every `sqdc` command line ends in exit 0, 2 or 3, and every session document
either runs or raises `ConfigError`, which one that repeats a key must raise.
Hypothesis generates the inputs from a fixed seed (`derandomize=True`), so a
run is reproducible and keeps no example database.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from random import Random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqdc.adversary import ATTACKS
from sqdc.cli import OUTPUT_DIR_ENV, main
from sqdc.codec import bits_to_hex
from sqdc.harness import ConfigError, load_session_config, run_trial
from sqdc.keys import gen_keys
from sqdc.protocol import Variant

# A few examples per setting: the first is the well-formed one.
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)

# every (variant, attack, parameters) the catalogue accepts, one parameter at a time
CATALOGUE = [
    (variant.value, name, params)
    for variant in Variant
    for name, attack in ATTACKS.items()
    if variant in attack.variants
    for params in [{}] + [{k: c} for k, p in attack.params.items() for c in p.choices]
]
each_setting = pytest.mark.parametrize(
    "setting",
    CATALOGUE,
    ids=["/".join([v, a, *(f"{k}={x}" for k, x in p.items())]) for v, a, p in CATALOGUE],
)
SIZES = st.sampled_from([16, 24, 64, 256])
SEEDS = st.integers(-(2**70), 2**70)
HEX_TEXT = st.text("0123456789abcdefABCDEF-xz ", max_size=6)
PARAM_KEYS = st.sampled_from(["mode", "target", "bogus", ""])
PARAM_VALUES = st.sampled_from(
    ["idealized", "concrete", "teleport", "random", "s", "c", "s_msg", "3", "15", "16", "-1", ""]
)
# near misses: the bounds of the n range, values of the wrong kind, unknown names
BAD_FLAGS = {
    "--variant": st.sampled_from(["teleportation", "Randomization", ""]),
    "--attack": st.sampled_from(["time_travel", "reflect_all", ""]),
    "--n": st.sampled_from(["8", "2048", "2056", "4096", "-16", "17", "16.0", "x"]),
    "--trials": st.sampled_from(["0", "-1", "x"]),
    "--seed": st.sampled_from(["1.5", ""]),
    "--message": HEX_TEXT,
    "--format": st.sampled_from(["yaml", ""]),
    "--out": st.sampled_from(["", "missing/report.csv"]),
}


def message_hex(draw, n):
    return bits_to_hex(draw(st.lists(st.integers(0, 1), min_size=n // 8, max_size=n // 8)))


@st.composite
def command_lines(draw, setting):
    """`sqdc` argv: a run of a catalogue setting, well formed or, half the
    time, with any flag dropped or mangled and parameters added."""
    variant, attack, params = setting
    n = draw(SIZES)
    flags = {
        "--variant": variant,
        "--attack": attack,
        "--n": str(n),
        "--trials": str(draw(st.integers(1, 4))),
        "--seed": str(draw(SEEDS)),
        "--message": message_hex(draw, n),
        "--format": draw(st.sampled_from(["json", "csv"])),
        "--out": draw(st.sampled_from(["report.json", "taken"])),
    }
    pairs = [f"{k}={v}" for k, v in params.items()]
    command = "run"
    mangled = draw(st.booleans())
    for flag in list(flags):
        fate = draw(st.sampled_from(["keep", "drop", "bad"] if mangled else ["keep", "drop"]))
        if fate == "bad":
            flags[flag] = draw(BAD_FLAGS[flag])
        elif fate == "drop" and (mangled or flag in ("--message", "--format", "--out")):
            del flags[flag]
    if mangled:
        command = draw(st.sampled_from(["run", "analytic", "list-attacks", "replay"]))
        pairs += [f"{draw(PARAM_KEYS)}={draw(PARAM_VALUES)}" for _ in range(draw(st.integers(0, 2)))]
    return [command, *(f"{k}={v}" for k, v in flags.items()), *(f"--attack-param={p}" for p in pairs)]


@each_setting
@PROPERTY
@given(data=st.data())
def test_every_command_line_exits_0_2_or_3(setting, data):
    argv = data.draw(command_lines(setting))
    with tempfile.TemporaryDirectory() as out_dir:
        os.mkdir(os.path.join(out_dir, "taken"))  # a directory is not a writable report
        with mock.patch.dict(os.environ, {OUTPUT_DIR_ENV: out_dir}):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects a command line with exit 2
                    code = exc.code
    assert code in (0, 2, 3), argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def session_documents(draw, setting):
    """(text, repeats a key) of a session document: a well-formed document
    for a catalogue setting or, half the time, one whose fields are each
    kept, dropped or replaced by a near miss or some other JSON value; now
    and then not an object at all, or with one key written twice."""
    if draw(st.integers(0, 15)) == 15:
        return draw(st.text(max_size=8) | JSON_VALUES.map(json.dumps)), False
    variant, attack, params = setting
    n = draw(SIZES)
    keys = gen_keys(n, Random(draw(st.integers(0, 2**32))))
    doc = {
        "variant": variant,
        "n": n,
        "message": message_hex(draw, n),
        "k1": bits_to_hex(list(keys.k1)),
        "k2": None if variant == Variant.MEASURE_RESEND.value else bits_to_hex(list(keys.k2)),
        "seed": draw(SEEDS),
        "attack": attack,
        "attack_params": params,
    }
    if draw(st.booleans()):
        near_miss = {
            "n": st.sampled_from([8, 17, 2056, 16.0, True, "16"]),
            "attack_params": st.dictionaries(PARAM_KEYS, PARAM_VALUES | st.integers(-2, 300)),
        }
        for key in list(doc):
            fate = draw(st.sampled_from(["keep", "drop", "near", "other"]))
            if fate == "drop":
                del doc[key]
            elif fate == "near":
                doc[key] = draw(near_miss.get(key, HEX_TEXT))
            elif fate == "other":
                doc[key] = draw(JSON_VALUES)
        if draw(st.booleans()):
            doc[draw(st.text(max_size=5))] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if doc and draw(st.integers(0, 7)) == 7:  # a key written twice
        repeat = f", {json.dumps(draw(st.sampled_from(list(doc))))}: {json.dumps(draw(JSON_VALUES))}"
        return text[:-1] + repeat + "}", True
    return text, False


@each_setting
@PROPERTY
@given(data=st.data())
def test_every_session_document_runs_or_raises_config_error(setting, data):
    text, repeats_a_key = data.draw(session_documents(setting))
    try:
        config, keys = load_session_config(text)
    except ConfigError:
        return
    assert not repeats_a_key, text  # loading would have dropped one of its values
    run_trial(config, 0, keys)
