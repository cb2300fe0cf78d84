"""Tests for the Monte Carlo harness, reporting, and the CLI."""

import csv
import io
import json
from dataclasses import fields
from pathlib import Path
from random import Random

import pytest

from sqdc.cli import OUTPUT_DIR_ENV, main
from sqdc.codec import bits_to_hex
from sqdc.harness import (
    ConfigError,
    ExperimentConfig,
    emit_report,
    report_dict,
    run_experiment,
    load_session_config,
    run_trial,
    trial_seeds,
    wilson_interval,
)
from sqdc.keys import KeyMaterial, gen_keys, random_bits
from sqdc.protocol import DetectionCause, Variant, alice_prepare
from sqdc.qsim import QuantumRegister
from pins import make_config, run_document, session_doc


# -- Wilson intervals --------------------------------------------------------------


def test_wilson_contains_point_estimate():
    rng = Random(0)
    for _ in range(100):
        trials = rng.randrange(1, 2000)
        successes = rng.randrange(trials + 1)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_wilson_edge_counts():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and high < 0.07
    low, high = wilson_interval(100, 100)
    assert low > 0.93 and high == 1.0
    # the clamps: unclamped, these would round to 2.8e-17 and 1 - 1.1e-16
    assert wilson_interval(0, 13)[0] == 0.0
    assert wilson_interval(200, 200)[1] == 1.0
    # an interior count, where the width is set by phat * (1 - phat) / trials
    assert wilson_interval(50, 100) == pytest.approx((0.37528, 0.62472), abs=1e-5)


def test_wilson_requires_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# -- analytic references -------------------------------------------------------------


def closed_form(**overrides):
    config = make_config(**overrides)
    config.validate()
    return config.analytic()


def test_analytic_pinned_values():
    assert closed_form(attack="intercept_resend")[0] == 0.99609375
    assert closed_form(attack="impersonate_bob")[0] == pytest.approx(1 - 0.625 ** 8)
    assert closed_form() == (0.0, "honest runs are never rejected")
    assert closed_form(variant=Variant.MEASURE_RESEND)[0] == 0.0625
    assert closed_form(variant=Variant.MEASURE_RESEND, attack="reflect_all")[0] == 1.0
    assert closed_form(attack="modify_single", attack_params={"target": "c"})[0] == 1.0


def test_analytic_no_closed_form():
    assert closed_form(variant=Variant.MEASURE_RESEND, attack="intercept_resend") == (None, None)
    assert closed_form(attack="impersonate_alice") == (None, None)
    s_msg = {"attack": "modify_single", "attack_params": {"target": "s_msg"}}
    assert closed_form(n=32, **s_msg) == (None, None)


def test_analytic_unknown_attack():
    for overrides in (
        {"attack": "time_travel"},
        {"n": 3},
        {"attack": "reflect_all"},  # randomization variant
        {"attack": "intercept_resend", "attack_params": {"mode": "concrete"}},
    ):
        with pytest.raises(ConfigError):
            closed_form(**overrides)


# -- configuration validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"n": 12},
        {"n": 8},
        {"trials": 0},
        {"attack": "nope"},
        {"attack": "reflect_all"},  # randomization variant
        {"attack": "impersonate_bob", "attack_params": {"mode": "teleport"}},
        {"attack": "modify_single", "attack_params": {"target": "everything"}},
        {"message": "ab"},  # 2 digits: too few at n=96, too many at n=32
        {"attack_params": {"bogus": 1}},
        {"attack": "modify_single", "attack_params": {"target": 999}},
        {"attack": "modify_single", "attack_params": {"target": -1}},
        {"attack": "modify_single", "attack_params": {"target": 16}},  # n = 16
        {"attack": "modify_single", "attack_params": {"target": True}},
        {"message": "-f"},
        {"message": "0xf"},
        {"variant": "randomization"},  # a str, not a Variant
        {"trials": 2.5},
        {"trials": True},
        {"seed": "1"},
    ],
)
def test_config_validation_rejects(overrides):
    configs = [make_config(**overrides)]
    if overrides == {"message": "ab"}:
        # 12 message bits need 3 digits, and 4 bits need exactly 1
        configs = [make_config(n=96, message="ab"), make_config(n=32, message="ab")]
    for config in configs:
        # the error names a field the case set
        with pytest.raises(ConfigError, match="|".join(overrides)):
            config.validate()


def test_config_validation_accepts_good():
    make_config().validate()
    make_config(variant=Variant.MEASURE_RESEND, attack="reflect_all").validate()
    make_config(attack="modify_single", attack_params={"target": 3}).validate()
    make_config(attack="modify_single", attack_params={"target": 15}).validate()
    # runs Bob's own steps with a guessed k1 (tests/test_acceptance.py, criterion 10)
    make_config(variant=Variant.MEASURE_RESEND, attack="impersonate_bob",
                attack_params={"mode": "concrete"}).validate()
    make_config(n=16, message="f").validate()  # 2 bits; the digit's other 2 pad


# -- trial plumbing -----------------------------------------------------------------


def test_trial_seeds_distinct_and_stable():
    # both seeds of each trial: a register seed equal to its rng seed would replay the rng's stream
    seen = {seed for i in range(1000) for seed in trial_seeds(7, i)}
    assert len(seen) == 2000
    assert trial_seeds(7, 0) == trial_seeds(7, 0)
    assert trial_seeds(7, 0) != trial_seeds(8, 0)


def test_run_trial_fixed_message():
    m = random_bits(4, Random(3))
    config = make_config(n=32, message=bits_to_hex(m))
    for i in range(20):
        outcome = run_trial(config, i)
        assert outcome.decoded_message == m


def test_run_experiment_reproducible():
    config_a = make_config(attack="intercept_resend", trials=300, seed=42)
    config_b = make_config(attack="intercept_resend", trials=300, seed=42)
    a = emit_report(run_experiment(config_a), "json")
    b = emit_report(run_experiment(config_b), "json")
    assert a == b
    c = emit_report(run_experiment(make_config(attack="intercept_resend", trials=300, seed=43)), "json")
    assert a != c


# -- statistical soundness across the analytic table -----------------------------------


def test_wilson_intervals_cover_analytic_rates():
    experiments = []
    for n in (16, 24, 32):
        experiments.append(make_config(attack="intercept_resend", n=n))
        experiments.append(make_config(attack="impersonate_bob", n=n))
        experiments.append(make_config(n=n))
        experiments.append(make_config(variant=Variant.MEASURE_RESEND, n=n))
        experiments.append(
            make_config(variant=Variant.MEASURE_RESEND, attack="reflect_all", n=n)
        )
    experiments.append(
        make_config(attack="modify_single", attack_params={"target": "c"}, n=16)
    )
    experiments.append(
        make_config(
            variant=Variant.MEASURE_RESEND,
            attack="modify_single",
            attack_params={"target": "c"},
            n=16,
        )
    )
    # s_msg has no closed form: 1-2^(-n/8) would treat the truncated digest
    # as an ideal random function, while the true single-flip collision rate
    # is a fixed discrete quantity that a tight interval can exclude; the
    # acceptance suite checks it as a one-sided bound instead
    experiments.append(make_config(attack="intercept_resend", n=40))
    experiments.append(make_config(attack="impersonate_bob", n=40))
    experiments.append(make_config(n=48))
    assert len(experiments) == 20

    covered = 0
    for i, config in enumerate(experiments):
        config.trials = 3000
        config.seed = 1000 + i
        stats = run_experiment(config)
        assert stats.analytic is not None
        low, high = stats.wilson_99
        if low <= stats.analytic <= high:
            covered += 1
    # each 99% interval misses with probability ~1%; demand at least 18 of 20
    assert covered >= 18


# -- reports ---------------------------------------------------------------------


def test_json_report_of_honest_run():
    stats = run_experiment(make_config(trials=200, seed=11))
    assert (stats.detection_rate, stats.bob_accept_rate, stats.alice_accept_rate) == (0.0, 1.0, 1.0)
    assert (stats.security_event_rate, stats.cause_counts["none"], stats.analytic) == (0.0, 200, 0.0)
    doc = json.loads(emit_report(stats, "json"))
    assert doc["config"]["variant"] == "randomization"
    assert doc["config"]["trials"] == doc["results"]["trials"] == 200
    assert doc["hash"]["algorithm"] == "sha256"
    assert doc["hash"]["truncate_bits"] == 2
    assert doc["results"]["wilson_99"][0] <= doc["results"]["detection_rate"]
    assert doc == report_dict(stats)


def test_csv_report_round_trip():
    stats = run_experiment(make_config(attack="intercept_resend", trials=100))
    text = emit_report(stats, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    row = rows[0]
    assert list(row)[:7] == [f.name for f in fields(ExperimentConfig)]
    assert tuple(row) == (
        "variant", "attack", "attack_params", "n", "trials", "seed", "message",
        "count_none", "count_hash_mismatch", "count_bell_check_failed", "count_reflect_flag",
        "bob_accept_rate", "alice_accept_rate", "security_event_rate", "detection_rate",
        "wilson_99_low", "wilson_99_high", "analytic", "analytic_formula",
        "hash_algorithm", "hash_truncate_bits", "version",
    )
    assert row["attack"] == "intercept_resend"
    assert int(row["trials"]) == 100
    assert float(row["detection_rate"]) == stats.detection_rate
    assert float(row["analytic"]) == 0.99609375
    assert sum(int(row[f"count_{cause.value}"]) for cause in DetectionCause) == 100


def test_run_rates_count_its_trials():
    # a flipped message qubit at n = 16: the 2-bit checksum rejects it, a hash
    # mismatch that Alice's checks pass, or collides, and Bob takes a forgery
    config = make_config(attack="modify_single", attack_params={"target": "s_msg"}, trials=200)
    stats = run_experiment(config)
    assert stats.alice_accept_rate == 1.0
    accepted = stats.cause_counts["none"] / 200
    assert 0 < stats.security_event_rate == stats.bob_accept_rate == accepted < 1


def test_emit_report_bad_format():
    stats = run_experiment(make_config(trials=5))
    with pytest.raises(ConfigError):
        emit_report(stats, "yaml")


# -- single-session configuration documents ---------------------------------------


def test_session_from_config_honest():
    doc, m = session_doc()
    outcome = run_document(doc)
    assert outcome.bob_accepts and outcome.alice_accepts
    assert outcome.decoded_message == m
    assert outcome.detection_cause is DetectionCause.NONE
    assert outcome.security_event is False


def test_session_from_config_with_attack():
    doc, _ = session_doc(attack="intercept_resend")
    assert run_document(doc).bob_accepts is True  # parity survives Z measurement


def test_session_config_parsing_errors():
    with pytest.raises(ConfigError):
        load_session_config("{not json")
    # past CPython's int digit limit and its recursion limit: not a bare
    # ValueError or RecursionError
    for text in ('{"seed": ' + "1" * 4301 + "}", "[" * 100000):
        with pytest.raises(ConfigError, match="malformed session config"):
            load_session_config(text)
    # a repeated key, at the top or nested, would drop its earlier value
    doc, _ = session_doc()
    text = json.dumps(doc)[:-1] + ', "variant": "measure-resend"}'
    with pytest.raises(ConfigError, match="repeated key 'variant'"):
        load_session_config(text)
    doc, _ = session_doc(attack="impersonate_bob", attack_params={"mode": "idealized"})
    text = json.dumps(doc).replace('"idealized"}', '"idealized", "mode": "concrete"}')
    with pytest.raises(ConfigError, match="repeated key 'mode'"):
        load_session_config(text)
    with pytest.raises(ConfigError):
        load_session_config(json.dumps({"variant": "randomization", "n": 16}))
    doc, _ = session_doc(k1="ffff")  # unbalanced
    with pytest.raises(ConfigError):
        run_document(doc)
    # full size (balanced k1, k2 of n/2 bits), but n/8 bits outgrow SHA-256
    doc, _ = session_doc(n=2056, message="0" * 65, k1="0" * 257 + "f" * 257, k2="0" * 257)
    with pytest.raises(ConfigError, match="2048"):
        run_document(doc)
    with pytest.raises(ConfigError):
        load_session_config("[]")
    # the fields a run's configuration shares are test_session_document_shares_run_validator's
    for overrides in (
        {"message": None},  # random per trial in a run; a document needs one
        {"k2": None},  # randomization needs k2
        {"attack": ["no_attack"]},
        {"variant": "teleportation"},
        {"variant": ["randomization"]},
        {"attack": "modify_single", "attack_params": {"target": 16}},
        {"attack": "impersonate_bob", "attack_params": {"mode": "teleport"}},
    ):
        doc, _ = session_doc(**overrides)
        with pytest.raises(ConfigError):
            run_document(doc)
    # a key error names the key, as a message error does
    for key, overrides in (
        ("k1", {"k1": "zzzz"}),
        ("k2", {"k2": "f"}),  # too short
        # one surplus digit each: rejected, not dropped
        ("k1", {"k1": "00ff0"}),
        ("k2", {"k2": "0f0"}),
        # present but falsy: not a missing k2
        ("k2", {"k2": ""}),
        ("k2", {"k2": 0}),
        # a non-null k2 on measure-resend, which the run would drop
        ("k2", {"variant": "measure-resend"}),
    ):
        doc, _ = session_doc(**overrides)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            run_document(doc)
    # an unknown key, which the run would ignore (this one would run an honest
    # session), is rejected by name
    doc, _ = session_doc(atack="intercept_resend")
    with pytest.raises(ConfigError, match="'atack'"):
        run_document(doc)


@pytest.mark.parametrize("variant", Variant)
def test_misfit_k2_has_one_text(variant):
    # a measure-resend document that carries a k2, or a randomization one
    # without: the document fails with alice_prepare's text, under its key
    doc, m = session_doc(variant=variant.value)
    keys = gen_keys(16, Random(5))  # the document's keys, drawn as session_doc draws them
    if variant is Variant.RANDOMIZATION:
        doc["k2"], keys = None, KeyMaterial(keys.k1)
    with pytest.raises(ValueError) as from_api:
        alice_prepare(m, keys, QuantumRegister(0), variant)
    with pytest.raises(ConfigError) as from_doc:
        run_document(doc)
    assert str(from_doc.value) == f"k2: {from_api.value}"


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 12),
        ("n", 2056),
        ("n", "16"),
        ("seed", "5"),
        ("seed", 1.5),
        ("attack", "time_travel"),
        ("attack", "reflect_all"),  # randomization variant
        ("attack_params", {"bogus": 1}),
        ("attack_params", ["mode"]),
        ("message", "zz"),
        ("message", "-f"),
        ("message", 3),
        ("message", "0f"),  # n/8 = 2 bits take 1 digit
    ],
)
def test_session_document_shares_run_validator(field, value):
    with pytest.raises(ConfigError) as from_run:
        make_config(**{field: value}).validate()
    doc, _ = session_doc(**{field: value})
    with pytest.raises(ConfigError) as from_doc:
        run_document(doc)
    assert str(from_doc.value) == str(from_run.value)


def test_max_n_runs_one_trial():
    stats = run_experiment(make_config(n=2048, trials=1))
    assert stats.cause_counts["none"] == 1


# -- CLI ------------------------------------------------------------------------

RUN = ["run", "--variant", "randomization", "--n", "16", "--trials", "20", "--seed", "3"]


@pytest.mark.parametrize(
    "attack, params, rate",
    [("no_attack", {}, 0.0), ("modify_single", {"target": "c"}, 1.0)],
)
def test_cli_run_json_stdout(attack, params, rate, capsys):
    flags = [f for key, value in params.items() for f in ("--attack-param", f"{key}={value}")]
    assert main(RUN + ["--attack", attack, *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["detection_rate"] == rate
    assert doc["config"]["attack_params"] == params


def test_cli_run_csv_to_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["run", "--variant", "measure-resend", "--attack", "reflect_all", "--n", "16"]
    assert main(argv + ["--trials", "20", "--seed", "3", "--format", "csv", "--out", str(out)]) == 0
    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["detection_rate"] == "1.0"


def test_cli_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(RUN + ["--attack", "no_attack", "--out", "nested.json"]) == 0
    assert (tmp_path / "nested.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        RUN + ["--attack", "reflect_all"],  # measure-resend only
        RUN + ["--attack", "no_attack", "--attack-param", "oops"],
        RUN + ["--attack", "no_attack", "--attack-param", "bogus=1"],
        RUN + ["--attack", "modify_single", "--attack-param", "target=999"],
        RUN + ["--attack", "modify_single", "--attack-param", "target=-1"],
        RUN + ["--attack", "no_attack", "--message=-f"],
        ["analytic", "--attack", "no_attack", "--n", "3"],
        ["analytic", "--attack", "reflect_all", "--variant", "randomization", "--n", "16"],
        ["analytic", "--attack", "intercept_resend", "--attack-param", "mode=concrete", "--n", "16"],
        # n above 2048 would need a checksum longer than SHA-256's 256 bits
        ["analytic", "--attack", "no_attack", "--n", "4096"],
        RUN[:3] + ["--n", "2056", "--trials", "1", "--seed", "1", "--attack", "no_attack"],
        # a repeated key would silently keep its last value
        RUN + ["--attack", "modify_single"]
        + ["--attack-param", "target=c", "--attack-param", "target=s"],
        # one surplus digit: rejected, not dropped while the report shows it
        RUN + ["--attack", "no_attack", "--message", "0f"],
        # a position is ASCII digits with an optional "-", nothing else int() reads
        *(
            RUN + ["--attack", "modify_single", "--attack-param", f"target={value}"]
            for value in ("1_0", " 3", "+3", "\u0663")
        ),
    ],
)
def test_cli_invalid_input_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_io_error_exit_code(tmp_path, capsys):
    assert main(RUN + ["--attack", "no_attack", "--out", str(tmp_path / "missing" / "r.json")]) == 3
    assert "cannot write" in capsys.readouterr().err


def test_cli_analytic(capsys):
    assert main(["analytic", "--attack", "intercept_resend", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "0.99609375" in out
    assert main(["analytic", "--attack", "impersonate_alice", "--n", "16"]) == 0
    assert "no closed form" in capsys.readouterr().out


def test_cli_list_attacks(capsys):
    assert main(["list-attacks"]) == 0
    out = capsys.readouterr().out
    for name in ("no_attack", "impersonate_bob", "modify_single", "reflect_all"):
        assert name in out
    assert "a position 0..n-1" in out
    # the README's parameter list is this output, verbatim
    assert out in (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_session_documents_load_and_run():
    # every JSON example under "Single-session documents" loads and runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Single-session documents", 1)[1].split("\n#", 1)[0]
    examples = [block.split("\n```", 1)[0] for block in section.split("```json\n")[1:]]
    assert examples
    for text in examples:
        config, keys = load_session_config(text)
        outcome = run_trial(config, 0, keys)
        if config.attack == "no_attack":
            assert outcome.alice_accepts and not outcome.detected
