"""Tests for the Monte Carlo harness, reporting, and the CLI."""

import csv
import hashlib
import io
import json
from pathlib import Path
from random import Random

import pytest

from sqdc.cli import OUTPUT_DIR_ENV, main
from sqdc.codec import bits_to_hex, random_bits
from sqdc.harness import (
    CSV_COLUMNS,
    ConfigError,
    DetectionStats,
    ExperimentConfig,
    analytic_detection,
    emit_report,
    report_dict,
    run_experiment,
    run_session_from_config,
    load_session_config,
    run_trial,
    trial_seeds,
    wilson_interval,
)
from sqdc.keys import gen_keys
from sqdc.protocol import Variant


def make_config(**overrides):
    base = dict(
        variant=Variant.RANDOMIZATION,
        attack="no_attack",
        n=16,
        trials=50,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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


def test_wilson_symmetry_at_half():
    low, high = wilson_interval(50, 100)
    assert abs((low + high) / 2 - 0.5) < 1e-12


def test_wilson_narrows_with_trials():
    w1 = wilson_interval(10, 40)
    w2 = wilson_interval(1000, 4000)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def test_wilson_requires_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# -- analytic references -------------------------------------------------------------


def test_analytic_pinned_values():
    assert analytic_detection("intercept_resend", Variant.RANDOMIZATION, 16)[0] == 0.99609375
    assert analytic_detection("impersonate_bob", Variant.RANDOMIZATION, 16)[0] == pytest.approx(
        1 - 0.625 ** 8
    )
    assert analytic_detection("no_attack", Variant.RANDOMIZATION, 16) == (
        0.0,
        "honest runs are never rejected",
    )
    assert analytic_detection("no_attack", Variant.MEASURE_RESEND, 16)[0] == 0.0625
    assert analytic_detection("reflect_all", Variant.MEASURE_RESEND, 16)[0] == 1.0
    assert analytic_detection(
        "modify_single", Variant.RANDOMIZATION, 16, {"target": "c"}
    )[0] == 1.0


def test_analytic_no_closed_form():
    assert analytic_detection("intercept_resend", Variant.MEASURE_RESEND, 16) == (None, None)
    assert analytic_detection("impersonate_alice", Variant.RANDOMIZATION, 16) == (None, None)
    assert analytic_detection(
        "modify_single", Variant.RANDOMIZATION, 32, {"target": "s_msg"}
    ) == (None, None)


def test_analytic_unknown_attack():
    with pytest.raises(ConfigError):
        analytic_detection("time_travel", Variant.RANDOMIZATION, 16)
    with pytest.raises(ConfigError):
        analytic_detection("no_attack", Variant.RANDOMIZATION, 3)
    with pytest.raises(ConfigError):
        analytic_detection("reflect_all", Variant.RANDOMIZATION, 16)
    with pytest.raises(ConfigError):
        analytic_detection("intercept_resend", Variant.RANDOMIZATION, 16, {"mode": "concrete"})


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
        {"message": "ab"},  # too short for n/8 = 4 bits? "ab" has 8 bits -- use n=96
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
    if overrides == {"message": "ab"}:
        config = make_config(n=96, message="ab")  # 8 hex bits < 12 message bits
    else:
        config = make_config(**overrides)
    # the error names a field the case set
    with pytest.raises(ConfigError, match="|".join(overrides)):
        config.validate()


def test_config_validation_accepts_good():
    make_config().validate()
    make_config(variant=Variant.MEASURE_RESEND, attack="reflect_all").validate()
    make_config(attack="modify_single", attack_params={"target": 3}).validate()
    make_config(attack="modify_single", attack_params={"target": 15}).validate()
    # known defect: this pair passes validation and fails at run time
    make_config(
        variant=Variant.MEASURE_RESEND, attack="impersonate_bob", attack_params={"mode": "concrete"}
    ).validate()
    make_config(n=32, message="ab").validate()


# -- trial plumbing -----------------------------------------------------------------


def test_trial_seeds_distinct_and_stable():
    seen = {trial_seeds(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert trial_seeds(7, 0) == trial_seeds(7, 0)
    assert trial_seeds(7, 0) != trial_seeds(8, 0)


def test_run_trial_fixed_message():
    m = random_bits(4, Random(3))
    config = make_config(n=32, message=bits_to_hex(m))
    for i in range(20):
        outcome = run_trial(config, i)
        assert outcome.decoded_message == m


def test_run_experiment_honest():
    stats = run_experiment(make_config(trials=200, seed=11))
    assert stats.detection_rate == 0.0
    assert stats.bob_accept_rate == 1.0
    assert stats.alice_accept_rate == 1.0
    assert stats.security_event_rate == 0.0
    assert stats.cause_counts["none"] == 200
    assert stats.analytic == 0.0


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


def test_json_report_structure():
    stats = run_experiment(make_config(trials=20))
    doc = json.loads(emit_report(stats, "json"))
    assert doc["config"]["variant"] == "randomization"
    assert doc["config"]["trials"] == 20
    assert doc["results"]["trials"] == 20
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
    assert tuple(row) == CSV_COLUMNS
    assert row["attack"] == "intercept_resend"
    assert int(row["trials"]) == 100
    assert float(row["detection_rate"]) == stats.detection_rate
    assert float(row["analytic"]) == 0.99609375
    counts = sum(
        int(row[k])
        for k in ("count_none", "count_hash_mismatch", "count_bell_check_failed", "count_reflect_flag")
    )
    assert counts == 100


# SHA-256 of the JSON and CSV reports of a few configs. Reports must be
# reproducible byte for byte, so a change to these digests must be deliberate.
GOLDEN_REPORTS = [
    (
        dict(n=32, trials=40, seed=1, message="a"),
        "b8b0f57a86e29a60cc258d69e0aad89fa7eff63ebf3ff64907b4cf772ace7aff",
        "22e1931cb8907fd6540e0cca80ebed0b2b8c830f059e6360a12e8fd44ea62b35",
    ),
    (
        dict(variant=Variant.MEASURE_RESEND, attack="impersonate_alice", trials=40, seed=7),
        "f2d0f76f35c8a6d0115920c318c46df651663a2c2e36e8687b6a38ce84157a5e",
        "00c5e7fbdc4b741fd68ecf883318205c77fee9157ff51cc3f0f1d83646055deb",
    ),
    (
        dict(attack="modify_single", attack_params={"target": "s_msg"}, trials=60, seed=5),
        "f102b28a328a89a3f3c0f5f691a380d752749d05a0487f067fa2fc4a70f84094",
        "f3335367b7c5266a9ecfeabd94fb61e4d4c7ff158232154547fa0ae9c3174520",
    ),
    (
        dict(attack="impersonate_bob", attack_params={"mode": "concrete"}, trials=30, seed=3),
        "8c73c2d01efb95648e09ad1e9122c14d1b9753bb0737b07aaafbc58e26d856d6",
        "d9c71178efa62c847d520b4376b1af4020039fb844ece07de1777ca0a69dffe8",
    ),
    (
        dict(
            variant=Variant.MEASURE_RESEND,
            attack="modify_single",
            attack_params={"target": 3},
            trials=30,
            seed=11,
            message="f",
        ),
        "9998b375fe38a4075a27d35b144f7d1d15e7d608523c68b1e7357df69afa0a1e",
        "30c446f9e4ead48682bab9d2fa8ef98494676229972d061ead66c3f7ec98b047",
    ),
    (
        dict(variant=Variant.MEASURE_RESEND, attack="reflect_all", n=24, trials=30, seed=9),
        "404eaa0b77201cfa6cd1f939ab85d0c039fce491833bfa34cbee9a39bb96f148",
        "1137a367412453caba7fb439639086effed84a8c01c0bfc5c64c1629e733fcac",
    ),
]


@pytest.mark.parametrize(
    "overrides, json_sha, csv_sha",
    GOLDEN_REPORTS,
    ids=[
        "fixed-message", "no-closed-form", "s_msg", "concrete", "position-target", "reflect-all",
    ],
)
def test_report_bytes_pinned(overrides, json_sha, csv_sha):
    stats = run_experiment(make_config(**overrides))
    for fmt, expected in (("json", json_sha), ("csv", csv_sha)):
        assert hashlib.sha256(emit_report(stats, fmt).encode()).hexdigest() == expected


def test_emit_report_bad_format():
    stats = run_experiment(make_config(trials=5))
    with pytest.raises(ConfigError):
        emit_report(stats, "yaml")


# -- single-session configuration documents ---------------------------------------


def session_doc(seed=5, **overrides):
    rng = Random(seed)
    keys = gen_keys(16, rng)
    m = random_bits(2, rng)
    doc = {
        "variant": "randomization",
        "n": 16,
        "message": bits_to_hex(m),
        "k1": bits_to_hex(list(keys.k1)),
        "k2": bits_to_hex(list(keys.k2)),
        "seed": seed,
    }
    doc.update(overrides)
    return doc, m


def test_session_from_config_honest():
    doc, m = session_doc()
    result = run_session_from_config(doc)
    assert result["bob_accepts"] and result["alice_accepts"]
    assert result["decoded_message"] == bits_to_hex(m)
    assert result["detection_cause"] == "none"
    assert result["security_event"] is False


def test_session_from_config_with_attack():
    doc, _ = session_doc(attack="intercept_resend")
    result = run_session_from_config(doc)
    assert result["bob_accepts"] is True  # parity survives Z measurement


def test_session_config_parsing_errors():
    with pytest.raises(ConfigError):
        load_session_config("{not json")
    with pytest.raises(ConfigError):
        load_session_config(json.dumps({"variant": "randomization", "n": 16}))
    doc, _ = session_doc(variant="teleportation")
    with pytest.raises(ConfigError):
        run_session_from_config(doc)
    doc, _ = session_doc(n=12)
    with pytest.raises(ConfigError):
        run_session_from_config(doc)
    doc, _ = session_doc(k1="ffff")  # unbalanced
    with pytest.raises(ConfigError):
        run_session_from_config(doc)
    with pytest.raises(ConfigError):
        load_session_config("[]")
    with pytest.raises(ConfigError):
        run_session_from_config({"variant": "randomization", "n": 16})
    for overrides in (
        {"message": "zz"},
        {"message": "-f"},
        {"message": 3},
        {"k1": "zzzz"},
        {"k2": None},  # randomization needs k2
        {"k2": "f"},  # too short
        {"seed": "5"},
        {"seed": 1.5},
        {"attack": "time_travel"},
        {"attack": ["no_attack"]},
        {"variant": ["randomization"]},
        {"n": "16"},
        {"attack": "reflect_all"},  # randomization variant
        {"attack_params": {"bogus": 1}},
        {"attack_params": ["mode"]},
        {"attack": "modify_single", "attack_params": {"target": 16}},
        {"attack": "impersonate_bob", "attack_params": {"mode": "teleport"}},
    ):
        doc, _ = session_doc(**overrides)
        with pytest.raises(ConfigError):
            run_session_from_config(doc)


def test_session_config_round_trip_through_json():
    doc, m = session_doc(seed=9)
    parsed = load_session_config(json.dumps(doc))
    assert run_session_from_config(parsed) == run_session_from_config(doc)


# -- CLI ------------------------------------------------------------------------


def test_cli_run_json_stdout(capsys):
    code = main(
        [
            "run",
            "--variant", "randomization",
            "--attack", "no_attack",
            "--n", "16",
            "--trials", "20",
            "--seed", "3",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["detection_rate"] == 0.0


def test_cli_run_csv_to_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "run",
            "--variant", "measure-resend",
            "--attack", "reflect_all",
            "--n", "16",
            "--trials", "20",
            "--seed", "3",
            "--format", "csv",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["detection_rate"] == "1.0"


def test_cli_attack_params(capsys):
    code = main(
        [
            "run",
            "--variant", "randomization",
            "--attack", "modify_single",
            "--attack-param", "target=c",
            "--n", "16",
            "--trials", "20",
            "--seed", "3",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["detection_rate"] == 1.0
    assert doc["config"]["attack_params"] == {"target": "c"}


def test_cli_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    code = main(
        [
            "run",
            "--variant", "randomization",
            "--attack", "no_attack",
            "--n", "16",
            "--trials", "5",
            "--seed", "3",
            "--out", "nested.json",
        ]
    )
    assert code == 0
    assert (tmp_path / "nested.json").exists()


def test_cli_config_error_exit_code(capsys):
    code = main(
        [
            "run",
            "--variant", "randomization",
            "--attack", "reflect_all",
            "--n", "16",
            "--trials", "5",
            "--seed", "3",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_attack_param_exit_code(capsys):
    code = main(
        [
            "run",
            "--variant", "randomization",
            "--attack", "no_attack",
            "--attack-param", "oops",
            "--n", "16",
            "--trials", "5",
            "--seed", "3",
        ]
    )
    assert code == 2


RUN = ["run", "--variant", "randomization", "--n", "16", "--trials", "5", "--seed", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        RUN + ["--attack", "no_attack", "--attack-param", "bogus=1"],
        RUN + ["--attack", "modify_single", "--attack-param", "target=999"],
        RUN + ["--attack", "modify_single", "--attack-param", "target=-1"],
        RUN + ["--attack", "no_attack", "--message=-f"],
        ["analytic", "--attack", "no_attack", "--n", "3"],
        ["analytic", "--attack", "reflect_all", "--variant", "randomization", "--n", "16"],
        ["analytic", "--attack", "intercept_resend", "--attack-param", "mode=concrete", "--n", "16"],
    ],
)
def test_cli_invalid_input_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_io_error_exit_code(tmp_path, capsys):
    code = main(
        [
            "run",
            "--variant", "randomization",
            "--attack", "no_attack",
            "--n", "16",
            "--trials", "5",
            "--seed", "3",
            "--out", str(tmp_path / "missing" / "dir" / "r.json"),
        ]
    )
    assert code == 3
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
