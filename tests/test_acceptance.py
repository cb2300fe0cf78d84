"""Acceptance suite: end-to-end behavioral criteria with pinned tolerances.

Each criterion prints a single PASS/FAIL line (visible under `pytest -s` or
in the captured output of a failing run) before asserting, so a red run still
reports every criterion it reached.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from random import Random

from sqdc.harness import (
    ExperimentConfig,
    run_experiment,
    run_trial,
    wilson_interval,
)
from sqdc.keys import KeyMaterial, deinterleave, gen_keys, random_bits
from sqdc.protocol import DetectionCause, Variant, run_session
from sqdc.qsim import BELL_ORDER, BellState, QuantumRegister

from test_qsim import CHI2_CRIT_DF3_P01, run_scripted_comparison


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num}: {verdict} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def config(variant, attack, n, trials, seed, params=None):
    return ExperimentConfig(
        variant=variant,
        attack=attack,
        n=n,
        trials=trials,
        seed=seed,
        attack_params=params or {},
    )


def test_criterion_1_honest_completeness():
    """Honest randomization-variant sessions always succeed and deliver the
    message intact, across block sizes."""
    ok = True
    details = []
    for n in (16, 32, 64):
        stats = run_experiment(
            config(Variant.RANDOMIZATION, "no_attack", n, 10_000, 101 + n)
        )
        good = (
            stats.detection_rate == 0.0
            and stats.bob_accept_rate == 1.0
            and stats.alice_accept_rate == 1.0
            and stats.security_event_rate == 0.0
        )
        ok = ok and good
        details.append(f"n={n} detect={stats.detection_rate}")
    report(1, "honest runs: 100% accept, 0 detections at n=16/32/64", ok, "; ".join(details))


def test_criterion_2_intercept_resend_detection():
    """Z-basis intercept-resend at n=16: detection matches 1-(1/2)^8 and the
    message stream still verifies (the attack is invisible to the receiver)."""
    trials = 100_000
    cfg = config(Variant.RANDOMIZATION, "intercept_resend", 16, trials, 202)
    stats = run_experiment(cfg)
    target = 1 - 0.5 ** 8  # 0.99609375
    low, high = stats.wilson_99
    ok = low <= target <= high and stats.bob_accept_rate == 1.0
    report(
        2,
        "intercept-resend detection rate matches 1-(1/2)^(n/2) at n=16",
        ok,
        f"rate={stats.detection_rate:.6f} wilson99=({low:.6f},{high:.6f}) target={target}",
    )


def test_criterion_3_impersonate_bob_detection():
    """Receiver impersonation (independent keep-or-substitute per slot) at
    n=16: overall detection matches 1-(5/8)^8 and the pooled per-slot pass
    rate matches 5/8."""
    trials = 100_000
    cfg = config(Variant.RANDOMIZATION, "impersonate_bob", 16, trials, 303)
    detections = 0
    slot_passes = 0
    slot_total = 0
    for i in range(trials):
        outcome = run_trial(cfg, i)
        if outcome.detected:
            detections += 1
        slot_passes += sum(outcome.check_matches)
        slot_total += len(outcome.check_matches)
    target = 1 - 0.625 ** 8
    low, high = wilson_interval(detections, trials)
    p = 5 / 8
    sigma = (p * (1 - p) / slot_total) ** 0.5
    slot_rate = slot_passes / slot_total
    ok = low <= target <= high and abs(slot_rate - p) <= 3 * sigma
    report(
        3,
        "receiver impersonation detection matches 1-(5/8)^(n/2), per-slot 5/8",
        ok,
        f"rate={detections / trials:.6f} target={target:.6f} slot={slot_rate:.6f}",
    )


def test_criterion_4_wrong_partner_uniformity():
    """Bell-measuring a retained checking qubit against a stranger from
    another pair yields each of the four outcomes uniformly: the pass rate is
    1/4 and the outcome histogram passes chi-square at alpha=0.01."""
    samples = 100_000
    rng = Random(404)
    counts = {bs: 0 for bs in BELL_ORDER}
    passes = 0
    register = QuantumRegister(405)
    for i in range(samples):
        if i % 1000 == 0:
            register = QuantumRegister(406 + i)
        state_a = rng.choice((BellState.PHI_PLUS, BellState.PSI_MINUS))
        state_b = rng.choice((BellState.PHI_PLUS, BellState.PSI_MINUS))
        a1, a2 = register.prepare_bell(state_a)
        b1, b2 = register.prepare_bell(state_b)
        outcome = register.bell_measure(a1, b2)
        register.bell_measure(a2, b1)  # collapse the swapped partners too
        counts[outcome] += 1
        if outcome == state_a:
            passes += 1
    sigma = (0.25 * 0.75 / samples) ** 0.5
    expected = samples / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    rate = passes / samples
    ok = abs(rate - 0.25) <= 3 * sigma and chi2 < CHI2_CRIT_DF3_P01
    report(
        4,
        "wrong-partner Bell outcomes uniform: pass rate 1/4, chi-square df=3",
        ok,
        f"rate={rate:.5f} chi2={chi2:.2f}",
    )


def test_criterion_5_single_qubit_modification():
    """(a) Flipping one checking qubit in flight is always caught by the
    verifier. (b) Flipping one message-half qubit is caught by the checksum
    at rate at least 1-2^(-n/8)."""
    trials = 10_000
    stats_c = run_experiment(
        config(
            Variant.RANDOMIZATION, "modify_single", 16, trials, 505, {"target": "c"}
        )
    )
    ok_a = stats_c.detection_rate == 1.0 and stats_c.alice_accept_rate == 0.0

    ok_b = True
    details = [f"c: rate={stats_c.detection_rate}"]
    for n, seed in ((32, 506), (128, 507)):
        stats_s = run_experiment(
            config(
                Variant.RANDOMIZATION, "modify_single", n, trials, seed, {"target": "s_msg"}
            )
        )
        bound = 1 - 0.5 ** (n / 8)
        sigma = (0.5 ** (n / 8) / trials) ** 0.5
        reject = 1.0 - stats_s.bob_accept_rate
        ok_b = ok_b and reject >= bound - 3 * sigma
        details.append(f"s_msg n={n}: reject={reject:.4f} bound={bound:.4f}")
    report(
        5,
        "single-qubit tampering: checking flip always caught, message flip "
        "caught at >= 1-2^(-n/8)",
        ok_a and ok_b,
        "; ".join(details),
    )


def test_criterion_6_impersonate_alice():
    """A keyless sender forgery at n=32 is rejected by the receiver except
    for truncated-checksum collisions (rate 2^-4), and undetected message
    substitution is bounded by the same rate."""
    trials = 10_000
    stats = run_experiment(
        config(Variant.RANDOMIZATION, "impersonate_alice", 32, trials, 606)
    )
    p = 2 ** -4
    sigma = (p * (1 - p) / trials) ** 0.5
    reject = 1.0 - stats.bob_accept_rate
    ok = reject >= 1 - p - 3 * sigma and stats.security_event_rate <= p + 3 * sigma
    report(
        6,
        "sender impersonation: receiver rejection >= 1-2^(-n/8), forged "
        "deliveries <= 2^(-n/8)",
        ok,
        f"reject={reject:.4f} security_events={stats.security_event_rate:.4f}",
    )


def test_criterion_7_reflect_all():
    """Reflecting every qubit back unmeasured (measure-resend variant) is
    always flagged, while honest runs trip the same flag at exactly the
    false-positive rate (1/2)^(n/4)."""
    trials = 10_000
    stats = run_experiment(
        config(Variant.MEASURE_RESEND, "reflect_all", 16, trials, 707)
    )
    all_flagged = (
        stats.detection_rate == 1.0
        and stats.cause_counts["reflect_flag"] == trials
    )
    honest = run_experiment(config(Variant.MEASURE_RESEND, "no_attack", 16, trials, 708))
    low, high = honest.wilson_99
    fp = 0.5 ** 4
    ok = all_flagged and low <= fp <= high
    report(
        7,
        "reflect-all always flagged; honest false-positive rate matches (1/2)^(n/4)",
        ok,
        f"flagged={stats.detection_rate} honest_fp={honest.detection_rate:.4f} "
        f"wilson99=({low:.4f},{high:.4f})",
    )


def test_criterion_8_engine_matches_dense_oracle():
    """200 random operation scripts (up to 8 qubits, 20 ops): the component
    engine and an independent dense state-vector oracle agree on every
    Bell-outcome probability to 1e-9, on every sampled outcome exactly, and
    on the full state after every step."""
    worst = 0.0
    for trial in range(200):
        worst = max(worst, run_scripted_comparison(trial, Random(8000 + trial)))
    ok = worst < 1e-9
    report(
        8,
        "component engine vs dense oracle: 200 scripts, exact outcomes, "
        "Bell-outcome probabilities within 1e-9",
        ok,
        f"worst_probability_deviation={worst:.3e}",
    )


def _blind_guess_acceptance_exact() -> float:
    """Exact acceptance probability of the blind-guess receiver impersonation
    at n=8: average over all 1680 ordered 4-subsets of the 8 captured qubits.

    A slot verifies with probability 1 when it got its true partner and 1/4
    marginally otherwise, but entanglement swapping correlates slots whose
    wrong assignments permute checking qubits among themselves: every closed
    cycle contributes a single factor 1/4 less than independence would, so
    P(all pass) = (1/4)^(slots - cycles).
    """
    items = [("c", j) for j in range(4)] + [("s", j) for j in range(4)]
    total = Fraction(0)
    count = 0
    for assign in permutations(items, 4):
        to_pair = {i: lab[1] for i, lab in enumerate(assign) if lab[0] == "c"}
        seen = set()
        cycles = 0
        for start in range(4):
            if start in seen:
                continue
            path = []
            j = start
            while j in to_pair and j not in path and j not in seen:
                path.append(j)
                j = to_pair[j]
            if path and j == path[0]:
                cycles += 1
            seen.update(path)
            seen.add(start)
        total += Fraction(1, 4) ** (4 - cycles)
        count += 1
    assert count == 1680
    return float(total / count)  # 33/1792


def test_criterion_9_blind_guess_acceptance_exact_oracle():
    """Blind-guess receiver impersonation at n=8: the Monte Carlo acceptance
    rate matches the exact cycle-aware enumeration over all ordered guesses."""
    from sqdc.adversary import ImpersonateBobConcrete

    expected = _blind_guess_acceptance_exact()
    trials = 100_000
    accepts = 0
    base = [0] * 4 + [1] * 4
    for i in range(trials):
        rng = Random(900_000 + i)
        k1 = list(base)
        rng.shuffle(k1)
        k2 = [rng.randrange(2) for _ in range(4)]
        keys = KeyMaterial(k1=tuple(k1), k2=tuple(k2))
        m = random_bits(1, rng)
        attack = ImpersonateBobConcrete(rng)
        outcome = run_session(Variant.RANDOMIZATION, m, keys, attack, QuantumRegister(1_900_000 + i))
        if outcome.alice_accepts:
            accepts += 1
    low, high = wilson_interval(accepts, trials)
    ok = low <= expected <= high
    report(
        9,
        "blind-guess impersonation acceptance matches exact cycle-aware "
        "enumeration (33/1792) at n=8",
        ok,
        f"rate={accepts / trials:.6f} expected={expected:.6f} "
        f"wilson99=({low:.6f},{high:.6f})",
    )


def _guessed_key_acceptance(j: int, message_guess) -> Fraction:
    """Alice's acceptance of the measure-resend receiver impersonator, given
    j checking slots guessed SHARE (each passes w.p. 1/2) and the guess on
    the message slots: each of the r pairs with a SHARE (0) half matches its
    initial state w.p. 1/2, and if every pair matches, the reflect flag
    rejects."""
    pairs = zip(message_guess[::2], message_guess[1::2])
    r = sum(1 for a, b in pairs if not (a and b))
    return Fraction(1, 2**j) * (1 - Fraction(1, 2**r))


def _guessed_key_acceptance_exact(n: int) -> Fraction:
    """Average over the guess on the n/2 message slots: a guess with j ones
    there puts the other j of the n/2 zeros, the SHARE guesses, on the
    checking slots, in C(n/2, j) ways out of C(n, n/2)."""
    total = Fraction(0)
    for guess in product((0, 1), repeat=n // 2):
        total += comb(n // 2, sum(guess)) * _guessed_key_acceptance(sum(guess), guess)
    return total / comb(n, n // 2)


def test_criterion_10_guessed_key_acceptance_exact():
    """Receiver impersonation on measure-resend, Bob's own steps run with a
    guessed k1': exact acceptance at n=16 and 24, a brute force over every
    guess at n=16, and a Monte Carlo run at n=16 inside its Wilson interval."""
    exact = {16: Fraction(619, 8580), 24: Fraction(4667755, 213004288)}
    assert {n: _guessed_key_acceptance_exact(n) for n in exact} == exact

    keys = gen_keys(16, Random(1010), include_k2=False)
    brute = Fraction(0)
    for share in combinations(range(16), 8):
        s, c = deinterleave([int(i not in share) for i in range(16)], keys)
        brute += _guessed_key_acceptance(c.count(0), s)
    assert brute / comb(16, 8) == exact[16]

    trials = 20_000
    stats = run_experiment(
        config(Variant.MEASURE_RESEND, "impersonate_bob", 16, trials, 1010, {"mode": "concrete"})
    )
    target = 1 - exact[16]  # 7961/8580
    low, high = stats.wilson_99
    ok = low <= target <= high and stats.bob_accept_rate == 0.0
    report(
        10,
        "measure-resend receiver impersonation with a guessed k1' matches the "
        "exact detection 7961/8580 at n=16",
        ok,
        f"rate={stats.detection_rate:.6f} wilson99=({low:.6f},{high:.6f}) target={float(target):.6f}",
    )
