"""Mutants of `src/sqdc`, and a runner that checks that the tests kill each one.

A mutant is (file under src/sqdc, old text, new text, what it breaks): the old
text occurs once in the file, and the mutant is the program with it replaced,
a small variant that a suite worth its lines tells from the program (DeMillo,
Lipton & Sayward, "Hints on Test Data Selection", IEEE Computer 11(4), 1978).
`tests/test_mutants.py` checks the list against the sources without running it,
and that every test `DESELECTED` names exists.

    python tests/mutants.py   # tier-1 with -x per mutant: killed or survived

Each mutant runs on a temporary copy of the tree, removed however the run ends,
with one pytest process at a time; the checkout is never written. The test files
run fastest first and tests/test_acceptance.py last, all but the guard, which
fails on every mutant, and the pins (tests/test_pins.py and perfbench's gate),
which fail on most but are rewritten by a re-pin, so a kill by a pin would show
nothing the tests check. Tier-1 first runs on a copy with no mutant, and the run
exits 1 unless that passes, then unless every mutant parses and is killed: pytest
exits 1 naming a failing test, or times out. Any other pytest exit (an internal
error, an interrupt, no tests) stops the run with exit 1, counting nothing.
"""

import argparse
import ast
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MUTANTS = [
    # qsim: the engine's laws
    ("qsim.py", "x ^ bit ^ (label >> 1)", "x ^ bit ^ (label & 1)", "teleportation parity"),
    ("qsim.py", "(pb, la ^ lb ^ label)\n            comp_of[pb] = (pa, la ^ lb ^ label)",
     "(pb, lb ^ label)\n            comp_of[pb] = (pa, lb ^ label)", "entanglement-swapping parity"),
    ("qsim.py", "2 * (la ^ lb) + (u >= 0.5)", "2 * (la & lb) + (u >= 0.5)",
     "X parity of a Bell measurement on two basis qubits"),
    ("qsim.py", "2 * (la ^ lb) + (u >= 0.5)", "2 * (la ^ lb) + (u >= 0.75)",
     "Z phase of a Bell measurement on two basis qubits is even"),
    ("qsim.py", "label = int(4 * u)\n            comp_of[pa]",
     "label = int(2 * u)\n            comp_of[pa]",
     "entanglement swapping's four outcomes are uniform"),
    ("qsim.py", "(partner, label ^ x)", "(partner, label)", "a Z measurement's partner ignores X"),
    ("qsim.py", "0 if u < 0.5 else 1", "0 if u < 0.75 else 1", "Born rule of a Z measurement"),
    ("qsim.py", "else 2 * px + pz", "else 2 * pz + px", "a Pauli on a pair swaps px and pz"),
    ("qsim.py", "label ^= px if p == q", "label ^= pz if p == q", "a Pauli on a basis qubit"),
    ("qsim.py", "        u = self.rng.random()\n        if pa == qb:",
     "        if pa == qb:\n            return BELL_ORDER[la]\n"
     "        u = self.rng.random()\n        if pa == qb:", "a certain Bell outcome draws its uniform"),
    ("qsim.py", "iter((0.125, 0.375, 0.625, 0.875))", "iter((0.125, 0.125, 0.625, 0.875))",
     "Bell-outcome probabilities"),
    ("qsim.py", "labels = list(map(BELL_ORDER.index, states))",
     "labels = map(BELL_ORDER.index, states)", "prepare_bell checks every state before allocating"),
    ("qsim.py", "if bit not in (0, 1):", "if bit not in (0, 1, 2):", "alloc_qubit rejects a non-bit"),
    ("qsim.py", "(min(p, q), max(p, q))", "(q, p)", "a snapshot lists the lower id first"),
    ("qsim.py", "self.rng = Random(seed)", "self.rng = Random()", "a register replays from its seed"),
    ("qsim.py", "q = len(self._comp_of)", "q = max(len(self._comp_of) - 1, 0)",
     "qubit ids are never reused"),
    ("qsim.py", "if partner != q:", "if True:", "a basis qubit reads its bit in Z"),
    ("qsim.py", "comp_of[q] = (q, label)", "comp_of[q] = (partner, label)",
     "a Z measurement splits a pair"),
    ("qsim.py", "return BELL_ORDER[la]\n", "return BELL_ORDER[la ^ 1]\n",
     "a same-pair Bell measurement reads the pair's state"),
    ("qsim.py", "all(map(comp_of.__contains__, qubits))", "all(map(comp_of.__contains__, qubits[:1]))",
     "measure_z checks every id before it draws"),
    # codec: the block and its checksum
    ("codec.py", "hashlib.sha256(pack_bits(m)).digest()", "hashlib.sha256(pack_bits(m)).digest()[::-1]",
     "the checksum is the leading digest bits"),
    ("codec.py", "return hash_checksum(m) == list(block[half:]), m",
     "return hash_checksum(m)[1:] == list(block[half + 1 :]), m",
     "the checksum's first bit is checked"),
    ("codec.py", "return n.to_bytes(2, \"big\") + ", "return ", "the length prefix of packed bits"),
    ("codec.py", "if len(text) != digits:", "if len(text) < digits:", "surplus hex digits are refused"),
    ("codec.py", "_BIT_DIGITS = b\"01\" + b\"x\" * 254", "_BIT_DIGITS = b\"01\" + b\"1\" * 254",
     "a bit string holds only 0 and 1"),
    ("codec.py", "MAX_MESSAGE_BITS = 256", "MAX_MESSAGE_BITS = 257",
     "the n bound: n/8 bits fit SHA-256"),
    ("codec.py", "ALPHABET = (BellState.PHI_PLUS, BellState.PSI_MINUS)",
     "ALPHABET = (BellState.PHI_PLUS, BellState.PSI_PLUS)", "bit 1 is carried by Psi-"),
    ("codec.py", "return _int_to_bits(int.from_bytes(digest, \"big\") >> (256 - L), L)",
     "return list(m)", "the checksum is a hash, not a copy of the message"),
    ("codec.py", "return list(m) + hash_checksum(m)", "return hash_checksum(m) + list(m)",
     "a block is the message, then its checksum"),
    ("codec.py", "format(_bits_to_int(bits) << pad,", "format(_bits_to_int(bits),",
     "hex pads after the last bit, so hex_to_bits reads the bits back"),
    # keys: key material and the stdlib-identical draws
    ("keys.py", "digest()[:8], \"big\")", "digest()[:8], \"little\")", "the k2 permutation"),
    ("keys.py", "k = (i + 1).bit_length()", "k = i.bit_length() + 1",
     "shuffles draw as Random.shuffle"),
    ("keys.py", "r = getrandbits(2)\n        while r > 1:\n            r = getrandbits(2)",
     "r = getrandbits(1)\n        while r > 1:\n            r = getrandbits(1)",
     "random bits draw as randrange(2)"),
    ("keys.py", "if self.k1.count(0) * 2 != n or self.k1.count(1) * 2 != n:",
     "if sum(self.k1) * 2 != n:", "k1 holds only bits"),
    ("keys.py", "if len(self.k2) * 2 != n:", "if len(self.k2) > n:", "k2 is half as long as k1"),
    ("keys.py", "n % 8 != 0", "n % 4 != 0", "the n bound: n is a multiple of 8"),
    ("keys.py", "not 16 <= n", "not 8 <= n", "the n bound: n is at least 16"),
    ("keys.py", "_shuffle(k1, rng)", "_shuffle(k1, Random(0))", "k1 is drawn afresh, hiding the split"),
    ("keys.py", "(cb if bit else s).append(x)", "(s if bit else cb).append(x)",
     "deinterleave inverts interleave"),
    ("keys.py", "hashlib.sha256(pack_bits(k))", "hashlib.sha256(pack_bits(k[1:]))",
     "every bit of k2 seeds its permutation"),
    ("keys.py", "if len(seq) != len(p):\n        raise ValueError(\"sequence length must match "
     "permutation length\")\n    return [seq[j] for j in p]",
     "if len(seq) > len(p):\n        raise ValueError(\"sequence length must match "
     "permutation length\")\n    return [seq[j] for j in p]",
     "the inverse k2 permutation refuses a sequence of another length"),
    # protocol: both variants' steps
    ("protocol.py", "    if any(BELL_ORDER.index(o) >> 1 != bit for bit, o in pairs):\n"
     "        return DetectionCause.BELL_CHECK_FAILED, matches\n", "", "the step-4* X-parity test"),
    ("protocol.py", "return DetectionCause.REFLECT_FLAG, matches",
     "return DetectionCause.NONE, matches", "the reflect flag"),
    ("protocol.py", "return apply_perm(permutation_from_key(keys.k2), cb_qubits)",
     "return invert_perm(permutation_from_key(keys.k2), cb_qubits)",
     "Bob reorders by the k2 permutation"),
    ("protocol.py", "ALPHABET[random() >= 0.5] for _ in range(n // 2)",
     "ALPHABET[random() >= 0.25] for _ in range(n // 2)",
     "checking pairs are uniform over the alphabet"),
    ("protocol.py", "ALPHABET[random() >= 0.5] for _ in range(n // 2)",
     "ALPHABET[random() >= 0.49] for _ in range(n // 2)", "checking pairs are uniform to 1%"),
    ("protocol.py", "if alice_ok and bob_ok is False", "if alice_ok and not bob_ok",
     "a session that bypasses Bob has no hash verdict"),
    ("protocol.py", "security_event = bool(bob_ok) and", "security_event =",
     "a security event needs Bob's acceptance"),
    ("protocol.py", "[alloc_qubit(b) for b in results]", "[alloc_qubit(0) for b in results]",
     "measure-resend Bob resends what he measured"),
    ("protocol.py", "if (keys.k2 is None) == variant.holds_k2:",
     "if keys.k2 is None and variant.holds_k2:", "measure-resend refuses a k2"),
    ("protocol.py", "ALICE_ACCEPTS = (DetectionCause.NONE, DetectionCause.HASH_MISMATCH)",
     "ALICE_ACCEPTS = (DetectionCause.NONE,)", "a hash mismatch is Bob's rejection alone"),
    ("protocol.py", "return ok, m_decoded, results, cb_qubits",
     "return True, m_decoded, results, cb_qubits", "Bob rejects a block whose checksum fails"),
    ("protocol.py", "if len(keys.k1) != n:", "if len(keys.k1) > n:",
     "alice_prepare refuses a k1 that does not fit the message"),
    # adversary: the attacks and their closed forms
    ("adversary.py", "if self.rng.random() < 0.5:", "if self.rng.random() < 0.75:",
     "idealized Bob keeps each qubit w.p. 1/2"),
    ("adversary.py", "return pool[(len(pool) + 1) // 2 :][::-1]", "return pool[(len(pool) + 1) // 2 :]",
     "the concrete guess draws as Random.sample"),
    ("adversary.py", "return bob_measure_resend_step23(qubits, guess, register)[2]", "return qubits",
     "measure-resend concrete Bob runs Bob's steps with a guessed k1"),
    ("adversary.py", "[register.alloc_qubit(b) for b in register.measure_z(*qubits)]",
     "[register.alloc_qubit(0) for b in register.measure_z(*qubits)]",
     "intercept-resend resends what it measured"),
    ("adversary.py", "register.apply_pauli(qubits[self.target], Pauli.IY)",
     "register.apply_pauli(qubits[self.target], Pauli.Z)", "the one-qubit modification is iY"),
    ("adversary.py", "\"s_msg\": s[: n // 4]", "\"s_msg\": s[n // 4 :]",
     "s_msg targets the message half"),
    ("adversary.py", "\"c\": c", "\"c\": s", "target c is a checking qubit"),
    ("adversary.py", "\"s\": s", "\"s\": c", "target s is a message-stream qubit"),
    ("adversary.py", "target = rng.randrange(n)", "target = rng.randrange(n // 2)",
     "a random target may be any position"),
    ("adversary.py", "0 <= value < n", "0 <= value <= n", "a position target is below n"),
    ("adversary.py", "0.625 ** (n / 2)", "0.625 ** (n / 4)", "closed form of idealized Bob"),
    ("adversary.py", "if variant not in self.variants:", "if variant is None:",
     "reflect_all applies to measure-resend only"),
    ("adversary.py",
     "def tamper_backward(self, register: QuantumRegister, qubits):\n        return qubits\n",
     "def tamper_backward(self, register: QuantumRegister, qubits):\n        return qubits[::-1]\n",
     "the base strategy's hooks are the identity"),
    ("adversary.py", "if value not in self.choices and not is_position:",
     "if type(value) is int and not is_position:", "an unknown symbolic parameter is refused"),
    # harness: statistics, configurations and documents
    ("harness.py", "center = (phat + z * z / (2 * trials)) / denom",
     "center = (phat + z * z / trials) / denom", "the Wilson centre"),
    ("harness.py", "if outcome.bob_accepts:", "if outcome.bob_accepts is not False:",
     "a bypassed Bob does not accept"),
    ("harness.py", "or self.trials < 1:", "or self.trials < 0:", "a run has a trial"),
    ("harness.py", "include_k2=config.variant.holds_k2", "include_k2=True",
     "measure-resend trials draw no k2"),
    ("harness.py", "        if key in obj:\n", "        if key in obj and False:\n",
     "a document that repeats a key is refused"),
    ("harness.py", "    if unknown:\n", "    if unknown and False:\n",
     "a document's unknown key is refused"),
    ("harness.py", "low = 0.0 if successes == 0", "low = 0.0 if successes < 0",
     "a Wilson interval starts at 0 when nothing succeeds"),
    ("harness.py", "high = 1.0 if successes == trials", "high = 1.0 if successes > trials",
     "a Wilson interval ends at 1 when everything succeeds"),
    ("harness.py", "if trials < 1:", "if trials < 0:", "a Wilson interval needs a trial"),
    ("harness.py", "int.from_bytes(digest[8:16], \"big\")", "int.from_bytes(digest[:8], \"big\")",
     "a trial's register seed is not its rng seed"),
    ("harness.py", "m = hex_to_bits(config.message, config.n // 8)",
     "m = random_bits(config.n // 8, rng)", "a fixed message is decoded, not drawn"),
    ("harness.py", "security_event_rate=security_events / t", "security_event_rate=0 / t",
     "a run counts its security events"),
    ("harness.py", "sum(counts[cause.value] for cause in ALICE_ACCEPTS)",
     "counts[DetectionCause.NONE.value]", "a run's Alice accepts a hash mismatch"),
    ("harness.py", "row[\"wilson_99_low\"], row[\"wilson_99_high\"] = value",
     "row[\"wilson_99_high\"], row[\"wilson_99_low\"] = value",
     "a CSV row's Wilson low end comes before its high end"),
    ("harness.py", "elif output_format == \"csv\":", "elif output_format != \"json\":",
     "an unknown report format is refused"),
    ("harness.py", "        if key not in doc:\n", "        if key not in doc and False:\n",
     "a document missing a required key is refused"),
    ("harness.py", "phat * (1.0 - phat) / trials", "phat * (1.0 - phat)",
     "a Wilson interval narrows as its trials grow"),
    # cli: the exit codes and the flags
    ("cli.py", "file=sys.stderr)\n        return 2", "file=sys.stderr)\n        return 1",
     "exit code 2 for a configuration error"),
    ("cli.py", "file=sys.stderr)\n        return 3", "file=sys.stderr)\n        return 1",
     "exit code 3 for an I/O error"),
    ("cli.py", "is_int = value.isascii() and ", "is_int = ", "a position is ASCII digits"),
    ("cli.py", "if key in params:", "if key in params and False:",
     "a repeated --attack-param is refused"),
    ("cli.py", "if base and not os.path.isabs(path):", "if base and os.path.isabs(path):",
     "SQDC_OUTPUT_DIR takes relative --out paths"),
]

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
# the fastest test files first, then any other, perfbench and the acceptance criteria,
# so a mutant's first failure comes soon
FAST_FIRST = ("test_stdlib_only.py", "test_tracer_names.py", "test_codec.py", "test_protocol.py",
              "test_properties.py", "test_keys.py", "test_adversary.py", "test_qsim.py",
              "test_harness.py")
DESELECTED = [
    # it reads the sources for each old text, so on a mutant it fails by construction
    "tests/test_mutants.py::test_every_mutant_applies_and_parses",
    # the pins: a re-pin rewrites them, so a kill by a pin shows nothing the tests check
    "tests/test_pins.py",
    "perfbench/test_perfbench.py::test_gate_matches_pins",
]
DESELECT = [arg for test in DESELECTED for arg in ("--deselect", test)]
TIMEOUT = 900  # seconds; a mutant that loops forever counts as killed


def mutated(mutant) -> str:
    """The mutant's file text; raises ValueError unless its old text occurs once and
    the new text differs, and SyntaxError unless the text parses."""
    file, old, new, _ = mutant
    text = (ROOT / "src" / "sqdc" / file).read_text(encoding="utf-8")
    if text.count(old) != 1 or old == new:
        raise ValueError(f"{file}: old text occurs {text.count(old)} times, or new text equals it")
    text = text.replace(old, new)
    ast.parse(text, file)  # a mutant that does not compile is no mutant
    return text


def tier1_paths(tree: Path) -> list:
    files = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    rank = {name: i for i, name in enumerate(FAST_FIRST)}
    files.sort(key=lambda name: (name == "test_acceptance.py", rank.get(name, len(rank))))
    *first, last = [f"tests/{name}" for name in files]
    return [*first, "perfbench", last]


def run(mutant):
    """(failing tests, seconds) of tier-1 on a copy of the tree, with the mutant applied
    unless it is None."""
    text = mutant and mutated(mutant)
    tree = Path(tempfile.mkdtemp(prefix="sqdc-mutant-"))
    try:
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=IGNORED)
            else:
                shutil.copy2(source, tree / name)
        if mutant:
            (tree / "src" / "sqdc" / mutant[0]).write_text(text, encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
        argv += ["--continue-on-collection-errors", "-x", *tier1_paths(tree), *DESELECT]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return [f"timeout after {TIMEOUT} s"], time.monotonic() - start
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        # a kill is exit 1 naming a failing test; an internal error (3), an interrupt (2),
        # a usage error (4) or no tests (5) shows nothing of the mutant, so it stops the run
        if (done.returncode, bool(failed)) not in ((0, False), (1, True)):
            last = (done.stdout.strip().splitlines() or [""])[-1]
            sys.exit(f"pytest exit {done.returncode} on {mutant[3] if mutant else 'no mutant'}: "
                     f"{last}\nthe run stops, and no mutant is counted")
        return failed, time.monotonic() - start
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main(argv=None) -> int:
    # no options, so an unknown one is a usage error (exit 2), not ignored
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    # a test that fails without a mutant would count as a kill of every one
    failed, seconds = run(None)
    if failed:
        print(f"tier-1 fails on the unmutated tree ({seconds:.1f} s); no mutant counted:",
              *failed, sep="\n    ")
        return 1
    print(f"unmutated tree passes tier-1 in {seconds:.1f} s")
    survivors, kill_seconds = [], []
    for i, mutant in enumerate(MUTANTS):
        label = f"#{i} {mutant[0]}: {mutant[3]}"
        try:
            failed, seconds = run(mutant)
        except (ValueError, SyntaxError) as exc:
            failed, seconds = [], 0.0
            label += f" [invalid: {exc}]"
        if failed:
            kill_seconds.append(seconds)
        else:
            survivors.append(label)
        verdict = "killed  " if failed else "SURVIVED"
        print(f"{verdict} {seconds:6.1f} s  {label}" + (f"  <- {failed[0]}" if failed else ""))
        sys.stdout.flush()
    if kill_seconds:
        print(f"{len(kill_seconds)} killed, {len(survivors)} not; seconds per killed mutant: median "
              f"{statistics.median(kill_seconds):.1f}, max {max(kill_seconds):.1f}, "
              f"total {sum(kill_seconds):.0f}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
