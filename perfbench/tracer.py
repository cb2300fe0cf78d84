"""Per-layer tracing from outside the package.

`Tracer.installed()` replaces the public functions of every sqdc module (and
the public methods of `QuantumRegister` and of the attack strategies) with
timing wrappers, by patching module and class attributes, and restores the
originals on exit. Modules bind each other's functions by name
(`from .codec import build_block`), so a function is patched wherever an sqdc
module holds it.

The wrappers keep a stack of open spans, so each function gets its inclusive
time and its self time (inclusive minus the wrapped calls it made). They
draw no random numbers, so traced reports equal untraced ones byte for byte.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import defaultdict
from time import perf_counter_ns

import sqdc.adversary
import sqdc.cli
import sqdc.codec
import sqdc.harness
import sqdc.keys
import sqdc.protocol
import sqdc.qsim

LAYERS = {
    "harness": sqdc.harness,
    "keys": sqdc.keys,
    "codec": sqdc.codec,
    "protocol": sqdc.protocol,
    "adversary": sqdc.adversary,
    "qsim": sqdc.qsim,
    "cli": sqdc.cli,
}

QSIM_PRIMITIVES = (
    "bell_measure_same",
    "bell_measure_cross",
    "measure_z",
    "prepare_bell",
    "alloc_qubit",
    "apply_pauli",
)

PHASES = (
    "harness.setup",
    "protocol.alice_prepare",
    "adversary.tamper_forward",
    "protocol.bob",
    "adversary.tamper_backward",
    "protocol.alice_verify",
    "harness.aggregate",
)

_BOB = (
    "protocol.bob_randomization_step2",
    "protocol.bob_randomization_step3",
    "protocol.bob_measure_resend_step23",
)
_ALICE_VERIFY = ("protocol.alice_randomization_step4", "protocol.alice_measure_resend_step4")


class _Span:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.spans: defaultdict[str, _Span] = defaultdict(_Span)
        self.trial_ns: list[int] = []  # inclusive time of each run_trial call
        self.max_component_qubits = 0
        self.k2_calls = 0
        self.k2_unique = 0
        self._k2_batch: set = set()
        self._open: list[int] = []  # child time accumulated by each open span

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn, before=None):
        span = self.spans[name]
        open_ = self._open
        trial_ns = self.trial_ns if name == "harness.run_trial" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                span_name = before(args)
                s = self.spans[span_name] if span_name else span
            else:
                s = span
            open_.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = open_.pop()
                s.calls += 1
                s.total_ns += dt
                s.self_ns += dt - child
                if open_:
                    open_[-1] += dt
                if trial_ns is not None:
                    trial_ns.append(dt)

        return wrapper

    def _classify_bell(self, args):
        """Name a bell_measure call by whether both qubits already share a
        component. The snapshot is timed as its own span so it is not charged
        to the caller's self time."""
        t0 = perf_counter_ns()
        register, qa, qb = args[0], args[1], args[2]
        qubits_a = register.component_snapshot(qa)[0]
        if qb in qubits_a:
            name, size = "qsim.bell_measure_same", len(qubits_a)
        else:
            name = "qsim.bell_measure_cross"
            size = len(qubits_a) + len(register.component_snapshot(qb)[0])
        # Components grow only when bell_measure merges two of them.
        self.max_component_qubits = max(self.max_component_qubits, size)
        dt = perf_counter_ns() - t0
        classify = self.spans["trace.classify"]
        classify.calls += 1
        classify.total_ns += dt
        classify.self_ns += dt
        if self._open:
            self._open[-1] += dt
        return name

    def _record_k2(self, args):
        self.k2_calls += 1
        self._k2_batch.add(tuple(args[0]))
        return None

    def end_batch(self) -> None:
        """Close one pass over a workload's batch; k2 keys repeat only within
        a pass, as a cache living for one batch would see them."""
        self.k2_unique += len(self._k2_batch)
        self._k2_batch.clear()

    # -- patching -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        patches = []  # (owner, attribute, original)

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for layer, module in LAYERS.items():
                for name, fn in list(vars(module).items()):
                    if (
                        name.startswith("_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                    ):
                        continue
                    before = self._record_k2 if name == "permutation_from_key" else None
                    wrapped = self._timed(f"{layer}.{name}", fn, before)
                    for other in LAYERS.values():
                        if vars(other).get(name) is fn:
                            patch(other, name, wrapped)
            register = sqdc.qsim.QuantumRegister
            for name, fn in list(vars(register).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if name in ("component_snapshot", "live_qubits"):
                    continue  # introspection, used by the tracer itself
                before = self._classify_bell if name == "bell_measure" else None
                patch(register, name, self._timed(f"qsim.{name}", fn, before))
            for cls in vars(sqdc.adversary).values():
                if not (inspect.isclass(cls) and issubclass(cls, sqdc.adversary.AttackStrategy)):
                    continue
                for hook in ("tamper_forward", "tamper_backward"):
                    if hook in vars(cls):
                        patch(cls, hook, self._timed(f"adversary.{hook}", vars(cls)[hook]))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- metrics --------------------------------------------------------

    def metrics(self, trials: int) -> dict:
        """Per-layer figures for `trials` traced trials; shares are of the
        time inside run_experiment."""
        total = self.spans["harness.run_experiment"].total_ns or 1

        def incl(*names):
            return sum(self.spans[n].total_ns for n in names if n in self.spans)

        phase_ns = {
            "harness.setup": incl("harness.run_trial") - incl("protocol.run_session"),
            "protocol.alice_prepare": incl("protocol.alice_prepare"),
            "adversary.tamper_forward": incl("adversary.tamper_forward"),
            "protocol.bob": incl(*_BOB),
            "adversary.tamper_backward": incl("adversary.tamper_backward"),
            "protocol.alice_verify": incl(*_ALICE_VERIFY),
            "harness.aggregate": total - incl("harness.run_trial"),
        }
        out = {}
        for phase in PHASES:
            out[f"{phase}.us_per_trial"] = (phase_ns[phase] / trials / 1e3, "us")
            out[f"{phase}.share"] = (phase_ns[phase] / total, "frac")

        samples = sorted(self.trial_ns)
        out["harness.run_trial.p50_us"] = (_quantile(samples, 0.50) / 1e3, "us")
        out["harness.run_trial.p99_us"] = (_quantile(samples, 0.99) / 1e3, "us")
        out["harness.run_trial.samples"] = (len(samples), "count")

        for prim in QSIM_PRIMITIVES:
            s = self.spans.get(f"qsim.{prim}", _Span())
            out[f"qsim.{prim}.calls_per_trial"] = (s.calls / trials, "calls")
            out[f"qsim.{prim}.ns_per_call"] = (s.total_ns / s.calls if s.calls else 0.0, "ns")
            out[f"qsim.{prim}.share"] = (s.total_ns / total, "frac")
        out["qsim.max_component_qubits"] = (self.max_component_qubits, "qubits")
        out["qsim.share"] = (self._layer_self("qsim") / total, "frac")

        perm = self.spans.get("keys.permutation_from_key", _Span())
        out["keys.permutation_from_key.calls_per_trial"] = (perm.calls / trials, "calls")
        out["keys.permutation_from_key.ns_per_call"] = (
            perm.total_ns / perm.calls if perm.calls else 0.0,
            "ns",
        )
        out["keys.permutation_from_key.unique_ratio"] = (
            self.k2_unique / self.k2_calls if self.k2_calls else 0.0,
            "frac",
        )
        gen = self.spans.get("keys.gen_keys", _Span())
        out["keys.gen_keys.ns_per_call"] = (gen.total_ns / gen.calls if gen.calls else 0.0, "ns")
        out["keys.share"] = (self._layer_self("keys") / total, "frac")

        for fn in ("build_block", "verify_block"):
            s = self.spans.get(f"codec.{fn}", _Span())
            out[f"codec.{fn}.ns_per_call"] = (s.total_ns / s.calls if s.calls else 0.0, "ns")
        out["codec.share"] = (self._layer_self("codec") / total, "frac")
        return out

    def _layer_self(self, layer: str) -> int:
        prefix = layer + "."
        return sum(s.self_ns for name, s in self.spans.items() if name.startswith(prefix))


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values)) - 1))
    return float(sorted_values[rank])
