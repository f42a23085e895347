"""Outside-in span tracer for the eacsim layers.

`Tracer.install` wraps, from outside the program, every public function
defined in the layer modules (statevector, states, encoder, protocol,
channel, markov) plus ``cli.main`` and the ``cli.cmd_*`` handlers.  It
rebinds the module attribute and every other reference an eacsim module
holds to the same function object, so names imported by name
(``cli.normal_ci``, ``cli.make_rng``, ``encoder.apply_cnot``) are traced as
well.  Private helpers are left alone: wrapping a hot private function such
as ``encoder._injective_on_slice`` (tens of thousands of calls) would charge
the tracer's own cost to its layer.

Each call records a span (name, start, end, parent span).  A layer's busy
time is its self time: span durations minus the part covered by child
spans.  Work counts are taken from the call arguments at the boundary, so
they do not depend on how a layer does the work.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("statevector", "states", "encoder", "protocol", "channel", "markov")


def _gate_bytes(args) -> int:
    # one read and one write of the complex128 amplitude vector
    return 2 * 16 * 2 ** args["state"].num_qubits


def _estimator_slots(args) -> int:
    return args["trials"] * args["n"] * args["M"]


# qualified function name -> (counter, count from the bound call arguments)
COUNTERS = {
    "statevector.apply_cnot": ("statevector.bytes_computed", _gate_bytes),
    "statevector.apply_1q": ("statevector.bytes_computed", _gate_bytes),
    "encoder.verify_injectivity": (
        "encoder.outcomes_certified", lambda a: math.comb(a["spec"].n, a["spec"].k)),
    "protocol.sample_contention_outcomes": ("protocol.rounds", lambda a: a["runs"]),
    "protocol.run_contention": ("protocol.rounds", lambda a: 1),
    "channel.empirical_state_distribution": ("channel.node_slots", _estimator_slots),
    "channel.empirical_full_connection_by_slot": ("channel.node_slots", _estimator_slots),
    # two independent distribution processes, each run to its own horizon
    "channel.empirical_contention_success": (
        "channel.node_slots",
        lambda a: a["trials"] * a["n"] * (a["params"].M_cr + a["params"].M_e)),
    "channel.simulate_distribution": ("channel.node_slots", lambda a: a["n"] * a["M"]),
}
SYNTHESIS = ("encoder.build_linear_encoder", "encoder.build_binary_encoder")


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts[counter[0]] += counter[1](bound.arguments)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layer functions of the imported eacsim package."""
        wrapped = {}  # id(original) -> (original, wrapper)
        targets = [(layer, sys.modules[f"eacsim.{layer}"]) for layer in LAYERS]
        targets.append(("cli", sys.modules["eacsim.cli"]))
        for layer, module in targets:
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if layer == "cli" and attr != "main" and not attr.startswith("cmd_"):
                    continue
                if attr.startswith("_"):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "eacsim" and not modname.startswith("eacsim."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def _self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        """Per-layer busy (self) time, call counts and work counts."""
        busy, calls, inclusive = defaultdict(float), defaultdict(int), defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self._self_times()):
            layer = name.partition(".")[0]
            busy[layer] += own
            calls[layer] += 1
            inclusive[name] += end - start
        channel_busy = busy["channel"]
        return {
            "statevector.busy_s": busy["statevector"],
            "statevector.calls": calls["statevector"],
            "statevector.bytes_computed": self.counts["statevector.bytes_computed"],
            "states.busy_s": busy["states"],
            "encoder.busy_s": busy["encoder"],
            "encoder.synth_s": sum(inclusive[name] for name in SYNTHESIS),
            "encoder.certify_s": inclusive["encoder.verify_injectivity"],
            "encoder.synth_calls": sum(
                1 for span in self.spans if span[0] in SYNTHESIS),
            "encoder.outcomes_certified": self.counts["encoder.outcomes_certified"],
            "protocol.busy_s": busy["protocol"],
            "protocol.rounds": self.counts["protocol.rounds"],
            "channel.busy_s": channel_busy,
            "channel.calls": calls["channel"],
            "channel.node_slots": self.counts["channel.node_slots"],
            "channel.node_slots_per_s":
                self.counts["channel.node_slots"] / channel_busy if channel_busy else 0.0,
            "markov.busy_s": busy["markov"],
            "markov.calls": calls["markov"],
            "cli.self_s": busy["cli"],
        }

    def top_functions(self, limit: int) -> list:
        """The functions with the most self time: [name, self seconds, calls]."""
        own, calls = defaultdict(float), defaultdict(int)
        for (name, *_), seconds in zip(self.spans, self._self_times()):
            own[name] += seconds
            calls[name] += 1
        ranked = sorted(own, key=own.get, reverse=True)[:limit]
        return [[name, own[name], calls[name]] for name in ranked]
