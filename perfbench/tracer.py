"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function at the name its caller
looks up (``protocol`` imports ``beam_splitter`` and friends into its own
namespace, so those are wrapped there) with a wrapper that records a span
(name, start, end, parent span, command index) and the layer's work counts.
Spans stay in memory until ``write_spans``.  A layer's self time is its
spans' duration minus the time their wrapped children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def layer_metric_units() -> list:
    """(name, unit) of every per-layer metric, in report order, from BENCHMARK.json.

    ``X.calls`` and ``X.self_s`` come from the spans named X; the other names
    are counters or ratios computed in ``layer_metrics``.  Counts, self times
    and bytes are per traced command ("/cmd"), so that runs which fit a
    different number of commands into their time compare.
    """
    spec = json.loads(SPEC.read_text())
    return [(metric["name"], metric["unit"]) for metric in spec["per_layer"]]


def _support_elems(state) -> int:
    """Operator elements a state occupies: support squared for a pure state."""
    elements = getattr(state, "elements", None)
    return len(elements) if elements is not None else len(state) ** 2


def _count_entries(counts, args, result):
    # the package passes (self, subsystems, entries) positionally
    counts["state_algebra.construct.entries"] += len(args[2])


def _count_from_pure(counts, args, result):
    counts["state_algebra.from_pure.elems_out"] += len(result.elements)


def _count_detect_all(counts, args, result):
    counts["optics.detect_all_probabilities.elems_in"] += _support_elems(args[0])
    counts["optics.detect_all_probabilities.patterns_nonzero"] += sum(
        1 for prob, _ in result.values() if prob > 0.0)


def _count_partial_trace(counts, args, result):
    counts["state_algebra.partial_trace.elems_in"] += _support_elems(args[0])


def _amps_in(name):
    def count(counts, args, result):
        counts[name] += len(args[0])
    return count


def _count_ghz4(counts, args, result):
    branches = result.accepted + result.rejected
    counts["protocol.ghz4_exact.accepted"] += sum(
        1 for b in result.accepted if b.conditional_state is not None)
    counts["protocol.ghz4_exact.reduced"] += sum(
        1 for b in branches if b.conditional_state is not None)


def _count_draws(counts, args, result):
    counts["protocol.entangle_pair_sampled.draws"] += result.trials


def _count_steps(counts, args, result):
    counts["growth.run_trial.steps"] += result[1].elapsed_steps


def binding_sites():
    """(owner, attribute, span name, counter) for every traced call site."""
    from blockadesim import budget, cli, growth, protocol, state_algebra

    return (
        (state_algebra.HybridState, "__init__", "state_algebra.construct", _count_entries),
        (state_algebra.DensityOperator, "__init__", "state_algebra.construct", _count_entries),
        (state_algebra.DensityOperator, "from_pure", "state_algebra.from_pure", _count_from_pure),
        (protocol, "partial_trace", "state_algebra.partial_trace", _count_partial_trace),
        (protocol, "fidelity", "state_algebra.fidelity", None),
        (protocol, "beam_splitter", "optics.beam_splitter", _amps_in("optics.beam_splitter.amps_in")),
        (protocol, "phase_shift", "optics.phase_shift", None),
        (protocol, "detect_all_probabilities", "optics.detect_all_probabilities", _count_detect_all),
        (protocol, "detect_outcomes", "optics.detect_outcomes", None),
        (protocol, "blockade_absorb", "ensemble.blockade_absorb",
         _amps_in("ensemble.blockade_absorb.amps_in")),
        (protocol, "transfer_to_storage", "ensemble.transfer_to_storage", None),
        (protocol, "gate_x", "ensemble.gates", None),
        (protocol, "gate_phase", "ensemble.gates", None),
        (protocol, "ghz4_exact", "protocol.ghz4_exact", _count_ghz4),
        (protocol, "entangle_pair_exact", "protocol.entangle_pair_exact", None),
        (protocol, "entangle_pair_sampled", "protocol.entangle_pair_sampled", _count_draws),
        (growth, "run_trial", "growth.run_trial", _count_steps),
        (growth, "simulate_growth", "growth.simulate_growth", None),
        (growth, "expected_cost_markov", "growth.expected_cost_markov", None),
        (budget, "budget_report", "budget.budget_report", None),
        (cli, "parse_args", "cli.parse_args", None),
        (cli, "run", "cli.run", None),
        (cli, "main", "cli.main", None),
    )


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, command)
        self.counts = defaultdict(int)
        self.command = -1        # index of the command being run
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.command)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, sites):
        for owner, attr, name, count in sites:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, count))
            else:
                replacement = self._wrap(original, name, count)
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, command in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "command": command}) + "\n")


def self_times(spans) -> dict:
    """{name: [calls, self seconds, inclusive seconds]} over a list of spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[index]
        entry[2] += end - start
    return out


def layer_metrics(spans, counts, commands: int, extra: dict) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}; idle layers read 0.

    ``commands`` is the number of traced commands; ``extra`` supplies the
    metrics measured outside the spans, already in their reported form.
    """
    totals = dict(counts)
    for name, (calls, self_s, _) in self_times(spans).items():
        totals[f"{name}.calls"] = calls
        totals[f"{name}.self_s"] = self_s
    values = {name: total / commands for name, total in totals.items()}
    steps = totals.get("growth.run_trial.steps", 0)
    values["growth.run_trial.us_per_step"] = (
        1e6 * totals["growth.run_trial.self_s"] / steps if steps else 0.0)
    reduced = totals.get("protocol.ghz4_exact.reduced", 0)
    values["protocol.ghz4_exact.accepted_over_reduced"] = (
        totals["protocol.ghz4_exact.accepted"] / reduced if reduced else 0.0)
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in layer_metric_units()}
