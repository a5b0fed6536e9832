"""Correctness checks for one command's artifact, run outside the timed region.

Every json artifact must parse strictly (NaN and Infinity are rejected).  A
csv or text artifact is checked by running the same argv again as json:
the json artifact gets the full check, and every number the csv or text
artifact prints must be one that the json artifact carries, to the printed
precision.

Exact values are compared against independent oracles to ``EXACT_TOL``;
Monte Carlo values must lie within ``MAX_Z`` standard errors of the exact
value, where a standard error comes from the exact standard deviation, not
from the sample's own.  ``Diagnostics`` keeps the largest exact deviation and z-score seen.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from blockadesim.ensemble import AbsorptionModel
from blockadesim.optics import DetectorModel, detect_outcomes
from blockadesim.protocol import (
    HeraldPolicy,
    entangle_pair_sampled,
    ghz_pre_detection_state,
    ghz_success_probability,
    link_success_probability,
)
from blockadesim.state_algebra import DensityOperator, HybridState

EXACT_TOL = 1e-12
MAX_Z = 5.0

# Accepted 4-qubit chain patterns, ordered (D1, D2, D3, D4).  D1..D4 watch
# modes 4, 5, 7 and 6 (see protocol.ghz4_exact).  Click probabilities depend
# only on the optical modes, so the chain runs on the state reduced to modes
# 4..7, where D1..D4 watch positions 0, 1, 3 and 2.
GHZ4_REGISTERS = 4
GHZ4_MODES = (0, 1, 3, 2)
GHZ4_ACCEPTED = frozenset({
    (True, True, False, False),
    (True, False, True, False),
    (False, True, False, True),
    (False, False, True, True),
})


class CheckError(Exception):
    """An artifact failed a correctness check; the message is the cause."""


@dataclass
class Diagnostics:
    max_deviation: float = 0.0
    max_z: float = 0.0

    def exact(self, what: str, got, want: float):
        if got is None:
            raise CheckError(f"{what}: missing, expected {want!r}")
        dev = abs(got - want)
        if not dev <= EXACT_TOL:
            raise CheckError(f"{what}: {got!r} differs from oracle {want!r} by {dev:.3g}")
        self.max_deviation = max(self.max_deviation, dev)

    def within_se(self, what: str, mean: float, exact: float, se: float):
        if se == 0.0:
            # no spread: the estimate must be the exact value
            self.exact(what, mean, exact)
            return
        z = abs(mean - exact) / se
        if not z <= MAX_Z:
            raise CheckError(f"{what}: {mean!r} is {z:.2f} standard errors from {exact!r}")
        self.max_z = max(self.max_z, z)


def _reject_constant(name):
    raise CheckError(f"artifact is not strict JSON: contains {name}")


def strict_json(text: str) -> dict:
    """Parse an artifact, rejecting NaN and +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"artifact is not JSON: {exc}") from None


class Checker:
    """Checks artifacts; ``rerun(argv)`` returns the program's artifact text."""

    def __init__(self, rerun):
        self.rerun = rerun
        self.diag = Diagnostics()
        self._optical = {}

    def check(self, command: dict, artifact: str):
        if command["fmt"] == "json":
            self.check_json(command, strict_json(artifact))
            return
        argv = list(command["argv"])
        argv[argv.index("--format") + 1] = "json"
        envelope = strict_json(self.rerun(argv))
        _check_rendering(artifact, envelope)
        self.check_json(command, envelope)

    def check_json(self, command: dict, envelope: dict):
        kind = command["kind"]
        params = command["params"]
        if kind == "sweep_ghz":
            self._check_sweep_ghz(params, envelope["rows"])
            return
        results = envelope["results"]
        if kind == "entangle":
            self._check_entangle(params, results)
        elif kind == "ghz":
            self._check_ghz(params, results)
        elif kind == "grow":
            self._check_grow(params, results)
        elif kind == "budget":
            self._check_budget(params, results)
        else:
            raise ValueError(f"no check for command kind {kind!r}")

    # -- entangle ---------------------------------------------------------

    def _check_entangle(self, p: dict, r: dict):
        absorption = AbsorptionModel(p["p_abs"])
        detector = DetectorModel(efficiency=p["eta"], dark_count_rate_hz=p["gamma_dc"],
                                 gate_time_s=p["gate_time"])
        policy = HeraldPolicy(p["policy"])
        # sequential single-detector conditioning: independent of the joint table
        oracle = entangle_pair_sampled(absorption, detector, 0, 1, policy).expected_success_probability
        self.diag.exact("entangle success_probability", r["success_probability"], oracle)
        if p["gamma_dc"] == 0.0 and policy is HeraldPolicy.PER_DETECTOR:
            eta, eps = p["eta"], 1.0 - p["p_abs"]
            self.diag.exact("entangle success closed form", r["success_probability"],
                            eta * (1.0 + eps * (1.0 - eta)))
            closed_fid = (1.0 - eps) / (1.0 + eps)
            for what, got in (("fidelity", r["fidelity"]), ("up.fidelity", r["up"]["fidelity"]),
                              ("down.fidelity", r["down"]["fidelity"])):
                self.diag.exact(f"entangle {what} closed form", got, closed_fid)
        sampled = r["sampled"]
        if not p["trials"]:
            if sampled is not None:
                raise CheckError("entangle: sampled block present without --trials")
            return
        n = p["trials"]
        counts = (sampled["n_both"], sampled["n_up_only"], sampled["n_down_only"], sampled["n_none"])
        if sampled["trials"] != n or sum(counts) != n:
            raise CheckError(f"entangle: sample counts {counts} do not add up to {n} trials")
        self.diag.within_se("entangle herald_rate", sampled["herald_rate"], oracle,
                            math.sqrt(oracle * (1.0 - oracle) / n))

    # -- ghz --------------------------------------------------------------

    def _ghz4_chain(self, p_abs: float, eta: float) -> dict:
        """Accepted-pattern probabilities from a chain of single-detector outcomes."""
        if p_abs not in self._optical:
            # one entry: sweep points share p_abs, cli_mix commands never do
            self._optical = {p_abs: _optical_state(ghz_pre_detection_state(AbsorptionModel(p_abs)))}
        detector = DetectorModel(efficiency=eta)
        probs = {}

        def descend(state, depth: int, prefix: tuple, prob: float):
            for outcome, q, post in detect_outcomes(state, GHZ4_MODES[depth], detector):
                pattern = prefix + (outcome,)
                if not any(a[:depth + 1] == pattern for a in GHZ4_ACCEPTED):
                    continue
                if depth + 1 == len(GHZ4_MODES):
                    probs[pattern] = prob * q
                elif post is not None:
                    descend(post, depth + 1, pattern, prob * q)

        descend(self._optical[p_abs], 0, (), 1.0)
        return {a: probs.get(a, 0.0) for a in GHZ4_ACCEPTED}

    def _check_ghz(self, p: dict, r: dict):
        qubits, eta = p["qubits"], p["eta"]
        self.diag.exact(f"ghz{qubits} success_probability", r["success_probability"],
                        ghz_success_probability(qubits, eta))
        circuit = r["circuit"]
        if qubits != 4:
            if circuit is not None:
                raise CheckError(f"ghz{qubits}: unexpected circuit block")
            return
        chain = self._ghz4_chain(p["p_abs"], eta)
        seen = set()
        for branch in circuit["accepted"]:
            pattern = tuple(c == "x" for c in branch["pattern"].strip("<>").split(","))
            if pattern not in chain or pattern in seen:
                raise CheckError(f"ghz4: unexpected accepted pattern {branch['pattern']}")
            seen.add(pattern)
            self.diag.exact(f"ghz4 pattern {branch['pattern']}", branch["probability"], chain[pattern])
        if seen != GHZ4_ACCEPTED:
            raise CheckError(f"ghz4: accepted patterns {sorted(seen)} are incomplete")
        self.diag.exact("ghz4 circuit success", circuit["success_probability"], sum(chain.values()))
        if p["p_abs"] == 1.0:
            self.diag.exact("ghz4 circuit success at p_abs=1", circuit["success_probability"],
                            eta**2 / 2.0)

    def _check_sweep_ghz(self, p: dict, rows: list):
        if len(rows) != len(p["etas"]):
            raise CheckError(f"sweep ghz: {len(rows)} rows for {len(p['etas'])} grid points")
        for row, eta in zip(rows, p["etas"]):
            if abs(row["eta"] - eta) > EXACT_TOL or row["p_abs"] != p["p_abs"]:
                raise CheckError(f"sweep ghz: row at eta={row['eta']!r}, expected {eta!r}")
            self.diag.exact("sweep ghz success_probability", row["success_probability"],
                            ghz_success_probability(4, row["eta"]))
            chain = self._ghz4_chain(p["p_abs"], row["eta"])
            self.diag.exact("sweep ghz circuit success", row["circuit_success_probability"],
                            sum(chain.values()))

    # -- grow -------------------------------------------------------------

    def _check_grow(self, p: dict, r: dict):
        n = p["trials"]
        if r["trials"] != n or r["target_size"] != p["target"]:
            raise CheckError("grow: trials or target differ from the command")
        markov = r["markov"]
        if markov is None:
            raise CheckError("grow: no Markov expectation to check against")
        std = growth_cost_std(p["block_size"], p["target"],
                              ghz_success_probability(p["block_size"], p["eta"]),
                              link_success_probability(p["eta_prime"]))
        for name in GROWTH_COSTS:
            self.diag.within_se(f"grow mean_{name}", r[f"mean_{name}"], markov[name],
                                std[name] / math.sqrt(n))

    # -- budget -----------------------------------------------------------

    def _check_budget(self, p: dict, r: dict):
        if r["preset"] != p["preset"] or r["inputs"][p["field"]] != p["value"]:
            raise CheckError(f"budget: override {p['field']}={p['value']!r} not applied")


GROWTH_COSTS = ("blocks", "link_attempts", "generation_attempts", "steps")


def growth_cost_std(block: int, target: int, p_block: float, q: float) -> dict:
    """Exact standard deviation of each growth cost of one trial.

    The sample standard deviation in a grow artifact understates the spread
    of a small, skewed sample that missed the long tail, which inflates its
    z-score (217 trials at target 5 gave |z| = 5.45 with the sample's own
    deviation and 3.85 with this one).  This is a copy of run_trial's rule
    as an absorbing chain over sorted cluster sizes: below two clusters a
    step buys a block, whose generation attempts are geometric in
    ``p_block``; with two, a step links them, merging with probability ``q``
    and otherwise measuring one qubit of each and dropping clusters under 2.
    A cost summed to absorption has first moments h = c + P h and second
    moments m = E[c^2] + 2 c (P h) + P m, so its variance is m - h^2.
    """
    def successors(state: tuple) -> list:
        if len(state) < 2:
            return [(1.0, tuple(sorted(state + (block,))))]
        return [(q, (sum(state),)), (1.0 - q, tuple(sorted(s - 1 for s in state if s >= 3)))]

    index, frontier = {}, [()]
    while frontier:
        state = frontier.pop()
        if state not in index and all(s < target for s in state):
            index[state] = len(index)
            frontier.extend(nxt for _, nxt in successors(state))
    n = len(index)
    moves = np.zeros((n, n))
    cost, cost_sq = np.zeros((n, 4)), np.zeros((n, 4))
    for state, i in index.items():
        if len(state) < 2:
            cost[i] = (1.0, 0.0, 1.0 / p_block, 1.0)
            cost_sq[i] = (1.0, 0.0, (2.0 - p_block) / p_block**2, 1.0)
        else:
            cost[i] = cost_sq[i] = (0.0, 1.0, 0.0, 1.0)
        for prob, nxt in successors(state):
            if nxt in index:
                moves[i, index[nxt]] += prob
    free = np.eye(n) - moves
    first = np.linalg.solve(free, cost)
    second = np.linalg.solve(free, cost_sq + 2.0 * cost * (moves @ first))
    var = second[index[()]] - first[index[()]] ** 2
    return dict(zip(GROWTH_COSTS, np.sqrt(np.maximum(var, 0.0)).tolist()))


def _optical_state(pre: HybridState) -> DensityOperator:
    """Reduce the chain's pre-detection state to its optical modes.

    Tracing out the registers sums the projectors onto the optical
    components that share one register label; built from the amplitudes
    this costs far less than the full density operator would.
    """
    components = {}
    for key, amp in pre.amplitudes.items():
        components.setdefault(key[:GHZ4_REGISTERS], []).append((key[GHZ4_REGISTERS:], amp))
    elements = {}
    for component in components.values():
        for ket, a in component:
            for bra, b in component:
                elements[(ket, bra)] = elements.get((ket, bra), 0.0) + a * b.conjugate()
    return DensityOperator(pre.subsystems[GHZ4_REGISTERS:], elements)


def _numbers(obj, out: list) -> list:
    if isinstance(obj, dict):
        for v in obj.values():
            _numbers(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _numbers(v, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.append(float(obj))
    return out


_TOKEN_SPLIT = re.compile(r"[\s,=()]+")


def _check_rendering(text: str, envelope: dict):
    """Every number printed in a csv/text artifact must be carried by the json one."""
    known = _numbers(envelope, [])
    for token in _TOKEN_SPLIT.split(text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            raise CheckError(f"artifact prints the non-finite number {token!r}")
        exponent = Decimal(token).as_tuple().exponent
        tol = 0.5 * 10.0 ** exponent + 1e-15 * abs(value)
        if not any(abs(value - k) <= tol for k in known):
            raise CheckError(f"artifact prints {token!r}, which the json artifact does not carry")
