"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Each test owns a wall-clock budget checked with time.perf_counter; the
printed line bypasses pytest's capture so it shows up in plain `pytest -v`
runs.  Tolerances: 1e-12 on amplitudes, 1e-10 on probabilities, 3 sigma on
Monte Carlo estimates.
"""

import math
import time

import numpy as np

from blockadesim.budget import (
    REFERENCE_FIDELITY,
    budget_report,
    fidelity_exact_channel,
    preset,
)
from blockadesim.ensemble import AbsorptionModel, blockade_absorb, gate_phase, gate_x
from blockadesim.growth import GrowthPolicy, expected_cost_markov, run_trial, simulate_growth
from blockadesim.optics import (
    DetectorModel,
    beam_splitter,
    detect_all_probabilities,
    group_occupations,
)
from blockadesim.protocol import (
    entangle_pair_exact,
    entangle_pair_sampled,
    ghz4_exact,
    ghz_success_probability,
    pair_register,
    pair_pre_detection_state,
)
from blockadesim.state_algebra import (
    EnsembleQudit,
    HybridState,
    OpticalMode,
    fidelity,
)
from helpers import (
    ACCEPTED_GHZ_PATTERNS,
    canonical_ghz,
    psi_pair,
    random_optical_pair,
    random_state,
    tensor,
)

RT2 = 1.0 / math.sqrt(2.0)


class criterion:
    """Times a criterion body, prints one PASS/FAIL line, enforces the budget."""

    def __init__(self, capsys, number: int, label: str, budget_s: float):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.note = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def _emit(self, status: str, elapsed=None):
        timing = f" [{elapsed:.2f} s / budget {self.budget_s:g} s]" if elapsed is not None else ""
        note = f" ({self.note})" if self.note else ""
        with self.capsys.disabled():
            print(f"criterion {self.number}: {status} - {self.label}{note}{timing}")

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._emit("FAIL")
            return False
        elapsed = time.perf_counter() - self.start
        if elapsed >= self.budget_s:
            self._emit("FAIL", elapsed)
            raise AssertionError(
                f"criterion {self.number} runtime {elapsed:.2f} s "
                f"exceeded budget {self.budget_s} s"
            )
        self._emit("PASS", elapsed)
        return False


def test_criterion_1_hom_identity(capsys):
    with criterion(capsys, 1, "HOM identity on the 50:50 splitter", 1.0):
        subs = (OpticalMode(2, "a"), OpticalMode(2, "b"))
        out = beam_splitter(HybridState.basis(subs, (1, 1)), 0, 1)
        expected = {(0, 2): 1j * RT2, (2, 0): 1j * RT2}
        keys = set(expected) | set(k for k, _ in out.sorted_items())
        for key in keys:
            assert abs(out.amplitude(key) - expected.get(key, 0.0)) < 1e-12, key


def test_criterion_2_pair_state_reproduction(capsys):
    with criterion(capsys, 2, "heralded pair pre-detection state and conditionals", 1.0):
        regs = pair_register()[:2]

        def interferometer_arm(sign):
            return HybridState(regs, {("r1", "e"): RT2, ("e", "r1"): sign * 1j * RT2})

        modes = pair_register()[2:]
        expected = tensor(interferometer_arm(+1), HybridState.basis(modes, (0, 1))) \
            .add(tensor(interferometer_arm(-1), HybridState.basis(modes, (1, 0)))) \
            .scaled(1j * RT2)
        pre = pair_pre_detection_state(AbsorptionModel(1.0))
        keys = set(k for k, _ in expected.sorted_items()) | set(k for k, _ in pre.sorted_items())
        for key in keys:
            assert abs(pre.amplitude(key) - expected.amplitude(key)) < 1e-12, key

        outcome = entangle_pair_exact(AbsorptionModel(1.0), DetectorModel.ideal())
        assert fidelity(outcome.up.conditional_state, psi_pair(-1)) > 1.0 - 1e-10
        assert fidelity(outcome.down.conditional_state, psi_pair(+1)) > 1.0 - 1e-10


def test_criterion_3_success_probability_eta(capsys):
    with criterion(capsys, 3, "herald probability equals detector efficiency", 30.0):
        trials = 100_000
        for i, eta in enumerate((0.1, 0.3, 1.0)):
            det = DetectorModel(efficiency=eta)
            outcome = entangle_pair_exact(AbsorptionModel(1.0), det)
            assert abs(outcome.success_probability - eta) < 1e-10, eta
            stats = entangle_pair_sampled(AbsorptionModel(1.0), det,
                                          seed=4100 + i, trials=trials)
            sigma = math.sqrt(eta * (1.0 - eta) / trials)
            assert abs(stats.herald_rate - eta) <= 3.0 * sigma + 1e-12, eta


def test_criterion_4_ghz_circuit(capsys):
    with criterion(capsys, 4, "4-qubit chain: acceptance eta^2/2, unit fidelity", 10.0):
        for eta in (1.0, 0.7, 0.4):
            out = ghz4_exact(AbsorptionModel(1.0), DetectorModel(efficiency=eta))
            assert abs(out.success_probability - eta * eta / 2.0) < 1e-10, eta
            assert abs(out.success_probability
                       - ghz_success_probability(4, eta)) < 1e-10, eta
            assert {b.pattern for b in out.accepted} == ACCEPTED_GHZ_PATTERNS
            assert len(out.accepted) == 4
            for branch in out.accepted:
                assert branch.fidelity > 1.0 - 1e-10, (eta, branch.pattern)
            # unit fidelity happens on exactly those four patterns
            for branch in out.rejected:
                if branch.probability > 0.0 and branch.conditional_state is not None:
                    raw = fidelity(branch.conditional_state, canonical_ghz())
                    assert raw < 0.5, (eta, branch.pattern)


def test_criterion_5_error_budget(capsys):
    with criterion(capsys, 5, "error budget magnitudes for both presets", 1.0):
        r43 = budget_report(preset("paper-43d"))
        r58 = budget_report(preset("paper-58d"))
        for r in (r43, r58):
            assert abs(r.p_absorption - 0.989) <= 0.002
            assert 5e-4 / 3.0 <= r.p_dark_count <= 5e-4 * 3.0
            assert 2.0 / 4.0 <= r.collision_rate_hz <= 2.0 * 4.0
        assert abs(r43.p_double_excitation - 0.26) < 1e-9 * 0.26
        assert abs(r58.p_double_excitation - 0.57e-3) < 1e-9 * 0.57e-3


def test_criterion_6_fidelity_claim(capsys):
    with criterion(capsys, 6, "heralded fidelity vs first-order estimate", 10.0) as c:
        eps = 0.011
        fx = fidelity_exact_channel(eps)
        assert abs(fx - (1.0 - 2.0 * eps)) <= 0.001
        gap = abs(fx - REFERENCE_FIDELITY)
        assert gap <= 0.005
        # the full interferometer must agree with the closed-form channel
        sim = entangle_pair_exact(AbsorptionModel(1.0 - eps), DetectorModel.ideal())
        assert abs(sim.up.fidelity - fx) < 1e-10
        # first-order structure: d(1 - F)/d eps close to 2 at small eps
        h = 0.002
        lo = entangle_pair_exact(AbsorptionModel(1.0 - (eps - h))).up.fidelity
        hi = entangle_pair_exact(AbsorptionModel(1.0 - (eps + h))).up.fidelity
        slope = ((1.0 - hi) - (1.0 - lo)) / (2.0 * h)
        assert abs(slope - 2.0) < 0.05 * 2.0
        c.note = (f"exact 1-2eps channel {fx:.6f}, quoted {REFERENCE_FIDELITY} "
                  f"differs by {gap:.4f}; slope {slope:.4f}")


def test_criterion_7_growth_economics(capsys):
    with criterion(capsys, 7, "growth Monte Carlo vs exact expected costs", 60.0):
        trials = 10_000
        eta = 0.9
        for target in (4, 6, 8, 12):
            for eta_prime in (0.5, 1.0):
                policy = GrowthPolicy(block_size=4, target_size=target)
                stats = simulate_growth(policy, eta, eta_prime,
                                        seed=20260825, trials=trials)
                exact = expected_cost_markov(policy, eta, eta_prime)
                assert stats.success_fraction == 1.0
                for mean, std, want, label in (
                    (stats.mean_blocks, stats.std_blocks, exact.blocks, "blocks"),
                    (stats.mean_link_attempts, stats.std_link_attempts,
                     exact.link_attempts, "links"),
                    (stats.mean_generation_attempts, stats.std_generation_attempts,
                     exact.generation_attempts, "gen attempts"),
                    (stats.mean_steps, stats.std_steps, exact.steps, "steps"),
                ):
                    if std == 0.0:
                        assert mean == want, (target, eta_prime, label)
                        continue
                    sigma = std / math.sqrt(trials)
                    assert abs(mean - want) <= 3.0 * sigma, \
                        (target, eta_prime, label, mean, want)
                if stats.total_link_attempts:
                    q = eta_prime / 8.0
                    sigma = math.sqrt(q * (1.0 - q) / stats.total_link_attempts)
                    assert abs(stats.link_success_rate - q) <= 3.0 * sigma, \
                        (target, eta_prime)


def test_criterion_8_property_suite(capsys):
    with criterion(capsys, 8, "five core invariants x 1000 random instances", 60.0):
        instances = 1000

        # unitarity of the splitter: <Ua|Ub> = <a|b>, b from its own generator
        rng = np.random.default_rng(81)
        rng_b = np.random.default_rng(86)
        for _ in range(instances):
            st = random_optical_pair(rng)
            other = random_optical_pair(rng_b)
            out = beam_splitter(st, 0, 1)
            assert abs(out.norm() - st.norm()) < 1e-12
            assert abs(out.inner(beam_splitter(other, 0, 1)) - st.inner(other)) < 1e-12

        # norm preservation of the logical gate maps (the trace of a pure
        # state's density operator is its squared norm)
        rng = np.random.default_rng(82)
        regs = (EnsembleQudit("E0"), EnsembleQudit("E1"))
        gates = (gate_x, lambda st, i: gate_phase(st, i, 0.77),
                 lambda st, i: gate_phase(st, i, -2.1))
        for k in range(instances):
            labels = {0: ("g", "s"), 1: ("g", "s")}
            st = random_state(rng, regs, allowed_labels=labels)
            out = gates[k % 3](st, k % 2)
            assert abs(out.norm_squared() - 1.0) < 1e-12

        # blockade invariant: r1 blocks further absorption; e splits sqrt(p)/sqrt(1-p)
        rng = np.random.default_rng(83)
        subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
        for _ in range(instances):
            p = float(rng.uniform(0.05, 1.0))
            absorption = AbsorptionModel(p)
            blocked = random_state(rng, subs, allowed_labels={0: ("r1",)})
            assert blockade_absorb(blocked, 0, 1, absorption).allclose(blocked, atol=1e-12)
            n = int(rng.integers(1, 3))
            excited = HybridState.basis(subs, ("e", n))
            out = blockade_absorb(excited, 0, 1, absorption)
            assert abs(out.amplitude(("r1", n - 1)) - math.sqrt(p)) < 1e-12
            assert abs(out.amplitude(("e", n)) - math.sqrt(1.0 - p)) < 1e-12

        # POVM completeness of the detector model
        rng = np.random.default_rng(84)
        for _ in range(instances):
            st = random_state(rng, subs)
            det = DetectorModel(
                efficiency=float(rng.uniform(0.0, 1.0)),
                dark_count_rate_hz=float(rng.uniform(0.0, 5000.0)),
                gate_time_s=5e-6,
            )
            table = detect_all_probabilities(group_occupations(st, (1,)), det)
            total = sum(p for p, _ in table.values())
            assert abs(total - 1.0) < 1e-10
            for p, post in table.values():
                if post is not None:
                    assert abs(post.trace() - 1.0) < 1e-10

        # qubit-accounting ledger of growth trials
        rng = np.random.default_rng(85)
        for _ in range(instances):
            policy = GrowthPolicy(
                block_size=int(rng.choice((4, 6))),
                target_size=int(rng.choice((8, 10, 12))),
                step_cap=int(rng.integers(5, 2000)),
            )
            ok, inv = run_trial(policy, float(rng.uniform(0.2, 1.0)),
                                float(rng.uniform(0.1, 1.0)), rng)
            inv.assert_ledger_balanced(policy.block_size)
            assert inv.elapsed_steps == inv.consumed_ghz_blocks + inv.link_attempts
            assert inv.link_successes <= inv.link_attempts
            if ok:
                assert any(size >= policy.target_size for size in inv.clusters)
