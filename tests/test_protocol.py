import cmath
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from blockadesim import protocol
from blockadesim.cli import parse_args, run
from blockadesim.ensemble import AbsorptionModel, transfer_to_storage
from blockadesim.optics import DetectorModel, detect_outcomes, group_occupations
from blockadesim.protocol import (
    DOWN,
    UP,
    HeraldPolicy,
    entangle_pair_exact,
    entangle_pair_sampled,
    ghz4_exact,
    ghz_pre_detection_state,
    pair_pre_detection_state,
)
from blockadesim.rates import ghz_success_probability, link_success_probability
from blockadesim.state_algebra import (
    DensityOperator,
    EnsembleQudit,
    HybridState,
    OpticalMode,
    fidelity,
    partial_trace,
)
from helpers import (
    ACCEPTED_GHZ_PATTERNS,
    GHZ_CORRECTIONS,
    apply_corrections,
    assert_valid,
    assert_within_3sigma,
    canonical_ghz,
    corrected_target,
    element,
    pair_density_outcome,
    psi_pair,
)

RT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# pair protocol

def test_psi_pair_frozen():
    plus = psi_pair(+1)
    assert abs(plus.amplitude(("s", "g")) - RT2) < 1e-12
    assert abs(plus.amplitude(("g", "s")) - 1j * RT2) < 1e-12
    minus = psi_pair(-1)
    assert abs(minus.amplitude(("g", "s")) + 1j * RT2) < 1e-12
    assert abs(plus.inner(minus)) < 1e-12


def test_pair_pre_detection_state_ideal_frozen():
    st = pair_pre_detection_state(AbsorptionModel(1.0))
    assert abs(st.norm() - 1.0) < 1e-12
    assert abs(st.amplitude(("r1", "e", 0, 1)) - 0.5j) < 1e-12
    assert abs(st.amplitude(("e", "r1", 0, 1)) + 0.5) < 1e-12
    assert abs(st.amplitude(("r1", "e", 1, 0)) - 0.5j) < 1e-12
    assert abs(st.amplitude(("e", "r1", 1, 0)) - 0.5) < 1e-12
    assert abs(st.amplitude(("e", "e", 1, 1))) < 1e-12


def test_pair_pre_detection_state_imperfect_absorption():
    p = 0.75
    st = pair_pre_detection_state(AbsorptionModel(p))
    assert abs(st.norm() - 1.0) < 1e-12
    # double-miss branch recombines into a single photon pair behind port 1+2
    assert abs(st.amplitude(("e", "e", 1, 1)) - 1j * math.sqrt(1.0 - p)) < 1e-12
    for key in (("e", "e", 2, 0), ("e", "e", 0, 2)):
        assert abs(st.amplitude(key)) < 1e-12
    w = 0.5 * math.sqrt(p)
    assert abs(st.amplitude(("r1", "e", 0, 1)) - 1j * w) < 1e-12


def test_entangle_ideal_per_detector():
    out = entangle_pair_exact()
    assert out.success_probability == pytest.approx(1.0, abs=1e-12)
    assert out.up.probability == pytest.approx(0.5, abs=1e-12)
    assert out.down.probability == pytest.approx(0.5, abs=1e-12)
    assert out.up.fidelity == pytest.approx(1.0, abs=1e-10)
    assert out.down.fidelity == pytest.approx(1.0, abs=1e-10)
    assert out.heralded_fidelity == pytest.approx(1.0, abs=1e-10)
    # herald signs: up detector tags the minus state, down the plus state
    dense = pair_density_outcome()
    assert fidelity(dense.up.conditional_state, psi_pair(-1)) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(dense.down.conditional_state, psi_pair(+1)) == pytest.approx(1.0, abs=1e-10)


def test_entangle_per_detector_fidelity_law():
    # the per-detector herald keeps F = (1 - eps) / (1 + eps), independent of eta
    for p_abs in (0.989, 0.9, 0.7):
        eps = 1.0 - p_abs
        want = (1.0 - eps) / (1.0 + eps)
        for eta in (1.0, 0.6, 0.3):
            out = entangle_pair_exact(AbsorptionModel(p_abs), DetectorModel(efficiency=eta))
            assert out.up.fidelity == pytest.approx(want, abs=1e-10), (p_abs, eta)
            assert out.down.fidelity == pytest.approx(want, abs=1e-10)
            assert out.success_probability == pytest.approx(
                eta * (1.0 + eps * (1.0 - eta)), abs=1e-10)


def test_entangle_per_detector_reference_point_frozen():
    out = entangle_pair_exact(AbsorptionModel(0.989), DetectorModel(efficiency=0.3))
    assert out.up.fidelity == pytest.approx(0.9782393669634024, abs=1e-12)
    assert out.success_probability == pytest.approx(0.30231, abs=1e-10)


def test_entangle_exclusive_policy():
    for p_abs, eta in ((0.989, 1.0), (0.9, 0.75), (0.8, 0.5)):
        eps = 1.0 - p_abs
        out = entangle_pair_exact(AbsorptionModel(p_abs), DetectorModel(efficiency=eta),
                                  HeraldPolicy.EXCLUSIVE)
        want_success = eta * (p_abs + 2.0 * eps * (1.0 - eta))
        want_f = p_abs / (p_abs + 2.0 * eps * (1.0 - eta))
        assert out.success_probability == pytest.approx(want_success, abs=1e-10)
        assert out.up.fidelity == pytest.approx(want_f, abs=1e-10)
        assert out.down.fidelity == pytest.approx(want_f, abs=1e-10)
    # at unit efficiency the exclusive herald filters the miss branch entirely
    out = entangle_pair_exact(AbsorptionModel(0.8), DetectorModel.ideal(),
                              HeraldPolicy.EXCLUSIVE)
    assert out.success_probability == pytest.approx(0.8, abs=1e-12)
    assert out.up.fidelity == pytest.approx(1.0, abs=1e-10)


def test_entangle_dark_counts_degrade_fidelity():
    det = DetectorModel(efficiency=0.3, dark_count_rate_hz=2000.0, gate_time_s=5e-6)
    clean = entangle_pair_exact(AbsorptionModel(0.989), DetectorModel(efficiency=0.3))
    noisy = entangle_pair_exact(AbsorptionModel(0.989), det)
    assert noisy.up.fidelity < clean.up.fidelity
    assert noisy.success_probability > clean.success_probability


@pytest.mark.parametrize("eta", [1.0, 0.7, 0.3, 0.0])
@pytest.mark.parametrize("rate", [0.0, 300.0, 3e4, 3e5])
def test_entangle_dark_counts_closed_form(eta, rate):
    # oracle independent of the click POVM: at p_abs = 1 the photon leaves by
    # the herald's own port (right state) or the partner's (the orthogonal
    # one), each with probability 1/2.  A detector fires with c = 1 - (1 - d)
    # (1 - eta) on its photon and with the dark click probability d without.
    gate = 5e-6
    d = 1.0 - math.exp(-rate * gate)
    c = 1.0 - (1.0 - d) * (1.0 - eta)
    det = DetectorModel(efficiency=eta, dark_count_rate_hz=rate, gate_time_s=gate)
    closed = {
        HeraldPolicy.PER_DETECTOR: (1.0 - (1.0 - d) ** 2 * (1.0 - eta), c, c + d),
        HeraldPolicy.EXCLUSIVE: (c * (1.0 - d) + (1.0 - c) * d, c * (1.0 - d),
                                 c * (1.0 - d) + (1.0 - c) * d),
    }
    for policy, (success, right, heralded) in closed.items():
        out = entangle_pair_exact(AbsorptionModel(1.0), det, policy)
        assert out.success_probability == pytest.approx(success, abs=1e-12), policy
        for branch in (out.up, out.down):
            assert branch.probability == pytest.approx(heralded / 2.0, abs=1e-12), policy
            if heralded == 0.0:
                assert branch.fidelity is None
            else:
                assert branch.fidelity == pytest.approx(right / heralded, abs=1e-12), policy


@pytest.mark.parametrize("policy", list(HeraldPolicy))
def test_entangle_conditional_states_match_sequential_detection_chain(policy):
    # oracle: storage transfer of the pure state (registers only), then the
    # full density operator, detector on port 1 then on port 2, the policy's
    # click records mixed, then reduction to (A, B)
    absorption = AbsorptionModel(0.9)
    det = DetectorModel(efficiency=0.7, dark_count_rate_hz=2e4, gate_time_s=5e-6)
    stored = transfer_to_storage(transfer_to_storage(pair_pre_detection_state(absorption), 0), 1)
    joint = {}
    for c1, p1, post1 in detect_outcomes(DensityOperator.from_pure(stored), 2, det):
        if post1 is not None:
            for c2, p2, post2 in detect_outcomes(post1, 3, det):
                if post2 is not None:
                    joint[(c1, c2)] = (p1 * p2, post2)
    heralds = {
        HeraldPolicy.PER_DETECTOR: {UP: lambda c1, c2: c1, DOWN: lambda c1, c2: c2},
        HeraldPolicy.EXCLUSIVE: {UP: lambda c1, c2: c1 and not c2,
                                 DOWN: lambda c1, c2: c2 and not c1},
    }[policy]
    out = pair_density_outcome(absorption, det, policy)
    for which, heralded in heralds.items():
        mix = [(p, post) for (c1, c2), (p, post) in joint.items() if heralded(c1, c2)]
        prob = sum(p for p, _ in mix)
        want = partial_trace(DensityOperator.mixture(mix).scaled(1.0 / prob), (0, 1))
        branch = {UP: out.up, DOWN: out.down}[which]
        assert branch.probability == pytest.approx(prob, abs=1e-12)
        got = branch.conditional_state
        assert got.subsystems == want.subsystems
        for ket, bra in set(want.elements) | set(got.elements):
            assert element(got, ket, bra) == pytest.approx(element(want, ket, bra), abs=1e-12)


def test_entangle_sampled_matches_exact():
    absorption = AbsorptionModel(0.9)
    det = DetectorModel(efficiency=0.4)
    exact = entangle_pair_exact(absorption, det)
    trials = 40_000
    stats = entangle_pair_sampled(absorption, det, seed=99, trials=trials)
    # the sampled path builds its joint distribution by sequential conditioning,
    # independent of the exact path's joint table
    assert stats.expected_success_probability == pytest.approx(
        exact.success_probability, abs=1e-10)
    assert stats.n_both + stats.n_up_only + stats.n_down_only + stats.n_none == trials
    assert_within_3sigma(stats.herald_rate, exact.success_probability, trials,
                         "pair herald rate")
    again = entangle_pair_sampled(absorption, det, seed=99, trials=trials)
    assert again == stats
    different = entangle_pair_sampled(absorption, det, seed=100, trials=trials)
    assert different != stats
    with pytest.raises(ValueError):
        entangle_pair_sampled(absorption, det, seed=1, trials=0)


def test_entangle_sampled_refuses_trials_past_int64_before_any_work(monkeypatch):
    absorption, det = AbsorptionModel(0.9), DetectorModel(efficiency=0.4)
    stats = entangle_pair_sampled(absorption, det, seed=1, trials=2**63 - 1)
    assert stats.n_both + stats.n_up_only + stats.n_down_only + stats.n_none == 2**63 - 1

    def no_work(*args):
        raise AssertionError("work began before trials was checked")

    monkeypatch.setattr(protocol, "pair_pre_detection_state", no_work)
    for trials in (2**63, 10**30, 0):
        with pytest.raises(ValueError, match="trials"):
            entangle_pair_sampled(absorption, det, seed=1, trials=trials)


def sequential_pair_joint(absorption, det):
    """P(click up, click down) by detecting port 1, then port 2, on the density operator."""
    rho = DensityOperator.from_pure(pair_pre_detection_state(absorption))
    joint = {(c1, c2): 0.0 for c1 in (False, True) for c2 in (False, True)}
    for c1, p1, post1 in detect_outcomes(rho, protocol.PAIR_DETECTED_MODES[0], det):
        if post1 is not None:
            for c2, p2, _ in detect_outcomes(post1, protocol.PAIR_DETECTED_MODES[1], det):
                joint[(c1, c2)] = p1 * p2
    return joint


def click_counts(stats):
    return {(True, True): stats.n_both, (True, False): stats.n_up_only,
            (False, True): stats.n_down_only, (False, False): stats.n_none}


@pytest.mark.parametrize("dark_hz", [0.0, 3e4])
@pytest.mark.parametrize("p_abs", [1.0, 0.9])
@pytest.mark.parametrize("eta", [1.0, 0.7, 0.3])
@pytest.mark.parametrize("policy", list(HeraldPolicy))
def test_entangle_sampled_counts_follow_the_multinomial_law(policy, eta, p_abs, dark_hz):
    absorption = AbsorptionModel(p_abs)
    det = DetectorModel(efficiency=eta, dark_count_rate_hz=dark_hz)
    trials = 1_000_000
    stats = entangle_pair_sampled(absorption, det, seed=21, trials=trials, policy=policy)
    joint = sequential_pair_joint(absorption, det)
    counts = click_counts(stats)
    assert sum(counts.values()) == trials
    for clicks, n in counts.items():
        p = joint[clicks]
        if p == 0.0:
            # without dark counts: two clicks from one photon, or none at eta = 1
            assert n == 0, clicks
        else:
            sigma = math.sqrt(trials * p * (1.0 - p))
            assert abs(n - trials * p) <= 5.0 * sigma, (clicks, n, trials * p)
    assert entangle_pair_sampled(absorption, det, seed=21, trials=trials, policy=policy) == stats
    other = entangle_pair_sampled(absorption, det, seed=22, trials=trials, policy=policy)
    assert click_counts(other) != counts


def test_entangle_sampled_exclusive_counts():
    stats = entangle_pair_sampled(AbsorptionModel(0.9), DetectorModel(efficiency=0.4),
                                  seed=5, trials=10_000, policy=HeraldPolicy.EXCLUSIVE)
    assert stats.n_heralds == stats.n_up_only + stats.n_down_only
    assert_within_3sigma(stats.herald_rate, stats.expected_success_probability,
                         stats.trials, "exclusive herald rate")


@pytest.mark.parametrize("argv", [["entangle", "--eta", "0"],
                                  ["entangle", "--eta", "0", "--policy", "exclusive"],
                                  ["entangle", "--eta", "0", "--p-abs", "0"],
                                  ["entangle", "--eta", "0", "--p-abs", "0.5"],
                                  ["ghz", "--qubits", "4", "--eta", "0"]],
                         ids=["per-detector", "exclusive", "p_abs-0", "p_abs-0.5", "ghz4"])
def test_zero_probability_heralds_print_float_zero_and_no_fidelity(argv):
    # no click heralds anything, and every sum starts from 0.0: an int 0
    # would print "probability": 0, and 1 - p(no click) printed -4.4e-16
    # where p(no click) summed to 1.0000000000000004
    results = json.loads(run(parse_args(argv)))["results"]
    circuit = results["circuit"] if argv[0] == "ghz" else results
    branches = circuit["accepted"] if argv[0] == "ghz" else [results["up"], results["down"]]
    assert len(branches) == (4 if argv[0] == "ghz" else 2)
    for branch in branches:
        assert repr(branch["probability"]) == "0.0" and branch["fidelity"] is None
    assert repr(circuit["success_probability"]) == "0.0"


def pair_numbers(outcome):
    return {"success_probability": outcome.success_probability,
            "up.probability": outcome.up.probability, "up.fidelity": outcome.up.fidelity,
            "down.probability": outcome.down.probability, "down.fidelity": outcome.down.fidelity}


@pytest.mark.parametrize("policy", list(HeraldPolicy))
def test_scored_pair_matches_the_density_operator_oracle(policy):
    for p_abs, eta, dark_hz in itertools.product((1.0, 0.989, 0.9, 0.7, 0.3, 0.0),
                                                 (1.0, 0.7, 0.3, 0.0), (0.0, 2e4)):
        absorption = AbsorptionModel(p_abs)
        det = DetectorModel(efficiency=eta, dark_count_rate_hz=dark_hz)
        oracle = pair_density_outcome(absorption, det, policy)
        scored = entangle_pair_exact(absorption, det, policy)
        got_numbers = pair_numbers(scored)
        for what, want in pair_numbers(oracle).items():
            got = got_numbers[what]
            if want is None:
                assert got is None, (what, p_abs, eta, dark_hz)
            else:
                assert got == pytest.approx(want, abs=1e-12), (what, p_abs, eta, dark_hz)
        assert scored.success_probability >= 0.0
    # a scored branch holds only what the entangle command prints
    fields = [f.name for f in dataclasses.fields(protocol.HeraldBranch)]
    assert fields == ["probability", "fidelity"]


@pytest.mark.parametrize("policy", list(HeraldPolicy))
def test_entangle_artifact_carries_the_scored_numbers(policy):
    argv = ["entangle", "--eta", "0.6", "--p-abs", "0.93", "--gamma-dc", "2e4",
            "--policy", policy.value]
    results = json.loads(run(parse_args(argv)))["results"]
    scored = entangle_pair_exact(AbsorptionModel(0.93),
                                 DetectorModel(efficiency=0.6, dark_count_rate_hz=2e4), policy)
    assert results["success_probability"] == scored.success_probability
    assert results["fidelity"] == scored.heralded_fidelity
    for which in (UP, DOWN):
        branch = getattr(scored, which)
        assert results[which] == {"probability": branch.probability, "fidelity": branch.fidelity}


# ---------------------------------------------------------------------------
# four-qubit chain

def test_ghz_ideal_success_and_fidelity():
    out = ghz4_exact()
    assert out.success_probability == pytest.approx(0.5, abs=1e-12)
    assert len(out.accepted) == 4
    assert {b.pattern for b in out.accepted} == ACCEPTED_GHZ_PATTERNS
    for branch in out.accepted:
        assert branch.probability == pytest.approx(0.125, abs=1e-12)
        assert branch.fidelity == pytest.approx(1.0, abs=1e-10)


def test_ghz_corrections_are_necessary():
    # without its correction, the raw conditional of a sign-flipped pattern
    # must not already be the canonical target
    out = ghz4_exact()
    target = canonical_ghz()
    for branch in out.accepted:
        raw = fidelity(branch.conditional_state, target)
        if GHZ_CORRECTIONS[branch.pattern]:
            assert raw < 0.999, branch.pattern
    with pytest.raises(ValueError):
        apply_corrections(target, (("normalize", 0),))


def test_ghz_success_scales_as_eta_squared_over_two():
    for eta in (1.0, 0.85, 0.5, 0.25):
        out = ghz4_exact(detector=DetectorModel(efficiency=eta))
        assert out.success_probability == pytest.approx(eta * eta / 2.0, abs=1e-10)
        assert out.success_probability == pytest.approx(
            ghz_success_probability(4, eta), abs=1e-12)
        for branch in out.accepted:
            assert branch.fidelity == pytest.approx(1.0, abs=1e-10)


def test_ghz_noisy_closed_form_at_unit_efficiency():
    # with every photon detected, the chain acceptance and fidelity reduce to
    # success = (2 - p^2) / 2 and F = p^2 / (2 - p^2)
    for p in (0.9, 0.8, 0.75):
        out = ghz4_exact(AbsorptionModel(p))
        assert out.success_probability == pytest.approx((2.0 - p * p) / 2.0, abs=1e-10)
        for branch in out.accepted:
            assert branch.fidelity == pytest.approx(p * p / (2.0 - p * p), abs=1e-10)


def test_ghz_outcome_enumeration_is_complete():
    out = ghz4_exact(AbsorptionModel(0.9), DetectorModel(efficiency=0.7))
    total = out.success_probability + sum(b.probability for b in out.rejected)
    assert total == pytest.approx(1.0, abs=1e-10)
    for branch in out.accepted + out.rejected:
        assert branch.probability >= 0.0
        if branch.conditional_state is not None:
            assert_valid(branch.conditional_state, atol=1e-9)
    # bunching: an accepted pair of photons never splits three or four ways
    for branch in out.rejected:
        assert branch.fidelity is None, branch.pattern
        assert sum(branch.pattern) != 3
        assert sum(branch.pattern) != 4
    assert (True, True, False, False) in {b.pattern for b in out.accepted}


def _dense_correction(corrections):
    """A pattern's correction as a 16x16 matrix over (A, B, C, D), basis (g, s)."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    total = np.eye(16, dtype=complex)
    for op in corrections:
        if op[0] == "x":
            local = x
        else:
            local = np.diag([cmath.exp(-0.5j * op[2]), cmath.exp(0.5j * op[2])])
        factors = [np.eye(2)] * 4
        factors[op[1]] = local
        gate = factors[0]
        for f in factors[1:]:
            gate = np.kron(gate, f)
        total = gate @ total
    return total


def _dense_registers(rho):
    """Register density operator in the storage basis as a 16x16 matrix."""
    def index(key):
        return sum(("g", "s").index(level) << (3 - i) for i, level in enumerate(key))

    dense = np.zeros((16, 16), dtype=complex)
    for (ket, bra), v in rho.elements.items():
        dense[index(ket), index(bra)] += v
    return dense


def _sequential_ghz_reference(absorption, det):
    """{pattern: (probability, post-detection operator)}, one detector at a time.

    Storage transfer acts on the pure pre-detection state (registers only),
    then each detector of D1..D4 conditions the full density operator in
    turn.
    """
    modes = (4, 5, 7, 6)
    reference = {}

    def descend(rho, depth, prefix, prob):
        for outcome, q, post in detect_outcomes(rho, modes[depth], det):
            if post is None:
                continue
            if depth + 1 < len(modes):
                descend(post, depth + 1, prefix + (outcome,), prob * q)
            else:
                reference[prefix + (outcome,)] = (prob * q, post)

    stored = ghz_pre_detection_state(absorption)
    for reg in range(4):
        stored = transfer_to_storage(stored, reg)
    descend(DensityOperator.from_pure(stored), 0, (), 1.0)
    return reference


def test_ghz_conditional_states_match_sequential_detection_chain():
    # the sequential reference reduced to the registers must give every
    # pattern's probability and conditional state, and, corrected by dense
    # matrices built here, every accepted pattern's fidelity
    ghz = np.zeros(16)
    ghz[[0, 15]] = RT2
    for p_abs, eta, dark_rate in ((0.9, 0.7, 0.0), (0.97, 0.5, 3e4)):
        absorption = AbsorptionModel(p_abs)
        det = DetectorModel(efficiency=eta, dark_count_rate_hz=dark_rate, gate_time_s=5e-6)
        reference = _sequential_ghz_reference(absorption, det)
        out = ghz4_exact(absorption, det)
        reduced = [b for b in out.accepted + out.rejected if b.conditional_state is not None]
        assert {b.pattern for b in reduced} == set(reference)
        for branch in reduced:
            prob, post = reference[branch.pattern]
            assert branch.probability == pytest.approx(prob, abs=1e-12)
            want = partial_trace(post, (0, 1, 2, 3))
            got = branch.conditional_state
            for ket, bra in set(want.elements) | set(got.elements):
                assert element(got, ket, bra) == pytest.approx(element(want, ket, bra), abs=1e-12)
            if branch.accepted:
                c = _dense_correction(GHZ_CORRECTIONS[branch.pattern])
                corrected = c @ _dense_registers(want) @ c.conj().T
                assert branch.fidelity == pytest.approx((ghz @ corrected @ ghz).real, abs=1e-12)


def _ghz_summary(out):
    return [(b.pattern, b.probability, b.fidelity,
             None if b.conditional_state is None else dict(b.conditional_state.elements))
            for b in out.accepted + out.rejected]


def test_ghz_group_cache_changes_no_result():
    p = 0.93
    etas = (0.4, 0.8, 0.4)
    groups = protocol._register_groups
    groups.cache_clear()
    cached = [ghz4_exact(AbsorptionModel(p), DetectorModel(efficiency=eta)) for eta in etas]
    # one grouping at p and one in the ideal limit, each built once
    assert (groups.cache_info().misses, groups.cache_info().hits) == (2, 4)
    for eta, got in zip(etas, cached):
        groups.cache_clear()
        fresh = ghz4_exact(AbsorptionModel(p), DetectorModel(efficiency=eta))
        assert _ghz_summary(got) == _ghz_summary(fresh)
    # a sweep row (second point served from the cache) is the standalone run
    groups.cache_clear()
    rows = json.loads(run(parse_args(["sweep", "ghz", "--set", "qubits=4", "--set", f"p_abs={p}",
                                      "--range", "eta=0.4:0.8:0.4"])))["rows"]
    groups.cache_clear()
    single = json.loads(run(parse_args(["ghz", "--eta", "0.8", "--p-abs", str(p)])))
    assert rows[1]["eta"] == 0.8
    assert rows[1]["circuit_success_probability"] == single["results"]["circuit"]["success_probability"]


def test_register_groups_is_transfer_then_grouping_then_port_drop():
    # oracle: the public maps one at a time, storage transfer per register,
    # then the grouping, then the vacuum ports dropped from every branch
    for circuit, modes in ((ghz_pre_detection_state, protocol.GHZ_DETECTED_MODES),
                           (pair_pre_detection_state, (2, 3))):
        for p in (1.0, 0.9):
            protocol._register_groups.cache_clear()
            groups = protocol._register_groups(circuit, modes, AbsorptionModel(p))
            stored = circuit(AbsorptionModel(p))
            n_registers = len(stored.subsystems) - len(modes)
            for reg in range(n_registers):
                stored = transfer_to_storage(stored, reg)
            expected = group_occupations(stored, modes)
            assert (groups.modes, groups.cutoffs) == (expected.modes, expected.cutoffs)
            assert [occ for occ, _ in groups.branches] == [occ for occ, _ in expected.branches]
            for (_, got), (_, full) in zip(groups.branches, expected.branches):
                assert got.subsystems == stored.subsystems[:n_registers]
                assert list(got) == [(key[:n_registers], amp) for key, amp in full]


def _colliding_circuit(absorption):
    # register A holds "e" and "g" beside one port occupation: both map to "g"
    subs = (EnsembleQudit("A"), OpticalMode(2, "port"))
    return HybridState(subs, {("e", 1): RT2, ("g", 1): RT2})


def test_register_groups_refuses_a_storage_collision():
    with pytest.raises(ValueError, match="collides"):
        protocol._register_groups(_colliding_circuit, (1,), AbsorptionModel())
    with pytest.raises(ValueError, match="collides"):
        transfer_to_storage(_colliding_circuit(AbsorptionModel()), 0)


def test_ideal_targets_match_the_hand_written_corrections():
    # oracle: each derived target is C^dagger |GHZ> for its listed correction
    # C, up to a global phase, and the pair's are the hand-written herald states
    targets = protocol._ideal_targets(ghz_pre_detection_state, protocol.GHZ_DETECTED_MODES)
    assert set(targets) == ACCEPTED_GHZ_PATTERNS
    for pattern, target in targets.items():
        assert target.norm() == pytest.approx(1.0, abs=1e-12)
        overlap = target.inner(corrected_target(GHZ_CORRECTIONS[pattern]))
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12), pattern
    pair = protocol._ideal_targets(pair_pre_detection_state, (2, 3))
    assert set(pair) == {(True, False), (False, True)}
    for clicks, sign in (((True, False), -1), ((False, True), +1)):
        assert pair[clicks].norm() == pytest.approx(1.0, abs=1e-12)
        assert abs(pair[clicks].inner(psi_pair(sign))) == pytest.approx(1.0, abs=1e-12)


def _synthetic_circuit(heralded):
    """A circuit of registers (A, B) and two ports whose pre-detection state is
    ``heralded`` plus one GHZ branch on the (False, True) pattern."""
    subs = (EnsembleQudit("A"), EnsembleQudit("B"), OpticalMode(2, "port1"),
            OpticalMode(2, "port2"))
    amps = {("s", "g", 0, 1): RT2, ("g", "s", 0, 1): -1j * RT2, **heralded}
    return lambda absorption: HybridState(subs, amps)


@pytest.mark.parametrize("heralded", [
    {("s", "g", 1, 0): 0.6, ("g", "s", 1, 0): 0.8},
    {("g", "g", 1, 0): RT2, ("g", "s", 1, 0): RT2},
    {("s", "g", 1, 0): 0.5, ("g", "s", 1, 0): 0.5, ("s", "s", 1, 0): 0.5},
    {("s", "g", 1, 0): 0.5, ("g", "s", 1, 0): 0.5, ("s", "g", 2, 0): 0.5, ("g", "s", 2, 0): 0.5},
], ids=["unequal-weights", "not-complementary", "three-terms", "two-groups-one-pattern"])
def test_ideal_targets_reject_what_is_not_a_ghz_branch(heralded):
    targets = protocol._ideal_targets(_synthetic_circuit(heralded), (2, 3))
    assert set(targets) == {(False, True)}
    assert abs(targets[(False, True)].inner(psi_pair(-1))) == pytest.approx(1.0, abs=1e-12)


def test_ghz_pre_detection_state_is_normalized():
    for p in (1.0, 0.8):
        st = ghz_pre_detection_state(AbsorptionModel(p))
        assert abs(st.norm() - 1.0) < 1e-12
        assert len(st.subsystems) == 8


def test_ghz_correction_table_shape():
    assert set(GHZ_CORRECTIONS) == {
        (True, True, False, False),
        (True, False, True, False),
        (False, True, False, True),
        (False, False, True, True),
    }
    for pattern in GHZ_CORRECTIONS:
        assert sum(pattern) == 2


def test_ghz_success_probability_formula():
    assert ghz_success_probability(4, 1.0) == pytest.approx(0.5)
    assert ghz_success_probability(4, 0.3) == pytest.approx(0.045)
    assert ghz_success_probability(6, 1.0) == pytest.approx(0.25)
    assert ghz_success_probability(8, 1.0) == pytest.approx(6.0 / 64.0)
    with pytest.raises(ValueError):
        ghz_success_probability(3, 0.5)
    with pytest.raises(ValueError):
        ghz_success_probability(2, 0.5)
    with pytest.raises(ValueError):
        ghz_success_probability(4, 1.5)


# ---------------------------------------------------------------------------
# cluster linking

def test_link_success_probability():
    assert link_success_probability(1.0) == pytest.approx(0.125)
    assert link_success_probability(0.4) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        link_success_probability(-0.1)
    with pytest.raises(ValueError):
        link_success_probability(1.1)
