import json
import math

import pytest

from blockadesim import protocol
from blockadesim.cli import parse_args, run
from blockadesim.ensemble import AbsorptionModel, transfer_to_storage
from blockadesim.optics import DetectorModel, HeraldPattern, detect_outcomes
from blockadesim.protocol import (
    ACCEPTED_GHZ_PATTERNS,
    DOWN,
    GHZ_CORRECTIONS,
    UP,
    HeraldPolicy,
    apply_corrections,
    canonical_ghz,
    entangle_pair_exact,
    entangle_pair_sampled,
    ghz4_exact,
    ghz_pre_detection_state,
    ghz_success_probability,
    link_success_probability,
    pair_pre_detection_state,
    psi_pair,
)
from blockadesim.state_algebra import DensityOperator, fidelity, partial_trace
from helpers import assert_within_3sigma

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
    assert out.up.target_sign == -1
    assert out.down.target_sign == +1
    assert fidelity(out.up.conditional_state, psi_pair(-1)) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(out.down.conditional_state, psi_pair(+1)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        out.branch("sideways")
    assert out.branch(UP) is out.up
    assert out.branch(DOWN) is out.down


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


@pytest.mark.parametrize("policy", list(HeraldPolicy))
def test_entangle_conditional_states_match_sequential_detection_chain(policy):
    # oracle: full density operator, detector on port 1 then on port 2, the
    # policy's click records mixed, then reduction to (A, B) and storage transfer
    absorption = AbsorptionModel(0.9)
    det = DetectorModel(efficiency=0.7, dark_count_rate_hz=2e4, gate_time_s=5e-6)
    joint = {}
    for c1, p1, post1 in detect_outcomes(pair_pre_detection_state(absorption), 2, det):
        if post1 is not None:
            for c2, p2, post2 in detect_outcomes(post1, 3, det):
                if post2 is not None:
                    joint[(c1, c2)] = (p1 * p2, post2)
    heralds = {
        HeraldPolicy.PER_DETECTOR: {UP: lambda c1, c2: c1, DOWN: lambda c1, c2: c2},
        HeraldPolicy.EXCLUSIVE: {UP: lambda c1, c2: c1 and not c2,
                                 DOWN: lambda c1, c2: c2 and not c1},
    }[policy]
    out = entangle_pair_exact(absorption, det, policy)
    for which, heralded in heralds.items():
        mix = [(p, post) for (c1, c2), (p, post) in joint.items() if heralded(c1, c2)]
        prob = sum(p for p, _ in mix)
        want = partial_trace(DensityOperator.mixture(mix).scaled(1.0 / prob), (0, 1))
        want = transfer_to_storage(transfer_to_storage(want, 0), 1)
        branch = out.branch(which)
        assert branch.probability == pytest.approx(prob, abs=1e-12)
        got = branch.conditional_state
        assert got.subsystems == want.subsystems
        for ket, bra in set(want.elements) | set(got.elements):
            assert got.element(ket, bra) == pytest.approx(want.element(ket, bra), abs=1e-12)


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


def test_entangle_sampled_chunks_keep_the_single_draw_counts(monkeypatch):
    absorption, det = AbsorptionModel(0.9), DetectorModel(efficiency=0.4)
    trials = 3 * protocol.SAMPLE_CHUNK + 17
    chunked = entangle_pair_sampled(absorption, det, seed=12, trials=trials)
    monkeypatch.setattr(protocol, "SAMPLE_CHUNK", trials)
    single = entangle_pair_sampled(absorption, det, seed=12, trials=trials)
    assert chunked == single


def test_entangle_sampled_exclusive_counts():
    stats = entangle_pair_sampled(AbsorptionModel(0.9), DetectorModel(efficiency=0.4),
                                  seed=5, trials=10_000, policy=HeraldPolicy.EXCLUSIVE)
    assert stats.n_heralds == stats.n_up_only + stats.n_down_only
    assert_within_3sigma(stats.herald_rate, stats.expected_success_probability,
                         stats.trials, "exclusive herald rate")


# ---------------------------------------------------------------------------
# four-qubit chain

def test_ghz_ideal_success_and_fidelity():
    out = ghz4_exact()
    assert out.success_probability == pytest.approx(0.5, abs=1e-12)
    assert len(out.accepted) == 4
    assert out.accepted_patterns == ACCEPTED_GHZ_PATTERNS
    for branch in out.accepted:
        assert branch.probability == pytest.approx(0.125, abs=1e-12)
        assert branch.fidelity == pytest.approx(1.0, abs=1e-10)
        assert fidelity(branch.corrected_state, canonical_ghz()) == pytest.approx(
            1.0, abs=1e-10)


def test_ghz_corrections_are_necessary():
    # without its correction, the raw conditional of a sign-flipped pattern
    # must not already be the canonical target
    out = ghz4_exact()
    target = canonical_ghz()
    for branch in out.accepted:
        raw = fidelity(branch.conditional_state, target)
        if branch.corrections:
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
            branch.conditional_state.assert_valid(atol=1e-9)
    # bunching: an accepted pair of photons never splits three or four ways
    for branch in out.rejected:
        assert branch.pattern.n_clicked != 3
        assert branch.pattern.n_clicked != 4
    assert out.branch((True, True, False, False)).accepted
    with pytest.raises(KeyError):
        out.branch((True, True, True, True))


def test_ghz_conditional_states_match_sequential_detection_chain():
    # oracle: full density operator, one detector at a time on the modes of
    # D1..D4, then reduction to the registers and storage transfer
    absorption, det = AbsorptionModel(0.9), DetectorModel(efficiency=0.7)
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

    descend(DensityOperator.from_pure(ghz_pre_detection_state(absorption)), 0, (), 1.0)
    out = ghz4_exact(absorption, det)
    reduced = [b for b in out.accepted + out.rejected if b.conditional_state is not None]
    assert {b.pattern.clicks for b in reduced} == set(reference)
    for branch in reduced:
        prob, post = reference[branch.pattern.clicks]
        assert branch.probability == pytest.approx(prob, abs=1e-12)
        want = partial_trace(post, (0, 1, 2, 3))
        for reg in range(4):
            want = transfer_to_storage(want, reg)
        got = branch.conditional_state
        for ket, bra in set(want.elements) | set(got.elements):
            assert got.element(ket, bra) == pytest.approx(want.element(ket, bra), abs=1e-12)


def _ghz_summary(out):
    return [(b.pattern, b.probability, b.fidelity,
             None if b.conditional_state is None else dict(b.conditional_state.elements),
             None if b.corrected_state is None else dict(b.corrected_state.elements))
            for b in out.accepted + out.rejected]


def test_ghz_group_cache_changes_no_result():
    p = 0.93
    etas = (0.4, 0.8, 0.4)
    groups = protocol._register_groups
    groups.cache_clear()
    cached = [ghz4_exact(AbsorptionModel(p), DetectorModel(efficiency=eta)) for eta in etas]
    assert (groups.cache_info().misses, groups.cache_info().hits) == (1, 2)
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
