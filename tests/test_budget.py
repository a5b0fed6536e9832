import dataclasses
import json
import math

import pytest

from blockadesim.budget import (
    ATOMIC_MASS_KG,
    BOLTZMANN_J_PER_K,
    PRESETS,
    REFERENCE_FIDELITY,
    BudgetParams,
    absorption_cross_section_m2,
    beam_area_m2,
    budget_report,
    collective_coupling_mhz,
    collision_rate,
    collision_rate_si,
    coupling_for_double_target,
    fidelity_estimate,
    fidelity_exact_channel,
    mean_thermal_speed_m_s,
    p_absorption,
    p_dark_count,
    p_double_excitation,
    preset,
    render_text,
)


def test_cross_section_and_area_frozen():
    lam = 500e-9
    assert absorption_cross_section_m2(lam) == pytest.approx(
        3.0 * lam * lam / (2.0 * math.pi), rel=1e-12)
    assert absorption_cross_section_m2(lam) == pytest.approx(1.19366207e-13, rel=1e-8)
    assert beam_area_m2(2e-6) == pytest.approx(1.25663706e-11, rel=1e-8)
    with pytest.raises(ValueError):
        absorption_cross_section_m2(0.0)
    with pytest.raises(ValueError):
        beam_area_m2(-1.0)


def test_p_absorption_properties():
    lam = 485.766e-9
    w0 = math.pi * lam
    assert p_absorption(0.0, lam, w0) == 0.0
    values = [p_absorption(n, lam, w0) for n in (10, 50, 150, 300, 1000)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v < 1.0 for v in values)
    # with waist pinned at pi * wavelength the depth is 3 N / (2 pi^4):
    # the wavelength cancels and the optical depth depends on N alone
    assert p_absorption(300, lam, w0) == pytest.approx(
        1.0 - math.exp(-900.0 / (2.0 * math.pi**4)), rel=1e-12)
    assert p_absorption(300, 485.081e-9, math.pi * 485.081e-9) == pytest.approx(
        p_absorption(300, lam, w0), rel=1e-12)
    with pytest.raises(ValueError):
        p_absorption(-1.0, lam, w0)


def test_p_absorption_preset_band():
    params = preset("paper-43d")
    value = p_absorption(params.atoms_interaction, params.wavelength_m, params.waist_m)
    assert value == pytest.approx(0.9901441689542136, rel=1e-12)
    assert 0.987 <= value <= 0.991


def test_collective_coupling():
    assert collective_coupling_mhz(300.0, 0.5) == pytest.approx(math.sqrt(300.0) * 0.5)
    with pytest.raises(ValueError):
        collective_coupling_mhz(0.5, 1.0)


def test_double_excitation_roundtrip_and_invariant():
    import numpy as np
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = float(rng.uniform(2.0, 1e4))
        b = float(rng.uniform(0.01, 10.0))
        target = float(rng.uniform(1e-5, 0.9))
        g0 = coupling_for_double_target(n, b, target)
        assert p_double_excitation(n, g0, b) == pytest.approx(target, rel=1e-12)
        # collective-coupling form (N-1) gN^2 / (2 N B^2) is the same number
        gn = collective_coupling_mhz(n, g0)
        assert (n - 1.0) * gn * gn / (2.0 * n * b * b) == pytest.approx(target, rel=1e-12)
    with pytest.raises(ValueError):
        p_double_excitation(1.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        coupling_for_double_target(300.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        coupling_for_double_target(300.0, 1.0, 1.0)


def test_preset_double_excitation_targets_exact():
    r43 = budget_report(preset("paper-43d"))
    r58 = budget_report(preset("paper-58d"))
    assert r43.p_double_excitation == pytest.approx(0.26, rel=1e-12)
    assert r58.p_double_excitation == pytest.approx(0.57e-3, rel=1e-12)
    assert r43.params.coupling_mhz == pytest.approx(0.010425720702853738, rel=1e-12)
    assert r58.params.coupling_mhz == pytest.approx(0.005662586241563462, rel=1e-12)


def test_p_dark_count_frozen():
    # worked reference point: 20 Hz over 5 us diluted by herald probability 0.2
    assert p_dark_count(20.0, 5e-6, 0.2) == pytest.approx(
        1.0 - math.exp(-5e-4), rel=1e-12)
    assert p_dark_count(20.0, 5e-6, 0.2) == pytest.approx(5e-4, rel=1e-3)
    assert p_dark_count(0.0, 5e-6, 0.3) == 0.0
    with pytest.raises(ValueError):
        p_dark_count(20.0, 5e-6, 0.0)
    with pytest.raises(ValueError):
        p_dark_count(-1.0, 5e-6, 0.3)


def test_thermal_speed_frozen():
    v = mean_thermal_speed_m_s(1e-3, 87.0 * ATOMIC_MASS_KG)
    assert v == pytest.approx(0.5354489772340946, rel=1e-12)
    assert v == pytest.approx(math.sqrt(3.0 * BOLTZMANN_J_PER_K * 1e-3
                                        / (87.0 * ATOMIC_MASS_KG)), rel=1e-12)
    with pytest.raises(ValueError):
        mean_thermal_speed_m_s(-1.0, 1e-26)
    with pytest.raises(ValueError):
        mean_thermal_speed_m_s(1e-3, 0.0)


def test_collision_rate_unit_conversion():
    mass = 87.0 * ATOMIC_MASS_KG
    si = collision_rate_si(1e18, 1e-18, mass, 1e-3)
    cgs = collision_rate(1e12, 1e-14, mass, 1e-3)
    assert cgs == pytest.approx(si, rel=1e-12)
    assert cgs == pytest.approx(0.5354489772340946, rel=1e-12)
    # order of magnitude: sub-Hz to a few Hz for a good vacuum
    assert 0.05 <= cgs <= 10.0
    with pytest.raises(ValueError):
        collision_rate_si(-1.0, 1e-18, mass, 1e-3)


def test_fidelity_maps():
    assert fidelity_estimate(0.0) == 1.0
    assert fidelity_estimate(0.009) == pytest.approx(REFERENCE_FIDELITY, rel=1e-12)
    assert fidelity_exact_channel(0.011) == pytest.approx(0.9782393669634024, rel=1e-12)
    assert fidelity_exact_channel(0.0) == 1.0
    with pytest.raises(ValueError):
        fidelity_estimate(0.6)
    with pytest.raises(ValueError):
        fidelity_estimate(-0.01)
    with pytest.raises(ValueError):
        fidelity_exact_channel(1.5)


def test_presets_catalogue():
    assert set(PRESETS) == {"paper-43d", "paper-58d"}
    p43 = preset("paper-43d")
    p58 = preset("paper-58d")
    assert p43.atoms_interaction == 300.0
    assert p43.waist_m == pytest.approx(math.pi * p43.wavelength_m, rel=1e-12)
    assert p43.blockade_mhz == 0.25
    assert p58.blockade_mhz == 2.9
    assert p43.atom_mass_kg == pytest.approx(87.0 * ATOMIC_MASS_KG, rel=1e-12)
    with pytest.raises(ValueError, match="unknown preset"):
        preset("paper-99z")


def test_params_validation():
    params = preset("paper-43d")
    with pytest.raises(ValueError):
        dataclasses.replace(params, temperature_k=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(params, atoms_ensemble=-5.0)
    with pytest.raises(ValueError):
        dataclasses.replace(params, success_probability=1.2)


def test_budget_report_dominant_error_flips_between_presets():
    r43 = budget_report(preset("paper-43d"))
    r58 = budget_report(preset("paper-58d"))
    assert r43.dominant_error == "double_excitation"
    assert r58.dominant_error == "absorption_miss"
    assert set(r43.mechanisms()) == {
        "absorption_miss", "double_excitation", "dark_count", "collision"}
    for r in (r43, r58):
        assert max(r.mechanisms().values()) == r.mechanisms()[r.dominant_error]
        assert 0.97 <= r.fidelity_first_order <= 1.0
        assert r.reference_gap == pytest.approx(
            abs(r.fidelity_first_order - REFERENCE_FIDELITY), rel=1e-12)
        assert r.reference_gap < 0.01
        assert r.p_dark_count == pytest.approx(0.0003332777839500922, rel=1e-12)
        # within a factor of a few of the 5e-4 reference point
        assert 5e-4 / 3.0 <= r.p_dark_count <= 5e-4 * 3.0
        assert r.p_collision < 1e-4


def test_budget_report_json_round_trip():
    report = budget_report(preset("paper-58d"))
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert set(data) == {"inputs", "derived", "dominant_error"}
    assert data["dominant_error"] == "absorption_miss"
    assert data["derived"]["p_double_excitation"] == pytest.approx(0.57e-3, rel=1e-12)
    assert data["derived"]["reference_fidelity"] == REFERENCE_FIDELITY
    assert data["inputs"]["blockade_mhz"] == 2.9


def test_render_text_one_line_per_input():
    report = budget_report(preset("paper-43d"))
    text = render_text(report)
    for f in dataclasses.fields(BudgetParams):
        matching = [ln for ln in text.splitlines() if ln.strip().startswith(f.name)]
        assert len(matching) == 1, f.name
    assert "dominant error: double_excitation" in text
    assert "p_absorption" in text
    assert str(REFERENCE_FIDELITY) in text
