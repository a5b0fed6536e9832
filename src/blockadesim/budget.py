"""Analytic error budget for the heralded entangling protocol.

Closed-form estimates for each error mechanism of a concrete cold-atom
implementation: photon absorption probability of an optically thick ensemble,
double Rydberg excitation under imperfect blockade, detector dark counts
folded over the protocol duty cycle, and background-gas collisions.  All
internal computation is SI; fields that are conventionally quoted in MHz or
cm carry that unit in their name.

The two bundled presets describe the same 300-atom ensemble addressed
through two different upper levels, one with a weak blockade shift
(0.25 MHz) and one with a strong shift (2.9 MHz).  The single-atom coupling
is not independently known, so preset couplings are back-solved from the
quoted double-excitation probabilities; they are derived numbers, not
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

BOLTZMANN_J_PER_K = 1.380649e-23
ATOMIC_MASS_KG = 1.66053906892e-27

# Reported final-state fidelity we compare the first-order estimate against.
REFERENCE_FIDELITY = 0.982


@dataclass(frozen=True)
class BudgetParams:
    """Inputs of the error budget; see the preset constructors for defaults."""

    atoms_interaction: float      # atoms inside the interaction volume
    atoms_ensemble: float         # atoms contributing to the collective coupling
    wavelength_m: float
    waist_m: float
    coupling_mhz: float           # single-atom coupling g0
    blockade_mhz: float           # mean blockade shift between neighbours
    dark_count_rate_hz: float
    protocol_time_s: float
    success_probability: float    # herald probability diluting the duty cycle
    density_cm3: float
    collision_cross_section_cm2: float
    atom_mass_kg: float
    temperature_k: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0.0:
                raise ValueError(f"{f.name} must be strictly positive, got {value!r}")
        if self.success_probability > 1.0:
            raise ValueError("success_probability must be <= 1")


def absorption_cross_section_m2(wavelength_m: float) -> float:
    """Resonant cross section 3 lambda^2 / (2 pi)."""
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    return 3.0 * wavelength_m**2 / (2.0 * math.pi)


def beam_area_m2(waist_m: float) -> float:
    """Gaussian beam area pi w0^2."""
    if waist_m <= 0.0:
        raise ValueError("waist must be positive")
    return math.pi * waist_m**2


def p_absorption(atoms_interaction: float, wavelength_m: float, waist_m: float) -> float:
    """Probability that an optically thick ensemble absorbs the photon.

    1 - exp(-N sigma0 / A) with sigma0 the resonant cross section and A the
    beam area.  N = 0 is allowed and gives 0.
    """
    if atoms_interaction < 0.0:
        raise ValueError("atom count must be >= 0")
    depth = atoms_interaction * absorption_cross_section_m2(wavelength_m) / beam_area_m2(waist_m)
    return 1.0 - math.exp(-depth)


def collective_coupling_mhz(atoms_ensemble: float, coupling_mhz: float) -> float:
    """Collectively enhanced coupling sqrt(N) g0."""
    if atoms_ensemble < 1.0:
        raise ValueError("need at least one atom")
    return math.sqrt(atoms_ensemble) * coupling_mhz


def p_double_excitation(atoms_ensemble: float, coupling_mhz: float, blockade_mhz: float) -> float:
    """Double-excitation probability (N - 1) g0^2 / (2 B^2).

    Written with the collective coupling gN = sqrt(N) g0 this is
    (N - 1) gN^2 / (2 N B^2); the N cancels against gN^2.
    """
    if atoms_ensemble < 2.0:
        raise ValueError("double excitation needs at least two atoms")
    if coupling_mhz <= 0.0 or blockade_mhz <= 0.0:
        raise ValueError("coupling and blockade shift must be positive")
    return (atoms_ensemble - 1.0) * coupling_mhz**2 / (2.0 * blockade_mhz**2)


def coupling_for_double_target(atoms_ensemble: float, blockade_mhz: float,
                               p_double: float) -> float:
    """Back-solve g0 from a quoted double-excitation probability."""
    if not 0.0 < p_double < 1.0:
        raise ValueError("target probability must be in (0, 1)")
    return blockade_mhz * math.sqrt(2.0 * p_double / (atoms_ensemble - 1.0))


def p_dark_count(dark_count_rate_hz: float, protocol_time_s: float,
                 success_probability: float) -> float:
    """Dark-count probability over the effective exposure t / p_success."""
    if dark_count_rate_hz < 0.0:
        raise ValueError("dark count rate must be >= 0")
    if protocol_time_s < 0.0:
        raise ValueError("protocol time must be >= 0")
    if success_probability <= 0.0:
        raise ValueError("success probability must be > 0")
    return 1.0 - math.exp(-dark_count_rate_hz * protocol_time_s / success_probability)


def mean_thermal_speed_m_s(temperature_k: float, atom_mass_kg: float) -> float:
    if temperature_k < 0.0:
        raise ValueError("temperature must be >= 0")
    if atom_mass_kg <= 0.0:
        raise ValueError("mass must be positive")
    return math.sqrt(3.0 * BOLTZMANN_J_PER_K * temperature_k / atom_mass_kg)


def collision_rate_si(density_m3: float, cross_section_m2: float, atom_mass_kg: float,
                      temperature_k: float) -> float:
    """Background collision rate n sigma v with v = sqrt(3 kB T / M), SI inputs."""
    if density_m3 < 0.0 or cross_section_m2 < 0.0:
        raise ValueError("density and cross section must be >= 0")
    speed = mean_thermal_speed_m_s(temperature_k, atom_mass_kg)
    return density_m3 * cross_section_m2 * speed


def collision_rate(density_cm3: float, cross_section_cm2: float, atom_mass_kg: float,
                   temperature_k: float) -> float:
    """Same as :func:`collision_rate_si` but with the customary cm-based inputs."""
    return collision_rate_si(
        density_cm3 * 1.0e6,
        cross_section_cm2 * 1.0e-4,
        atom_mass_kg,
        temperature_k,
    )


def fidelity_estimate(epsilon: float) -> float:
    """First-order heralded fidelity 1 - 2 epsilon for miss probability epsilon."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must be in [0, 0.5], got {epsilon}")
    return 1.0 - 2.0 * epsilon


def fidelity_exact_channel(epsilon: float) -> float:
    """All-orders per-detector herald fidelity (1 - eps) / (1 + eps)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return (1.0 - epsilon) / (1.0 + epsilon)


def _preset(wavelength_m: float, blockade_mhz: float, p_double_target: float) -> BudgetParams:
    atoms = 300.0
    return BudgetParams(
        atoms_interaction=atoms,
        atoms_ensemble=atoms,
        wavelength_m=wavelength_m,
        waist_m=math.pi * wavelength_m,
        coupling_mhz=coupling_for_double_target(atoms, blockade_mhz, p_double_target),
        blockade_mhz=blockade_mhz,
        dark_count_rate_hz=20.0,
        protocol_time_s=5.0e-6,
        success_probability=0.3,
        density_cm3=1.0e12,
        collision_cross_section_cm2=1.0e-14,
        atom_mass_kg=87.0 * ATOMIC_MASS_KG,
        temperature_k=1.0e-3,
    )


def preset(name: str) -> BudgetParams:
    """Bundled parameter sets: 'paper-43d' (weak blockade), 'paper-58d' (strong)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory()


PRESETS = {
    "paper-43d": lambda: _preset(485.766e-9, 0.25, 0.26),
    "paper-58d": lambda: _preset(485.081e-9, 2.9, 0.57e-3),
}


@dataclass(frozen=True)
class BudgetReport:
    """Every mechanism's probability/rate plus the composite fidelity estimate."""

    params: BudgetParams
    p_absorption: float
    epsilon: float
    collective_coupling_mhz_value: float
    p_double_excitation: float
    p_dark_count: float
    collision_rate_hz: float
    p_collision: float
    fidelity_first_order: float
    fidelity_exact: float
    dominant_error: str
    reference_gap: float  # |first-order estimate - quoted reference fidelity|

    def mechanisms(self) -> dict:
        return {
            "absorption_miss": self.epsilon,
            "double_excitation": self.p_double_excitation,
            "dark_count": self.p_dark_count,
            "collision": self.p_collision,
        }

    def to_json_dict(self) -> dict:
        inputs = {f.name: getattr(self.params, f.name) for f in fields(self.params)}
        return {
            "inputs": inputs,
            "derived": {
                "p_absorption": self.p_absorption,
                "epsilon": self.epsilon,
                "collective_coupling_mhz": self.collective_coupling_mhz_value,
                "p_double_excitation": self.p_double_excitation,
                "p_dark_count": self.p_dark_count,
                "collision_rate_hz": self.collision_rate_hz,
                "p_collision": self.p_collision,
                "fidelity_first_order": self.fidelity_first_order,
                "fidelity_exact": self.fidelity_exact,
                "reference_fidelity": REFERENCE_FIDELITY,
                "reference_gap": self.reference_gap,
            },
            "dominant_error": self.dominant_error,
        }


def budget_report(params: BudgetParams) -> BudgetReport:
    """Evaluate every mechanism for one parameter set; deterministic."""
    p_abs = p_absorption(params.atoms_interaction, params.wavelength_m, params.waist_m)
    eps = 1.0 - p_abs
    p2 = p_double_excitation(params.atoms_ensemble, params.coupling_mhz, params.blockade_mhz)
    pdc = p_dark_count(params.dark_count_rate_hz, params.protocol_time_s,
                       params.success_probability)
    col_rate = collision_rate(params.density_cm3, params.collision_cross_section_cm2,
                              params.atom_mass_kg, params.temperature_k)
    # collisions compete over the same duty-cycle-corrected window as dark counts
    p_col = 1.0 - math.exp(-col_rate * params.protocol_time_s / params.success_probability)
    fid = fidelity_estimate(eps)
    report = BudgetReport(
        params=params,
        p_absorption=p_abs,
        epsilon=eps,
        collective_coupling_mhz_value=collective_coupling_mhz(params.atoms_ensemble,
                                                              params.coupling_mhz),
        p_double_excitation=p2,
        p_dark_count=pdc,
        collision_rate_hz=col_rate,
        p_collision=p_col,
        fidelity_first_order=fid,
        fidelity_exact=fidelity_exact_channel(eps),
        dominant_error="",
        reference_gap=abs(fid - REFERENCE_FIDELITY),
    )
    dominant = max(report.mechanisms().items(), key=lambda kv: kv[1])[0]
    return replace(report, dominant_error=dominant)


_INPUT_LABELS = {
    "atoms_interaction": "atoms in interaction volume",
    "atoms_ensemble": "atoms in collective mode",
    "wavelength_m": "wavelength [m]",
    "waist_m": "beam waist [m]",
    "coupling_mhz": "single-atom coupling [MHz] (back-solved)",
    "blockade_mhz": "blockade shift [MHz]",
    "dark_count_rate_hz": "dark-count rate [Hz]",
    "protocol_time_s": "protocol time [s]",
    "success_probability": "herald probability (duty cycle)",
    "density_cm3": "background density [cm^-3]",
    "collision_cross_section_cm2": "collision cross section [cm^2]",
    "atom_mass_kg": "atomic mass [kg]",
    "temperature_k": "temperature [K]",
}


def render_text(report: BudgetReport) -> str:
    """Human-readable budget with one line per input and per mechanism."""
    lines = ["error budget", "", "inputs:"]
    for f in fields(report.params):
        label = _INPUT_LABELS[f.name]
        lines.append(f"  {f.name:<28} {getattr(report.params, f.name):<12.6g} {label}")
    lines += [
        "",
        "derived:",
        f"  {'p_absorption':<28} {report.p_absorption:.6g}",
        f"  {'epsilon (miss)':<28} {report.epsilon:.6g}",
        f"  {'collective coupling [MHz]':<28} {report.collective_coupling_mhz_value:.6g}",
        f"  {'p_double_excitation':<28} {report.p_double_excitation:.6g}",
        f"  {'p_dark_count':<28} {report.p_dark_count:.6g}",
        f"  {'collision rate [Hz]':<28} {report.collision_rate_hz:.6g}",
        f"  {'p_collision (per window)':<28} {report.p_collision:.6g}",
        f"  {'fidelity (first order)':<28} {report.fidelity_first_order:.6g}",
        f"  {'fidelity (exact channel)':<28} {report.fidelity_exact:.6g}",
        "",
        f"dominant error: {report.dominant_error}",
        f"reference fidelity {REFERENCE_FIDELITY} differs from first-order estimate "
        f"by {report.reference_gap:.4f}",
    ]
    return "\n".join(lines) + "\n"
