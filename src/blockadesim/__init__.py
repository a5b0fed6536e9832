"""Desk-scale simulator for heralded ensemble entanglement and cluster growth.

The package splits into exact quantum bookkeeping (``state_algebra``,
``optics``, ``ensemble``), the protocol circuits built on top of it
(``protocol``), an analytic error budget (``budget``), cluster-growth
economics (``growth``), and a command-line front end (``cli``).
"""

from .state_algebra import (
    ATOL_PSD,
    ATOL_STATE,
    DensityOperator,
    EnsembleQudit,
    HybridState,
    OpticalMode,
    fidelity,
    measure_projective,
    partial_trace,
    tensor,
)
from .optics import (
    DetectorModel,
    HeraldPattern,
    beam_splitter,
    detect,
    detect_all_probabilities,
    detect_outcomes,
    phase_shift,
)
from .ensemble import (
    AbsorptionModel,
    blockade_absorb,
    gate_h,
    gate_phase,
    gate_x,
    readout,
    transfer_to_storage,
)
from .protocol import (
    EntangleOutcome,
    GhzOutcome,
    HeraldPolicy,
    entangle_pair_exact,
    entangle_pair_sampled,
    ghz4_exact,
    ghz_success_probability,
    link_success_probability,
)
from .budget import BudgetParams, budget_report, preset
from .growth import (
    GrowthPolicy,
    expected_cost_markov,
    simulate_growth,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL_PSD",
    "ATOL_STATE",
    "AbsorptionModel",
    "BudgetParams",
    "DensityOperator",
    "DetectorModel",
    "EnsembleQudit",
    "EntangleOutcome",
    "GhzOutcome",
    "GrowthPolicy",
    "HeraldPattern",
    "HeraldPolicy",
    "HybridState",
    "OpticalMode",
    "beam_splitter",
    "blockade_absorb",
    "budget_report",
    "detect",
    "detect_all_probabilities",
    "detect_outcomes",
    "entangle_pair_exact",
    "entangle_pair_sampled",
    "expected_cost_markov",
    "fidelity",
    "gate_h",
    "gate_phase",
    "gate_x",
    "ghz4_exact",
    "ghz_success_probability",
    "link_success_probability",
    "measure_projective",
    "partial_trace",
    "phase_shift",
    "preset",
    "readout",
    "simulate_growth",
    "tensor",
    "transfer_to_storage",
]
