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
    partial_trace,
)
from .optics import (
    DetectorModel,
    beam_splitter,
    detect_all_probabilities,
    detect_outcomes,
    group_occupations,
    phase_shift,
)
from .ensemble import (
    AbsorptionModel,
    blockade_absorb,
    gate_phase,
    gate_x,
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

__version__ = "0.1.0"


def __getattr__(name):
    # growth loads numpy, so it is imported on first use of one of its names
    if name in ("GrowthPolicy", "expected_cost_markov", "simulate_growth"):
        from . import growth

        return getattr(growth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "HeraldPolicy",
    "HybridState",
    "OpticalMode",
    "beam_splitter",
    "blockade_absorb",
    "budget_report",
    "detect_all_probabilities",
    "detect_outcomes",
    "entangle_pair_exact",
    "entangle_pair_sampled",
    "expected_cost_markov",
    "fidelity",
    "gate_phase",
    "gate_x",
    "ghz4_exact",
    "ghz_success_probability",
    "group_occupations",
    "link_success_probability",
    "partial_trace",
    "phase_shift",
    "preset",
    "simulate_growth",
    "transfer_to_storage",
]
