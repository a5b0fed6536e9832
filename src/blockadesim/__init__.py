"""Desk-scale simulator for heralded ensemble entanglement and cluster growth.

The package splits into exact quantum bookkeeping (``state_algebra``,
``optics``, ``ensemble``), the protocol circuits built on top of it
(``protocol``), the closed-form chain and link success rates (``rates``),
an analytic error budget (``budget``), cluster-growth economics
(``growth``), and a command-line front end (``cli``).

Importing the package loads none of them: each exported name imports its
module on first use, so a program loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# module of each exported name
_MODULE_OF = {
    **dict.fromkeys(("ATOL_PSD", "ATOL_STATE", "DensityOperator", "EnsembleQudit",
                     "HybridState", "OpticalMode", "fidelity", "partial_trace"),
                    "state_algebra"),
    **dict.fromkeys(("DetectorModel", "beam_splitter", "detect_all_probabilities",
                     "detect_outcomes", "group_occupations", "phase_shift"), "optics"),
    **dict.fromkeys(("AbsorptionModel", "blockade_absorb", "gate_phase", "gate_x",
                     "transfer_to_storage"), "ensemble"),
    **dict.fromkeys(("EntangleOutcome", "GhzOutcome", "HeraldPolicy", "entangle_pair_exact",
                     "entangle_pair_sampled", "ghz4_exact"), "protocol"),
    **dict.fromkeys(("ghz_success_probability", "link_success_probability"), "rates"),
    **dict.fromkeys(("BudgetParams", "budget_report", "preset"), "budget"),
    **dict.fromkeys(("GrowthPolicy", "expected_cost_markov", "simulate_growth"), "growth"),
}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


# every exported name, sorted (tests/test_package.py pins the list)
__all__ = sorted(_MODULE_OF)
