import blockadesim

PUBLIC_API = [
    "ATOL_PSD", "ATOL_STATE", "AbsorptionModel", "BudgetParams", "DensityOperator",
    "DetectorModel", "EnsembleQudit", "EntangleOutcome", "GhzOutcome", "GrowthPolicy",
    "HeraldPolicy", "HybridState", "OpticalMode", "beam_splitter", "blockade_absorb",
    "budget_report", "detect_all_probabilities", "detect_outcomes", "entangle_pair_exact",
    "entangle_pair_sampled", "expected_cost_markov", "fidelity", "gate_phase", "gate_x",
    "ghz4_exact", "ghz_success_probability", "group_occupations", "link_success_probability",
    "partial_trace", "phase_shift", "preset", "simulate_growth", "transfer_to_storage",
]


def test_every_exported_name_resolves():
    # the exact list: a name that only the tests use must not be exported
    assert blockadesim.__all__ == PUBLIC_API
    # every name is served by the module-level __getattr__ on first use
    for name in blockadesim.__all__:
        assert getattr(blockadesim, name) is not None, name
    namespace = {}
    exec("from blockadesim import *", namespace)
    assert set(blockadesim.__all__) <= set(namespace)
    assert set(blockadesim.__all__) <= set(dir(blockadesim))
