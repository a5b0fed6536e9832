import blockadesim


def test_every_exported_name_resolves():
    # growth's names are served by the module-level __getattr__ on first use
    assert {"GrowthPolicy", "expected_cost_markov", "simulate_growth"} <= set(blockadesim.__all__)
    assert len(set(blockadesim.__all__)) == len(blockadesim.__all__)
    for name in blockadesim.__all__:
        assert getattr(blockadesim, name) is not None, name
    namespace = {}
    exec("from blockadesim import *", namespace)
    assert set(blockadesim.__all__) <= set(namespace)
