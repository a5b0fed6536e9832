import math

import numpy as np
import pytest

from blockadesim.state_algebra import (
    ATOL_STATE,
    DensityOperator,
    EnsembleQudit,
    HybridState,
    OpticalMode,
    fidelity,
    partial_trace,
    same_structure,
)
from helpers import (
    assert_valid,
    basis_iter,
    basis_labels,
    element,
    min_eigenvalue,
    random_register,
    random_state,
    tensor,
)

RT2 = 1.0 / math.sqrt(2.0)


def pair():
    return (EnsembleQudit("A"), OpticalMode(2, "m"))


def test_subsystem_basics():
    q = EnsembleQudit("A")
    assert basis_labels(q) == ("g", "e", "s", "r1")
    assert [q.label_index(label) for label in basis_labels(q)] == [0, 1, 2, 3]
    assert q.label_index("s") == 2
    with pytest.raises(ValueError):
        q.label_index("r2")

    m = OpticalMode(2, "m")
    assert basis_labels(m) == (0, 1, 2)
    assert [m.label_index(label) for label in basis_labels(m)] == [0, 1, 2]
    with pytest.raises(ValueError):
        m.label_index(3)
    assert m.label_index(np.int64(1)) == 1
    for label in ("one", 1.0, True):
        with pytest.raises(ValueError):
            m.label_index(label)
    with pytest.raises(ValueError):
        OpticalMode(0)


def test_state_construction_and_zero_dropping():
    st = HybridState(pair(), {("g", 0): 0.6, ("e", 1): 0.0, ("s", 2): 0.8})
    assert len(st) == 2
    assert st.amplitude(("e", 1)) == 0.0
    assert st.amplitude(("g", 0)) == pytest.approx(0.6)
    assert abs(st.norm() - 1.0) < ATOL_STATE

    with pytest.raises(ValueError):
        HybridState(pair(), {("g",): 1.0})  # wrong arity
    with pytest.raises(ValueError):
        HybridState(pair(), {("x", 0): 1.0})  # bad level
    with pytest.raises(ValueError):
        HybridState(pair(), {("g", 5): 1.0})  # over cutoff
    with pytest.raises(ValueError):
        HybridState((), {})


def test_normalized_and_scaled():
    st = HybridState(pair(), {("g", 0): 3.0, ("s", 0): 4.0})
    assert st.norm() == pytest.approx(5.0)
    unit = st.normalized()
    assert abs(unit.norm() - 1.0) < ATOL_STATE
    assert unit.amplitude(("g", 0)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        HybridState(pair(), {}).normalized()


def test_inner_product_and_structure():
    a = HybridState(pair(), {("g", 0): RT2, ("s", 1): 1j * RT2})
    b = HybridState(pair(), {("g", 0): 1.0})
    assert a.inner(b) == pytest.approx(RT2)
    assert b.inner(a) == pytest.approx(RT2)
    assert a.inner(a) == pytest.approx(1.0)
    other = HybridState((EnsembleQudit("B"), OpticalMode(2, "m")), {("g", 0): 1.0})
    assert not same_structure(a, other)
    with pytest.raises(ValueError):
        a.inner(other)


def test_inner_product_random_cauchy_schwarz():
    rng = np.random.default_rng(101)
    for _ in range(100):
        subs = random_register(rng)
        a = random_state(rng, subs)
        b = random_state(rng, subs)
        ip = a.inner(b)
        assert abs(ip) <= 1.0 + 1e-12
        assert abs(a.inner(a) - 1.0) < ATOL_STATE
        # conjugate symmetry
        assert abs(ip - b.inner(a).conjugate()) < ATOL_STATE


def test_tensor_product():
    rng = np.random.default_rng(33)
    for _ in range(50):
        a = random_state(rng, (EnsembleQudit("A"),))
        b = random_state(rng, (OpticalMode(2, "m"),))
        t = tensor(a, b)
        assert len(t.subsystems) == 2
        assert abs(t.norm() - 1.0) < ATOL_STATE
        k_a = next(iter(a.amplitudes))
        k_b = next(iter(b.amplitudes))
        expected = a.amplitudes[k_a] * b.amplitudes[k_b]
        assert abs(t.amplitude(k_a + k_b) - expected) < ATOL_STATE


def test_density_from_pure_and_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = random_state(rng, random_register(rng))
        rho = DensityOperator.from_pure(st)
        assert abs(rho.trace() - 1.0) < ATOL_STATE
        assert_valid(rho)
        # fidelity of a pure state with itself
        assert fidelity(rho, st) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_matches_overlap_squared():
    # independent oracle: for rho = |a><a|, F(rho, b) = |<b|a>|^2
    rng = np.random.default_rng(17)
    for _ in range(100):
        subs = random_register(rng)
        a = random_state(rng, subs)
        b = random_state(rng, subs)
        assert fidelity(DensityOperator.from_pure(a), b) == pytest.approx(
            abs(b.inner(a)) ** 2, abs=1e-12)


def test_density_mixture():
    a = HybridState(pair(), {("g", 0): 1.0})
    b = HybridState(pair(), {("s", 1): 1.0})
    rho = DensityOperator.mixture([(0.25, DensityOperator.from_pure(a)),
                               (0.75, DensityOperator.from_pure(b))])
    assert element(rho, ("g", 0), ("g", 0)) == pytest.approx(0.25)
    assert element(rho, ("s", 1), ("s", 1)) == pytest.approx(0.75)
    assert element(rho, ("g", 0), ("s", 1)) == 0.0
    assert_valid(rho)
    assert fidelity(rho, b) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        DensityOperator.mixture([])


def test_assert_valid_catches_bad_operators():
    subs = pair()
    # trace != 1
    bad_trace = DensityOperator(subs, {((("g", 0)), (("g", 0))): 0.5})
    with pytest.raises(ValueError):
        assert_valid(bad_trace)
    # non-hermitian
    bad_herm = DensityOperator(subs, {
        (("g", 0), ("g", 0)): 0.5,
        (("s", 0), ("s", 0)): 0.5,
        (("g", 0), ("s", 0)): 0.3,
        (("s", 0), ("g", 0)): -0.3,
    })
    with pytest.raises(ValueError):
        assert_valid(bad_herm)
    # hermitian, trace 1, but indefinite
    bad_psd = DensityOperator(subs, {
        (("g", 0), ("g", 0)): 0.2,
        (("s", 0), ("s", 0)): 0.8,
        (("g", 0), ("s", 0)): 0.5,
        (("s", 0), ("g", 0)): 0.5,
    })
    assert min_eigenvalue(bad_psd) < -1e-6
    with pytest.raises(ValueError):
        assert_valid(bad_psd)


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a = random_state(rng, (EnsembleQudit("A"),))
        b = random_state(rng, (OpticalMode(2, "m"),))
        joint = DensityOperator.from_pure(tensor(a, b))
        reduced = partial_trace(joint, (0,))
        assert abs(reduced.trace() - 1.0) < ATOL_STATE
        assert fidelity(reduced, a) == pytest.approx(1.0, abs=1e-12)
        reduced_b = partial_trace(joint, (1,))
        assert fidelity(reduced_b, b) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bell_pair_is_maximally_mixed():
    subs = (EnsembleQudit("A"), EnsembleQudit("B"))
    bell = HybridState(subs, {("g", "g"): RT2, ("s", "s"): RT2})
    reduced = partial_trace(DensityOperator.from_pure(bell), (0,))
    assert element(reduced, ("g",), ("g",)) == pytest.approx(0.5)
    assert element(reduced, ("s",), ("s",)) == pytest.approx(0.5)
    assert element(reduced, ("g",), ("s",)) == 0.0
    assert_valid(reduced)


def test_partial_trace_preserves_trace_on_randoms():
    rng = np.random.default_rng(23)
    for _ in range(50):
        subs = random_register(rng, max_subsystems=3)
        if len(subs) < 2:
            continue
        rho = DensityOperator.from_pure(random_state(rng, subs))
        keep = (0,) if len(subs) == 2 else (0, 2)
        reduced = partial_trace(rho, keep)
        assert abs(reduced.trace() - 1.0) < 1e-10
        assert_valid(reduced, atol=1e-10)


def test_partial_trace_validation():
    rho = DensityOperator.from_pure(HybridState.basis(pair(), ("g", 0)))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


def test_basis_iter_covers_product_space():
    subs = (EnsembleQudit("A"), OpticalMode(1, "m"))
    keys = list(basis_iter(subs))
    assert len(keys) == 4 * 2
    assert ("g", 0) in keys and ("r1", 1) in keys
