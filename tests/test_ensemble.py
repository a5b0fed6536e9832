import math

import numpy as np
import pytest

from blockadesim.ensemble import (
    AbsorptionModel,
    blockade_absorb,
    gate_phase,
    gate_x,
    transfer_to_storage,
)
from blockadesim.optics import beam_splitter
from blockadesim.state_algebra import (
    DensityOperator,
    EnsembleQudit,
    HybridState,
    OpticalMode,
)
from helpers import random_logical_state, random_state, tensor

RT2 = 1.0 / math.sqrt(2.0)


def logical_register(n=1):
    return tuple(EnsembleQudit(f"E{i}") for i in range(n))


def test_absorption_model_validation():
    with pytest.raises(ValueError):
        AbsorptionModel(1.2)
    with pytest.raises(ValueError):
        AbsorptionModel(-0.1)
    # p = 0 is a legal degenerate point: the absorb map becomes the identity
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState.basis(subs, ("e", 1))
    assert blockade_absorb(st, 0, 1, AbsorptionModel(0.0)).allclose(st)


def test_gate_x_frozen():
    subs = logical_register()
    st = HybridState(subs, {("g",): 0.6, ("s",): 0.8j})
    out = gate_x(st, 0)
    assert abs(out.amplitude(("s",)) - 0.6) < 1e-12
    assert abs(out.amplitude(("g",)) - 0.8j) < 1e-12


def test_gates_are_unitary_on_randoms():
    rng = np.random.default_rng(6)
    for _ in range(100):
        st = random_logical_state(rng, n_registers=2)
        idx = int(rng.integers(2))
        phi = float(rng.uniform(-math.pi, math.pi))
        for out in (gate_x(st, idx), gate_phase(st, idx, phi)):
            assert abs(out.norm() - 1.0) < 1e-12


def test_gate_rejects_leaked_register():
    subs = logical_register()
    st = HybridState(subs, {("g",): RT2, ("e",): RT2})
    with pytest.raises(ValueError, match="outside g/s"):
        gate_x(st, 0)
    with pytest.raises(ValueError):
        gate_phase(st, 0, 0.5)


def test_blockade_absorb_full_absorption_frozen():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState.basis(subs, ("e", 1))
    out = blockade_absorb(st, 0, 1, AbsorptionModel(1.0))
    assert abs(out.amplitude(("r1", 0)) - 1.0) < 1e-12
    assert len(out) == 1


def test_blockade_absorb_partial_frozen():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState.basis(subs, ("e", 1))
    out = blockade_absorb(st, 0, 1, AbsorptionModel(0.64))
    assert abs(out.amplitude(("r1", 0)) - 0.8) < 1e-12
    assert abs(out.amplitude(("e", 1)) - 0.6) < 1e-12


def test_blockade_absorb_blockaded_and_dark_components_idle():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    absorption = AbsorptionModel(0.9)
    for key in (("r1", 1), ("r1", 2), ("g", 1), ("s", 1), ("e", 0)):
        st = HybridState.basis(subs, key)
        out = blockade_absorb(st, 0, 1, absorption)
        assert out.allclose(st, atol=1e-12), key


def test_blockade_absorb_preserves_norm_on_randoms():
    # restrict the register to {g, s, r1}: "e" amplitudes may interfere with
    # pre-existing weight on the branch targets, which the map must reject
    rng = np.random.default_rng(7)
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    absorption = AbsorptionModel(0.7)
    for _ in range(100):
        st = random_state(rng, subs, allowed_labels={0: ("g", "s", "r1")})
        out = blockade_absorb(st, 0, 1, absorption)
        assert abs(out.norm() - st.norm()) < 1e-12


def test_blockade_absorb_collision_raises():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState(subs, {("r1", 0): RT2, ("e", 1): RT2})
    with pytest.raises(ValueError, match="collide"):
        blockade_absorb(st, 0, 1, AbsorptionModel(0.5))


def test_blockade_absorb_argument_validation():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState.basis(subs, ("e", 1))
    with pytest.raises(ValueError):
        blockade_absorb(st, 1, 0, AbsorptionModel(1.0))
    with pytest.raises(ValueError):
        blockade_absorb(st, 0, 0, AbsorptionModel(1.0))


@pytest.mark.parametrize("mode", [-1, 9])
def test_blockade_absorb_refuses_a_mode_index_out_of_range_as_the_splitter_does(mode):
    # two registers, then their two ports: mode -1 would alias the last port
    subs = (EnsembleQudit("A"), EnsembleQudit("B"), OpticalMode(2, "port1"),
            OpticalMode(2, "port2"))
    st = HybridState.basis(subs, ("e", "e", 1, 1))
    message = f"mode index {mode} out of range"
    with pytest.raises(ValueError, match=message):
        blockade_absorb(st, 0, mode, AbsorptionModel(0.5))
    with pytest.raises(ValueError, match=message):
        beam_splitter(st, 2, mode)


def test_transfer_to_storage_relabels():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState(subs, {("e", 0): 0.6, ("r1", 1): 0.8})
    out = transfer_to_storage(st, 0)
    assert abs(out.amplitude(("g", 0)) - 0.6) < 1e-12
    assert abs(out.amplitude(("s", 1)) - 0.8) < 1e-12
    # storage labels pass through
    st2 = HybridState(subs, {("g", 0): RT2, ("s", 0): RT2})
    assert transfer_to_storage(st2, 0).allclose(st2, atol=1e-12)


def test_transfer_to_storage_collision_raises():
    subs = (EnsembleQudit("A"),)
    st = HybridState(subs, {("e",): RT2, ("g",): RT2})
    with pytest.raises(ValueError, match="collides"):
        transfer_to_storage(st, 0)


def test_gates_and_transfer_refuse_anything_but_a_pure_state():
    subs = logical_register()
    pure = HybridState.basis(subs, ("g",))
    maps = (gate_x, lambda obj, i: gate_phase(obj, i, 0.5), transfer_to_storage)
    for obj in (DensityOperator.from_pure(pure), [("g",)]):
        for apply in maps:
            with pytest.raises(TypeError):
                apply(obj, 0)


def test_absorb_then_transfer_on_joint_state():
    # one register plus one mode, photon coherently split over two components
    ens = HybridState.basis((EnsembleQudit("A"),), ("e",))
    ph = HybridState((OpticalMode(2, "m"),), {(0,): RT2, (1,): RT2})
    st = tensor(ens, ph)
    out = blockade_absorb(st, 0, 1, AbsorptionModel(1.0))
    assert abs(out.amplitude(("r1", 0)) - RT2) < 1e-12
    assert abs(out.amplitude(("e", 0)) - RT2) < 1e-12
    stored = transfer_to_storage(out, 0)
    assert abs(stored.amplitude(("s", 0)) - RT2) < 1e-12
    assert abs(stored.amplitude(("g", 0)) - RT2) < 1e-12
