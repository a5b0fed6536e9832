"""Single-ensemble operations: logical gates, photon absorption, storage transfer.

A logical qubit lives in the ground/storage pair of one ensemble register:
|0> = "g", |1> = "s".  Logical gates refuse to act when the register carries
weight outside that pair, because during the optical protocol the same
register transits "e" and "r1" where the logical gate set is meaningless.

Every map here acts on pure states (``HybridState``) only; a density
operator is formed at the edge, after detection, and never passed back in.

``blockade_absorb`` is the interaction step: an ensemble in "e" coherently
absorbs one photon from a mode and climbs to "r1" with amplitude
sqrt(p_absorption).  A register already in "r1" blocks further absorption
(the blockade), so it commutes with the photon number; "g"/"s" registers are
dark to the interaction light.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .state_algebra import (
    ATOL_STATE,
    EnsembleQudit,
    HybridState,
    OpticalMode,
)

LOGICAL_LEVELS = ("g", "s")

# Storage transfer: the optical pair maps to the storage pair, e -> g and
# r1 -> s; storage labels pass through.
STORAGE_LEVEL_OF = {"e": "g", "r1": "s", "g": "g", "s": "s"}


@dataclass(frozen=True)
class AbsorptionModel:
    """Single number: probability that an excited ensemble absorbs one photon."""

    p_absorption: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p_absorption <= 1.0:
            raise ValueError(f"p_absorption must be in [0, 1], got {self.p_absorption}")


def _require_qudit(state, index: int) -> EnsembleQudit:
    if not isinstance(state, HybridState):
        raise TypeError(f"expected HybridState, got {type(state).__name__}")
    subs = state.subsystems
    if not 0 <= index < len(subs):
        raise ValueError(f"ensemble index {index} out of range")
    sub = subs[index]
    if not isinstance(sub, EnsembleQudit):
        raise ValueError(f"subsystem {index} is not an ensemble register")
    return sub


def _weight_outside_logical(state: HybridState, index: int) -> float:
    return sum(
        (a * a.conjugate()).real
        for k, a in state.amplitudes.items()
        if k[index] not in LOGICAL_LEVELS
    )


def _apply_level_map(state: HybridState, index: int, level_map: dict) -> HybridState:
    """Linear map on one ensemble register of a pure state.

    ``level_map`` sends a level to a tuple of (level, coefficient) branches.
    Levels missing from the map pass through unchanged.
    """
    out = {}
    for key, amp in state.amplitudes.items():
        for level, coeff in level_map.get(key[index], ((key[index], 1.0),)):
            new = key[:index] + (level,) + key[index + 1:]
            out[new] = out.get(new, 0.0) + coeff * amp
    return HybridState._trusted(state.subsystems, out)


def _logical_gate(state, index: int, level_map: dict):
    _require_qudit(state, index)
    leak = _weight_outside_logical(state, index)
    if leak > ATOL_STATE:
        raise ValueError(
            f"logical gate on register {index} with weight {leak:.3g} outside g/s"
        )
    return _apply_level_map(state, index, level_map)


def gate_x(state: HybridState, index: int) -> HybridState:
    """Logical bit flip g <-> s."""
    return _logical_gate(state, index, {"g": (("s", 1.0),), "s": (("g", 1.0),)})


def gate_phase(state: HybridState, index: int, phi: float) -> HybridState:
    """Logical rotation about Z: g -> exp(-i phi/2) g, s -> exp(+i phi/2) s."""
    lo = cmath.exp(-0.5j * phi)
    hi = cmath.exp(0.5j * phi)
    return _logical_gate(state, index, {"g": (("g", lo),), "s": (("s", hi),)})


def blockade_absorb(state: HybridState, ensemble: int, mode: int, absorption: AbsorptionModel) -> HybridState:
    """Coherent single-photon absorption on (ensemble, mode), blockade included.

    Branches per basis component:

      ("e", n>=1)  ->  sqrt(p) ("r1", n-1)  +  sqrt(1-p) ("e", n)
      anything else -> unchanged ("r1" blocks, "g"/"s" are dark, n=0 idles)

    Norm-preserving on its whole domain; a component collision (same output
    label fed from two inputs) would break that silently, so it raises.
    """
    _require_qudit(state, ensemble)
    sub_mode = state.subsystems[mode]
    if not isinstance(sub_mode, OpticalMode):
        raise ValueError(f"subsystem {mode} is not an optical mode")
    p = absorption.p_absorption
    amp_take = math.sqrt(p)
    amp_miss = math.sqrt(1.0 - p)
    before = state.norm_squared()
    out = {}
    produced_from = {}
    for key, amp in state.amplitudes.items():
        level, n = key[ensemble], key[mode]
        branches = []
        if level == "e" and n >= 1:
            if amp_take != 0.0:
                taken = list(key)
                taken[ensemble] = "r1"
                taken[mode] = n - 1
                branches.append((tuple(taken), amp_take * amp))
            if amp_miss != 0.0:
                branches.append((key, amp_miss * amp))
        else:
            branches.append((key, amp))
        for new, value in branches:
            src = produced_from.setdefault(new, key)
            if src != key:
                raise ValueError(
                    f"absorption branches collide on {new!r} (from {src!r} and {key!r})"
                )
            out[new] = out.get(new, 0.0) + value
    result = HybridState._trusted(state.subsystems, out)
    if abs(result.norm_squared() - before) > ATOL_STATE:
        raise ValueError("absorption failed to preserve the norm")
    return result


def transfer_to_storage(state: HybridState, index: int) -> HybridState:
    """Map the optical pair to the storage pair: e -> g, r1 -> s.

    Storage labels already present pass through.  This is a relabelling, not
    a unitary on the full qudit: if a relabelled component lands on a label
    another component already occupies, amplitudes would mix, so that case
    raises instead.
    """
    _require_qudit(state, index)
    out = {}
    for key, amp in state.amplitudes.items():
        new = key[:index] + (STORAGE_LEVEL_OF[key[index]],) + key[index + 1:]
        if new in out:
            raise ValueError(
                f"storage transfer collides on {new!r} "
                f"(register {index} holds both optical and storage weight)"
            )
        out[new] = amp
    return HybridState._trusted(state.subsystems, out)
