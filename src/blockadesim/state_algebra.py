"""Sparse exact state algebra for hybrid ensemble/photon registers.

Everything downstream works in a tiny Hilbert space: a handful of four-level
collective ensemble registers and photon modes with a hard occupation cutoff.
States are sparse maps from basis-label tuples to complex amplitudes, so the
protocol circuits stay exact (no truncation error, only float rounding) and
cheap enough to enumerate outcome by outcome.

Public constructors validate every label.  Operations that build new keys
from the keys of an existing (already validated) state use the internal
``_trusted`` constructors instead, which skip that check.

Two numeric tolerances are pinned here: ``ATOL_STATE`` for algebraic
identities (norms, traces, hermiticity) and the looser ``ATOL_PSD``, which
bounds the imaginary part ``fidelity`` tolerates and is the eigenvalue floor
of the positivity checks in the tests, where more rounding accumulates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

# Algebraic tolerance: norms, traces, hermiticity, unitarity.
ATOL_STATE = 1e-12

# Largest imaginary part of a fidelity, and the eigenvalue floor when the
# tests assert positive semidefiniteness.
ATOL_PSD = 1e-10

# Collective levels of one blockaded ensemble: shared ground state, the
# optically excited state, the long-lived storage state, and the singly
# occupied upper level (double occupation is blockaded, hence no "r2").
ENSEMBLE_LEVELS = ("g", "e", "s", "r1")

Label = Union[str, int]
LabelTuple = tuple
KetBra = tuple


@dataclass(frozen=True)
class EnsembleQudit:
    """Four-level register held by one atomic ensemble."""

    name: str = ""

    def label_index(self, label) -> int:
        try:
            return ENSEMBLE_LEVELS.index(label)
        except ValueError:
            raise ValueError(f"unknown ensemble level {label!r}") from None

    def canonical(self, label):
        self.label_index(label)
        return label


@dataclass(frozen=True)
class OpticalMode:
    """Photon mode with occupation 0..cutoff; exceeding the cutoff is an error."""

    cutoff: int = 2
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.cutoff, int) or self.cutoff < 1:
            raise ValueError(f"mode cutoff must be an integer >= 1, got {self.cutoff!r}")

    def label_index(self, label) -> int:
        try:
            if isinstance(label, bool):
                raise TypeError
            n = operator.index(label)
        except TypeError:
            raise ValueError(f"mode occupation must be an integer, got {label!r}") from None
        if not 0 <= n <= self.cutoff:
            raise ValueError(f"occupation {n} outside cutoff {self.cutoff}")
        return n

    def canonical(self, label):
        n = self.label_index(label)
        return n


Subsystem = Union[EnsembleQudit, OpticalMode]


def _canonical_key(subsystems, key) -> tuple:
    if len(key) != len(subsystems):
        raise ValueError(
            f"label tuple {key!r} has {len(key)} entries for {len(subsystems)} subsystems"
        )
    return tuple(sub.canonical(lab) for sub, lab in zip(subsystems, key))


def _key_sort_index(subsystems, key) -> tuple:
    return tuple(sub.label_index(lab) for sub, lab in zip(subsystems, key))


def same_structure(a, b) -> bool:
    """True when two states/operators share an identical subsystem register."""
    return tuple(a.subsystems) == tuple(b.subsystems)


class HybridState:
    """Sparse pure state over an ordered register of subsystems.

    Amplitudes live in a map from basis-label tuples to complex numbers;
    labels with amplitude exactly zero are absent.  Instances are immutable
    (operations return new states) and are not normalized implicitly; use
    :meth:`normalized` where a unit vector is required.
    """

    __slots__ = ("_subsystems", "_amps")

    def __init__(self, subsystems, amplitudes: Mapping):
        subs = tuple(subsystems)
        if not subs:
            raise ValueError("state needs at least one subsystem")
        amps = {}
        for key, value in amplitudes.items():
            value = complex(value)
            if value == 0:
                continue
            amps[_canonical_key(subs, tuple(key))] = value
        self._subsystems = subs
        self._amps = amps

    @classmethod
    def _trusted(cls, subsystems: tuple, amplitudes: dict) -> "HybridState":
        """Internal: skip label validation for keys built from validated keys.

        ``subsystems`` must be a tuple and the values complex; exact zeros
        are still dropped.
        """
        state = object.__new__(cls)
        state._subsystems = subsystems
        state._amps = {k: v for k, v in amplitudes.items() if v != 0}
        return state

    @classmethod
    def basis(cls, subsystems, key) -> "HybridState":
        return cls(subsystems, {tuple(key): 1.0})

    @property
    def subsystems(self) -> tuple:
        return self._subsystems

    @property
    def amplitudes(self) -> Mapping:
        return MappingProxyType(self._amps)

    def amplitude(self, key) -> complex:
        return self._amps.get(_canonical_key(self._subsystems, tuple(key)), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._amps)

    def __iter__(self) -> Iterator:
        return iter(self._amps.items())

    def norm_squared(self) -> float:
        return float(sum((a * a.conjugate()).real for a in self._amps.values()))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "HybridState":
        n = self.norm()
        if n <= ATOL_STATE:
            raise ValueError("cannot normalize a (numerically) zero state")
        return self.scaled(1.0 / n)

    def scaled(self, factor) -> "HybridState":
        factor = complex(factor)
        return HybridState._trusted(self._subsystems, {k: factor * a for k, a in self._amps.items()})

    def add(self, other: "HybridState") -> "HybridState":
        if not same_structure(self, other):
            raise ValueError("cannot add states over different registers")
        amps = dict(self._amps)
        for k, a in other._amps.items():
            amps[k] = amps.get(k, 0.0) + a
        return HybridState._trusted(self._subsystems, amps)

    def inner(self, other: "HybridState") -> complex:
        """<self|other>, conjugate-linear in self."""
        if not same_structure(self, other):
            raise ValueError("cannot take inner product over different registers")
        mine, theirs = self._amps, other._amps
        if len(theirs) < len(mine):
            return complex(sum(mine[k].conjugate() * v for k, v in theirs.items() if k in mine))
        return complex(sum(v.conjugate() * theirs[k] for k, v in mine.items() if k in theirs))

    def sorted_items(self) -> list:
        return sorted(
            self._amps.items(),
            key=lambda item: _key_sort_index(self._subsystems, item[0]),
        )

    def allclose(self, other: "HybridState", atol: float = ATOL_STATE) -> bool:
        if not same_structure(self, other):
            return False
        keys = set(self._amps) | set(other._amps)
        return all(
            abs(self._amps.get(k, 0.0) - other._amps.get(k, 0.0)) <= atol for k in keys
        )

    def __repr__(self) -> str:
        parts = [f"{a:.4g}*|{','.join(map(str, k))}>" for k, a in self.sorted_items()[:6]]
        if len(self._amps) > 6:
            parts.append("...")
        return f"HybridState({' + '.join(parts) or '0'})"


class DensityOperator:
    """Sparse density operator over the same labelled register as HybridState.

    Stored as a map (ket_labels, bra_labels) -> complex.  Not normalized
    implicitly; channels that condition on outcomes divide by the outcome
    probability explicitly.
    """

    __slots__ = ("_subsystems", "_elems")

    def __init__(self, subsystems, elements: Mapping):
        subs = tuple(subsystems)
        if not subs:
            raise ValueError("operator needs at least one subsystem")
        elems = {}
        for (ket, bra), value in elements.items():
            value = complex(value)
            if value == 0:
                continue
            pair = (_canonical_key(subs, tuple(ket)), _canonical_key(subs, tuple(bra)))
            elems[pair] = value
        self._subsystems = subs
        self._elems = elems

    @classmethod
    def _trusted(cls, subsystems: tuple, elements: dict) -> "DensityOperator":
        """Internal: skip label validation for keys built from validated keys.

        ``subsystems`` must be a tuple and the values complex; exact zeros
        are still dropped.
        """
        rho = object.__new__(cls)
        rho._subsystems = subsystems
        rho._elems = {p: v for p, v in elements.items() if v != 0}
        return rho

    @classmethod
    def from_pure(cls, psi: HybridState) -> "DensityOperator":
        elems = {}
        items = list(psi.amplitudes.items())
        for ket, va in items:
            for bra, vb in items:
                elems[(ket, bra)] = va * vb.conjugate()
        return cls._trusted(psi.subsystems, elems)

    @classmethod
    def mixture(cls, components: Iterable) -> "DensityOperator":
        """Weighted sum of (weight, DensityOperator) pairs."""
        total = None
        for weight, part in components:
            term = require_density(part).scaled(weight)
            total = term if total is None else total.add(term)
        if total is None:
            raise ValueError("mixture of zero components")
        return total

    @property
    def subsystems(self) -> tuple:
        return self._subsystems

    @property
    def elements(self) -> Mapping:
        return MappingProxyType(self._elems)

    def scaled(self, factor) -> "DensityOperator":
        factor = complex(factor)
        return DensityOperator._trusted(
            self._subsystems, {p: factor * v for p, v in self._elems.items()}
        )

    def add(self, other: "DensityOperator") -> "DensityOperator":
        if not same_structure(self, other):
            raise ValueError("cannot add operators over different registers")
        elems = dict(self._elems)
        for p, v in other._elems.items():
            elems[p] = elems.get(p, 0.0) + v
        return DensityOperator._trusted(self._subsystems, elems)

    def trace(self) -> complex:
        return complex(sum(v for (k, b), v in self._elems.items() if k == b))

    def expectation(self, psi: HybridState) -> complex:
        """<psi| rho |psi>."""
        if not same_structure(self, psi):
            raise ValueError("state and operator registers differ")
        amps = psi.amplitudes
        acc = 0.0 + 0.0j
        for (ket, bra), v in self._elems.items():
            ak = amps.get(ket)
            if ak is None:
                continue
            ab = amps.get(bra)
            if ab is None:
                continue
            acc += ak.conjugate() * v * ab
        return complex(acc)

    def __repr__(self) -> str:
        return f"DensityOperator({len(self._elems)} elements, trace={self.trace():.4g})"


def require_density(obj) -> DensityOperator:
    if not isinstance(obj, DensityOperator):
        raise TypeError(f"expected DensityOperator, got {type(obj).__name__}")
    return obj


def fidelity(rho: DensityOperator, psi: HybridState) -> float:
    """Pure-target fidelity <psi|rho|psi>; for a pure state phi it is |<psi|phi>|^2."""
    value = require_density(rho).expectation(psi)
    if abs(value.imag) > ATOL_PSD:
        raise ValueError(f"fidelity came out non-real ({value}); operator not hermitian?")
    # clip float dust just outside [0, 1]
    return float(min(max(value.real, 0.0), 1.0))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out all subsystems not listed in ``keep`` (order preserved)."""
    rho = require_density(rho)
    subs = rho.subsystems
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("keep indices must be distinct")
    for i in keep:
        if not 0 <= i < len(subs):
            raise ValueError(f"keep index {i} out of range")
    drop = [i for i in range(len(subs)) if i not in keep]
    if not keep:
        raise ValueError("must keep at least one subsystem")
    new_subs = tuple(subs[i] for i in keep)
    elems = {}
    for (ket, bra), v in rho.elements.items():
        if any(ket[i] != bra[i] for i in drop):
            continue
        pair = (tuple(ket[i] for i in keep), tuple(bra[i] for i in keep))
        elems[pair] = elems.get(pair, 0.0) + v
    return DensityOperator._trusted(new_subs, elems)
