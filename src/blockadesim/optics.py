"""Linear optics on labelled photon modes plus a lossy/dark detector model.

Beam splitter convention (fixed once, everywhere): a balanced splitter acting
on modes (i, j) maps the creation operators as

    a_i+  ->  (a_j+ + i a_i+) / sqrt(2)
    a_j+  ->  (a_i+ + i a_j+) / sqrt(2)

i.e. the reflected amplitude picks up the factor i.  With this choice two
indistinguishable photons entering on both ports bunch exactly:

    |1,1>  ->  (i / sqrt(2)) (|0,2> + |2,0>)

``phase_shift`` applies |n> -> exp(i n phi) |n> on one mode.  Interferometers
that need a different relative output phase compose a splitter with an
explicit phase shift instead of switching conventions.

Detection: ``DetectorModel`` folds quantum efficiency and a Poissonian dark
count within the gate window into a POVM on the occupation number.  By
default detectors are threshold (click / no click); ``number_resolving=True``
switches to counting statistics.  Conditioning on an outcome destroys the
coherence between different occupations of the measured mode, so detection
returns density operators even for pure inputs; the measured mode is left in
vacuum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .state_algebra import (
    ATOL_STATE,
    DensityOperator,
    HybridState,
    OpticalMode,
    as_density,
)


@dataclass(frozen=True)
class DetectorModel:
    """Photodetector: efficiency, dark counts over one gate window, resolving flag.

    ``dark_count_rate_hz`` and ``gate_time_s`` enter only through the
    per-window dark click probability 1 - exp(-rate * time).
    """

    efficiency: float = 1.0
    dark_count_rate_hz: float = 0.0
    gate_time_s: float = 5e-6
    number_resolving: bool = False

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if self.dark_count_rate_hz < 0.0:
            raise ValueError("dark count rate must be >= 0")
        if self.gate_time_s <= 0.0:
            raise ValueError("gate time must be > 0")

    @property
    def dark_click_probability(self) -> float:
        return 1.0 - math.exp(-self.dark_count_rate_hz * self.gate_time_s)

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(efficiency=1.0, dark_count_rate_hz=0.0)


@dataclass(frozen=True)
class HeraldPattern:
    """Joint detector record: booleans for threshold detectors, counts otherwise."""

    clicks: tuple

    def __post_init__(self):
        clicks = tuple(self.clicks)
        object.__setattr__(self, "clicks", clicks)
        if not clicks:
            raise ValueError("empty herald pattern")
        kinds = {type(c) for c in clicks}
        if kinds == {bool}:
            return
        if kinds <= {int} and all(c >= 0 for c in clicks):
            return
        raise ValueError(f"pattern entries must be all bool or all counts >= 0: {clicks!r}")

    def __len__(self) -> int:
        return len(self.clicks)

    def __getitem__(self, i):
        return self.clicks[i]

    @property
    def n_clicked(self) -> int:
        return sum(1 for c in self.clicks if c)

    def __repr__(self) -> str:
        body = ",".join("x" if c is True else "." if c is False else str(c) for c in self.clicks)
        return f"<{body}>"


def _require_mode(state, index: int) -> OpticalMode:
    subs = state.subsystems
    if not 0 <= index < len(subs):
        raise ValueError(f"mode index {index} out of range")
    sub = subs[index]
    if not isinstance(sub, OpticalMode):
        raise ValueError(f"subsystem {index} is not an optical mode")
    return sub


@lru_cache(maxsize=None)
def _splitter_column(m: int, n: int, sign: int) -> tuple:
    """Output amplitudes for Fock input |m, n>; sign=-1 gives the inverse splitter.

    Expanding ((a_j+ + s*i a_i+)/sqrt2)^m ((a_i+ + s*i a_j+)/sqrt2)^n |0,0>
    term by term gives, for output |p, q> with p + q = m + n,

        amp = sqrt(p! q! / (m! n!)) 2^{-(m+n)/2}
              * sum_k C(m, k) C(n, p - k) (s*i)^{2k + n - p}

    Returns a tuple of ((p, q), amplitude) with exact-zero entries dropped.
    """
    unit = 1j if sign > 0 else -1j
    total = m + n
    out = []
    for p in range(total + 1):
        q = total - p
        acc = 0.0 + 0.0j
        for k in range(max(0, p - n), min(m, p) + 1):
            l = p - k
            acc += math.comb(m, k) * math.comb(n, l) * unit ** (k + n - l)
        if acc == 0:
            continue
        amp = acc * math.sqrt(math.factorial(p) * math.factorial(q)
                              / (math.factorial(m) * math.factorial(n))) / 2 ** (total / 2)
        out.append(((p, q), amp))
    return tuple(out)


def beam_splitter(state: HybridState, mode_i: int, mode_j: int, *, inverse: bool = False) -> HybridState:
    """Balanced splitter on two modes of a pure state (see module docstring).

    Raises if any produced occupation would exceed a mode cutoff: losing
    probability silently is never acceptable here.
    """
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    sub_i = _require_mode(state, mode_i)
    sub_j = _require_mode(state, mode_j)
    sign = -1 if inverse else 1
    out = {}
    for key, amp in state.amplitudes.items():
        m, n = key[mode_i], key[mode_j]
        for (p, q), coeff in _splitter_column(m, n, sign):
            if p > sub_i.cutoff or q > sub_j.cutoff:
                raise ValueError(
                    f"beam splitter output |{p},{q}> exceeds cutoffs "
                    f"({sub_i.cutoff},{sub_j.cutoff}); raise the mode cutoff"
                )
            new = list(key)
            new[mode_i] = p
            new[mode_j] = q
            new = tuple(new)
            out[new] = out.get(new, 0.0) + amp * coeff
    return HybridState(state.subsystems, out)


def phase_shift(state: HybridState, mode: int, phi: float) -> HybridState:
    """|n> -> exp(i n phi) |n> on one mode."""
    _require_mode(state, mode)
    out = {}
    for key, amp in state.amplitudes.items():
        out[key] = amp * complex(math.cos(key[mode] * phi), math.sin(key[mode] * phi))
    return HybridState(state.subsystems, out)


def _click_probability(det: DetectorModel, n: int) -> float:
    # no click  =  no dark count  AND  every real photon missed
    return 1.0 - (1.0 - det.dark_click_probability) * (1.0 - det.efficiency) ** n


def _count_distribution(det: DetectorModel, n: int) -> list:
    """P(counts = k | n photons): Binomial(n, eta) plus at most one dark count."""
    eta, pd = det.efficiency, det.dark_click_probability
    binom = [math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k) for k in range(n + 1)]
    out = [0.0] * (n + 2)
    for k, b in enumerate(binom):
        out[k] += b * (1.0 - pd)
        out[k + 1] += b * pd
    return out


def _outcome_weights(det: DetectorModel, n: int) -> Mapping:
    """POVM weights on |n><n| keyed by the detector outcome."""
    if det.number_resolving:
        return dict(enumerate(_count_distribution(det, n)))
    p = _click_probability(det, n)
    return {False: 1.0 - p, True: p}


def _possible_outcomes(det: DetectorModel, cutoff: int) -> tuple:
    if det.number_resolving:
        return tuple(range(cutoff + 2))
    return (False, True)


def detect_outcomes(state, mode: int, det: DetectorModel) -> list:
    """All single-detector outcomes on one mode.

    Returns ``[(outcome, probability, post_state_or_None), ...]`` in a fixed
    order (no-click/click, or ascending counts).  Post states are normalized
    density operators with the measured mode reset to vacuum; outcomes of
    probability zero carry ``None``.  Probabilities sum to the input trace.
    """
    rho = as_density(state)
    sub = _require_mode(rho, mode)
    outcomes = _possible_outcomes(det, sub.cutoff)
    weights = {n: _outcome_weights(det, n) for n in range(sub.cutoff + 1)}

    results = []
    for outcome in outcomes:
        prob = 0.0
        elems = {}
        for (ket, bra), v in rho.elements.items():
            n = ket[mode]
            if bra[mode] != n:
                continue  # occupation coherence dies with the measurement
            w = weights[n].get(outcome, 0.0)
            if w == 0.0:
                continue
            new_ket = ket[:mode] + (0,) + ket[mode + 1:]
            new_bra = bra[:mode] + (0,) + bra[mode + 1:]
            elems[(new_ket, new_bra)] = elems.get((new_ket, new_bra), 0.0) + w * v
            if ket == bra:
                prob += w * v.real
        if prob <= ATOL_STATE:
            results.append((outcome, 0.0, None))
            continue
        post = DensityOperator(rho.subsystems, elems).scaled(1.0 / prob)
        results.append((outcome, prob, post))
    return results


def detect(state, mode: int, det: DetectorModel, rng: np.random.Generator) -> tuple:
    """Sample one detector on one mode; returns (HeraldPattern, post_state).

    The post state is the normalized conditional density operator for the
    sampled outcome, with the measured mode left in vacuum.
    """
    options = detect_outcomes(state, mode, det)
    r = rng.random() * sum(p for _, p, _ in options)
    acc = 0.0
    chosen = None
    for outcome, prob, post in options:
        acc += prob
        if r < acc and post is not None:
            chosen = (outcome, post)
            break
    if chosen is None:
        # r landed beyond the accumulated mass by rounding: take the last
        # outcome with support
        chosen = next((o, s) for o, p, s in reversed(options) if s is not None)
    outcome, post = chosen
    return HeraldPattern((outcome,)), post


def detect_all_probabilities(state, modes: Sequence, det: DetectorModel) -> dict:
    """Joint outcome table for one detector model watching several modes.

    Returns ``{HeraldPattern: (probability, post_state_or_None)}`` covering
    the complete outcome set; probabilities sum to the input trace.  Post
    states are normalized with every measured mode reset to vacuum.  Pattern
    entries follow the order of ``modes``.
    """
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("detected modes must be distinct")
    if not modes:
        raise ValueError("need at least one mode to detect")
    rho = as_density(state)
    cutoffs = [_require_mode(rho, m).cutoff for m in modes]
    weights = [
        {n: _outcome_weights(det, n) for n in range(c + 1)} for c in cutoffs
    ]
    patterns = list(itertools.product(*(_possible_outcomes(det, c) for c in cutoffs)))

    # group operator elements by the measured-mode occupations of ket and bra;
    # only occupation-diagonal elements survive any projective photon count
    grouped = {}
    for (ket, bra), v in rho.elements.items():
        occ = tuple(ket[m] for m in modes)
        if tuple(bra[m] for m in modes) != occ:
            continue
        new_ket = list(ket)
        new_bra = list(bra)
        for m in modes:
            new_ket[m] = 0
            new_bra[m] = 0
        entry = grouped.setdefault(occ, ({}, [0.0]))
        pair = (tuple(new_ket), tuple(new_bra))
        entry[0][pair] = entry[0].get(pair, 0.0) + v
        if ket == bra:
            entry[1][0] += v.real

    out = {}
    for pattern in patterns:
        prob = 0.0
        elems = {}
        for occ, (block, block_prob) in grouped.items():
            w = 1.0
            for i, n in enumerate(occ):
                w *= weights[i][n].get(pattern[i], 0.0)
                if w == 0.0:
                    break
            if w == 0.0:
                continue
            prob += w * block_prob[0]
            for pair, v in block.items():
                elems[pair] = elems.get(pair, 0.0) + w * v
        key = HeraldPattern(pattern)
        if prob <= ATOL_STATE:
            out[key] = (0.0, None)
        else:
            out[key] = (prob, DensityOperator(rho.subsystems, elems).scaled(1.0 / prob))
    return out
