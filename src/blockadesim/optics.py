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

Detection: detectors are threshold detectors, the regular photodetectors the
protocol needs.  ``DetectorModel`` folds quantum efficiency and a Poissonian
dark count within the gate window into a click / no-click POVM on the
occupation number.  One detector's outcome is ``False`` (no click) or
``True`` (click); a joint outcome is a tuple of them, one per detected mode
in order.  The POVM is diagonal in the occupations, so joint detection splits
into three costs, each paid once:

* per grouping (the state only): ``group_occupations`` splits a pure state
  into pure branches, one per occupation tuple of the detected modes, and
  the ``OccupationGroups`` keeps each branch's norm and ket-bra list the
  first time a detector model asks for them;
* per detector model: ``_pattern_weights`` gives each occupation tuple its
  weight under every click pattern, the Kronecker product of one
  (no click, click) pair per mode;
* per pattern: ``detect_all_probabilities`` sums the weighted branches into
  one normalized density operator, the measured modes left in vacuum;
  ``score_patterns`` instead sums scalars, each pattern's probability and
  its weighted overlaps with pure targets, which is all a fidelity needs.

``detect_outcomes`` conditions a density operator one mode at a time: the
sampler's click distribution, and the joint table's oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .state_algebra import (
    ATOL_STATE,
    DensityOperator,
    HybridState,
    require_density,
    require_mode,
)


@dataclass(frozen=True)
class DetectorModel:
    """Threshold photodetector: efficiency and dark counts over one gate window.

    ``dark_count_rate_hz`` and ``gate_time_s`` enter only through the
    per-window dark click probability 1 - exp(-rate * time).
    """

    efficiency: float = 1.0
    dark_count_rate_hz: float = 0.0
    gate_time_s: float = 5e-6

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


@lru_cache(maxsize=None)
def _splitter_column(m: int, n: int) -> tuple:
    """Output amplitudes for Fock input |m, n>.

    Expanding ((a_j+ + i a_i+)/sqrt2)^m ((a_i+ + i a_j+)/sqrt2)^n |0,0>
    term by term gives, for output |p, q> with p + q = m + n,

        amp = sqrt(p! q! / (m! n!)) 2^{-(m+n)/2}
              * sum_k C(m, k) C(n, p - k) i^{2k + n - p}

    Returns a tuple of ((p, q), amplitude) with exact-zero entries dropped.
    """
    total = m + n
    out = []
    for p in range(total + 1):
        q = total - p
        acc = 0.0 + 0.0j
        for k in range(max(0, p - n), min(m, p) + 1):
            l = p - k
            acc += math.comb(m, k) * math.comb(n, l) * 1j ** (k + n - l)
        if acc == 0:
            continue
        amp = acc * math.sqrt(math.factorial(p) * math.factorial(q)
                              / (math.factorial(m) * math.factorial(n))) / 2 ** (total / 2)
        out.append(((p, q), amp))
    return tuple(out)


def beam_splitter(state: HybridState, mode_i: int, mode_j: int) -> HybridState:
    """Balanced splitter on two modes of a pure state (see module docstring).

    Raises if any produced occupation would exceed a mode cutoff: losing
    probability silently is never acceptable here.
    """
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    cut_i = require_mode(state, mode_i).cutoff
    cut_j = require_mode(state, mode_j).cutoff
    out = {}
    for key, amp in state._amps.items():
        m, n = key[mode_i], key[mode_j]
        for (p, q), coeff in _splitter_column(m, n):
            if p > cut_i or q > cut_j:
                raise ValueError(
                    f"beam splitter output |{p},{q}> exceeds cutoffs "
                    f"({cut_i},{cut_j}); raise the mode cutoff"
                )
            new = list(key)
            new[mode_i] = p
            new[mode_j] = q
            new = tuple(new)
            out[new] = out.get(new, 0.0) + amp * coeff
    return HybridState._trusted(state.subsystems, out)


def phase_shift(state: HybridState, mode: int, phi: float) -> HybridState:
    """|n> -> exp(i n phi) |n> on one mode."""
    phases = [complex(math.cos(n * phi), math.sin(n * phi))
              for n in range(require_mode(state, mode).cutoff + 1)]
    return HybridState._trusted(state.subsystems, {
        key: amp * phases[key[mode]] for key, amp in state._amps.items()})


def _click_pair(det: DetectorModel, n: int) -> tuple:
    """POVM weights on |n><n| as (no click, click); a click outcome indexes it."""
    # no click  =  no dark count  AND  every real photon missed
    p = 1.0 - (1.0 - det.dark_click_probability) * (1.0 - det.efficiency) ** n
    return (1.0 - p, p)


def detect_outcomes(rho: DensityOperator, mode: int, det: DetectorModel) -> list:
    """All single-detector outcomes on one mode of a density operator.

    Returns ``[(click, probability, post_state_or_None), ...]`` in the order
    no click (``False``), click (``True``).  Post states are normalized
    density operators with the measured mode reset to vacuum; outcomes of
    probability zero carry ``None``.  Probabilities sum to the input trace.
    """
    rho = require_density(rho)
    sub = require_mode(rho, mode)
    weights = [_click_pair(det, n) for n in range(sub.cutoff + 1)]

    results = []
    for outcome in (False, True):
        prob = 0.0
        elems = {}
        for (ket, bra), v in rho.elements.items():
            n = ket[mode]
            if bra[mode] != n:
                continue  # occupation coherence dies with the measurement
            w = weights[n][outcome]
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
        factor = complex(1.0 / prob)
        post = DensityOperator._trusted(rho.subsystems,
                                        {pair: factor * v for pair, v in elems.items()})
        results.append((outcome, prob, post))
    return results


@dataclass(frozen=True)
class OccupationGroups:
    """State-only half of joint detection: a pure state split by occupations.

    ``branches`` pairs each occupation tuple of the detected ``modes`` (in
    their order) with the pure branch holding those amplitudes, the detected
    modes reset to vacuum.  ``cutoffs`` are the detected modes' cutoffs,
    which fix the outcome set.  Immutable, so one grouping can serve any
    number of detector models.
    """

    modes: tuple
    cutoffs: tuple
    branches: tuple

    def __len__(self) -> int:
        """Amplitudes over all branches (the support of the grouped state)."""
        return sum(len(branch) for _, branch in self.branches)

    @cached_property
    def products(self) -> tuple:
        """(norm squared, (ket, bra) pairs, their values) per branch, built on first use.

        Every detector model re-weights these, so a grouping builds them
        once; tuples all the way down, as immutable as the grouping.  A pair
        that recurs in several branches is one shared key.
        """
        shared = {}
        return tuple(_branch_product(branch, shared) for _, branch in self.branches)


def _branch_product(branch: HybridState, shared: dict) -> tuple:
    pairs, values = [], []
    for ket, a in branch:
        for bra, b in branch:
            pairs.append(shared.setdefault((ket, bra), (ket, bra)))
            values.append(a * b.conjugate())
    return branch.norm_squared(), tuple(pairs), tuple(values)


def group_occupations(state: HybridState, modes: Sequence) -> OccupationGroups:
    """Group a pure state's amplitudes by the occupations of ``modes``."""
    if not isinstance(state, HybridState):
        raise TypeError(f"expected HybridState, got {type(state).__name__}")
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("detected modes must be distinct")
    if not modes:
        raise ValueError("need at least one mode to detect")
    cutoffs = tuple(require_mode(state, m).cutoff for m in modes)
    grouped = {}
    for key, amp in state:
        new = list(key)
        for m in modes:
            new[m] = 0
        # fixed occupations within a group: the reset keys stay distinct
        grouped.setdefault(tuple(key[m] for m in modes), {})[tuple(new)] = amp
    subs = state.subsystems
    return OccupationGroups(modes, cutoffs, tuple(
        (occ, HybridState._trusted(subs, amps)) for occ, amps in grouped.items()))


def _pattern_weights(det: DetectorModel, cutoffs: Sequence, occupations: Sequence) -> list:
    """Detector-only half of joint detection.

    Returns ``[(clicks, (weight per occupation tuple, ...)), ...]`` over
    every tuple of clicks of detectors on modes with ``cutoffs``, in
    ``itertools.product`` order.  An occupation tuple's weights are the
    Kronecker product of its modes' (no click, click) pairs, multiplied in
    mode order; the last mode varies fastest, as in that order.
    """
    # one detector model watches every mode: its pairs up to the largest cutoff
    pairs = [_click_pair(det, n) for n in range(max(cutoffs, default=0) + 1)]
    rows = []
    for occ in occupations:
        row = [1.0]
        for n in occ:
            row = [w * f for w in row for f in pairs[n]]
        rows.append(row)
    patterns = itertools.product((False, True), repeat=len(cutoffs))
    # zip(*rows) would yield no pattern at all for an empty occupation list
    columns = zip(*rows) if rows else itertools.repeat(())
    return list(zip(patterns, columns))


def detect_all_probabilities(groups: OccupationGroups, det: DetectorModel) -> dict:
    """Joint outcome table for one detector model watching several modes.

    ``groups`` is a ``group_occupations(state, modes)`` or another grouping
    of pure branches, so one grouping serves many detector models.  Returns
    ``{clicks: (probability, post_state_or_None)}`` over every tuple of
    clicks, one bool per mode in the order of ``groups.modes``;
    probabilities sum to the grouped state's norm.  Post states are
    normalized density operators over the branches' register, every
    measured mode reset to vacuum.
    """
    if not isinstance(groups, OccupationGroups):
        raise TypeError(f"expected OccupationGroups, got {type(groups).__name__}")
    products = groups.products
    table = _pattern_weights(det, groups.cutoffs, [occ for occ, _ in groups.branches])
    out = {}
    for pattern, weights in table:
        prob = 0.0
        elems = {}
        get = elems.get
        for w, (norm, pairs, values) in zip(weights, products):
            if w == 0.0:
                continue
            prob += w * norm
            for pair, v in zip(pairs, values):
                elems[pair] = get(pair, 0.0) + w * v
        if prob <= ATOL_STATE:
            out[pattern] = (0.0, None)
        else:
            factor = complex(1.0 / prob)
            out[pattern] = (prob, DensityOperator._trusted(
                groups.branches[0][1].subsystems, {pair: factor * v for pair, v in elems.items()}))
    return out


def score_patterns(groups: OccupationGroups, det: DetectorModel, targets: Sequence) -> dict:
    """Joint detection by scalars: each click pattern's probability and target overlaps.

    The branches b_g of ``groups`` mix incoherently, so under a pattern with
    weights w_g a pure target t needs no density operator (Jozsa, J. Mod.
    Opt. 41, 2315 (1994)): the probability is sum_g w_g ||b_g||^2, summed in
    the order ``detect_all_probabilities`` uses and zeroed below the same
    threshold, and the probability times the fidelity to t is sum_g w_g
    |<t|b_g>|^2.  Returns ``{clicks: (probability, (that sum per target in
    targets order, ...))}`` over every tuple of clicks.
    """
    if not isinstance(groups, OccupationGroups):
        raise TypeError(f"expected OccupationGroups, got {type(groups).__name__}")
    branches = [branch for _, branch in groups.branches]
    # one column of norms, then one of overlaps per target: one running sum each
    columns = [[branch.norm_squared() for branch in branches]] + [
        [abs(t.inner(branch)) ** 2 for branch in branches] for t in targets]
    table = _pattern_weights(det, groups.cutoffs, [occ for occ, _ in groups.branches])
    zeros = (0.0,) * len(targets)
    out = {}
    for pattern, weights in table:
        sums = []
        for column in columns:
            total = 0.0
            for w, value in zip(weights, column):
                if w != 0.0:
                    total += w * value
            sums.append(total)
        out[pattern] = (0.0, zeros) if sums[0] <= ATOL_STATE else (sums[0], tuple(sums[1:]))
    return out
