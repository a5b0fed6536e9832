"""Heralded entangling protocols built from the optics and ensemble pieces.

Pair entangler
--------------
Two ensembles (A, B) are prepared in "e" and a photon pair |1,1> is sent
through a balanced splitter, one output port per ensemble.  Bunching means
both photons travel together, so after the interaction exactly one ensemble
has absorbed (reaching "r1") while the other keeps its companion photon.
Recombining the ports on a second splitter erases the which-path record and
a single detector click heralds one of two maximally entangled states of the
(e, r1) pair; transfer to storage then yields

    up   click (port 1):  (|s g> - i |g s>) / sqrt(2)
    down click (port 2):  (|s g> + i |g s>) / sqrt(2)

The recombiner is the convention-A splitter followed by a -pi/2 phase trim on
port 1, which puts the two herald branches in the form above with no relative
phase bookkeeping left to the caller.

Imperfect absorption (p_absorption < 1) leaves a both-photons-survive branch
that recombines into |1,1> and can fire either detector, which is what
degrades the heralded fidelity.  Detector inefficiency only shrinks the
herald rate under the default per-detector policy; vetoing on the partner
detector (HeraldPolicy.EXCLUSIVE) instead buys fidelity back at low eta.

Four-qubit chain
----------------
Two pair stages run in parallel and their output ports are cross-recombined
(port 1 with port 3, port 2 with port 4) before detection.  Four two-click
patterns are accepted, with acceptance probability eta^2 / 2.

Accepted patterns and targets
-----------------------------
Neither circuit lists its accepted click patterns or targets by hand; both
follow from the circuit's ideal limit (``_ideal_targets``).  With every
photon absorbed and ideal detectors, each click pattern heralds pure
register branches.  A pattern is accepted when exactly one occupation group
heralds it and that branch is a two-term complementary g/s state of equal
weights.  Such a state is C^dagger |GHZ> up to a global phase, for a local
correction C of bit flips and phases and |GHZ> = (|g..g> + |s..s>) / sqrt(2),
so the normalised branch is the pattern's target.  Since
<GHZ| C rho C^dagger |GHZ> = <C^dagger GHZ| rho |C^dagger GHZ>, scoring a
conditional state against its target scores the corrected state against
|GHZ>, and fidelity ignores the global phase.  The pair entangler's two
single-click patterns give the up and down targets above.

Register reduction
------------------
Both circuits build their modes with ``_register`` (registers first, one port
per ensemble) and detect every port, so one path reduces either to its
registers.  What is computed where:

* per circuit and absorption model (cached, so a sweep over detector models
  pays it once): the pure pre-detection state, and one pass over it that
  moves the registers to the storage basis, groups the amplitudes by the
  occupations of the detected ports and drops the ports, leaving pure
  register branches (``_register_groups``, which keeps only the
  grouping); the grouping builds each branch's norm and ket-bra list the
  first time they are needed;
* per detector model: each occupation tuple's weight under every click
  pattern (``detect_all_probabilities``);
* per pattern: the weighted branches summed into one register density
  operator, which the chain scores and the pair entangler mixes per herald
  (``_HERALDS``).  Only there and in the sampler's sequential oracle are
  density operators made;
* per pattern, by scalars (``entangle_pair_scored``, what the ``entangle``
  command prints): each pattern's probability and weighted overlaps with
  the pair's two targets (``optics.score_patterns``), mixed per herald the
  same way and divided by the herald probability.  The pair's targets are
  built once per process.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .ensemble import (
    STORAGE_LEVEL_OF,
    AbsorptionModel,
    blockade_absorb,
    # unused here, like partial_trace below: perfbench/tracer.py rebinds the names
    gate_phase,
    gate_x,
    transfer_to_storage,
)
from .optics import (
    DetectorModel,
    OccupationGroups,
    beam_splitter,
    detect_all_probabilities,
    detect_outcomes,
    phase_shift,
    score_patterns,
)
# re-exported: callers, perfbench/checks.py among them, import the two
# closed-form rates from protocol too
from .rates import ghz_success_probability, link_success_probability
from .state_algebra import (
    DensityOperator,
    EnsembleQudit,
    HybridState,
    OpticalMode,
    fidelity,
    # unused here, but perfbench/tracer.py traces the reduction layer by
    # rebinding protocol.partial_trace, so the name must stay in this module
    partial_trace,
)

UP = "up"
DOWN = "down"

# recombiner output ports watched by the pair entangler's up and down detectors
PAIR_DETECTED_MODES = (2, 3)


class HeraldPolicy(enum.Enum):
    """How a click record is turned into a herald decision.

    PER_DETECTOR: herald on a click at the detector of interest; the partner
    detector is not consulted.  Matches a setup that simply gates on each
    detector independently.

    EXCLUSIVE: herald only when exactly one detector clicked; coincidences
    are discarded.  Identical at unit efficiency, stricter below it.
    """

    PER_DETECTOR = "per-detector"
    EXCLUSIVE = "exclusive"


# click patterns (up click, down click) mixed, in this order, into each herald
# branch of the pair entangler; a branch is scored against the ideal target of
# its first pattern
_HERALDS = {
    HeraldPolicy.PER_DETECTOR: {UP: ((True, False), (True, True)),
                                DOWN: ((False, True), (True, True))},
    HeraldPolicy.EXCLUSIVE: {UP: ((True, False),), DOWN: ((False, True),)},
}


def _success(policy: HeraldPolicy, table: dict) -> float:
    """Herald probability from a ``{clicks: (probability, ...)}`` table.

    The sum over each pattern that some branch of ``policy`` mixes: a sum of
    non-negative terms, never below 0 as ``1 - p(no click)`` can be.
    """
    patterns = dict.fromkeys(c for branch in _HERALDS[policy].values() for c in branch)
    return sum(table[clicks][0] for clicks in patterns)


def _register(ensembles: str) -> tuple:
    """One qudit per named ensemble, then one two-photon port per ensemble."""
    return (tuple(EnsembleQudit(name) for name in ensembles)
            + tuple(OpticalMode(2, f"port{k}") for k in range(1, len(ensembles) + 1)))


def _pair_stage(state: HybridState, ens_a: int, ens_b: int, mode_a: int, mode_b: int,
                absorption: AbsorptionModel) -> HybridState:
    """Split the photon pair, absorb each port, then recombine (see the module docstring)."""
    state = beam_splitter(state, mode_a, mode_b)
    state = blockade_absorb(state, ens_a, mode_a, absorption)
    state = blockade_absorb(state, ens_b, mode_b, absorption)
    state = beam_splitter(state, mode_a, mode_b)
    return phase_shift(state, mode_a, -math.pi / 2.0)


def pair_pre_detection_state(absorption: AbsorptionModel) -> HybridState:
    """Pure state of (A, B, port1, port2) just before the detectors."""
    state = HybridState.basis(_register("AB"), ("e", "e", 1, 1))
    return _pair_stage(state, 0, 1, 2, 3, absorption)


@dataclass(frozen=True)
class HeraldBranch:
    """One detector's herald branch of the pair protocol."""

    probability: float
    # storage basis, registers (A, B); None when scored by scalars
    conditional_state: Optional[DensityOperator]
    fidelity: Optional[float]


@dataclass(frozen=True)
class EntangleOutcome:
    policy: HeraldPolicy
    success_probability: float
    up: HeraldBranch
    down: HeraldBranch

    @property
    def heralded_fidelity(self) -> Optional[float]:
        """Herald-probability-weighted fidelity over both branches."""
        num = 0.0
        den = 0.0
        for b in (self.up, self.down):
            if b.fidelity is not None:
                num += b.probability * b.fidelity
                den += b.probability
        return num / den if den > 0.0 else None


# (circuit, absorption model) pairs whose grouped branches stay cached.  A
# sweep holds one absorption model fixed, and each circuit's ideal limit
# (_ideal_targets) takes one more entry, so a handful is plenty.
REGISTER_GROUPS_CACHE_SIZE = 4


@lru_cache(maxsize=REGISTER_GROUPS_CACHE_SIZE)
def _register_groups(pre_detection_state, modes: tuple,
                     absorption: AbsorptionModel) -> OccupationGroups:
    """The pre-detection state's occupation groups on ``modes``, as register branches.

    ``pre_detection_state(absorption)`` builds a circuit whose registers
    come first and whose ports are all in ``modes``.  One pass over its
    amplitudes groups them by the ports' occupations, drops the ports (each
    branch's ports are vacuum once measured) and moves every register to
    the storage basis by ``transfer_to_storage``'s rule, which refuses a
    relabelling that would merge two amplitudes.  The grouping is
    immutable and keeps its branch products once built.
    """
    pre = pre_detection_state(absorption)
    subs = pre.subsystems
    n_registers = len(subs) - len(modes)
    grouped = {}
    for key, amp in pre:
        branch = grouped.setdefault(tuple(key[m] for m in modes), {})
        stored = tuple(STORAGE_LEVEL_OF[level] for level in key[:n_registers])
        if stored in branch:
            raise ValueError(f"storage transfer collides on {stored!r} "
                             f"(a register holds both optical and storage weight)")
        branch[stored] = amp
    registers = subs[:n_registers]
    return OccupationGroups(modes, tuple(subs[m].cutoff for m in modes), tuple(
        (occ, HybridState._trusted(registers, amps)) for occ, amps in grouped.items()))


def _ideal_targets(pre_detection_state, modes: tuple) -> dict:
    """{clicks: target} for each click pattern that the circuit's ideal limit accepts.

    The ideal limit is ``AbsorptionModel()`` with ideal detectors; the rule
    and why the normalised branch is the target are in the module docstring.
    """
    heralded = {}
    for occ, branch in _register_groups(pre_detection_state, modes, AbsorptionModel()).branches:
        heralded.setdefault(tuple(n > 0 for n in occ), []).append(branch)
    targets = {}
    for clicks, branches in heralded.items():
        branch = branches[0]
        if len(branches) != 1 or len(branch) != 2:
            continue
        (key_a, a), (key_b, b) = branch
        if (all({x, y} == {"g", "s"} for x, y in zip(key_a, key_b))
                and math.isclose(abs(a), abs(b), rel_tol=1e-12)):
            norm = branch.norm()
            targets[clicks] = HybridState(branch.subsystems, {key_a: a / norm, key_b: b / norm})
    return targets


def entangle_pair_exact(absorption: AbsorptionModel = AbsorptionModel(),
                        detector: DetectorModel = DetectorModel.ideal(),
                        policy: HeraldPolicy = HeraldPolicy.PER_DETECTOR) -> EntangleOutcome:
    """Full outcome enumeration of the heralded pair protocol.

    Each herald branch mixes the click patterns ``_HERALDS`` lists for the
    policy; the conditional states are mixed from the cached register
    branches (see the module docstring), so they hold the two ensembles in
    the storage basis.  Up is scored against the ideal target of the
    (True, False) pattern and down against that of (False, True).
    """
    table = detect_all_probabilities(
        _register_groups(pair_pre_detection_state, PAIR_DETECTED_MODES, absorption), detector)
    targets = _ideal_targets(pair_pre_detection_state, PAIR_DETECTED_MODES)
    branches = {}
    for which, patterns in _HERALDS[policy].items():
        prob = 0.0
        mix = []
        for clicks in patterns:
            p, rho = table[clicks]
            if p > 0.0:
                prob += p
                mix.append((p, rho))
        conditional = fid = None
        if prob > 0.0:
            conditional = DensityOperator.mixture(mix).scaled(1.0 / prob)
            fid = fidelity(conditional, targets[patterns[0]])
        branches[which] = HeraldBranch(
            probability=prob,
            conditional_state=conditional,
            fidelity=fid,
        )

    return EntangleOutcome(
        policy=policy,
        success_probability=_success(policy, table),
        up=branches[UP],
        down=branches[DOWN],
    )


@lru_cache(maxsize=1)
def _pair_targets() -> dict:
    """The pair entangler's ideal targets, built once per process."""
    return _ideal_targets(pair_pre_detection_state, PAIR_DETECTED_MODES)


def entangle_pair_scored(absorption: AbsorptionModel = AbsorptionModel(),
                         detector: DetectorModel = DetectorModel.ideal(),
                         policy: HeraldPolicy = HeraldPolicy.PER_DETECTOR) -> EntangleOutcome:
    """``entangle_pair_exact``'s numbers by scalars, without conditional states.

    Each herald branch sums its ``_HERALDS`` patterns' probabilities and
    weighted overlaps with the branch's target (``optics.score_patterns``)
    and divides the second by the first; ``entangle_pair_exact`` is its
    oracle.  Every branch's ``conditional_state`` is None.
    """
    heralds = _HERALDS[policy]
    targets = _pair_targets()
    scores = score_patterns(
        _register_groups(pair_pre_detection_state, PAIR_DETECTED_MODES, absorption), detector,
        [targets[patterns[0]] for patterns in heralds.values()])
    branches = {}
    for index, (which, patterns) in enumerate(heralds.items()):
        prob = overlap = 0.0
        for clicks in patterns:
            p, overlaps = scores[clicks]
            prob += p
            overlap += overlaps[index]
        # clipped to [0, 1] as state_algebra.fidelity clips
        fid = min(max(overlap / prob, 0.0), 1.0) if prob > 0.0 else None
        branches[which] = HeraldBranch(probability=prob, conditional_state=None, fidelity=fid)
    return EntangleOutcome(
        policy=policy,
        success_probability=_success(policy, scores),
        up=branches[UP],
        down=branches[DOWN],
    )


@dataclass(frozen=True)
class EntangleSampleStats:
    """Monte Carlo herald statistics for the pair protocol."""

    trials: int
    seed: int
    policy: HeraldPolicy
    n_both: int
    n_up_only: int
    n_down_only: int
    n_none: int
    expected_success_probability: float

    @property
    def n_heralds(self) -> int:
        if self.policy is HeraldPolicy.PER_DETECTOR:
            return self.n_both + self.n_up_only + self.n_down_only
        return self.n_up_only + self.n_down_only

    @property
    def herald_rate(self) -> float:
        return self.n_heralds / self.trials


def entangle_pair_sampled(absorption: AbsorptionModel, detector: DetectorModel,
                          seed: int, trials: int,
                          policy: HeraldPolicy = HeraldPolicy.PER_DETECTOR) -> EntangleSampleStats:
    """Sample the joint click record of the pair protocol ``trials`` times.

    The joint distribution is assembled from sequential single-detector
    conditioning (a code path independent of ``entangle_pair_exact``).  The
    four click counts of ``trials`` independent records are one multinomial
    draw from it, so the cost does not grow with ``trials``.
    """
    # the multinomial draw takes an int64 count
    if not 1 <= trials <= 2**63 - 1:
        raise ValueError(f"trials must be in [1, 2^63 - 1], got {trials}")
    import numpy as np  # imported here so that the exact commands never load numpy

    mode_up, mode_down = PAIR_DETECTED_MODES
    rho = DensityOperator.from_pure(pair_pre_detection_state(absorption))
    joint = {(c1, c2): 0.0 for c1 in (False, True) for c2 in (False, True)}
    for c1, p1, post1 in detect_outcomes(rho, mode_up, detector):
        if post1 is None:
            continue
        for c2, p2, _ in detect_outcomes(post1, mode_down, detector):
            joint[(c1, c2)] = p1 * p2

    order = [(True, True), (True, False), (False, True), (False, False)]
    probs = np.array([joint.get(k, 0.0) for k in order])
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"joint click distribution sums to {total}, expected 1")
    # normalised, since numpy refuses pvals whose head sums past 1 by ~1e-12
    counts = np.random.default_rng(seed).multinomial(trials, probs / total)

    if policy is HeraldPolicy.PER_DETECTOR:
        expected = 1.0 - joint[(False, False)]
    else:
        expected = joint[(True, False)] + joint[(False, True)]
    return EntangleSampleStats(
        trials=trials,
        seed=seed,
        policy=policy,
        n_both=int(counts[0]),
        n_up_only=int(counts[1]),
        n_down_only=int(counts[2]),
        n_none=int(counts[3]),
        expected_success_probability=expected,
    )


# ---------------------------------------------------------------------------
# four-qubit chain

# Modes watched by D1..D4: port1, port2, port4, port3 (see ghz4_exact).
GHZ_DETECTED_MODES = (4, 5, 7, 6)


def ghz_pre_detection_state(absorption: AbsorptionModel) -> HybridState:
    """State of (A..D, port1..port4) after both stages and cross-recombination."""
    state = HybridState.basis(_register("ABCD"), ("e", "e", "e", "e", 1, 1, 1, 1))
    state = _pair_stage(state, 0, 1, 4, 5, absorption)
    state = _pair_stage(state, 2, 3, 6, 7, absorption)
    # cross-recombiners erase which-stage information: port1 x port3, port2 x port4
    state = beam_splitter(state, 4, 6)
    return beam_splitter(state, 5, 7)


@dataclass(frozen=True)
class GhzBranch:
    pattern: tuple  # one click bool per detector, (D1, D2, D3, D4)
    probability: float
    accepted: bool
    conditional_state: Optional[DensityOperator]  # storage basis, (A, B, C, D)
    fidelity: Optional[float]


@dataclass(frozen=True)
class GhzOutcome:
    success_probability: float
    accepted: tuple
    rejected: tuple


def ghz4_exact(absorption: AbsorptionModel = AbsorptionModel(),
               detector: DetectorModel = DetectorModel.ideal()) -> GhzOutcome:
    """Full outcome enumeration of the four-qubit chain protocol.

    Detector D1 watches port 1, D2 port 2, D3 port 4, D4 port 3 (the two
    cross-recombiners feed (D1, D4) and (D2, D3) respectively).  Each
    accepted pattern's fidelity is that of its corrected state, scored
    against the pattern's ideal target (see the module docstring); a
    rejected pattern's fidelity is None.  Every pattern's raw conditional
    state is reported for diagnostics.  The conditional states are mixed
    from the cached register branches.
    """
    table = detect_all_probabilities(
        _register_groups(ghz_pre_detection_state, GHZ_DETECTED_MODES, absorption), detector)

    accepted = []
    rejected = []
    success = 0.0
    targets = _ideal_targets(ghz_pre_detection_state, GHZ_DETECTED_MODES)
    for pattern, (prob, conditional) in sorted(table.items()):
        is_accepted = pattern in targets
        fid = None
        if is_accepted and conditional is not None:
            fid = fidelity(conditional, targets[pattern])
        branch = GhzBranch(
            pattern=pattern,
            probability=prob,
            accepted=is_accepted,
            conditional_state=conditional,
            fidelity=fid,
        )
        if is_accepted:
            accepted.append(branch)
            success += prob
        elif prob > 0.0:
            rejected.append(branch)
    return GhzOutcome(
        success_probability=success,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
    )
