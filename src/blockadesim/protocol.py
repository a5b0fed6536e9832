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
(port 1 with port 3, port 2 with port 4) before detection.  Exactly four
two-click patterns are accepted; each comes with a fixed local correction
(bit flips plus one pi phase) mapping the conditional state onto the
canonical (|gggg> + |ssss>) / sqrt(2).  Acceptance probability is eta^2 / 2.

Register reduction
------------------
Both circuits list their ensemble registers first and detect every optical
port, so one path reduces either to its registers: the pure pre-detection
state is moved to the storage basis and split by the occupations of the
detected ports, and each branch, a pure state of the registers once the
ports are vacuum, drops the ports (``_register_groups``).  That grouping
depends on the circuit and the absorption model only and is cached, so a
sweep over detector models builds and groups each state once; each detector
model then only re-weights the branches into per-pattern register states,
the one place a density operator is formed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ensemble import AbsorptionModel, blockade_absorb, gate_phase, gate_x, transfer_to_storage
from .optics import (
    DetectorModel,
    HeraldPattern,
    beam_splitter,
    detect_all_probabilities,
    detect_outcomes,
    group_occupations,
    phase_shift,
)
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

# recombiner output port assignment for the pair entangler
_PAIR_MODE_OF = {UP: 2, DOWN: 3}
_PAIR_SIGN_OF = {UP: -1, DOWN: +1}


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


def pair_register() -> tuple:
    return (
        EnsembleQudit("A"),
        EnsembleQudit("B"),
        OpticalMode(2, "port1"),
        OpticalMode(2, "port2"),
    )


def psi_pair(sign: int) -> HybridState:
    """Storage-basis herald target (|s g> + sign * i |g s>) / sqrt(2)."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    subs = (EnsembleQudit("A"), EnsembleQudit("B"))
    r = 1.0 / math.sqrt(2.0)
    return HybridState(subs, {("s", "g"): r, ("g", "s"): sign * 1j * r})


def _recombine(state: HybridState, mode_a: int, mode_b: int) -> HybridState:
    state = beam_splitter(state, mode_a, mode_b)
    return phase_shift(state, mode_a, -math.pi / 2.0)


def _pair_stage(state: HybridState, ens_a: int, ens_b: int, mode_a: int, mode_b: int,
                absorption: AbsorptionModel) -> HybridState:
    state = beam_splitter(state, mode_a, mode_b)
    state = blockade_absorb(state, ens_a, mode_a, absorption)
    state = blockade_absorb(state, ens_b, mode_b, absorption)
    return _recombine(state, mode_a, mode_b)


def pair_pre_detection_state(absorption: AbsorptionModel) -> HybridState:
    """Pure state of (A, B, port1, port2) just before the detectors."""
    state = HybridState.basis(pair_register(), ("e", "e", 1, 1))
    return _pair_stage(state, 0, 1, 2, 3, absorption)


@dataclass(frozen=True)
class HeraldBranch:
    """One detector's herald branch of the pair protocol."""

    detector: str
    probability: float
    conditional_state: Optional[DensityOperator]  # storage basis, registers (A, B)
    target_sign: int
    fidelity: Optional[float]


@dataclass(frozen=True)
class EntangleOutcome:
    policy: HeraldPolicy
    success_probability: float
    up: HeraldBranch
    down: HeraldBranch
    pre_detection_state: HybridState

    def branch(self, which: str) -> HeraldBranch:
        if which == UP:
            return self.up
        if which == DOWN:
            return self.down
        raise ValueError(f"detector must be {UP!r} or {DOWN!r}, got {which!r}")

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
# sweep holds one absorption model fixed, so a handful is plenty.
REGISTER_GROUPS_CACHE_SIZE = 4


@lru_cache(maxsize=REGISTER_GROUPS_CACHE_SIZE)
def _register_groups(pre_detection_state, modes: tuple, absorption: AbsorptionModel) -> tuple:
    """(pre-detection state, its occupation groups on ``modes`` as register branches).

    ``pre_detection_state(absorption)`` builds a circuit whose registers
    come first and whose ports are all in ``modes``, so each branch is a
    pure state of the registers, in the storage basis.  Both values are
    immutable.
    """
    pre = pre_detection_state(absorption)
    n_registers = len(pre.subsystems) - len(modes)
    stored = pre
    for reg in range(n_registers):
        stored = transfer_to_storage(stored, reg)

    def drop_vacuum_ports(branch: HybridState) -> HybridState:
        return HybridState._trusted(branch.subsystems[:n_registers],
                                    {key[:n_registers]: amp for key, amp in branch})

    return pre, group_occupations(stored, modes).map(drop_vacuum_ports)


def entangle_pair_exact(absorption: AbsorptionModel = AbsorptionModel(),
                        detector: DetectorModel = DetectorModel.ideal(),
                        policy: HeraldPolicy = HeraldPolicy.PER_DETECTOR) -> EntangleOutcome:
    """Full outcome enumeration of the heralded pair protocol.

    Branch probabilities and conditional states follow the chosen herald
    policy; the conditional states are mixed from the cached register
    branches (see the module docstring), so they hold the two ensembles in
    the storage basis.
    """
    modes = (_PAIR_MODE_OF[UP], _PAIR_MODE_OF[DOWN])
    pre, groups = _register_groups(pair_pre_detection_state, modes, absorption)
    table = detect_all_probabilities(groups, modes, detector)

    def joint(first: bool, second: bool) -> tuple:
        return table[HeraldPattern((first, second))]

    branches = {}
    for which, pick in ((UP, lambda c1, c2: c1), (DOWN, lambda c1, c2: c2)):
        if policy is HeraldPolicy.PER_DETECTOR:
            selected = [(c1, c2) for c1 in (False, True) for c2 in (False, True)
                        if pick(c1, c2)]
        else:
            selected = [(True, False)] if which == UP else [(False, True)]
        prob = 0.0
        mix = []
        for c1, c2 in selected:
            p, rho = joint(c1, c2)
            if p > 0.0:
                prob += p
                mix.append((p, rho))
        if prob > 0.0:
            conditional = DensityOperator.mixture(mix).scaled(1.0 / prob)
            fid = fidelity(conditional, psi_pair(_PAIR_SIGN_OF[which]))
        else:
            conditional = None
            fid = None
        branches[which] = HeraldBranch(
            detector=which,
            probability=prob,
            conditional_state=conditional,
            target_sign=_PAIR_SIGN_OF[which],
            fidelity=fid,
        )

    if policy is HeraldPolicy.PER_DETECTOR:
        success = 1.0 - joint(False, False)[0]
    else:
        success = joint(True, False)[0] + joint(False, True)[0]
    return EntangleOutcome(
        policy=policy,
        success_probability=success,
        up=branches[UP],
        down=branches[DOWN],
        pre_detection_state=pre,
    )


# Uniform draws per chunk in entangle_pair_sampled: bounds its memory for
# any trial count.  Chunking leaves the PCG64 stream, hence every count,
# unchanged.
SAMPLE_CHUNK = 2**16


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
    conditioning (a code path independent of ``entangle_pair_exact``), then
    sampled with one uniform draw per trial, drawn ``SAMPLE_CHUNK`` at a time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pre = pair_pre_detection_state(absorption)
    joint = {(c1, c2): 0.0 for c1 in (False, True) for c2 in (False, True)}
    for c1, p1, post1 in detect_outcomes(pre, _PAIR_MODE_OF[UP], detector):
        if post1 is None:
            continue
        for c2, p2, _ in detect_outcomes(post1, _PAIR_MODE_OF[DOWN], detector):
            joint[(c1, c2)] = p1 * p2

    order = [(True, True), (True, False), (False, True), (False, False)]
    probs = np.array([joint.get(k, 0.0) for k in order])
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"joint click distribution sums to {total}, expected 1")
    rng = np.random.default_rng(seed)
    edges = np.cumsum(probs[:-1])  # draws past the last edge are (False, False)
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, trials, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, trials - start))
        counts += np.bincount(np.searchsorted(edges, draws, side="right"), minlength=4)

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

# Accepted two-click patterns, ordered (D1, D2, D3, D4), and the local
# correction mapping each conditional state to (|gggg> + |ssss>)/sqrt(2).
# Corrections are ("x", register) bit flips and ("phase", register, angle)
# logical Z rotations on registers A=0, B=1, C=2, D=3.
GHZ_CORRECTIONS = {
    (True, True, False, False): (("x", 1), ("x", 3)),
    (True, False, True, False): (("x", 1), ("x", 2), ("phase", 0, math.pi)),
    (False, True, False, True): (("x", 1), ("x", 2), ("phase", 0, math.pi)),
    (False, False, True, True): (("x", 1), ("x", 3)),
}

ACCEPTED_GHZ_PATTERNS = frozenset(HeraldPattern(p) for p in GHZ_CORRECTIONS)

# Modes watched by D1..D4: port1, port2, port4, port3 (see ghz4_exact).
GHZ_DETECTED_MODES = (4, 5, 7, 6)


def ghz_register() -> tuple:
    return (
        EnsembleQudit("A"),
        EnsembleQudit("B"),
        EnsembleQudit("C"),
        EnsembleQudit("D"),
        OpticalMode(2, "port1"),
        OpticalMode(2, "port2"),
        OpticalMode(2, "port3"),
        OpticalMode(2, "port4"),
    )


def canonical_ghz(n_registers: int = 4) -> HybridState:
    subs = tuple(EnsembleQudit(name) for name in ("A", "B", "C", "D")[:n_registers])
    r = 1.0 / math.sqrt(2.0)
    return HybridState(subs, {("g",) * n_registers: r, ("s",) * n_registers: r})


def ghz_pre_detection_state(absorption: AbsorptionModel) -> HybridState:
    """State of (A..D, port1..port4) after both stages and cross-recombination."""
    state = HybridState.basis(ghz_register(), ("e", "e", "e", "e", 1, 1, 1, 1))
    state = _pair_stage(state, 0, 1, 4, 5, absorption)
    state = _pair_stage(state, 2, 3, 6, 7, absorption)
    # cross-recombiners erase which-stage information: port1 x port3, port2 x port4
    state = beam_splitter(state, 4, 6)
    return beam_splitter(state, 5, 7)


def apply_corrections(rho, corrections):
    """Apply a GHZ correction listing to a state or operator over (A, B, C, D)."""
    for op in corrections:
        if op[0] == "x":
            rho = gate_x(rho, op[1])
        elif op[0] == "phase":
            rho = gate_phase(rho, op[1], op[2])
        else:
            raise ValueError(f"unknown correction {op!r}")
    return rho


@dataclass(frozen=True)
class GhzBranch:
    pattern: HeraldPattern
    probability: float
    accepted: bool
    conditional_state: Optional[DensityOperator]  # storage basis, (A, B, C, D)
    corrections: tuple
    corrected_state: Optional[DensityOperator]
    fidelity: Optional[float]


@dataclass(frozen=True)
class GhzOutcome:
    success_probability: float
    accepted: tuple
    rejected: tuple
    pre_detection_state: HybridState

    @property
    def accepted_patterns(self) -> frozenset:
        return frozenset(b.pattern for b in self.accepted)

    def branch(self, pattern) -> GhzBranch:
        if not isinstance(pattern, HeraldPattern):
            pattern = HeraldPattern(tuple(pattern))
        for b in self.accepted + self.rejected:
            if b.pattern == pattern:
                return b
        raise KeyError(f"no branch for pattern {pattern!r}")


def ghz4_exact(absorption: AbsorptionModel = AbsorptionModel(),
               detector: DetectorModel = DetectorModel.ideal()) -> GhzOutcome:
    """Full outcome enumeration of the four-qubit chain protocol.

    Detector D1 watches port 1, D2 port 2, D3 port 4, D4 port 3 (the two
    cross-recombiners feed (D1, D4) and (D2, D3) respectively).  Accepted
    patterns get their correction applied; every pattern's raw conditional
    state is reported for diagnostics.  The conditional states are mixed
    from the cached register branches (see the module docstring).
    """
    pre, groups = _register_groups(ghz_pre_detection_state, GHZ_DETECTED_MODES, absorption)
    table = detect_all_probabilities(groups, GHZ_DETECTED_MODES, detector)

    accepted = []
    rejected = []
    success = 0.0
    target = canonical_ghz()
    for pattern, (prob, conditional) in sorted(table.items(), key=lambda kv: kv[0].clicks):
        is_accepted = pattern in ACCEPTED_GHZ_PATTERNS
        corrected = None
        fid = None
        corrections = GHZ_CORRECTIONS.get(tuple(pattern.clicks), ()) if is_accepted else ()
        if conditional is not None:
            corrected = apply_corrections(conditional, corrections)
            fid = fidelity(corrected, target)
        branch = GhzBranch(
            pattern=pattern,
            probability=prob,
            accepted=is_accepted,
            conditional_state=conditional,
            corrections=corrections,
            corrected_state=corrected,
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
        pre_detection_state=pre,
    )


def ghz_success_probability(n_qubits: int, eta: float) -> float:
    """Chain acceptance probability eta^(Q/2) * (Q - 2) / 2^(Q - 2).

    Q/2 photon pairs must all be detected and the accepted click patterns
    make up (Q - 2) / 2^(Q - 2) of the interferometer output.
    """
    if n_qubits < 4 or n_qubits % 2:
        raise ValueError(f"chain size must be an even integer >= 4, got {n_qubits}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    # scaling by 2^-(Q-2) with ldexp is exact where the old division by the
    # integer 2^(Q-2) was finite, and cannot overflow for large Q
    return math.ldexp(eta ** (n_qubits // 2) * (n_qubits - 2), -(n_qubits - 2))


# ---------------------------------------------------------------------------
# cluster linking

def link_success_probability(eta_prime: float) -> float:
    if not 0.0 <= eta_prime <= 1.0:
        raise ValueError(f"eta_prime must be in [0, 1], got {eta_prime}")
    return eta_prime / 8.0
