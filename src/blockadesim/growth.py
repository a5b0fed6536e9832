"""Resource economics of growing cluster states from heralded GHZ blocks.

The growth rule: keep an inventory of linear clusters (tracked by qubit
count only).  Whenever fewer than two clusters are available, generate a
fresh GHZ block of ``block_size`` qubits; block generation succeeds per
attempt with the chain acceptance probability for that size, so each block
costs a geometric number of generation attempts.  With two clusters in
stock, attempt to link them: success (probability eta_prime / 8) merges
them, failure measures one qubit off each participant and remnants below two
qubits are discarded.  A trial ends when some cluster reaches the target
size, or when the step cap trips (reported as a failure, never an
exception).

Because blocks are only drawn below two clusters, the inventory never holds
more than two, so it fits in two integer slots (a, b).  The Monte Carlo
walks each trial through a transition graph over those slot states, one
uniform per step; the step rule lives only in ``_TransitionGraph.expand``,
and ``run_trial`` and ``simulate_growth`` both run the one trial kernel
``_walk_trials``.

``expected_cost_markov`` evaluates the same rules exactly: the reachable
state space is tiny and the expected costs solve a linear system over it.
The solver shares no stepping code with the Monte Carlo walk, so the two
sides cross-check each other.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Optional

import numpy as np

from .protocol import Cluster, ghz_success_probability, link_success_probability


# Largest target the dense Markov solve accepts.
MARKOV_MAX_TARGET = 16


@dataclass(frozen=True)
class GrowthPolicy:
    """Growth configuration."""

    block_size: int = 4
    target_size: int = 8
    step_cap: int = 1_000_000

    def __post_init__(self):
        if self.block_size < 4 or self.block_size % 2:
            raise ValueError(f"block size must be an even integer >= 4, got {self.block_size}")
        if self.target_size < self.block_size:
            raise ValueError("target size must be >= block size")
        if self.step_cap < 1:
            raise ValueError("step cap must be >= 1")


@dataclass
class ClusterInventory:
    """Mutable per-trial ledger: cluster stock plus non-decreasing counters."""

    clusters: list = field(default_factory=list)
    consumed_ghz_blocks: int = 0
    generation_attempts: int = 0
    link_attempts: int = 0
    link_successes: int = 0
    elapsed_steps: int = 0
    qubits_measured: int = 0
    qubits_discarded: int = 0

    def qubits_in_stock(self) -> int:
        return sum(c.size for c in self.clusters)

    def assert_ledger_balanced(self, block_size: int):
        """Total qubits created must be fully accounted for."""
        created = self.consumed_ghz_blocks * block_size
        kept = self.qubits_in_stock()
        if created != kept + self.qubits_measured + self.qubits_discarded:
            raise AssertionError(
                f"qubit ledger broken: created {created}, kept {kept}, "
                f"measured {self.qubits_measured}, discarded {self.qubits_discarded}"
            )


# Uniforms a trial draws from its generator at a time, one per step.
_DRAW_CHUNK = 256
# Steps of a trial's first walk; each later walk doubles its steps so far.
_FIRST_WALK = 32
# Steps buffered between two tallies; bounds the walk's memory.
_TALLY_STEPS = 4096
# Code of the stop node that the successors of an unbuilt node point at.
_STOP = -1
_CODE = operator.itemgetter(2)


class _TransitionGraph:
    """The slot states (a, b) of one (block, target) pair and the steps between them.

    A node is a list ``[next if the link fails, next if it wins, code]``.  A
    draw step ignores its uniform, so both entries of a draw node are the
    same; an absorbed node points at itself.  A trial is then the walk
    ``accumulate(bits, getitem, initial=node)`` over the bits ``u < q`` of its
    uniforms, which runs in C.  Nodes are built on first visit: a new node
    points at the shared stop node until a walk reaches it there and
    ``expand`` applies the step rule.  ``rows[2 * code + bit]`` holds the
    counter increments of that step: blocks, link attempts, link successes,
    qubits measured and qubits discarded.  The graph is shared through a
    cache, so building it and reading its table take a lock; a node's
    increments are stored before any walk can step through it.
    """

    def __init__(self, block: int, target: int):
        self.block = block
        self.target = target
        self.stop = [None, None, _STOP]
        self.stop[0] = self.stop[1] = self.stop
        self.states = []    # (a, b) per code
        self.absorbed = []  # per code
        self.rows = []      # per 2 * code + bit
        self._nodes = {}
        self._table = None
        self._lock = threading.Lock()
        self.start = self.node(0, 0)

    def node(self, a: int, b: int) -> list:
        found = self._nodes.get((a, b))
        if found is None:
            found = self._nodes[(a, b)] = [self.stop, self.stop, len(self.states)]
            done = a >= self.target or b >= self.target
            if done:
                found[0] = found[1] = found
            self.states.append((a, b))
            self.absorbed.append(done)
            self.rows += ((0, 0, 0, 0, 0),) * 2
        return found

    def expand(self, node: list):
        """Point an unbuilt node at its successors: the growth step rule."""
        code = node[2]
        a, b = self.states[code]
        if a == 0 or b == 0:
            # fewer than two clusters: buy a block (attempts are tallied apart)
            rows = ((1, 0, 0, 0, 0),) * 2
            fail = win = self.node(self.block, b) if a == 0 else self.node(a, self.block)
        else:
            # link: a win merges the pair; a failure measures one qubit of
            # each and discards a remnant below two qubits
            win = self.node(a + b, 0)
            a, b = a - 1, b - 1
            fail = self.node(a if a >= 2 else 0, b if b >= 2 else 0)
            dropped = (a if a < 2 else 0) + (b if b < 2 else 0)
            rows = ((0, 1, 0, 2, dropped), (0, 1, 1, 0, 0))
        self.rows[2 * code:2 * code + 2] = rows
        self._table = None
        node[0], node[1] = fail, win

    def walk(self, node: list, bits: list) -> list:
        """The nodes from ``node`` on, one per bit, building those reached."""
        path = list(accumulate(bits, operator.getitem, initial=node))
        while path[-1] is self.stop:
            i = list(map(_CODE, path)).index(_STOP) - 1
            with self._lock:
                self.expand(path[i])
            path[i:] = accumulate(bits[i:], operator.getitem, initial=path[i])
        return path

    def table(self) -> np.ndarray:
        """The increments as an array with one column per 2 * code + bit."""
        with self._lock:
            if self._table is None:
                self._table = np.array(self.rows, dtype=np.int64).T.copy()
            return self._table


@functools.lru_cache(maxsize=8)
def _graph(block: int, target: int) -> _TransitionGraph:
    return _TransitionGraph(block, target)


def _extra_attempts(u: np.ndarray, log_miss: float) -> np.ndarray:
    """int(log(1 - u) / log_miss) per uniform, as math.log gives it.

    numpy's log can differ from math.log in the last place, which moves the
    floor only for a quotient next to an integer; those are redone with
    math.log, so the geometric draws match a per-step loop exactly.
    """
    quot = np.log(1.0 - u) / log_miss
    whole = np.floor(quot)
    near = np.abs(quot - np.rint(quot)) <= 1e-9 * np.maximum(quot, 1.0)
    for i in np.flatnonzero(near).tolist():
        whole[i] = int(math.log(1.0 - u[i]) / log_miss)
    return whole


def _tally(graph: _TransitionGraph, log_miss: float, parts: list, owners: list, starts: list):
    """Add the counters of buffered walk segments to the inventories they belong to.

    ``parts`` holds (codes, bits, uniforms) of each segment's steps; the
    steps of ``owners[i]`` begin at buffered step ``starts[i]``.
    """
    codes = np.concatenate([part[0] for part in parts])
    bits = np.concatenate([part[1] for part in parts])
    increments = graph.table().take(2 * codes + bits, axis=1)
    counts = np.add.reduceat(increments, starts, axis=1).T.tolist()
    extra = np.zeros(len(codes))
    if log_miss:
        drawn = increments[0] > 0  # the steps that bought a block
        extra[drawn] = _extra_attempts(np.concatenate([part[2] for part in parts])[drawn],
                                       log_miss)
    if extra.sum() < 2.0**53:  # float sums of the integer floors stay exact
        more = np.add.reduceat(extra, starts).astype(np.int64).tolist()
    else:
        more = [sum(map(int, piece.tolist())) for piece in np.split(extra, starts[1:])]
    for inv, (blocks, links, wins, measured, dropped), extra_gens in zip(owners, counts, more):
        inv.consumed_ghz_blocks += blocks
        inv.generation_attempts += blocks + extra_gens
        inv.link_attempts += links
        inv.link_successes += wins
        inv.qubits_measured += measured
        inv.qubits_discarded += dropped


def _walk_trials(policy: GrowthPolicy, p_block: float, eta_prime: float, rngs):
    """Run one growth trial per generator; yield (succeeded, inventory) in order.

    Each trial draws uniforms from its generator in chunks of ``_DRAW_CHUNK``,
    one per step, and walks its cached transition graph through them, each
    walk as long as the trial so far (at least ``_FIRST_WALK`` steps); the
    absorption step is the first visit of the absorbed node a walk ends
    on.  The step codes, bits and uniforms of consecutive trials are
    buffered and tallied together every ``_TALLY_STEPS`` steps.  Block
    generation attempts are geometric with the chain acceptance
    probability, drawn by inversion from the uniform of each draw step.
    """
    q = link_success_probability(eta_prime)
    cap = policy.step_cap
    graph = _graph(policy.block_size, policy.target_size)
    log_miss = math.log1p(-p_block) if p_block < 1.0 else 0.0
    parts, owners, starts, done, buffered = [], [], [], [], 0
    for rng in rngs:
        inv = ClusterInventory()
        node, steps = graph.start, 0
        u, pos = np.empty(0), 0
        while True:
            if pos == len(u):
                u = rng.random(_DRAW_CHUNK)[:cap - steps]
                bits = u < q
                pos = 0
            # walk until the trial's step count doubles: a short trial walks
            # few steps past its end, a long one walks whole chunks
            end = pos + max(steps, _FIRST_WALK)
            path = graph.walk(node, bits[pos:end].tolist())
            codes = np.fromiter(map(_CODE, path), np.intp, len(path))
            last = path[-1][2]
            absorbed = graph.absorbed[last]
            n = int((codes == last).argmax()) if absorbed else len(path) - 1
            parts.append((codes[:n], bits[pos:pos + n], u[pos:pos + n]))
            if not owners or owners[-1] is not inv:
                owners.append(inv)
                starts.append(buffered)
            pos += n
            buffered += n
            steps += n
            node = path[n]
            if buffered >= _TALLY_STEPS:
                _tally(graph, log_miss, parts, owners, starts)
                parts, owners, starts, buffered = [], [], [], 0
                yield from done
                done = []
            if absorbed or steps == cap:
                break
        inv.elapsed_steps = steps
        inv.clusters = [Cluster(size) for size in graph.states[node[2]] if size]
        done.append((absorbed, inv))
    if parts:
        _tally(graph, log_miss, parts, owners, starts)
    yield from done


def run_trial(policy: GrowthPolicy, p_block: float, eta_prime: float,
              rng: np.random.Generator) -> tuple:
    """One growth trial; returns (succeeded, inventory).

    The draw rule (generate a block only below two clusters) keeps the
    inventory at two clusters or fewer, so the stock fits in two integer
    slots and a trial is a walk over the slot states.  The step rule lives
    only in ``_TransitionGraph.expand``; this is the trial kernel
    ``simulate_growth`` uses, run on one generator.  One uniform is consumed
    per step from chunks of ``_DRAW_CHUNK``, so results are deterministic
    for a given generator state.
    """
    (result,) = _walk_trials(policy, p_block, eta_prime, [rng])
    return result


@dataclass(frozen=True)
class GrowthStatistics:
    policy: GrowthPolicy
    eta: float
    eta_prime: float
    seed: int
    trials: int
    block_probability: float
    success_fraction: float
    cap_hit_fraction: float
    mean_blocks: float
    std_blocks: float
    mean_link_attempts: float
    std_link_attempts: float
    mean_generation_attempts: float
    std_generation_attempts: float
    mean_steps: float
    std_steps: float
    link_success_rate: Optional[float]  # pooled successes / attempts; None without attempts
    total_link_attempts: int

    def to_json_dict(self) -> dict:
        out = {
            "block_size": self.policy.block_size,
            "target_size": self.policy.target_size,
            "step_cap": self.policy.step_cap,
        }
        for f in fields(self):
            if f.name == "policy":
                continue
            out[f.name] = getattr(self, f.name)
        return out


def _mean_std(values: np.ndarray) -> tuple:
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def growth_rates(policy: GrowthPolicy, eta: float, eta_prime: float) -> tuple:
    """(block probability, link probability), refusing targets no trial can reach.

    The Monte Carlo and the Markov solve both call this before any work, so
    an unreachable target fails at once instead of after every trial has
    run to the step cap.
    """
    p_block = ghz_success_probability(policy.block_size, eta)
    if p_block <= 0.0:
        raise ValueError("eta = 0 can never supply blocks")
    q = link_success_probability(eta_prime)
    if q <= 0.0 and policy.target_size > policy.block_size:
        raise ValueError("eta_prime = 0 can never reach a target above one block")
    return p_block, q


def simulate_growth(policy: GrowthPolicy, eta: float, eta_prime: float,
                    seed: int, trials: int) -> GrowthStatistics:
    """Monte Carlo growth statistics, deterministic for a given seed.

    Each trial runs on its own generator seeded by (seed, trial index), so
    trial results do not depend on execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_block, _ = growth_rates(policy, eta, eta_prime)

    blocks = np.empty(trials)
    links = np.empty(trials)
    gens = np.empty(trials)
    steps = np.empty(trials)
    successes = 0
    link_successes = 0
    link_attempts = 0
    cap_hits = 0
    rngs = (np.random.default_rng([seed, t]) for t in range(trials))
    for t, (ok, inv) in enumerate(_walk_trials(policy, p_block, eta_prime, rngs)):
        inv.assert_ledger_balanced(policy.block_size)
        blocks[t] = inv.consumed_ghz_blocks
        links[t] = inv.link_attempts
        gens[t] = inv.generation_attempts
        steps[t] = inv.elapsed_steps
        successes += ok
        link_successes += inv.link_successes
        link_attempts += inv.link_attempts
        cap_hits += not ok

    mean_blocks, std_blocks = _mean_std(blocks)
    mean_links, std_links = _mean_std(links)
    mean_gens, std_gens = _mean_std(gens)
    mean_steps, std_steps = _mean_std(steps)
    return GrowthStatistics(
        policy=policy,
        eta=eta,
        eta_prime=eta_prime,
        seed=seed,
        trials=trials,
        block_probability=p_block,
        success_fraction=successes / trials,
        cap_hit_fraction=cap_hits / trials,
        mean_blocks=mean_blocks,
        std_blocks=std_blocks,
        mean_link_attempts=mean_links,
        std_link_attempts=std_links,
        mean_generation_attempts=mean_gens,
        std_generation_attempts=std_gens,
        mean_steps=mean_steps,
        std_steps=std_steps,
        link_success_rate=link_successes / link_attempts if link_attempts else None,
        total_link_attempts=link_attempts,
    )


@dataclass(frozen=True)
class ExpectedCost:
    blocks: float
    link_attempts: float
    generation_attempts: float
    steps: float


def expected_cost_markov(policy: GrowthPolicy, eta: float, eta_prime: float) -> ExpectedCost:
    """Exact expected growth costs by absorbing-Markov-chain solve.

    Inventory states are sorted size tuples (at most two entries, see module
    docstring).  For each cost metric c the expectations obey
    E[state] = c(state) + sum_next P(next|state) E[next]; solving the linear
    system for all transient states at once gives the exact values.
    """
    if policy.target_size > MARKOV_MAX_TARGET:
        raise ValueError(
            f"target {policy.target_size} exceeds the state-space bound {MARKOV_MAX_TARGET}"
        )
    p_block, q = growth_rates(policy, eta, eta_prime)
    block = policy.block_size
    target = policy.target_size
    # cost columns: blocks, link attempts, generation attempts, steps
    draw_cost = np.array([1.0, 0.0, 1.0 / p_block, 1.0])
    link_cost = np.array([0.0, 1.0, 0.0, 1.0])

    def absorbed(state: tuple) -> bool:
        return any(s >= target for s in state)

    def transitions(state: tuple) -> tuple:
        """(immediate cost, [(probability, next state), ...])"""
        if len(state) < 2:
            nxt = tuple(sorted(state + (block,)))
            return draw_cost, [(1.0, nxt)]
        a, b = state
        merged = (a + b,)
        remnant = tuple(sorted(s - 1 for s in state if s - 1 >= 2))
        return link_cost, [(q, merged), (1.0 - q, remnant)]

    start = ()
    states = []
    index = {}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        if state in index or absorbed(state):
            continue
        index[state] = len(states)
        states.append(state)
        for _, nxt in transitions(state)[1]:
            if nxt not in index and not absorbed(nxt):
                frontier.append(nxt)

    n = len(states)
    p_mat = np.zeros((n, n))
    c_mat = np.zeros((n, 4))
    for s, i in index.items():
        cost, nexts = transitions(s)
        c_mat[i] = cost
        for prob, nxt in nexts:
            if prob > 0.0 and not absorbed(nxt):
                p_mat[i, index[nxt]] += prob
    solution = np.linalg.solve(np.eye(n) - p_mat, c_mat)
    e = solution[index[start]]
    return ExpectedCost(blocks=float(e[0]), link_attempts=float(e[1]),
                        generation_attempts=float(e[2]), steps=float(e[3]))
