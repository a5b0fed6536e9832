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

``expected_cost_markov`` evaluates the same rules exactly.  Because blocks
are only drawn below two clusters, the inventory never holds more than two;
the reachable state space is tiny and the expected costs solve a linear
system over it.  The solver shares no stepping code with the Monte Carlo
loop, so the two sides cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


_DRAW_CHUNK = 256


def run_trial(policy: GrowthPolicy, p_block: float, eta_prime: float,
              rng: np.random.Generator) -> tuple:
    """One growth trial; returns (succeeded, inventory).

    The draw rule (generate a block only below two clusters) keeps the
    inventory at two clusters or fewer, so the stock fits in two integer
    slots.  The link step is the rule of the module docstring; block
    generation attempts per block are geometric with the chain acceptance
    probability, drawn by inversion.  Uniform variates are consumed from buffered chunks, one per
    decision, so results are deterministic for a given generator state.
    """
    q = link_success_probability(eta_prime)
    target = policy.target_size
    block = policy.block_size
    cap = policy.step_cap
    log_miss = math.log1p(-p_block) if p_block < 1.0 else 0.0

    a = 0  # slot value 0 means empty
    b = 0
    blocks = gens = links = wins = steps = measured = discarded = 0
    buf = rng.random(_DRAW_CHUNK)
    pos = 0
    success = False
    while steps < cap:
        if a >= target or b >= target:
            success = True
            break
        steps += 1
        if pos == _DRAW_CHUNK:
            buf = rng.random(_DRAW_CHUNK)
            pos = 0
        u = buf[pos]
        pos += 1
        if a == 0 or b == 0:
            # fewer than two clusters: buy a block (geometric attempt count)
            gens += 1 if p_block >= 1.0 else 1 + int(math.log(1.0 - u) / log_miss)
            blocks += 1
            if a == 0:
                a = block
            else:
                b = block
            continue
        links += 1
        if u < q:
            wins += 1
            a += b
            b = 0
        else:
            measured += 2
            a -= 1
            b -= 1
            if a < 2:
                discarded += a
                a = 0
            if b < 2:
                discarded += b
                b = 0

    inv = ClusterInventory(
        clusters=[Cluster(s) for s in (a, b) if s],
        consumed_ghz_blocks=blocks,
        generation_attempts=gens,
        link_attempts=links,
        link_successes=wins,
        elapsed_steps=steps,
        qubits_measured=measured,
        qubits_discarded=discarded,
    )
    return success, inv


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


def simulate_growth(policy: GrowthPolicy, eta: float, eta_prime: float,
                    seed: int, trials: int) -> GrowthStatistics:
    """Monte Carlo growth statistics, deterministic for a given seed.

    Each trial runs on its own generator seeded by (seed, trial index), so
    trial results do not depend on execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_block = ghz_success_probability(policy.block_size, eta)
    if p_block <= 0.0:
        raise ValueError("eta = 0 can never supply blocks")
    link_success_probability(eta_prime)  # validates range

    blocks = np.empty(trials)
    links = np.empty(trials)
    gens = np.empty(trials)
    steps = np.empty(trials)
    successes = 0
    link_successes = 0
    link_attempts = 0
    cap_hits = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        ok, inv = run_trial(policy, p_block, eta_prime, rng)
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
    p_block = ghz_success_probability(policy.block_size, eta)
    if p_block <= 0.0:
        raise ValueError("eta = 0 can never supply blocks")
    q = link_success_probability(eta_prime)
    if q <= 0.0 and policy.target_size > policy.block_size:
        raise ValueError("eta_prime = 0 can never reach a target above one block")
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
