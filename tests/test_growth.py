import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from blockadesim import growth
from blockadesim.growth import (
    ClusterInventory,
    ExpectedCost,
    GrowthPolicy,
    expected_cost_markov,
    run_trial,
    simulate_growth,
)
from blockadesim.protocol import ghz_success_probability
from helpers import reference_growth, reference_trial


class ArrayRng:
    """Scripted uniform source compatible with run_trial's chunked draws."""

    def __init__(self, values, pad=0.999):
        self._queue = list(values)
        self._pad = pad

    def random(self, n=None):
        if n is None:
            return self._queue.pop(0) if self._queue else self._pad
        return np.array(
            [self._queue.pop(0) if self._queue else self._pad for _ in range(n)]
        )


# ---------------------------------------------------------------------------
# policy and ledger plumbing

def test_policy_validation():
    GrowthPolicy(block_size=4, target_size=4)
    GrowthPolicy(block_size=6, target_size=13)
    with pytest.raises(ValueError):
        GrowthPolicy(block_size=3, target_size=8)
    with pytest.raises(ValueError):
        GrowthPolicy(block_size=2, target_size=8)
    with pytest.raises(ValueError):
        GrowthPolicy(block_size=4, target_size=3)
    with pytest.raises(ValueError):
        GrowthPolicy(step_cap=0)


def test_ledger_assertion():
    inv = ClusterInventory(
        clusters=[6], consumed_ghz_blocks=2,
        qubits_measured=1, qubits_discarded=1,
    )
    inv.assert_ledger_balanced(4)
    inv.qubits_discarded = 0
    with pytest.raises(AssertionError, match="ledger"):
        inv.assert_ledger_balanced(4)


# ---------------------------------------------------------------------------
# scripted trajectories pin the trial semantics exactly

def test_run_trial_scripted_trajectory():
    # p_block = 1, eta_prime = 1 (q = 1/8): draw, draw, failed link,
    # successful link, draw, successful link -> size 10 >= 8
    policy = GrowthPolicy(block_size=4, target_size=8)
    rng = ArrayRng([0.5, 0.5, 0.9, 0.05, 0.5, 0.01])
    ok, inv = run_trial(policy, 1.0, 1.0, rng)
    assert ok
    assert inv.elapsed_steps == 6
    assert inv.consumed_ghz_blocks == 3
    assert inv.generation_attempts == 3
    assert inv.link_attempts == 3
    assert inv.link_successes == 2
    assert inv.qubits_measured == 2
    assert inv.qubits_discarded == 0
    assert inv.clusters == [10]
    inv.assert_ledger_balanced(4)


def test_run_trial_discards_subcritical_remnants():
    # two failed links in a row: (4,4) -> (3,3) -> (2,2), then a third
    # failure leaves two 1-qubit remnants that are discarded outright
    policy = GrowthPolicy(block_size=4, target_size=8)
    rng = ArrayRng([0.5, 0.5, 0.9, 0.9, 0.9, 0.5, 0.5, 0.01])
    ok, inv = run_trial(policy, 1.0, 1.0, rng)
    assert ok
    # after the inventory empties, two fresh draws and one winning link
    assert inv.consumed_ghz_blocks == 4
    assert inv.qubits_measured == 6
    assert inv.qubits_discarded == 2
    assert inv.link_attempts == 4
    assert inv.link_successes == 1
    inv.assert_ledger_balanced(4)


def test_run_trial_failed_link_keeps_large_remnant_and_drops_small():
    # target 12: draw, draw, win -> (8); draw -> (8, 4); fail -> (7, 3);
    # fail -> (6, 2); fail at (6, 2) keeps the 5-qubit remnant and discards
    # the 1-qubit one; draw, win -> (9); draw, win -> (13)
    script = [0.5, 0.5, 0.01, 0.5, 0.9, 0.9, 0.9, 0.5, 0.01, 0.5, 0.01]
    policy = GrowthPolicy(block_size=4, target_size=12, step_cap=7)
    ok, inv = run_trial(policy, 1.0, 1.0, ArrayRng(script))
    assert not ok
    assert inv.clusters == [5]
    assert inv.qubits_measured == 6
    assert inv.qubits_discarded == 1
    inv.assert_ledger_balanced(4)

    policy = GrowthPolicy(block_size=4, target_size=12)
    ok, inv = run_trial(policy, 1.0, 1.0, ArrayRng(script))
    assert ok
    assert inv.clusters == [13]
    assert inv.elapsed_steps == 11
    assert inv.consumed_ghz_blocks == 5
    assert inv.link_attempts == 6
    assert inv.link_successes == 3
    assert inv.qubits_measured == 6
    assert inv.qubits_discarded == 1
    inv.assert_ledger_balanced(4)


def test_run_trial_geometric_attempts_by_inversion():
    # block = target: one draw finishes the trial, so generation_attempts
    # exposes the geometric inversion for a single scripted uniform
    policy = GrowthPolicy(block_size=4, target_size=4)
    for u, want in ((0.0, 1), (0.4, 1), (0.6, 2), (0.74, 2), (0.9, 4)):
        ok, inv = run_trial(policy, 0.5, 1.0, ArrayRng([u]))
        assert ok
        assert inv.consumed_ghz_blocks == 1
        assert inv.generation_attempts == want, u


def test_run_trial_cap_reports_failure():
    policy = GrowthPolicy(block_size=4, target_size=16, step_cap=3)
    ok, inv = run_trial(policy, 1.0, 1.0, ArrayRng([0.5, 0.5, 0.9]))
    assert not ok
    assert inv.elapsed_steps == 3
    inv.assert_ledger_balanced(4)


def test_run_trial_reaching_the_target_on_the_last_allowed_step_succeeds():
    # block = target: the first step finishes the trial, cap 1 allows just it
    for cap in (1, 2):
        ok, inv = run_trial(GrowthPolicy(4, 4, cap), 1.0, 1.0, ArrayRng([]))
        assert ok, cap
        assert inv.elapsed_steps == 1
        assert inv.clusters == [4]
    # draw, draw, win: size 8 on step 3 of 3
    ok, inv = run_trial(GrowthPolicy(4, 8, 3), 1.0, 1.0, ArrayRng([0.5, 0.5, 0.01]))
    assert ok
    assert inv.clusters == [8]
    stats = simulate_growth(GrowthPolicy(4, 4, 1), 0.9, 0.9, seed=1, trials=20)
    assert stats.success_fraction == 1.0
    assert stats.cap_hit_fraction == 0.0


def test_run_trial_deterministic_per_generator_state():
    policy = GrowthPolicy(block_size=4, target_size=12)
    a = run_trial(policy, 0.4, 0.9, np.random.default_rng([7, 3]))
    b = run_trial(policy, 0.4, 0.9, np.random.default_rng([7, 3]))
    assert a == b


# ---------------------------------------------------------------------------
# run_trial and simulate_growth vs the per-step reference trial

REFERENCE_CAPS = (1, 2, 7, 32, 33, 256, 257, 1_000_000)


def test_run_trial_matches_reference_trial():
    cap_hits = 0
    for block in (4, 6):
        for target in range(block, 21):
            for cap in REFERENCE_CAPS:
                policy = GrowthPolicy(block, target, cap)
                # at p_block = 1e-17 a trial's attempts pass 2^53
                for p_block, eta_prime, seed in ((1.0, 1.0, 0), (0.28125, 0.5, 1),
                                                 (0.05, 1.0, 2), (1e-17, 0.7, 3)):
                    got_rng = np.random.default_rng([seed, target, cap])
                    want_rng = np.random.default_rng([seed, target, cap])
                    got = run_trial(policy, p_block, eta_prime, got_rng)
                    want = reference_trial(policy, p_block, eta_prime, want_rng)
                    # field by field, the order of the final clusters included
                    assert got == want, (block, target, cap, p_block, eta_prime)
                    # the same uniforms were drawn from the generator
                    assert got_rng.random() == want_rng.random()
                    cap_hits += not got[0]
    assert cap_hits > 100


@pytest.mark.parametrize("policy, eta, eta_prime, trials", [
    (GrowthPolicy(4, 4, 1), 0.9, 1.0, 50),
    (GrowthPolicy(4, 12, 1_000_000), 0.75, 0.5, 60),
    (GrowthPolicy(4, 20, 300), 1.0, 1.0, 40),
    (GrowthPolicy(6, 6, 1_000_000), 0.3, 0.0, 40),
    (GrowthPolicy(6, 14, 257), 0.95, 0.8, 80),
    (GrowthPolicy(6, 20, 1_000_000), 1.0, 1.0, 30),
])
def test_simulate_growth_matches_reference_growth(policy, eta, eta_prime, trials):
    got = simulate_growth(policy, eta, eta_prime, seed=19, trials=trials)
    assert got == reference_growth(policy, eta, eta_prime, seed=19, trials=trials)


def reference_attempts(u, log_miss):
    return np.array([int(math.log(1.0 - x) / log_miss) for x in u.tolist()])


def test_extra_attempts_match_math_log_on_a_million_uniforms():
    rng = np.random.default_rng(2024)
    for p_block in (0.5, 0.28125, 0.05, 1e-3):
        log_miss = math.log1p(-p_block)
        u = rng.random(250_000)
        assert (growth._extra_attempts(u, log_miss) == reference_attempts(u, log_miss)).all()


def test_extra_attempts_at_the_geometric_boundaries():
    # u = 1 - (1 - p)^k puts the quotient on the integer k, where one ulp of
    # log decides the floor
    for p_block in (0.5, 0.28125, 0.0625, 0.05, 0.3, 0.7, 1e-3):
        log_miss = math.log1p(-p_block)
        u = 1.0 - (1.0 - p_block) ** np.arange(2000.0)
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert (growth._extra_attempts(u, log_miss) == reference_attempts(u, log_miss)).all()
    # where numpy's log and math.log disagree, a log_miss equal to math's
    # log puts the exact quotient on 1 and numpy's on either side of it
    u = np.random.default_rng(5).random(200_000)
    apart = [x for x in u.tolist() if np.log(1.0 - x) != math.log(1.0 - x)]
    for x in apart[:200]:
        got = growth._extra_attempts(np.array([x]), math.log(1.0 - x))
        assert got.tolist() == reference_attempts(np.array([x]), math.log(1.0 - x)).tolist()


class YieldingList(list):
    """A list whose length hands the interpreter to another thread."""

    def __len__(self):
        size = super().__len__()
        time.sleep(0.0005)
        return size


def test_threads_building_one_graph_get_the_reference_results():
    policy = GrowthPolicy(4, 16, 5000)
    want = reference_growth(policy, 0.8, 0.9, seed=4, trials=30)
    growth._graph.cache_clear()
    # numbering a new node invites a thread switch while the shared graph grows
    graph = growth._graph(4, 16)
    graph.states = YieldingList(graph.states)
    results = [None] * 6

    def work(i):
        results[i] = simulate_growth(policy, 0.8, 0.9, seed=4, trials=30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    growth._graph.cache_clear()
    assert results == [want] * len(results)


def test_walk_buffers_a_bounded_number_of_steps(monkeypatch):
    tallied = []
    tally = growth._tally

    def recording(graph, log_miss, parts, owners, starts):
        tallied.append(sum(len(part[0]) for part in parts))
        tally(graph, log_miss, parts, owners, starts)

    monkeypatch.setattr(growth, "_tally", recording)
    policy = GrowthPolicy(4, 20, 50_000)
    ok, inv = run_trial(policy, 0.3, 0.01, np.random.default_rng(8))
    assert not ok and inv.elapsed_steps == 50_000
    assert sum(tallied) == 50_000
    assert max(tallied) < growth._TALLY_STEPS + growth._DRAW_CHUNK


# ---------------------------------------------------------------------------
# exact solver vs an independent value-iteration oracle

def value_iteration_costs(block, target, p_block, q, tol=1e-13):
    """Fixpoint iteration of E = c + P E over the reachable inventory states.

    Re-derives the growth rules from scratch: draw a block below two
    clusters, otherwise link the pair (merge on success, shave one qubit
    from each on failure and drop remnants below two qubits).
    """
    draw_cost = (1.0, 0.0, 1.0 / p_block, 1.0)
    link_cost = (0.0, 1.0, 0.0, 1.0)

    def next_states(state):
        if len(state) < 2:
            return draw_cost, ((1.0, tuple(sorted(state + (block,)))),)
        merged = (state[0] + state[1],)
        shrunk = tuple(sorted(s - 1 for s in state if s - 1 >= 2))
        return link_cost, ((q, merged), (1.0 - q, shrunk))

    done = lambda st: any(s >= target for s in st)
    states = set()
    queue = [()]
    while queue:
        st = queue.pop()
        if st in states or done(st):
            continue
        states.add(st)
        queue.extend(nxt for _, nxt in next_states(st)[1])

    values = {st: (0.0, 0.0, 0.0, 0.0) for st in states}
    for _ in range(1_000_000):
        delta = 0.0
        for st in states:
            cost, nexts = next_states(st)
            new = list(cost)
            for prob, nxt in nexts:
                if prob > 0.0 and not done(nxt):
                    follow = values[nxt]
                    for i in range(4):
                        new[i] += prob * follow[i]
            old = values[st]
            delta = max(delta, max(abs(a - b) for a, b in zip(new, old)))
            values[st] = tuple(new)
        if delta < tol:
            return values[()]
    raise AssertionError("value iteration failed to converge")


def test_markov_matches_value_iteration():
    cases = [
        (GrowthPolicy(block_size=4, target_size=8), 1.0, 1.0),
        (GrowthPolicy(block_size=4, target_size=8), 0.9, 0.7),
        (GrowthPolicy(block_size=4, target_size=12), 0.8, 0.9),
        (GrowthPolicy(block_size=6, target_size=12), 0.9, 0.8),
    ]
    for policy, eta, eta_prime in cases:
        exact = expected_cost_markov(policy, eta, eta_prime)
        p_block = ghz_success_probability(policy.block_size, eta)
        oracle = value_iteration_costs(policy.block_size, policy.target_size,
                                       p_block, eta_prime / 8.0)
        assert exact.blocks == pytest.approx(oracle[0], rel=1e-9)
        assert exact.link_attempts == pytest.approx(oracle[1], rel=1e-9)
        assert exact.generation_attempts == pytest.approx(oracle[2], rel=1e-9)
        assert exact.steps == pytest.approx(oracle[3], rel=1e-9)


def test_markov_identities():
    policy = GrowthPolicy(block_size=4, target_size=8)
    exact = expected_cost_markov(policy, 0.85, 0.9)
    p_block = ghz_success_probability(4, 0.85)
    # every block costs a geometric number of generation attempts
    assert exact.generation_attempts == pytest.approx(exact.blocks / p_block, rel=1e-12)
    # each step is either a draw or a link attempt
    assert exact.steps == pytest.approx(exact.blocks + exact.link_attempts, rel=1e-12)
    # target equal to block size: one draw, no links
    trivial = expected_cost_markov(GrowthPolicy(block_size=4, target_size=4), 0.85, 0.9)
    assert trivial.blocks == pytest.approx(1.0, rel=1e-12)
    assert trivial.link_attempts == pytest.approx(0.0, abs=1e-12)
    assert trivial.generation_attempts == pytest.approx(1.0 / p_block, rel=1e-12)


def test_markov_validation():
    with pytest.raises(ValueError, match="state-space bound"):
        expected_cost_markov(GrowthPolicy(block_size=4, target_size=20), 1.0, 1.0)
    with pytest.raises(ValueError):
        expected_cost_markov(GrowthPolicy(), 0.0, 1.0)
    with pytest.raises(ValueError):
        expected_cost_markov(GrowthPolicy(), 1.0, 0.0)
    # eta_prime = 0 is fine when no link is ever needed
    expected_cost_markov(GrowthPolicy(block_size=4, target_size=4), 1.0, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo vs exact

def test_simulate_growth_matches_markov():
    policy = GrowthPolicy(block_size=4, target_size=8)
    eta, eta_prime = 0.9, 0.9
    trials = 4000
    stats = simulate_growth(policy, eta, eta_prime, seed=2718, trials=trials)
    exact = expected_cost_markov(policy, eta, eta_prime)
    assert stats.success_fraction == 1.0
    assert stats.cap_hit_fraction == 0.0
    for mean, std, want, label in (
        (stats.mean_blocks, stats.std_blocks, exact.blocks, "blocks"),
        (stats.mean_link_attempts, stats.std_link_attempts, exact.link_attempts, "links"),
        (stats.mean_generation_attempts, stats.std_generation_attempts,
         exact.generation_attempts, "generation attempts"),
        (stats.mean_steps, stats.std_steps, exact.steps, "steps"),
    ):
        sigma = std / math.sqrt(trials)
        assert abs(mean - want) <= 3.0 * sigma, (label, mean, want, sigma)


def test_simulate_growth_link_rate_and_geometry():
    policy = GrowthPolicy(block_size=4, target_size=8)
    stats = simulate_growth(policy, 0.8, 0.64, seed=11, trials=3000)
    q = 0.64 / 8.0
    sigma = math.sqrt(q * (1.0 - q) / stats.total_link_attempts)
    assert abs(stats.link_success_rate - q) <= 3.0 * sigma
    # pure generation: target equals block size, every trial takes one block
    p_block = ghz_success_probability(4, 0.8)
    gen = simulate_growth(GrowthPolicy(block_size=4, target_size=4), 0.8, 1.0,
                          seed=12, trials=3000)
    assert gen.mean_blocks == 1.0
    assert gen.mean_steps == 1.0
    sigma = gen.std_generation_attempts / math.sqrt(gen.trials)
    assert abs(gen.mean_generation_attempts - 1.0 / p_block) <= 3.0 * sigma
    assert gen.link_success_rate is None


def test_simulate_growth_deterministic_and_seed_sensitive():
    policy = GrowthPolicy(block_size=4, target_size=8)
    a = simulate_growth(policy, 0.9, 0.8, seed=5, trials=50)
    b = simulate_growth(policy, 0.9, 0.8, seed=5, trials=50)
    c = simulate_growth(policy, 0.9, 0.8, seed=6, trials=50)
    assert a == b
    assert a != c
    # the t-th trial always runs on default_rng([seed, t])
    ok, inv = run_trial(policy, ghz_success_probability(4, 0.9), 0.8,
                        np.random.default_rng([5, 0]))
    single = simulate_growth(policy, 0.9, 0.8, seed=5, trials=1)
    assert single.mean_blocks == float(inv.consumed_ghz_blocks)
    assert single.mean_steps == float(inv.elapsed_steps)


def test_simulate_growth_cap_hits_do_not_raise():
    policy = GrowthPolicy(block_size=4, target_size=16, step_cap=4)
    stats = simulate_growth(policy, 0.5, 0.5, seed=1, trials=200)
    assert stats.success_fraction == 0.0
    assert stats.cap_hit_fraction == 1.0


def test_simulate_growth_validation():
    with pytest.raises(ValueError):
        simulate_growth(GrowthPolicy(), 0.9, 0.9, seed=1, trials=0)
    with pytest.raises(ValueError):
        simulate_growth(GrowthPolicy(), 0.0, 0.9, seed=1, trials=10)
    with pytest.raises(ValueError):
        simulate_growth(GrowthPolicy(), 0.9, 1.0001, seed=1, trials=10)
    # unreachable target: refused before any trial, like the Markov solve
    with pytest.raises(ValueError, match="eta_prime = 0"):
        simulate_growth(GrowthPolicy(), 0.9, 0.0, seed=1, trials=10)


def test_statistics_json_round_trip():
    stats = simulate_growth(GrowthPolicy(), 0.9, 0.8, seed=3, trials=20)
    blob = json.dumps(stats.to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["trials"] == 20
    assert data["block_size"] == 4
    assert "policy" not in data
    assert data["mean_blocks"] == stats.mean_blocks


def test_expected_cost_is_dataclass_with_floats():
    exact = expected_cost_markov(GrowthPolicy(), 1.0, 1.0)
    assert isinstance(exact, ExpectedCost)
    assert exact.blocks > 2.0  # several blocks needed on average at q = 1/8
    assert exact.steps == pytest.approx(exact.blocks + exact.link_attempts, rel=1e-12)
