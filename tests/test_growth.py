import itertools
import json
import math
import statistics
import sys
import threading
import time
import tracemalloc

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
from blockadesim.rates import ghz_success_probability
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


@pytest.mark.parametrize("rest", range(growth._BYTE))
def test_run_trial_matches_reference_trial_wherever_the_cap_cuts_a_byte(rest):
    # step_cap = 8k + rest: the cap falls after whole bytes plus `rest` steps,
    # in the first chunk, at the start of the second and inside it
    for k in (1, 32, 33, 40):
        cap = growth._BYTE * k + rest
        for block, target in ((4, 5), (4, 12), (4, 20), (6, 14)):
            for p_block, eta_prime, seed in ((1.0, 1.0, 0), (0.28125, 0.5, 1), (0.05, 1.0, 2)):
                policy = GrowthPolicy(block, target, cap)
                got_rng = np.random.default_rng([seed, target, cap])
                want_rng = np.random.default_rng([seed, target, cap])
                got = run_trial(policy, p_block, eta_prime, got_rng)
                want = reference_trial(policy, p_block, eta_prime, want_rng)
                assert got == want, (block, target, cap, p_block, eta_prime)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_trial_absorbed_in_its_first_chunk_tallies_only_its_steps(monkeypatch):
    tallied = []
    tally = growth._tally

    def recording(graph, log_miss, ids, uniforms, starts):
        tallied.append(len(ids))
        assert sum(map(len, uniforms)) == growth._BYTE * len(ids)
        return tally(graph, log_miss, ids, uniforms, starts)

    monkeypatch.setattr(growth, "_tally", recording)
    absorbed = 0
    for (block, target), (p_block, eta_prime), seed in itertools.product(
            ((4, 5), (4, 8), (6, 12)), ((1.0, 1.0), (0.28125, 0.9)), range(4)):
        ok, inv = run_trial(GrowthPolicy(block, target), p_block, eta_prime,
                            np.random.default_rng([seed, target]))
        steps = inv.elapsed_steps
        if not ok or steps > growth._DRAW_CHUNKS[0]:
            continue
        absorbed += 1
        assert tallied.pop() == -(-steps // growth._BYTE)
        # caps before, at and after the absorbing step
        for cap in (steps - 1, steps, steps + 1, steps + growth._BYTE):
            policy = GrowthPolicy(block, target, cap)
            got_rng = np.random.default_rng([seed, target])
            want_rng = np.random.default_rng([seed, target])
            got = run_trial(policy, p_block, eta_prime, got_rng)
            assert got == reference_trial(policy, p_block, eta_prime, want_rng), cap
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert absorbed > 10


def test_every_built_entry_is_eight_single_steps():
    growth._graph.cache_clear()
    for policy, eta_prime in ((GrowthPolicy(4, 12, 1_000_000), 0.5),
                              (GrowthPolicy(4, 12, 301), 1.0)):
        simulate_growth(policy, 0.8, eta_prime, seed=6, trials=200)
    graph = growth._graph(4, 12)
    growth._graph.cache_clear()

    def single_steps(code, bits, n):
        want = [0] * 7  # blocks, links, wins, measured, dropped, steps, draw mask
        for k in range(n):
            if graph.absorbed[code]:
                break
            if graph.next[code] is None:
                graph.expand(code)
            code, increments = graph.next[code][bits >> k & 1]
            want[:5] = [x + y for x, y in zip(want, increments)]
            want[5] += 1
            want[6] |= (increments[0] > 0) << k
        return code, want

    nodes = list(graph._bytes.values())
    built = 0
    for node in nodes:
        code = node[growth._CODE]
        for byte in range(256):
            successor = node[byte]
            if successor is graph.stop:
                continue
            built += 1
            got = graph.table[:, node[growth._BASE] + byte].tolist()
            end, want = single_steps(code, byte, growth._BYTE)
            assert got == want, (graph.states[code], byte)
            # an absorbed node takes no steps and points at itself
            assert successor is graph._bytes[end]
    assert built > 1000 and any(graph.absorbed[n[growth._CODE]] for n in nodes)
    # the tail entries where a cap cut a byte
    assert graph._tails
    for (code, bits, n), (column, end) in graph._tails.items():
        assert 0 < n < growth._BYTE and bits < 1 << n
        assert (end, graph.table[:, column].tolist()) == single_steps(code, bits, n)


@pytest.mark.parametrize("policy, eta, eta_prime, trials", [
    (GrowthPolicy(4, 4, 1), 0.9, 1.0, 50),
    (GrowthPolicy(4, 12, 1_000_000), 0.75, 0.5, 60),
    (GrowthPolicy(4, 20, 300), 1.0, 1.0, 40),
    (GrowthPolicy(6, 6, 1_000_000), 0.3, 0.0, 40),
    (GrowthPolicy(6, 14, 257), 0.95, 0.8, 80),
    (GrowthPolicy(6, 20, 1_000_000), 1.0, 1.0, 30),
    # p_block 5e-17: attempt counts pass 2^53 and are tallied as Python ints
    (GrowthPolicy(4, 12, 1_000_000), 1e-8, 0.9, 30),
    # the cap falls 3 steps into simulate_growth's fourth draw chunk
    (GrowthPolicy(4, 12, 1795), 0.8, 0.5, 80),
])
def test_simulate_growth_matches_reference_growth(policy, eta, eta_prime, trials):
    got = simulate_growth(policy, eta, eta_prime, seed=19, trials=trials)
    assert got == reference_growth(policy, eta, eta_prime, seed=19, trials=trials)


def test_simulate_growth_matches_reference_growth_around_the_eighth_byte():
    # trials absorbed on the last step of the first chunk's eighth byte (64
    # steps) and one step either side of it, and caps that fall inside or at
    # the end of those bytes
    policy = GrowthPolicy(4, 8)
    p_block, _ = growth.growth_rates(policy, 0.9, 0.875)
    ends = set()
    for seed in (0, 1):
        for t in range(90):
            _, inv = reference_trial(policy, p_block, 0.875, np.random.default_rng([seed, t]))
            ends.add(inv.elapsed_steps)
        got = simulate_growth(policy, 0.9, 0.875, seed=seed, trials=90)
        assert got == reference_growth(policy, 0.9, 0.875, seed=seed, trials=90)
    assert {63, 64, 65} <= ends
    for cap in (5, 8, 40, 63, 64, 65):
        policy = GrowthPolicy(4, 8, cap)
        got = simulate_growth(policy, 0.9, 0.875, seed=0, trials=90)
        assert got == reference_growth(policy, 0.9, 0.875, seed=0, trials=90), cap


def test_simulate_growth_asserts_every_trial_ledger():
    growth._graph.cache_clear()
    policy = GrowthPolicy(4, 8)
    simulate_growth(policy, 0.9, 0.875, seed=3, trials=50)
    graph = growth._graph(4, 8)
    try:
        # one byte out of the start state that the run took: its trials now
        # discard a qubit that was never created
        byte = next(b for b in range(256) if graph.start[b] is not graph.stop)
        graph.table[4, graph.start[growth._BASE] + byte] += 1
        with pytest.raises(AssertionError, match="qubit ledger broken"):
            simulate_growth(policy, 0.9, 0.875, seed=3, trials=50)
    finally:
        growth._graph.cache_clear()


def test_walk_keeps_only_the_uniforms_of_the_steps_it_tallies():
    policy = GrowthPolicy(4, 5)
    simulate_growth(policy, 0.9, 0.875, seed=2, trials=400)  # builds the graph
    tracemalloc.start()
    try:
        simulate_growth(policy, 0.9, 0.875, seed=2, trials=400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a view of each absorbed trial's first chunk would pin 2 KB per trial
    assert peak < 350_000


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

    def recording(graph, log_miss, ids, uniforms, starts):
        tallied.append(len(ids))
        assert sum(map(len, uniforms)) == growth._BYTE * len(ids)
        return tally(graph, log_miss, ids, uniforms, starts)

    monkeypatch.setattr(growth, "_tally", recording)
    policy = GrowthPolicy(4, 20, 50_000)
    ok, inv = run_trial(policy, 0.3, 0.01, np.random.default_rng(8))
    assert not ok and inv.elapsed_steps == 50_000
    # 50,000 steps are 6,250 byte steps, tallied in bounded batches
    assert sum(tallied) == 50_000 // growth._BYTE
    assert len(tallied) > 10
    assert max(tallied) <= growth._TALLY_BYTES + max(growth._DRAW_CHUNKS) // growth._BYTE + 1


# the cap 1 step before, at and after the end of chunks 1, 2 and 3 of the
# draw schedule (256, 768 and 1,792 steps), and inside chunks 2, 3 and 4
SCHEDULE_CAPS = (255, 256, 257, 767, 768, 771, 1791, 1795, 2819)


def test_walk_trials_gives_the_same_trials_under_the_draw_schedule():
    ends_in = set()
    for (block, target), cap in itertools.product(((4, 5), (4, 12), (6, 14), (4, 20)),
                                                  SCHEDULE_CAPS):
        policy = GrowthPolicy(block, target, cap)
        # p_block 5e-17 takes the attempt counts past int64
        for p_block, eta_prime, seed in ((0.28125, 0.5, 1), (0.6, 0.05, 2), (5e-17, 0.9, 3)):
            rows, attempts, ends, won = growth._walk_trials(
                policy, p_block, eta_prime, growth._trial_generators(seed, 40), 40)
            assert rows.dtype == np.int64
            for t in range(40):
                want_ok, want = reference_trial(policy, p_block, eta_prime,
                                                np.random.default_rng([seed, t]))
                got = growth._inventory(rows[t], attempts[t], ends[t])
                assert (won[t], got) == (want_ok, want), (block, target, cap, p_block, t)
                ends_in.add((want.elapsed_steps, want_ok))
    # trials reach the target inside each of the first three chunks, and
    # caps cut chunks 1 to 4
    steps = [s for s, won in ends_in if won]
    for lo, hi in ((0, 256), (256, 768), (768, 1792)):
        assert any(lo < s <= hi for s in steps), (lo, hi)
    assert {cap for cap in SCHEDULE_CAPS if (cap, False) in ends_in} == set(SCHEDULE_CAPS)


def test_simulate_growth_buffers_a_bounded_number_of_steps(monkeypatch):
    drawn, tallied = [], []
    tally = growth._tally
    generators = growth._trial_generators

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, n):
            drawn.append(n)
            return self.rng.random(n)

    def recording(graph, log_miss, ids, uniforms, starts):
        tallied.append(len(ids))
        assert sum(map(len, uniforms)) == growth._BYTE * len(ids)
        assert sum(u.nbytes for u in uniforms) < 128 * 1024
        return tally(graph, log_miss, ids, uniforms, starts)

    monkeypatch.setattr(growth, "_tally", recording)
    monkeypatch.setattr(growth, "_trial_generators",
                        lambda seed, trials: map(Recording, generators(seed, trials)))
    got = simulate_growth(GrowthPolicy(4, 20, 20_000), 0.8, 0.5, seed=8, trials=12)
    assert 0 < got.cap_hit_fraction < 1
    assert set(drawn) == set(growth._DRAW_CHUNKS) and len(tallied) > 10
    assert max(tallied) <= growth._TALLY_BYTES + max(growth._DRAW_CHUNKS) // growth._BYTE + 1


def test_attempts_carried_across_tallies_stay_exact_past_int64(monkeypatch):
    # p_block 6e-14: a tally of one 1,024-uniform chunk adds about 7e15
    # attempts (at most 7.9e15 here), under the 2^53 that keeps a batch in
    # int64, while the trial's total passes 2^63
    policy = GrowthPolicy(4, 20, 1_500_000)
    want = reference_trial(policy, 6e-14, 1e-6, np.random.default_rng(5))
    assert want[1].generation_attempts >= 2**63
    dtypes, types = [], set()
    tally = growth._tally

    def recording(*args):
        counts, attempts = tally(*args)
        dtypes.append(counts.dtype)
        types.update(map(type, attempts))
        return counts, attempts

    monkeypatch.setattr(growth, "_tally", recording)
    monkeypatch.setattr(growth, "_TALLY_BYTES", 1)
    assert run_trial(policy, 6e-14, 1e-6, np.random.default_rng(5)) == want
    assert len(dtypes) > 1000 and set(dtypes) == {np.dtype(np.int64)} and types == {int}


def test_a_batch_of_trials_past_int64_tallies_exact_python_ints(monkeypatch):
    # p_block 5e-17: each trial's attempt count nears or passes 2^63, and
    # one batch tallies all the trials together
    monkeypatch.setattr(growth, "_TALLY_BYTES", 10**6)
    policy = GrowthPolicy(4, 12, 1791)
    _, attempts, _, won = growth._walk_trials(policy, 5e-17, 0.9,
                                              growth._trial_generators(3, 40), 40)
    for t, (gens, ok) in enumerate(zip(attempts, won)):
        want_ok, inv = reference_trial(policy, 5e-17, 0.9, np.random.default_rng([3, t]))
        assert (ok, gens) == (want_ok, inv.generation_attempts), t
        assert type(gens) is int
    assert max(attempts) >= 2**63 > min(attempts)
    policy = GrowthPolicy(4, 16, 1795)
    got = simulate_growth(policy, 1e-8, 0.05, seed=33, trials=120)
    assert got == reference_growth(policy, 1e-8, 0.05, seed=33, trials=120)


def test_statistics_of_attempt_counts_past_the_square_root_of_the_float_range():
    # eta 1e-78: block probability about 1e-156, so attempt counts near 1e157,
    # whose squared deviations overflow a float
    policy = GrowthPolicy()
    got = simulate_growth(policy, 1e-78, 1.0, seed=0, trials=5)
    p_block, _ = growth.growth_rates(policy, 1e-78, 1.0)
    attempts = [reference_trial(policy, p_block, 1.0, np.random.default_rng([0, t]))[1]
                .generation_attempts for t in range(5)]
    assert min(attempts) > 1e154
    assert got.mean_generation_attempts == pytest.approx(statistics.mean(attempts), rel=1e-12)
    assert got.std_generation_attempts == pytest.approx(statistics.stdev(attempts), rel=1e-12)


SEEDS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**128 + 5)


def test_pcg64_seeds_match_default_rng_on_a_hundred_thousand_pairs():
    rng = np.random.default_rng(99)
    seeds = SEEDS + tuple(int(rng.integers(2**63)) >> int(rng.integers(64)) for _ in range(12))
    pairs = 0
    for i, seed in enumerate(seeds):
        # every fourth seed takes t across 2^32, where t needs two entropy words
        start = 2**32 - 2_500 if i % 4 == 3 else int(rng.integers(100)) * (i % 2)
        got = growth._pcg64_seeds(seed, start, 5_000)
        for t, pair in enumerate(got, start):
            want = np.random.default_rng([seed, t]).bit_generator.state["state"]
            assert pair == (want["state"], want["inc"]), (seed, t)
        pairs += len(got)
    assert pairs == 100_000


def test_trial_generators_run_the_streams_of_default_rng():
    for seed in SEEDS:
        rngs = growth._trial_generators(seed, growth._SEED_BLOCK + 3)
        for t, rng in enumerate(rngs):
            if t % 1000 in (0, 1, 2) or t >= growth._SEED_BLOCK:
                want = np.random.default_rng([seed, t])
                assert rng.bit_generator.state == want.bit_generator.state
                assert rng.random(3).tolist() == want.random(3).tolist()


def test_trial_generators_refuse_a_numpy_that_seeds_differently(monkeypatch):
    def off_by_one(seed, start, count):
        return [(state ^ 1, inc) for state, inc in computed(seed, start, count)]

    computed = growth._pcg64_seeds
    monkeypatch.setattr(growth, "_pcg64_seeds", off_by_one)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        simulate_growth(GrowthPolicy(), 0.9, 0.9, seed=1, trials=3)
    # a negative seed is refused as numpy refuses it
    monkeypatch.setattr(growth, "_pcg64_seeds", computed)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        simulate_growth(GrowthPolicy(), 0.9, 0.9, seed=-1, trials=3)


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
