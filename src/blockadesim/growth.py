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
draws one uniform per step and walks each trial through a transition graph
over those slot states, 8 steps per lookup: a table indexed by (state, byte
of 8 link bits) gives the state 8 steps on and the counts of those steps.
Each table entry is built on first use from 8 single steps of
``_TransitionGraph.expand``, the only copy of the step rule, and whether a
trial has succeeded is read from the graph's absorbed states; ``run_trial``
and ``simulate_growth`` both run the one trial kernel ``_walk_trials``.  The
kernel tallies the steps of consecutive trials together: the six step
counters of each trial, which grow by at most 2 a step, into a row of an
int64 array, and its generation attempts, which pass int64 when blocks are
rare, into a list of Python ints.  ``simulate_growth`` checks every trial's
qubit ledger on that array in one comparison.

Trial ``t`` of a run with seed ``s`` draws from the stream of
``default_rng([s, t])``.  ``simulate_growth`` computes those PCG64 states in
one vectorised pass of numpy's SeedSequence hash per block of trials, checks
trial 0 of the first pass against numpy itself, and sets each state on one
reused generator.  Its trials draw their uniforms 256, 512, then 1,024 at
a time, so a short trial leaves few of them unused and a long one makes few
draws; uniforms past a trial's end are never read, so the sizes change no
result.  ``run_trial`` draws 256 at a time throughout, so the generator it
is handed ends where a step-by-step loop over such chunks leaves it.

``expected_cost_markov`` evaluates the same rules exactly: the reachable
state space is tiny and the expected costs solve a linear system over it.
The solver shares no stepping code with the Monte Carlo walk, so the two
sides cross-check each other.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import threading
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, repeat
from typing import Optional

import numpy as np

from .protocol import ghz_success_probability, link_success_probability


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
    """Per-trial ledger: cluster sizes in stock plus the trial's counters."""

    clusters: list = field(default_factory=list)
    consumed_ghz_blocks: int = 0
    generation_attempts: int = 0
    link_attempts: int = 0
    link_successes: int = 0
    elapsed_steps: int = 0
    qubits_measured: int = 0
    qubits_discarded: int = 0

    def assert_ledger_balanced(self, block_size: int):
        """Total qubits created must be fully accounted for."""
        created = self.consumed_ghz_blocks * block_size
        kept = sum(self.clusters)
        if created != kept + self.qubits_measured + self.qubits_discarded:
            raise AssertionError(
                f"qubit ledger broken: created {created}, kept {kept}, "
                f"measured {self.qubits_measured}, discarded {self.qubits_discarded}"
            )


# numpy's SeedSequence hash (pool of 4 uint32 words) and the PCG64 multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# Trials seeded per vectorised pass; bounds the seeding memory.
_SEED_BLOCK = 4096
# Uniforms a trial draws from its generator at a time, one per step.
# run_trial draws _DRAW_CHUNK at a time.  simulate_growth draws the sizes of
# _DRAW_CHUNKS in turn, the last one repeating: a short trial leaves few
# uniforms unused, a long one makes few draws, and the largest size keeps
# every array of a tally batch under 128 KiB.
_DRAW_CHUNK = 256
_DRAW_CHUNKS = (256, 512, 1024)
# Steps one byte of link bits covers: one table lookup walks them all.
_BYTE = 8
# Byte steps buffered between two tallies; bounds the walk's memory.
_TALLY_BYTES = 512
# Slots of a byte node after its 256 successors: its first table column
# and its state's code.
_BASE, _CODE = 256, 257
_BASE_OF = operator.itemgetter(_BASE)
# Column base of the stop node that the slots of unbuilt entries point at.
_STOP = -1
# Table rows: blocks, link attempts, link successes, qubits measured, qubits
# discarded and steps taken, which are the step counters of a trial, then
# the mask of the draw steps.
_ROWS = 7


class _TransitionGraph:
    """The slot states (a, b) of one (block, target) pair and the steps between them.

    Each state has a code.  ``expand`` applies the growth step rule to a
    state once and stores in ``next[code]`` one (successor, increments) pair
    per link bit ``u < q``; the increments are blocks, link attempts, link
    successes, qubits measured and qubits discarded, and a draw step ignores
    its bit.

    Trials walk the byte nodes over those states: a list of 256 successors,
    one per byte of 8 link bits (bit k for step k), then ``_BASE``, the
    node's first column in ``table``, and ``_CODE``, its state.  A trial is
    the walk ``accumulate(bytes, getitem, initial=node)``, which runs in C.
    Column ``node[_BASE] + byte`` holds the increments of that byte's steps,
    the steps taken (fewer than 8 when the trial is absorbed inside the
    byte) and the mask of its draw steps; an absorbed node points at itself
    with zero steps.  Entries are built on first visit from 8 single steps:
    until then a slot points at the shared stop node.  A step cap that cuts
    a byte ends the walk with a tail entry of fewer steps, which gets a
    column of its own.  The graph is shared through a cache, so building
    takes a lock, and an entry's column is stored before any walk can step
    through it.
    """

    def __init__(self, block: int, target: int):
        self.block = block
        self.target = target
        self.states = []    # (a, b) per code
        self.absorbed = []  # per code
        self.next = []      # per code; None until expanded
        # the counts of at most 8 steps each fit a byte
        self.table = np.zeros((_ROWS, 4 * 256), np.uint8)
        self.stop = [None] * 256 + [_STOP, None]
        self.stop[:256] = [self.stop] * 256
        self._codes = {}
        self._bytes = {}    # byte node per code
        self._tails = {}    # (code, bits, steps) -> (column, code)
        self._columns = 0
        self._lock = threading.Lock()
        self.start = self.byte_node(self.code(0, 0))

    def code(self, a: int, b: int) -> int:
        found = self._codes.get((a, b))
        if found is None:
            found = self._codes[(a, b)] = len(self.states)
            self.states.append((a, b))
            self.absorbed.append(a >= self.target or b >= self.target)
            self.next.append(None)
        return found

    def expand(self, code: int):
        """Store the steps out of state ``code``: the growth step rule."""
        a, b = self.states[code]
        if a == 0 or b == 0:
            # fewer than two clusters: buy a block (attempts are tallied apart)
            draw = (self.code(self.block, b) if a == 0 else self.code(a, self.block),
                    (1, 0, 0, 0, 0))
            self.next[code] = (draw, draw)
        else:
            # link: a win merges the pair; a failure measures one qubit of
            # each and discards a remnant below two qubits
            win = (self.code(a + b, 0), (0, 1, 1, 0, 0))
            a, b = a - 1, b - 1
            dropped = (a if a < 2 else 0) + (b if b < 2 else 0)
            fail = (self.code(a if a >= 2 else 0, b if b >= 2 else 0), (0, 1, 0, 2, dropped))
            self.next[code] = (fail, win)

    def byte_node(self, code: int) -> list:
        """The byte node of state ``code``, with 256 table columns of its own."""
        found = self._bytes.get(code)
        if found is None:
            found = self._bytes[code] = [self.stop] * 256 + [self._claim(256), code]
            if self.absorbed[code]:
                found[:256] = [found] * 256
        return found

    def _claim(self, n: int) -> int:
        """The first of ``n`` new zero columns of the table."""
        first = self._columns
        self._columns += n
        if self._columns > self.table.shape[1]:
            grown = np.zeros((_ROWS, 2 * self._columns), np.uint8)
            grown[:, :first] = self.table[:, :first]
            self.table = grown
        return first

    def _steps(self, code: int, bits: int, n: int) -> tuple:
        """(state, table column) after ``n`` single steps from ``code`` on ``bits``."""
        column = [0] * _ROWS
        for k in range(n):
            if self.absorbed[code]:
                break
            if self.next[code] is None:
                self.expand(code)
            code, increments = self.next[code][bits >> k & 1]
            column[:5] = map(operator.add, column, increments)
            column[5] += 1
            column[6] |= increments[0] << k
        return code, column

    def _link(self, node: list, byte: int):
        """Build the entry of ``byte`` at ``node`` and point its slot at the successor."""
        with self._lock:
            if node[byte] is self.stop:
                code, column = self._steps(node[_CODE], byte, _BYTE)
                self.table[:, node[_BASE] + byte] = column
                node[byte] = self.byte_node(code)

    def walk(self, node: list, data: bytes) -> list:
        """The byte nodes from ``node`` on, one per byte of ``data``, building those reached."""
        path = list(accumulate(data, operator.getitem, initial=node))
        while path[-1] is self.stop:
            i = list(map(_BASE_OF, path)).index(_STOP) - 1
            self._link(path[i], data[i])
            path[i:] = accumulate(data[i:], operator.getitem, initial=path[i])
        return path

    def tail(self, node: list, bits: int, n: int) -> tuple:
        """(table column, state) of the first ``n`` < 8 steps of ``bits`` from ``node``."""
        key = (node[_CODE], bits, n)
        with self._lock:
            found = self._tails.get(key)
            if found is None:
                code, column = self._steps(node[_CODE], bits, n)
                first = self._claim(1)
                self.table[:, first] = column
                found = self._tails[key] = (first, code)
            return found


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


def _tally(graph: _TransitionGraph, log_miss: float, ids: list, uniforms: list,
           starts: list) -> tuple:
    """(counts, attempts) of buffered byte steps, one trial each.

    ``ids`` holds the table column of each byte step and ``uniforms`` its 8
    uniforms; the byte steps of trial ``i`` begin at ``starts[i]``.
    ``counts[i]`` is the int64 row of its step counters, in table row order,
    and ``attempts[i]`` its generation attempts, a Python int: one per block
    plus the extra geometric ones.
    """
    entries = graph.table.take(np.fromiter(ids, np.intp, len(ids)), axis=1)
    counts = np.add.reduceat(entries[:6], starts, axis=1, dtype=np.int64).T
    blocks = counts[:, 0].tolist()
    if not log_miss:
        return counts, blocks
    extra = np.zeros(_BYTE * len(ids))
    drawn = np.flatnonzero(np.unpackbits(entries[6], bitorder="little"))
    extra[drawn] = _extra_attempts(np.concatenate(uniforms).take(drawn), log_miss)
    starts = [_BYTE * start for start in starts]
    if extra.sum() < 2.0**53:  # float sums of the integer floors stay exact
        sums = np.add.reduceat(extra, starts).astype(np.int64).tolist()
    else:
        sums = [sum(map(int, piece.tolist())) for piece in np.split(extra, starts[1:])]
    return counts, list(map(operator.add, blocks, sums))


def _shr16(x: np.ndarray) -> np.ndarray:
    return x ^ x >> np.uint32(16)


def _hasher(hash_const: int, mult: int):
    """numpy's SeedSequence hashmix: each call moves on to the next hash constant."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        return _shr16(value * np.uint32(hash_const))
    return hashmix


def _pcg64_seeds(seed: int, start: int, count: int) -> list:
    """(state, inc) of ``default_rng([seed, t]).bit_generator`` for ``count`` t from ``start``.

    numpy's SeedSequence algorithm vectorised over t in uint32 arithmetic:
    the entropy words of seed and t are hashed into a pool of 4 words,
    mixed, and read out as 4 uint64 words, which seed PCG64 by the
    ``pcg_setseq_128`` step.  A t of 2^32 or more takes two entropy words.
    """
    if start < 2**32 < start + count:
        head = 2**32 - start
        return _pcg64_seeds(seed, start, head) + _pcg64_seeds(seed, 2**32, count - head)
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    t = np.arange(start, start + count, dtype=np.uint64)
    entropy = [np.full(count, word, np.uint32) for word in words] + [t.astype(np.uint32)]
    if start >= 2**32:
        entropy.append((t >> np.uint64(32)).astype(np.uint32))
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _shr16(_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [_shr16(_MIX_L * x - _MIX_R * hashmix(word)) for x in pool]
    out = [x.astype(np.uint64) for x in map(_hasher(_INIT_B, _MULT_B), pool + pool)]
    # the uint64 words: state high, state low, sequence high, sequence low
    state_hi, state_lo, seq_hi, seq_lo = (
        (out[k] | out[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2))
    seeds = []
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        seeds.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def _trial_generators(seed: int, trials: int):
    """The generator of each trial t, on the stream of ``default_rng([seed, t])``.

    One generator is reused: each trial's PCG64 state is set on it when the
    trial is taken, so a trial must draw all its uniforms before the next one
    is taken.  Trial 0's computed state is checked against numpy's own
    seeding first, so a numpy whose hash differs fails instead of giving
    other numbers.
    """
    rng = np.random.default_rng([seed, 0])
    bit_generator = rng.bit_generator
    want = bit_generator.state["state"]
    for start in range(0, trials, _SEED_BLOCK):
        seeds = _pcg64_seeds(seed, start, min(_SEED_BLOCK, trials - start))
        if start == 0 and seeds[0] != (want["state"], want["inc"]):
            raise RuntimeError("this numpy seeds PCG64 from SeedSequence differently than "
                               "growth._pcg64_seeds computes it; refusing to run")
        for state, inc in seeds:
            bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
            yield rng


def _walk_trials(policy: GrowthPolicy, p_block: float, eta_prime: float, rngs,
                 trials: int, chunks: tuple) -> tuple:
    """Run one growth trial per generator; return (rows, attempts, ends, won).

    ``rows[t]`` holds the step counters of trial t, an int64 row in table
    row order, ``attempts[t]`` its generation attempts as a Python int,
    ``ends[t]`` its final slot state (a, b) and ``won[t]`` whether that
    state is absorbed, i.e. the trial reached the target.  Each trial draws
    uniforms from its generator in chunks of the sizes ``chunks`` in turn,
    the last size repeating (multiples of 8), one per step, packs their
    link bits ``u < q`` into bytes and walks its cached
    transition graph one byte, 8 steps, per lookup; where the step cap cuts
    a byte, the walk ends with a tail entry of the steps left.  A trial ends
    on an absorbed node or at the cap, and only the byte steps up to its
    absorption are kept.  The table columns and uniforms of consecutive
    trials are buffered and tallied together every ``_TALLY_BYTES`` byte
    steps.  Block generation attempts are geometric with the chain
    acceptance probability, drawn by inversion from the uniform of each
    draw step.

    A trial draws all its uniforms before the next generator is taken from
    ``rngs``, so ``rngs`` may yield one generator reset for every trial.
    Uniforms drawn past a trial's end are never read, and since ``random(a)``
    then ``random(b)`` gives the doubles of ``random(a + b)``, the schedule
    changes no result, only the generator's final state.
    """
    q = link_success_probability(eta_prime)
    graph = _graph(policy.block_size, policy.target_size)
    absorbed = graph.absorbed
    log_miss = math.log1p(-p_block) if p_block < 1.0 else 0.0
    rows = np.zeros((trials, 6), np.int64)
    attempts = [0] * trials
    ends, won = [], []

    def tally():
        # only trial first can hold counts already, from earlier batches
        counts, added = _tally(graph, log_miss, ids, uniforms, starts)
        stop = first + len(added)
        rows[first:stop] += counts
        attempts[first:stop] = map(operator.add, attempts[first:stop], added)

    # the buffer holds the byte steps of trials first, first + 1, ...
    ids, uniforms, starts, first = [], [], [], 0
    for t, rng in enumerate(rngs):
        node, left = graph.start, policy.step_cap
        for chunk in chain(chunks, repeat(chunks[-1])):
            if len(ids) >= _TALLY_BYTES:
                tally()
                ids, uniforms, starts, first = [], [], [], t
            if first + len(starts) == t:
                starts.append(len(ids))
            u = rng.random(chunk)
            data = np.packbits(u < q, bitorder="little").tobytes()
            walked = data[:left // _BYTE]  # all of it unless the cap cuts the chunk
            path = graph.walk(node, walked)
            node = path[-1]
            code = node[_CODE]
            kept = len(walked)
            if absorbed[code]:
                # the absorbed node loops on itself with zero columns: keep
                # the byte steps up to its first visit (found by identity,
                # since == on the nested nodes recurses without end)
                kept = bisect.bisect_left(path, True, key=lambda visit: visit is node)
                walked = walked[:kept]
            ids += map(operator.add, map(_BASE_OF, path), walked)
            if left < chunk and not absorbed[code]:
                # the cap falls inside this chunk: the steps after its last
                # whole byte take a tail entry
                part = left % _BYTE
                if part:
                    column, code = graph.tail(node, data[kept] & (1 << part) - 1, part)
                    ids.append(column)
                    kept += 1
            # a view of a cut chunk would keep all of it until the tally
            uniforms.append(u if kept == len(data) else u[:_BYTE * kept].copy())
            left -= chunk
            if absorbed[code] or left <= 0:
                break
        ends.append(graph.states[code])
        won.append(absorbed[code])
    if ids:
        tally()
    return rows, attempts, ends, won


def _inventory(row: np.ndarray, attempts: int, end) -> ClusterInventory:
    """The ledger of a trial from its step counters, attempts and final slot state."""
    blocks, links, wins, measured, dropped, steps = row.tolist()
    return ClusterInventory(
        clusters=[size for size in end if size], consumed_ghz_blocks=blocks,
        generation_attempts=attempts, link_attempts=links, link_successes=wins,
        elapsed_steps=steps, qubits_measured=measured, qubits_discarded=dropped)


def run_trial(policy: GrowthPolicy, p_block: float, eta_prime: float,
              rng: np.random.Generator) -> tuple:
    """One growth trial; returns (succeeded, inventory).

    The draw rule (generate a block only below two clusters) keeps the
    inventory at two clusters or fewer, so the stock fits in two integer
    slots and a trial is a walk over the slot states, 8 steps per table
    lookup.  The step rule lives only in ``_TransitionGraph.expand``; this
    is the trial kernel ``simulate_growth`` uses, run on one generator.  One
    uniform is consumed per step from chunks of ``_DRAW_CHUNK``, so results
    and the generator's final state are deterministic for a given generator
    state.
    """
    rows, (attempts,), (end,), (won,) = _walk_trials(policy, p_block, eta_prime, [rng], 1,
                                                     (_DRAW_CHUNK,))
    return won, _inventory(rows[0], attempts, end)


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


def _mean_std(counts) -> tuple:
    values = np.asarray(counts, np.float64)
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
        raise ValueError("eta = 0 can never supply blocks" if eta == 0.0 else
                         f"block probability of {policy.block_size}-qubit blocks "
                         f"underflows to 0 at eta = {eta!r}")
    # attempts per block reach log(1 - u) / log1p(-p_block) at u = 1 - 2^-53
    if p_block < 1.0 and not math.isfinite(math.log(2.0**-53) / math.log1p(-p_block)):
        raise ValueError(f"block probability {p_block!r} is too small: "
                         "its largest attempt count overflows a float")
    q = link_success_probability(eta_prime)
    if q <= 0.0 and policy.target_size > policy.block_size:
        raise ValueError("eta_prime = 0 can never reach a target above one block")
    return p_block, q


def simulate_growth(policy: GrowthPolicy, eta: float, eta_prime: float,
                    seed: int, trials: int) -> GrowthStatistics:
    """Monte Carlo growth statistics, deterministic for a given seed.

    Trial t draws from the stream of ``default_rng([seed, t])``, so trial
    results do not depend on execution order; the streams' states are
    computed in one vectorised pass per block of trials (``_pcg64_seeds``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_block, _ = growth_rates(policy, eta, eta_prime)

    rows, gens, ends, won = _walk_trials(policy, p_block, eta_prime,
                                         _trial_generators(seed, trials), trials, _DRAW_CHUNKS)
    ends = np.array(ends, np.int64)
    blocks, links, wins, measured, dropped, steps = rows.T
    # every trial's qubit ledger, as ClusterInventory.assert_ledger_balanced checks one
    broken = np.flatnonzero(blocks * policy.block_size != ends.sum(axis=1) + measured + dropped)
    if broken.size:
        t = int(broken[0])
        _inventory(rows[t], gens[t], ends[t]).assert_ledger_balanced(policy.block_size)
    successes = sum(won)
    link_successes = int(wins.sum())
    link_attempts = int(links.sum())

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
        cap_hit_fraction=(trials - successes) / trials,
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
    docstring).  Expected blocks and link attempts obey E[state] = c(state)
    + sum_next P(next|state) E[next], one linear solve over all transient
    states.  Each step is a block or a link, so steps = blocks + links, and
    generation attempts = blocks / p_block by Wald's identity.
    """
    if policy.target_size > MARKOV_MAX_TARGET:
        raise ValueError(
            f"target {policy.target_size} exceeds the state-space bound {MARKOV_MAX_TARGET}"
        )
    p_block, q = growth_rates(policy, eta, eta_prime)
    block = policy.block_size
    target = policy.target_size
    # cost columns: blocks, link attempts
    draw_cost = np.array([1.0, 0.0])
    link_cost = np.array([0.0, 1.0])

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
    c_mat = np.zeros((n, 2))
    for s, i in index.items():
        cost, nexts = transitions(s)
        c_mat[i] = cost
        for prob, nxt in nexts:
            if prob > 0.0 and not absorbed(nxt):
                p_mat[i, index[nxt]] += prob
    try:
        solution = np.linalg.solve(np.eye(n) - p_mat, c_mat)
    except np.linalg.LinAlgError:
        raise ValueError(f"the Markov solve is singular at eta_prime = {eta_prime!r}, "
                         f"target {target}") from None
    blocks, links = (float(x) for x in solution[index[start]])
    return ExpectedCost(blocks=blocks, link_attempts=links,
                        generation_attempts=blocks / p_block, steps=blocks + links)
