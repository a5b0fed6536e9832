"""Shared test utilities: state oracles, hand-written protocol targets,
random states, statistics, the reference growth trial and the argparse
reading of a command line."""

import argparse
import functools
import itertools
import math
from pathlib import Path

import numpy as np

from blockadesim import cli
from blockadesim.ensemble import gate_phase, gate_x
from blockadesim.growth import ClusterInventory, GrowthStatistics, growth_rates
from blockadesim.optics import _click_pair
from blockadesim.rates import link_success_probability
from blockadesim.state_algebra import (
    ATOL_PSD,
    ATOL_STATE,
    ENSEMBLE_LEVELS,
    EnsembleQudit,
    HybridState,
    OpticalMode,
)


def tensor(a, b):
    """Tensor product; subsystem order is a's register followed by b's."""
    return HybridState(a.subsystems + b.subsystems,
                       {ka + kb: va * vb for ka, va in a for kb, vb in b})


def basis_labels(sub):
    """Every label of one subsystem, in index order."""
    if isinstance(sub, EnsembleQudit):
        return ENSEMBLE_LEVELS
    return tuple(range(sub.cutoff + 1))


def basis_iter(subsystems):
    """Iterate the full product basis of a register (small registers only)."""
    return itertools.product(*(basis_labels(sub) for sub in subsystems))


def element(rho, ket, bra):
    """<ket| rho |bra>; labels as stored (strings and Python ints)."""
    return rho.elements.get((tuple(ket), tuple(bra)), 0.0 + 0.0j)


def min_eigenvalue(rho):
    """Smallest eigenvalue of rho as a dense matrix on its support."""
    elems = rho.elements
    if not elems:
        return 0.0
    basis = sorted({k for k, _ in elems} | {b for _, b in elems}, key=repr)
    index = {k: i for i, k in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for (ket, bra), v in elems.items():
        mat[index[ket], index[bra]] = v
    return float(np.linalg.eigvalsh(mat)[0])


def assert_valid(rho, atol=ATOL_STATE, atol_psd=ATOL_PSD):
    """Raise unless rho has trace 1, is hermitian and is positive semidefinite."""
    tr = rho.trace()
    if abs(tr - 1.0) > atol:
        raise ValueError(f"trace {tr} deviates from 1 beyond {atol}")
    elems = rho.elements
    for (ket, bra), v in elems.items():
        if abs(v - elems.get((bra, ket), 0.0).conjugate()) > atol:
            raise ValueError(f"element ({ket},{bra}) breaks hermiticity")
    lo = min_eigenvalue(rho)
    if lo < -atol_psd:
        raise ValueError(f"negative eigenvalue {lo} below -{atol_psd}")


def pattern_weights_loop(det, cutoffs, occupations):
    """Oracle for ``optics._pattern_weights``: one pattern, occupation and mode at a time.

    Same per-mode weights, multiplied in mode order from 1.0 and stopped at
    the first zero, so the product form must match it bit for bit.
    """
    per_mode = [[_click_pair(det, n) for n in range(c + 1)] for c in cutoffs]
    out = []
    for pattern in itertools.product((False, True), repeat=len(cutoffs)):
        weights = []
        for occ in occupations:
            w = 1.0
            for i, n in enumerate(occ):
                w *= per_mode[i][n][pattern[i]]
                if w == 0.0:
                    break
            weights.append(w)
        out.append((pattern, tuple(weights)))
    return out


# ---------------------------------------------------------------------------
# hand-written targets: the independent check of protocol._ideal_targets

def psi_pair(sign):
    """Storage-basis pair target (|s g> + sign * i |g s>) / sqrt(2); up is -1, down +1."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    subs = (EnsembleQudit("A"), EnsembleQudit("B"))
    r = 1.0 / math.sqrt(2.0)
    return HybridState(subs, {("s", "g"): r, ("g", "s"): sign * 1j * r})


# Accepted two-click patterns of the four-qubit chain, ordered (D1, D2, D3,
# D4), and the local correction mapping each conditional state to
# (|gggg> + |ssss>)/sqrt(2).  Corrections are ("x", register) bit flips and
# ("phase", register, angle) logical Z rotations on registers A=0 .. D=3.
GHZ_CORRECTIONS = {
    (True, True, False, False): (("x", 1), ("x", 3)),
    (True, False, True, False): (("x", 1), ("x", 2), ("phase", 0, math.pi)),
    (False, True, False, True): (("x", 1), ("x", 2), ("phase", 0, math.pi)),
    (False, False, True, True): (("x", 1), ("x", 3)),
}

ACCEPTED_GHZ_PATTERNS = frozenset(GHZ_CORRECTIONS)


def canonical_ghz():
    subs = tuple(EnsembleQudit(name) for name in "ABCD")
    r = 1.0 / math.sqrt(2.0)
    return HybridState(subs, {("g",) * 4: r, ("s",) * 4: r})


def apply_corrections(state, corrections):
    """Apply a GHZ correction listing to a pure state over (A, B, C, D)."""
    for op in corrections:
        if op[0] == "x":
            state = gate_x(state, op[1])
        elif op[0] == "phase":
            state = gate_phase(state, op[1], op[2])
        else:
            raise ValueError(f"unknown correction {op!r}")
    return state


def corrected_target(corrections):
    """C^dagger |GHZ> for the correction C: the gates undone in reverse order
    (X undoes itself, the phase rotation by -phi undoes the one by phi)."""
    return apply_corrections(canonical_ghz(), tuple(
        op if op[0] == "x" else (op[0], op[1], -op[2]) for op in reversed(corrections)))


def random_register(rng, max_subsystems=3, cutoff=2):
    """Random mix of ensemble registers and optical modes (at least one each kind possible)."""
    n = int(rng.integers(1, max_subsystems + 1))
    subs = []
    for i in range(n):
        if rng.random() < 0.5:
            subs.append(EnsembleQudit(f"q{i}"))
        else:
            subs.append(OpticalMode(cutoff, f"m{i}"))
    return tuple(subs)


def random_state(rng, subsystems, max_terms=6, allowed_labels=None):
    """Normalized random state on a sparse random support.

    ``allowed_labels`` optionally restricts the labels of each subsystem
    (mapping from subsystem index to an iterable of labels).
    """
    basis = []
    for key in basis_iter(subsystems):
        if allowed_labels and any(
            key[i] not in allowed_labels[i] for i in allowed_labels
        ):
            continue
        basis.append(key)
    n_terms = int(rng.integers(1, min(max_terms, len(basis)) + 1))
    picks = rng.choice(len(basis), size=n_terms, replace=False)
    amps = {}
    for i in picks:
        re, im = rng.normal(size=2)
        amps[basis[int(i)]] = complex(re, im)
    return HybridState(subsystems, amps).normalized()


def random_optical_pair(rng, cutoff=4, max_total=2):
    """Random state of two modes whose total occupation never exceeds max_total.

    Headroom between max_total and the cutoff keeps a balanced splitter from
    overflowing, since it preserves the total occupation.
    """
    subs = (OpticalMode(cutoff, "a"), OpticalMode(cutoff, "b"))
    keys = [
        (m, n)
        for m in range(max_total + 1)
        for n in range(max_total + 1 - m)
    ]
    amps = {}
    for key in keys:
        if rng.random() < 0.7:
            re, im = rng.normal(size=2)
            amps[key] = complex(re, im)
    if not amps:
        amps[(1, 0)] = 1.0
    return HybridState(subs, amps).normalized()


def random_logical_state(rng, n_registers=2):
    """Random state of ensemble registers confined to the logical g/s pair."""
    subs = tuple(EnsembleQudit(f"q{i}") for i in range(n_registers))
    allowed = {i: ("g", "s") for i in range(n_registers)}
    return random_state(rng, subs, max_terms=2**n_registers, allowed_labels=allowed)


def binomial_sigma(trials, p):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def assert_within_3sigma(observed_rate, expected_p, trials, label=""):
    sigma = binomial_sigma(trials, expected_p)
    assert abs(observed_rate - expected_p) <= 3.0 * sigma, (
        f"{label}: observed {observed_rate} vs expected {expected_p} "
        f"(3 sigma = {3*sigma:.3g})"
    )


# ---------------------------------------------------------------------------
# reference growth trial: the step rule as a plain per-step loop

def reference_trial(policy, p_block, eta_prime, rng):
    """One growth trial stepped one uniform at a time; returns (succeeded, inventory).

    Kept as the oracle for ``growth.run_trial``: same rule, same draws (one
    uniform per step, drawn 256, 512, then 1,024 at a time), no transition
    graph.
    """
    q = link_success_probability(eta_prime)
    target = policy.target_size
    block = policy.block_size
    cap = policy.step_cap
    log_miss = math.log1p(-p_block) if p_block < 1.0 else 0.0

    a = 0  # slot value 0 means empty
    b = 0
    blocks = gens = links = wins = steps = measured = discarded = 0
    chunk = 256
    buf = rng.random(chunk)
    pos = 0
    while steps < cap:
        if a >= target or b >= target:
            break
        steps += 1
        if pos == chunk:
            chunk = min(2 * chunk, 1024)
            buf = rng.random(chunk)
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
    # a trial that reaches the target on its last allowed step succeeds
    success = a >= target or b >= target

    inv = ClusterInventory(
        clusters=[s for s in (a, b) if s],
        consumed_ghz_blocks=blocks,
        generation_attempts=gens,
        link_attempts=links,
        link_successes=wins,
        elapsed_steps=steps,
        qubits_measured=measured,
        qubits_discarded=discarded,
    )
    return success, inv


def reference_growth(policy, eta, eta_prime, seed, trials):
    """``simulate_growth`` with every trial run by ``reference_trial``."""
    p_block, _ = growth_rates(policy, eta, eta_prime)
    results = [reference_trial(policy, p_block, eta_prime, np.random.default_rng([seed, t]))
               for t in range(trials)]
    for _, inv in results:
        inv.assert_ledger_balanced(policy.block_size)

    def mean_std(name):
        values = np.array([float(getattr(inv, name)) for _, inv in results])
        return float(values.mean()), float(values.std(ddof=1)) if trials > 1 else 0.0

    mean_blocks, std_blocks = mean_std("consumed_ghz_blocks")
    mean_links, std_links = mean_std("link_attempts")
    mean_gens, std_gens = mean_std("generation_attempts")
    mean_steps, std_steps = mean_std("elapsed_steps")
    successes = sum(ok for ok, _ in results)
    link_successes = sum(inv.link_successes for _, inv in results)
    link_attempts = sum(inv.link_attempts for _, inv in results)
    return GrowthStatistics(
        policy=policy, eta=eta, eta_prime=eta_prime, seed=seed, trials=trials,
        block_probability=p_block,
        success_fraction=successes / trials,
        cap_hit_fraction=(trials - successes) / trials,
        mean_blocks=mean_blocks, std_blocks=std_blocks,
        mean_link_attempts=mean_links, std_link_attempts=std_links,
        mean_generation_attempts=mean_gens, std_generation_attempts=std_gens,
        mean_steps=mean_steps, std_steps=std_steps,
        link_success_rate=link_successes / link_attempts if link_attempts else None,
        total_link_attempts=link_attempts,
    )


# ---------------------------------------------------------------------------
# argparse reading of a command line: the oracle for cli's table-driven reader


def _flag_type(spec):
    """argparse type of ``spec``'s flag: ``cli._parse_value``, with its reason on a bad value."""
    def parse(text):
        try:
            return cli._parse_value(spec, text)
        except cli.ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_flags(parser, specs):
    """One flag per spec, None when absent so that the resolution sees it unset."""
    for spec in specs:
        kwargs = {"choices": spec.choices} if spec.choices else {"type": _flag_type(spec)}
        parser.add_argument("--" + spec.name.replace("_", "-"), dest=spec.name,
                            default=None, help=spec.help, **kwargs)


@functools.cache
def _argparse_parser():
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="heralded entanglement and cluster growth toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value file with parameter defaults")
        _add_flags(p, cli.GLOBAL_PARAMS)

    for command, specs in cli.COMMAND_PARAMS.items():
        p = sub.add_parser(command)
        _add_flags(p, specs)
        if command == "budget":
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="FIELD=VALUE", help="override one parameter field")
        add_common(p)

    p = sub.add_parser("sweep")
    p.add_argument("swept", choices=tuple(cli.COMMAND_PARAMS), help="command to sweep")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="fixed parameter for every grid point")
    p.add_argument("--range", dest="ranges", action="append", default=[],
                   metavar="KEY=START:STOP:STEP", help="swept parameter (max 2)")
    p.add_argument("--max-grid", type=int, default=10_000, help="grid size bound")
    add_common(p)
    return parser


def argparse_parse(argv):
    """``cli.parse_args`` with the command line read by argparse, as the package once did.

    The flags argparse reads go to the same resolution (``cli._run_config``),
    so the two differ only in how they read ``argv``.  argparse raises
    SystemExit: 2 on a usage error, 0 after printing help.
    """
    flags = {k: v for k, v in vars(_argparse_parser().parse_args(argv)).items()
             if v is not None}
    command = flags.pop("command")
    swept = flags.pop("swept", None)
    flags["set"] = tuple(flags.pop("overrides", ()))
    flags["range"] = tuple(flags.pop("ranges", ()))
    return cli._run_config(command, swept, flags)
