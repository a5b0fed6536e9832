"""Seeded command streams for the three benchmark workloads.

Each workload is an endless, deterministic stream of commands.  A command is
a dict with the ``argv`` handed to ``blockadesim.cli.main``, its ``kind``,
the ``params`` the checker needs (every one of them is also spelled out in
``argv``, so the checker never relies on the program's defaults), the
output ``fmt`` and the units of ``work`` it performs.  The program sees only
the argv lists.

Draws use ``random.Random`` seeded with a string, which is hashed with
SHA-512 and so does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import random

# Unit of ``work`` per workload, as reported next to ``work_per_s``.
WORK_UNITS = {
    "ghz_sweep": "grid points",
    "grow_long": "Monte Carlo trials",
    "cli_mix": "CLI commands",
}

# Points per sweep command.  ROADMAP's reference sweep has 100 points (about
# 7 s a command), which would leave about three commands in a 25-second run
# and no median worth the name; 8 points give 25-45 commands per run while
# every command still evaluates 8 points on one pre-detection state.  The
# choice is a trade of sample count against sweep length, not a measurement
# of how long users' sweeps are.
GHZ_SWEEP_POINTS = 8
GROW_LONG_TRIALS = 800

# Commands of one cli_mix block, shuffled per block.  No recorded usage
# exists, so the shares are an assumption, not measured traffic: the four
# command kinds the mix must cover (entangle, ghz, budget, grow) get equal
# shares, and within a kind its variants do (exact and sampled entangle;
# ghz at 4, 6 and 8 qubits; the two budget presets; grow at targets 5, 8
# and 12 for block size 4).
CLI_MIX_BLOCK = (
    ("entangle:exact",) * 3 + ("entangle:sampled",) * 3
    + ("ghz:4", "ghz:6", "ghz:8") * 2
    + ("budget:paper-43d", "budget:paper-58d") * 3
    + ("grow:5", "grow:8", "grow:12") * 2
)

# Output formats, in equal shares (also an assumption).
CLI_MIX_FORMATS = ("json", "csv", "text")

# Share of draws that take a parameter's edge value (eta = 1, p_abs = 1,
# --trials at either end).  An assumption like the shares above; at 1/8 every
# run holds many commands at each edge, so the largest-draw command, which
# sets peak memory, is in every run.
EDGE_SHARE = 0.125

# eta' range of cli_mix grow commands.  The mix's growth trials are short
# ones, where per-trial seeding weighs against the step loop: at eta' >= 0.75
# a trial takes 19-511 steps on average (target 5..12), against 1,503 at
# target 12 and eta' = 0.5, the long trials grow_long covers.
CLI_MIX_ETA_PRIME = (0.75, 1.0)

# target == block size is the smallest valid grow target, but its json
# artifact was a known failure when this benchmark was written
# (``link_success_rate`` is NaN because no link is ever attempted), and the
# timed workloads must run commands that succeed.  It is run on every untimed
# pass as KNOWN_FAILURE_PROBE instead, and 5 (one link needed) is the
# smallest target in the mix.
KNOWN_FAILURE_PROBE = {
    "argv": ["grow", "--block-size", "4", "--target", "4", "--eta", "0.9",
             "--eta-prime", "0.9", "--trials", "50", "--seed", "1",
             "--cap", "1000000", "--format", "json"],
    "kind": "grow",
    "params": {"block_size": 4, "target": 4, "eta": 0.9, "eta_prime": 0.9,
               "trials": 50, "seed": 1},
    "fmt": "json",
    "known_cause": "link_success_rate is NaN (no link is attempted "
                            "when one block already reaches the target)",
}

# budget --set fields and the log-uniform range each is drawn from
BUDGET_OVERRIDES = {
    "dark_count_rate_hz": (1.0, 1e3),
    "temperature_k": (1e-5, 1e-2),
    "blockade_mhz": (0.1, 10.0),
    "protocol_time_s": (1e-6, 1e-4),
    "density_cm3": (1e10, 1e13),
}


def commands(workload: str, seed: int):
    """Endless deterministic command stream of one workload."""
    try:
        make = _GENERATORS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_GENERATORS)}") from None
    return make(random.Random(f"{workload}:{seed}"))


def _num(x: float) -> str:
    return repr(float(x))


def _ghz_sweep(rng: random.Random):
    previous = None
    while True:
        p_abs = _fresh_p_abs(rng, previous, lo=0.95, hi=0.999, edge=0.0)
        previous = p_abs
        start = round(rng.uniform(0.05, 0.3), 3)
        step = round(rng.uniform(0.05, 0.09), 3)
        # stop half a step past the last point so the program's point count
        # (floor((stop - start) / step) + 1) is immune to rounding
        stop = round(start + (GHZ_SWEEP_POINTS - 0.5) * step, 4)
        etas = [start + i * step for i in range(GHZ_SWEEP_POINTS)]
        yield {
            "argv": ["sweep", "ghz", "--set", "qubits=4", "--set", f"p_abs={_num(p_abs)}",
                     "--range", f"eta={_num(start)}:{_num(stop)}:{_num(step)}",
                     "--format", "json"],
            "kind": "sweep_ghz",
            "params": {"qubits": 4, "p_abs": p_abs, "etas": etas},
            "fmt": "json",
            "work": GHZ_SWEEP_POINTS,
        }


def _grow_long(rng: random.Random):
    while True:
        params = {"block_size": 4, "target": 12, "eta": round(rng.uniform(0.5, 1.0), 4),
                  "eta_prime": 0.5, "trials": GROW_LONG_TRIALS,
                  "seed": rng.randrange(2**31)}
        yield _grow_command(params, "json", GROW_LONG_TRIALS)


def _grow_command(params: dict, fmt: str, work: int) -> dict:
    return {
        "argv": ["grow", "--block-size", str(params["block_size"]),
                 "--target", str(params["target"]), "--eta", _num(params["eta"]),
                 "--eta-prime", _num(params["eta_prime"]), "--trials", str(params["trials"]),
                 "--seed", str(params["seed"]), "--cap", "1000000", "--format", fmt],
        "kind": "grow",
        "params": params,
        "fmt": fmt,
        "work": work,
    }


def _fresh_p_abs(rng: random.Random, previous, lo: float, hi: float, edge: float) -> float:
    """p_abs in [lo, hi] (or exactly 1 with probability ``edge``), never equal to ``previous``."""
    while True:
        p = 1.0 if rng.random() < edge else round(rng.uniform(lo, hi), 6)
        if p != previous:
            return p


def _eta(rng: random.Random) -> float:
    return 1.0 if rng.random() < EDGE_SHARE else round(rng.uniform(0.05, 1.0), 6)


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _sampled_trials(rng: random.Random) -> int:
    """Log-uniform in [1e4, 1e6], with each end drawn an EDGE_SHARE of the time."""
    u = rng.random()
    if u < EDGE_SHARE:
        return 10**4
    if u < 2 * EDGE_SHARE:
        return 10**6
    return _log_uniform_int(rng, 10**4, 10**6)


def _cli_mix(rng: random.Random):
    previous_p_abs = None
    while True:
        block = list(CLI_MIX_BLOCK)
        rng.shuffle(block)
        for kind in block:
            fmt = rng.choice(CLI_MIX_FORMATS)
            if kind.startswith("budget:"):
                preset = kind.split(":", 1)[1]
                field = rng.choice(sorted(BUDGET_OVERRIDES))
                lo, hi = BUDGET_OVERRIDES[field]
                value = float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}")
                yield {
                    "argv": ["budget", "--preset", preset, "--set", f"{field}={_num(value)}",
                             "--format", fmt],
                    "kind": "budget",
                    "params": {"preset": preset, "field": field, "value": value},
                    "fmt": fmt,
                    "work": 1,
                }
                continue
            if kind.startswith("grow:"):
                params = {"block_size": 4, "target": int(kind.split(":", 1)[1]),
                          "eta": round(rng.uniform(0.5, 1.0), 6),
                          "eta_prime": round(rng.uniform(*CLI_MIX_ETA_PRIME), 6),
                          "trials": _log_uniform_int(rng, 100, 400),
                          "seed": rng.randrange(2**31)}
                yield _grow_command(params, fmt, 1)
                continue
            p_abs = _fresh_p_abs(rng, previous_p_abs, lo=0.8, hi=1.0, edge=EDGE_SHARE)
            previous_p_abs = p_abs
            eta = _eta(rng)
            if kind.startswith("ghz:"):
                qubits = int(kind.split(":", 1)[1])
                yield {
                    "argv": ["ghz", "--qubits", str(qubits), "--eta", _num(eta),
                             "--p-abs", _num(p_abs), "--format", fmt],
                    "kind": "ghz",
                    "params": {"qubits": qubits, "eta": eta, "p_abs": p_abs},
                    "fmt": fmt,
                    "work": 1,
                }
                continue
            gamma_dc = 0.0 if rng.random() < 0.5 else round(math.exp(rng.uniform(0.0, math.log(1e4))), 3)
            trials = _sampled_trials(rng) if kind == "entangle:sampled" else 0
            params = {"eta": eta, "p_abs": p_abs, "gamma_dc": gamma_dc, "gate_time": 5e-6,
                      "policy": rng.choice(("per-detector", "exclusive")),
                      "trials": trials, "seed": rng.randrange(2**31)}
            yield {
                "argv": ["entangle", "--eta", _num(eta), "--p-abs", _num(p_abs),
                         "--gamma-dc", _num(gamma_dc), "--gate-time", _num(5e-6),
                         "--policy", params["policy"], "--trials", str(trials),
                         "--seed", str(params["seed"]), "--format", fmt],
                "kind": "entangle",
                "params": params,
                "fmt": fmt,
                "work": 1,
            }


_GENERATORS = {
    "ghz_sweep": _ghz_sweep,
    "grow_long": _grow_long,
    "cli_mix": _cli_mix,
}
