"""Command-line front end.

Subcommands: ``entangle`` (heralded pair protocol, exact plus optional
sampling), ``ghz`` (four-qubit chain and the general acceptance formula),
``budget`` (analytic error report), ``grow`` (cluster growth Monte Carlo with
Markov cross-check), and ``sweep`` (grid scan of any of the former).

Conventions: parameter values resolve as defaults < config file < command
line; unknown keys anywhere are errors.  Identical config and seed give
byte-identical artifacts.  Output goes to stdout unless ``--output`` names a
file, which is written atomically; a relative path lands under
``$BLOCKADESIM_OUTPUT_DIR`` when that is set.

Exit codes: 0 success, 2 configuration/usage error (an output path that is
a directory or cannot be written among them), 3 parameter validation
error (a non-finite parameter or artifact value among them), 4 work bound
exceeded before any work runs (a sweep grid above ``--max-grid`` points,
``entangle`` sampling above 10^9 trials or ``grow`` above 10^6 trials, fixed
or swept).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

from . import budget as budget_mod
from . import protocol as protocol_mod
from .ensemble import AbsorptionModel
from .optics import DetectorModel

SCHEMA_VERSION = 2
OUTPUT_DIR_ENV = "BLOCKADESIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4

# Most sampled trials one entangle point may take (~50 s of sampling).
ENTANGLE_MAX_TRIALS = 10**9
# Most trials one grow point may take: each keeps a row of counters until the
# statistics are taken.
GROW_MAX_TRIALS = 10**6


class ConfigError(Exception):
    """Bad config file, unknown key, or untypable value."""


class WorkBoundError(Exception):
    """Sweep grid or Monte Carlo trials above their bound."""


@dataclass(frozen=True)
class ParamSpec:
    name: str
    parse: Callable
    default: object
    help: str
    choices: Optional[tuple] = None


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


COMMAND_PARAMS = {
    "entangle": (
        ParamSpec("eta", float, 1.0, "detector efficiency"),
        ParamSpec("p_abs", float, 1.0, "single-photon absorption probability"),
        ParamSpec("gamma_dc", float, 0.0, "detector dark-count rate [Hz]"),
        ParamSpec("gate_time", float, 5e-6, "detector gate window [s]"),
        ParamSpec("policy", str, "per-detector", "herald policy",
                  ("per-detector", "exclusive")),
        ParamSpec("trials", _non_negative_int, 0, "Monte Carlo trials (0 = exact only)"),
    ),
    "ghz": (
        ParamSpec("qubits", int, 4, "chain size (even, >= 4)"),
        ParamSpec("eta", float, 1.0, "detector efficiency"),
        ParamSpec("p_abs", float, 1.0, "single-photon absorption probability"),
    ),
    "budget": (
        ParamSpec("preset", str, "paper-43d", "parameter preset",
                  tuple(sorted(budget_mod.PRESETS))),
    ),
    "grow": (
        ParamSpec("block_size", int, 4, "GHZ block size (even, >= 4)"),
        ParamSpec("target", int, 8, "target cluster size"),
        ParamSpec("eta", float, 1.0, "detector efficiency for block generation"),
        ParamSpec("eta_prime", float, 1.0, "source efficiency for linking"),
        ParamSpec("trials", int, 1000, "Monte Carlo trials"),
        ParamSpec("cap", int, 1_000_000, "per-trial step cap"),
    ),
}

# Options of every command; a config file may set them too.
GLOBAL_PARAMS = (
    ParamSpec("seed", int, 0, "master RNG seed"),
    ParamSpec("output", Path, None, "artifact path (stdout when omitted)"),
    ParamSpec("format", str, "json", "artifact format (default json)",
              ("json", "csv", "text")),
)

# budget accepts every BudgetParams field as an override key
_BUDGET_FIELDS = tuple(f.name for f in fields(budget_mod.BudgetParams))


def _spec(command: str, key: str) -> ParamSpec:
    """The spec of parameter ``key`` of ``command``; budget fields parse as floats."""
    for spec in COMMAND_PARAMS[command]:
        if spec.name == key:
            return spec
    if command == "budget" and key in _BUDGET_FIELDS:
        return ParamSpec(key, float, None, "BudgetParams field")
    raise ConfigError(f"unknown parameter {key!r} for command {command!r}")


def _parse_value(spec: ParamSpec, raw: str):
    try:
        value = spec.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {spec.name}: {exc}") from None
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"{spec.name} must be one of {spec.choices}, got {value!r}")
    return value


def _parse_override(command: str, text: str) -> tuple:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip().replace("-", "_")
    return key, _parse_value(_spec(command, key), raw.strip())


def read_config_file(path: Path) -> dict:
    """key = value lines; '#' starts a comment; empty lines ignored."""
    out = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        out[key.replace("-", "_")] = raw
    return out


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int
    output: Optional[Path]
    fmt: str
    # sweep only
    sweep_command: Optional[str] = None
    ranges: tuple = ()


def _flag_type(spec: ParamSpec) -> Callable:
    """argparse type of ``spec``'s flag: ``_parse_value``, with its reason on a bad value."""
    def parse(text: str):
        try:
            return _parse_value(spec, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_flags(parser: argparse.ArgumentParser, specs):
    """One flag per spec, None when absent so that _resolve sees it unset."""
    for spec in specs:
        kwargs = {"choices": spec.choices} if spec.choices else {"type": _flag_type(spec)}
        parser.add_argument("--" + spec.name.replace("_", "-"), dest=spec.name,
                            default=None, help=spec.help, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="heralded entanglement and cluster growth toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value file with parameter defaults")
        _add_flags(p, GLOBAL_PARAMS)

    for command, specs in COMMAND_PARAMS.items():
        p = sub.add_parser(command)
        _add_flags(p, specs)
        if command == "budget":
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="FIELD=VALUE", help="override one parameter field")
        add_common(p)

    p = sub.add_parser("sweep")
    p.add_argument("swept", choices=tuple(COMMAND_PARAMS), help="command to sweep")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="fixed parameter for every grid point")
    p.add_argument("--range", dest="ranges", action="append", default=[],
                   metavar="KEY=START:STOP:STEP", help="swept parameter (max 2)")
    p.add_argument("--max-grid", type=int, default=10_000, help="grid size bound")
    add_common(p)
    return parser


def _resolve(specs, args, config_values: dict) -> dict:
    """{name: value} of ``specs``: the flag, else the config file, else the default."""
    out = {}
    for spec in specs:
        value = getattr(args, spec.name, None)
        if value is None and spec.name in config_values:
            value = _parse_value(spec, config_values[spec.name])
        out[spec.name] = spec.default if value is None else value
    return out


def _resolve_params(command: str, args, config_values: dict) -> dict:
    params = _resolve(COMMAND_PARAMS[command], args, config_values)
    known = set(params) | {spec.name for spec in GLOBAL_PARAMS}
    for key, raw in config_values.items():
        if key not in known:
            params[key] = _parse_value(_spec(command, key), raw)
    for text in getattr(args, "overrides", []) or []:
        key, value = _parse_override(command, text)
        params[key] = value
    return params


def _require_finite(params: dict):
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")


def _parse_range(command: str, text: str) -> tuple:
    """(spec, start, step, point count, integral) of one --range; no grid is built."""
    if "=" not in text:
        raise ConfigError(f"expected KEY=START:STOP:STEP, got {text!r}")
    key, spec_text = text.split("=", 1)
    key = key.strip().replace("-", "_")
    spec = _spec(command, key)
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range for {key} needs START:STOP:STEP, got {spec_text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"range bounds for {key} must be numeric: {spec_text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"range for {key} needs finite bounds and step: {spec_text!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"range for {key} needs stop >= start and step > 0")
    integral = spec.parse in (int, _non_negative_int)
    if integral and not (start.is_integer() and step.is_integer()):
        raise ConfigError(f"range for integer {key} needs integral start and step")
    span = (stop - start) / step  # overflows to inf on an absurd grid
    count = int(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    return spec, start, step, count, integral


def _grid_values(spec: ParamSpec, start: float, step: float, count: int,
                 integral: bool) -> tuple:
    """The grid of one --range, each value through the parameter's parser."""
    values = (start + i * step for i in range(count))
    # float(str(x)) == x, so only the parser's own checks act
    return tuple(_parse_value(spec, str(int(v) if integral else v)) for v in values)


def _output_path(output: Optional[Path]) -> Optional[Path]:
    """``output``, under ``$BLOCKADESIM_OUTPUT_DIR`` when relative; a directory is refused."""
    if output is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not output.is_absolute():
        output = Path(base) / output
    if output.is_dir():
        raise ConfigError(f"output path {output} is a directory")
    return output


def _bound_trials(command: str, params: dict, ranges: tuple = ()):
    """Refuse Monte Carlo trials above the command's bound at any point."""
    bound = {"entangle": ENTANGLE_MAX_TRIALS, "grow": GROW_MAX_TRIALS}.get(command)
    if bound is None:
        return
    most = max(dict(ranges).get("trials", (params["trials"],)))
    if most > bound:
        raise WorkBoundError(f"{command} needs {most} trials, bound is {bound}")


def parse_args(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    config_values = read_config_file(args.config) if args.config else {}
    common = _resolve(GLOBAL_PARAMS, args, config_values)
    inner = args.swept if args.command == "sweep" else args.command
    params = _resolve_params(inner, args, config_values)
    _require_finite(params)
    config = RunConfig(command=args.command, params=params, seed=common["seed"],
                       output=_output_path(common["output"]), fmt=common["format"])
    if args.command != "sweep":
        _bound_trials(inner, params)
        return config
    swept = [_parse_range(inner, r) for r in args.ranges]
    if not swept:
        raise ConfigError("sweep needs at least one --range")
    if len(swept) > 2:
        raise ConfigError("at most 2 swept parameters")
    names = [r[0].name for r in swept]
    if len(set(names)) != len(names):
        raise ConfigError("swept parameters must be distinct")
    size = math.prod(r[3] for r in swept)
    if size > args.max_grid:
        raise WorkBoundError(f"sweep grid has {size} points, bound is {args.max_grid}")
    ranges = tuple((r[0].name, _grid_values(*r)) for r in swept)
    _bound_trials(inner, params, ranges)
    return replace(config, sweep_command=inner, ranges=ranges)


# ---------------------------------------------------------------------------
# handlers: each returns (results dict, flat row dict)

def _handle_entangle(params: dict, seed: int) -> tuple:
    absorption = AbsorptionModel(params["p_abs"])
    detector = DetectorModel(
        efficiency=params["eta"],
        dark_count_rate_hz=params["gamma_dc"],
        gate_time_s=params["gate_time"],
    )
    policy = protocol_mod.HeraldPolicy(params["policy"])
    outcome = protocol_mod.entangle_pair_exact(absorption, detector, policy)

    def branch_dict(b):
        return {"probability": b.probability, "fidelity": b.fidelity}

    results = {
        "success_probability": outcome.success_probability,
        "fidelity": outcome.heralded_fidelity,
        "up": branch_dict(outcome.up),
        "down": branch_dict(outcome.down),
        "sampled": None,
    }
    if params["trials"]:
        stats = protocol_mod.entangle_pair_sampled(
            absorption, detector, seed, params["trials"], policy)
        results["sampled"] = {
            "trials": stats.trials,
            "herald_rate": stats.herald_rate,
            "n_both": stats.n_both,
            "n_up_only": stats.n_up_only,
            "n_down_only": stats.n_down_only,
            "n_none": stats.n_none,
        }
    row = {
        "eta": params["eta"],
        "p_abs": params["p_abs"],
        "gamma_dc": params["gamma_dc"],
        "policy": params["policy"],
        "success_probability": outcome.success_probability,
        "fidelity": outcome.heralded_fidelity,
        "sampled_herald_rate": results["sampled"]["herald_rate"] if results["sampled"] else "",
    }
    return results, row


def _handle_ghz(params: dict, seed: int) -> tuple:
    qubits = params["qubits"]
    eta = params["eta"]
    formula = protocol_mod.ghz_success_probability(qubits, eta)
    circuit = None
    if qubits == 4:
        outcome = protocol_mod.ghz4_exact(
            AbsorptionModel(params["p_abs"]),
            DetectorModel(efficiency=eta),
        )
        circuit = {
            "success_probability": outcome.success_probability,
            "accepted": [
                {
                    "pattern": "<" + ",".join("x" if c else "." for c in b.pattern) + ">",
                    "probability": b.probability,
                    "fidelity": b.fidelity,
                }
                for b in outcome.accepted
            ],
        }
    results = {
        "qubits": qubits,
        "eta": eta,
        "success_probability": formula,
        "circuit": circuit,
    }
    row = {
        "qubits": qubits,
        "eta": eta,
        "p_abs": params["p_abs"],
        "success_probability": formula,
        "circuit_success_probability": circuit["success_probability"] if circuit else "",
    }
    return results, row


def _budget_report(params: dict) -> budget_mod.BudgetReport:
    """Budget of the named preset with every other key as a field override."""
    base = budget_mod.preset(params["preset"])
    overrides = {k: v for k, v in params.items() if k != "preset"}
    return budget_mod.budget_report(replace(base, **overrides))


def _handle_budget(params: dict, seed: int) -> tuple:
    report = _budget_report(params)
    results = report.to_json_dict()
    results["preset"] = params["preset"]
    row = {
        "preset": params["preset"],
        **{k: v for k, v in results["derived"].items()},
        "dominant_error": report.dominant_error,
    }
    return results, row


def _handle_grow(params: dict, seed: int) -> tuple:
    from . import growth as growth_mod  # loads numpy, which the exact commands never need

    policy = growth_mod.GrowthPolicy(
        block_size=params["block_size"],
        target_size=params["target"],
        step_cap=params["cap"],
    )
    # the Markov solve runs first, so an input it refuses fails before any trial
    markov = None
    if policy.target_size <= growth_mod.MARKOV_MAX_TARGET:
        cost = growth_mod.expected_cost_markov(policy, params["eta"], params["eta_prime"])
        markov = {
            "blocks": cost.blocks,
            "link_attempts": cost.link_attempts,
            "generation_attempts": cost.generation_attempts,
            "steps": cost.steps,
        }
    stats = growth_mod.simulate_growth(policy, params["eta"], params["eta_prime"],
                                       seed, params["trials"])
    results = stats.to_json_dict()
    results["markov"] = markov
    row = {
        "block_size": policy.block_size,
        "target_size": policy.target_size,
        "eta": params["eta"],
        "eta_prime": params["eta_prime"],
        "trials": params["trials"],
        "mean_blocks": stats.mean_blocks,
        "mean_link_attempts": stats.mean_link_attempts,
        "success_fraction": stats.success_fraction,
        "markov_blocks": markov["blocks"] if markov else "",
    }
    return results, row


HANDLERS = {
    "entangle": _handle_entangle,
    "ghz": _handle_ghz,
    "budget": _handle_budget,
    "grow": _handle_grow,
}


def _run_sweep(config: RunConfig) -> list:
    names = [name for name, _ in config.ranges]
    grids = [values for _, values in config.ranges]
    handler = HANDLERS[config.sweep_command]
    rows = []
    for point in itertools.product(*grids):
        params = dict(config.params)
        params.update(zip(names, point))
        _, row = handler(params, config.seed)
        rows.append(row)
    return rows


def run(config: RunConfig) -> str:
    """Execute a parsed RunConfig and render the artifact text."""
    if config.command == "sweep":
        rows = _run_sweep(config)
        if config.fmt == "json":
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "command": f"sweep {config.sweep_command}",
                "seed": config.seed,
                "rows": rows,
            }
            return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        if config.fmt == "csv":
            return _render_csv(rows)
        return _render_rows_text(rows)

    if config.command == "budget" and config.fmt == "text":
        report = _budget_report(config.params)
        _finite_pairs(report.to_json_dict())
        return budget_mod.render_text(report)
    handler = HANDLERS[config.command]
    results, row = handler(config.params, config.seed)
    if config.fmt == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": config.command,
            "seed": config.seed,
            "params": config.params,
            "results": results,
        }
        return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if config.fmt == "csv":
        return _render_csv([row])
    return _render_result_text(config, results)


def _render_csv(rows: list) -> str:
    _finite_pairs(rows)
    if not rows:
        return "schema_version\n"
    buf = io.StringIO()
    names = ["schema_version"] + list(rows[0])
    writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({"schema_version": SCHEMA_VERSION, **row})
    return buf.getvalue()


def _finite_pairs(data) -> list:
    """Flattened (key, value) pairs of ``data``.

    A non-finite number raises ValueError (exit 3), so csv and text artifacts
    follow the rule ``allow_nan=False`` enforces for JSON.
    """
    pairs = []
    _flatten("", data, pairs)
    for key, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"artifact value {key} = {value} is not finite")
    return pairs


def _flatten(prefix: str, value, out: list):
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, value))


def _render_result_text(config: RunConfig, results: dict) -> str:
    pairs = _finite_pairs(results)
    lines = [f"blockadesim {config.command} (schema_version={SCHEMA_VERSION}, seed={config.seed})"]
    lines += [f"{key} = {value}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def _render_rows_text(rows: list) -> str:
    _finite_pairs(rows)
    lines = [f"blockadesim sweep (schema_version={SCHEMA_VERSION})"]
    for row in rows:
        lines.append("  ".join(f"{k}={v}" for k, v in row.items()))
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str):
    """Write ``text`` to ``path``, leaving what a plain ``open(path, "w")`` leaves.

    A regular file is replaced through a temporary file beside it, so no
    reader sees half an artifact; the result has the mode the umask gives a
    new file, or the mode of the file it replaces.  A FIFO or a device is
    written in place, and a symlink is written through.
    """
    path = Path(os.path.realpath(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as handle:
            handle.write(text)
        return
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            if mode is not None:
                os.chmod(tmp_name, stat.S_IMODE(mode))
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        text = run(config)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        # finite inputs whose arithmetic leaves the float range: a power
        # that overflows, a divisor that underflows to 0
        print(f"error: inputs out of floating-point range ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return EXIT_VALIDATION
    if config.output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        _write_atomic(config.output, text)
    except OSError as exc:
        print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
