"""Command-line front end.

Subcommands: ``entangle`` (heralded pair protocol, exact plus optional
sampling), ``ghz`` (four-qubit chain and the general acceptance formula),
``budget`` (analytic error report), ``grow`` (cluster growth Monte Carlo with
Markov cross-check), and ``sweep`` (grid scan of any of the former).

Command lines: a command, then ``--flag value`` or ``--flag=value`` pairs
(a unique prefix names a flag; the last of a repeated flag counts, except
``--set`` and ``--range``).  Each value, whatever it looks like, goes
through the parser config files use: ``--seed`` and ``--max-grid`` are
non-negative integers.  ``-h`` or ``--help`` prints help.

Conventions: parameter values resolve as defaults < config file < command
line; unknown keys anywhere are errors.  Identical config and seed give
byte-identical artifacts.  Output goes to stdout unless ``--output`` names a
file, which is written atomically; a relative path lands under
``$BLOCKADESIM_OUTPUT_DIR`` when that is set.

Exit codes: 0 success, 2 configuration/usage error (an output path that is
a directory or cannot be written among them), 3 parameter validation
error (a non-finite parameter or artifact value among them), 4 work bound
exceeded before any work runs (a sweep grid above ``--max-grid`` points,
shown in %.3g form past 10^15,
``entangle`` sampling above 2^63 - 1 trials or ``grow`` above 10^6 trials,
fixed or swept).

Each handler imports the layers it runs: ``budget`` and the formula-only
``ghz`` load neither numpy nor the exact engine, ``grow`` loads no engine.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

from . import budget as budget_mod
from . import rates as rates_mod

SCHEMA_VERSION = 2
OUTPUT_DIR_ENV = "BLOCKADESIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4

# Most sampled trials one entangle point may take: the largest count numpy's
# multinomial draw takes (int64).  The draw costs the same at any count.
ENTANGLE_MAX_TRIALS = 2**63 - 1
# Most trials one grow point may take: each keeps a row of counters until the
# statistics are taken.
GROW_MAX_TRIALS = 10**6


class ConfigError(Exception):
    """Bad config file, unknown key, or untypable value."""


class WorkBoundError(Exception):
    """Sweep grid or Monte Carlo trials above their bound."""


class HelpRequested(Exception):
    """``-h`` or ``--help`` on the command line; the message is the help text."""


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
    ParamSpec("seed", _non_negative_int, 0, "master RNG seed"),
    ParamSpec("output", Path, None, "artifact path (stdout when omitted)"),
    ParamSpec("format", str, "json", "artifact format", ("json", "csv", "text")),
)

# Flags no config file sets.  A flag whose default is a tuple collects every
# value it is given; any other flag keeps its last one.
_CONFIG = ParamSpec("config", Path, None, "key = value file with parameter defaults")
_MAX_GRID = ParamSpec("max_grid", _non_negative_int, 10_000, "grid size bound")
_HELP = ParamSpec("help", None, None, "print this help (also -h)")
_EXTRA_FLAGS = {
    "budget": (ParamSpec("set", str, (), "FIELD=VALUE override of one preset field"),),
    "sweep": (ParamSpec("set", str, (), "KEY=VALUE fixed parameter of every grid point"),
              ParamSpec("range", str, (), "KEY=START:STOP:STEP swept parameter (at most 2)"),
              _MAX_GRID),
}
# "--flag" -> spec, per command; before the command only help is known
FLAGS = {
    command: {"--" + spec.name.replace("_", "-"): spec
              for spec in (*COMMAND_PARAMS.get(command, ()), *_EXTRA_FLAGS.get(command, ()),
                           _CONFIG, *GLOBAL_PARAMS, _HELP)}
    for command in (*COMMAND_PARAMS, "sweep")
}

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


def _read_argv(argv) -> tuple:
    """(command, swept command or None, {name: parsed value}) of a command line.

    Left to right: a flag's value (the next token, or the text after ``=``)
    goes through ``_parse_value`` when read, and help is raised where it
    stands; unknown flags and stray positionals are refused at the end.
    """
    command = swept = None
    table, flags, stray, options = {"--help": _HELP}, {}, [], True
    tokens = iter(argv)
    for token in tokens:
        if options and token == "--":  # every later token is a positional
            options = False
        elif options and token.startswith("-") and token != "-":
            name, eq, raw = token.partition("=")
            spec = table.get(name) or (_HELP if name == "-h" else None)
            if spec is None:
                matches = [flag for flag in table if flag.startswith(name)]
                if len(matches) > 1:
                    raise ConfigError(f"ambiguous option: {name} could match "
                                      + ", ".join(matches))
                spec = table[matches[0]] if matches else None
            if spec is None:
                stray.append(token)
            elif spec is _HELP:
                if eq:
                    raise ConfigError(f"{name} takes no value")
                raise HelpRequested(_help(command))
            else:
                raw = raw if eq else next(tokens, None)
                if raw is None:
                    raise ConfigError(f"--{spec.name.replace('_', '-')} needs a value")
                value = _parse_value(spec, raw)
                tuple_default = isinstance(spec.default, tuple)
                flags[spec.name] = flags.get(spec.name, ()) + (value,) if tuple_default else value
        elif command is None:
            if token not in FLAGS:
                raise ConfigError(f"unknown command {token!r}; choose from {', '.join(FLAGS)}")
            command, table = token, FLAGS[token]
        elif command == "sweep" and swept is None:
            if token not in COMMAND_PARAMS:
                raise ConfigError(f"cannot sweep {token!r}; choose from "
                                  + ", ".join(COMMAND_PARAMS))
            swept = token
        else:
            stray.append(token)
    if command is None or (command == "sweep" and swept is None):
        choices = ", ".join(FLAGS if command is None else COMMAND_PARAMS)
        raise ConfigError(f"{command or 'blockadesim'} needs a command: one of {choices}")
    if stray:
        raise ConfigError(f"unrecognized arguments: {', '.join(map(repr, stray))}")
    return command, swept, flags


def _help(command: Optional[str]) -> str:
    if command is None:
        return (f"usage: blockadesim {{{','.join(FLAGS)}}} [--flag VALUE | --flag=VALUE ...]\n"
                "heralded entanglement and cluster growth toolkit; COMMAND --help lists flags\n")
    shown = f"sweep {{{','.join(COMMAND_PARAMS)}}}" if command == "sweep" else command
    lines = [f"usage: blockadesim {shown} [--flag VALUE | --flag=VALUE ...]"]
    for flag, spec in FLAGS[command].items():
        text = spec.help + (f" {{{','.join(spec.choices)}}}" if spec.choices else "")
        default = "" if spec.default in (None, ()) else f" (default {spec.default})"
        lines.append(f"  {flag:<13} {text}{default}")
    return "\n".join(lines) + "\n"


def _resolve(specs, flags: dict, config_values: dict) -> dict:
    """{name: value} of ``specs``: the flag, else the config file, else the default."""
    out = {}
    for spec in specs:
        value = flags.get(spec.name)
        if value is None and spec.name in config_values:
            value = _parse_value(spec, config_values[spec.name])
        out[spec.name] = spec.default if value is None else value
    return out


def _resolve_params(command: str, flags: dict, config_values: dict) -> dict:
    params = _resolve(COMMAND_PARAMS[command], flags, config_values)
    known = set(params) | {spec.name for spec in GLOBAL_PARAMS}
    for key, raw in config_values.items():
        if key not in known:
            params[key] = _parse_value(_spec(command, key), raw)
    for text in flags.get("set", ()):
        key, value = _parse_override(command, text)
        params[key] = value
    return params


def _require_finite(params: dict):
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")


def _parse_range(command: str, text: str) -> tuple:
    """(spec, start, stop, step, point count, integral) of one --range; no grid is built."""
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
    # a float grid keeps a last point that rounding puts just past stop
    count = int(span + (0.0 if integral else 1e-9)) + 1 if math.isfinite(span) else math.inf
    return spec, start, stop, step, count, integral


def _grid_values(spec: ParamSpec, start: float, stop: float, step: float, count: int,
                 integral: bool) -> tuple:
    """The grid of one --range, none past ``stop``, each through the parameter's parser."""
    values = (min(start + i * step, stop) for i in range(count))
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
    return _run_config(*_read_argv(sys.argv[1:] if argv is None else argv))


def _run_config(command: str, swept_command: Optional[str], flags: dict) -> RunConfig:
    """The RunConfig of a read command line: flags, then the config file, then defaults."""
    config_values = read_config_file(flags["config"]) if "config" in flags else {}
    common = _resolve(GLOBAL_PARAMS, flags, config_values)
    inner = swept_command or command
    params = _resolve_params(inner, flags, config_values)
    _require_finite(params)
    config = RunConfig(command=command, params=params, seed=common["seed"],
                       output=_output_path(common["output"]), fmt=common["format"])
    if swept_command is None:
        _bound_trials(inner, params)
        return config
    swept = [_parse_range(inner, r) for r in flags.get("range", ())]
    if not swept:
        raise ConfigError("sweep needs at least one --range")
    if len(swept) > 2:
        raise ConfigError("at most 2 swept parameters")
    names = [r[0].name for r in swept]
    if len(set(names)) != len(names):
        raise ConfigError("swept parameters must be distinct")
    size = math.prod(r[4] for r in swept)
    max_grid = flags.get("max_grid", _MAX_GRID.default)
    if size > max_grid:
        shown = size if size <= 10**15 else "%.3g" % math.prod(float(r[4]) for r in swept)
        raise WorkBoundError(f"sweep grid has {shown} points, bound is {max_grid}")
    ranges = tuple((r[0].name, _grid_values(*r)) for r in swept)
    _bound_trials(inner, params, ranges)
    return replace(config, sweep_command=inner, ranges=ranges)


# ---------------------------------------------------------------------------
# handlers: each returns (results dict, flat row dict)

def _handle_entangle(params: dict, seed: int) -> tuple:
    # the exact engine loads on first use; it is called through its module
    # attributes, which perfbench's tracer rebinds
    from . import ensemble as ensemble_mod, optics as optics_mod, protocol as protocol_mod

    absorption = ensemble_mod.AbsorptionModel(params["p_abs"])
    detector = optics_mod.DetectorModel(
        efficiency=params["eta"],
        dark_count_rate_hz=params["gamma_dc"],
        gate_time_s=params["gate_time"],
    )
    policy = protocol_mod.HeraldPolicy(params["policy"])
    outcome = protocol_mod.entangle_pair_scored(absorption, detector, policy)

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
    formula = rates_mod.ghz_success_probability(qubits, eta)
    circuit = None
    if qubits == 4:
        from . import ensemble as ensemble_mod, optics as optics_mod, protocol as protocol_mod

        outcome = protocol_mod.ghz4_exact(
            ensemble_mod.AbsorptionModel(params["p_abs"]),
            optics_mod.DetectorModel(efficiency=eta),
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


def _handle_budget(params: dict, seed: int) -> tuple:
    # the named preset with every other key as a field override
    overrides = {k: v for k, v in params.items() if k != "preset"}
    report = budget_mod.budget_report(replace(budget_mod.preset(params["preset"]), **overrides))
    results = report.to_json_dict()
    results["preset"] = params["preset"]
    row = {
        "preset": params["preset"],
        **results["derived"],
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
        markov = asdict(growth_mod.expected_cost_markov(policy, params["eta"],
                                                        params["eta_prime"]))
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


def run(config: RunConfig) -> str:
    """Execute a parsed RunConfig and render the artifact text.

    A single command keeps its handler's results and row, a sweep the row of
    every grid point; then both take one path.  JSON writes one envelope
    (``params`` and ``results``, or ``rows``) with ``allow_nan=False`` as its
    only check, and looks up the refused key only after a refusal.  csv and
    text first check what they print (csv the rows, text the results or a
    sweep's rows) with ``_finite_pairs``; a single command's text is one
    ``key = value`` line per flattened results key, a sweep's one line per
    row.
    """
    if config.command == "sweep":
        handler = HANDLERS[config.sweep_command]
        names = [name for name, _ in config.ranges]
        rows = [handler({**config.params, **dict(zip(names, point))}, config.seed)[1]
                for point in itertools.product(*(grid for _, grid in config.ranges))]
        command, body, printed = f"sweep {config.sweep_command}", {"rows": rows}, rows
    else:
        command = config.command
        results, row = HANDLERS[command](config.params, config.seed)
        body, rows, printed = {"params": config.params, "results": results}, [row], results
    if config.fmt == "json":
        envelope = {"schema_version": SCHEMA_VERSION, "command": command,
                    "seed": config.seed, **body}
        try:
            return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            _finite_pairs(envelope)  # names the refused value
            raise
    pairs = _finite_pairs(rows if config.fmt == "csv" else printed)
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["schema_version", *rows[0]],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows({"schema_version": SCHEMA_VERSION, **row} for row in rows)
        return buf.getvalue()
    if config.command == "sweep":
        lines = [f"blockadesim sweep (schema_version={SCHEMA_VERSION})"]
        lines += ["  ".join(f"{k}={v}" for k, v in row.items()) for row in rows]
    else:
        lines = [f"blockadesim {command} (schema_version={SCHEMA_VERSION}, seed={config.seed})"]
        lines += [f"{key} = {value}" for key, value in pairs]
    return "\n".join(lines) + "\n"


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
    except HelpRequested as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
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
