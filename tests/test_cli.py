import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from blockadesim import cli
from blockadesim import growth as growth_mod
from blockadesim.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    OUTPUT_DIR_ENV,
    SCHEMA_VERSION,
    ConfigError,
    HelpRequested,
    WorkBoundError,
    main,
    parse_args,
    read_config_file,
    run,
)
from blockadesim.rates import ghz_success_probability
from helpers import argparse_parse


def run_text(argv):
    return run(parse_args(argv))


# ---------------------------------------------------------------------------
# argument and config resolution

def test_defaults():
    config = parse_args(["entangle"])
    assert config.command == "entangle"
    assert config.seed == 0
    assert config.fmt == "json"
    assert config.output is None
    assert config.params == {
        "eta": 1.0, "p_abs": 1.0, "gamma_dc": 0.0, "gate_time": 5e-6,
        "policy": "per-detector", "trials": 0,
    }


def test_precedence_defaults_config_cli(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "eta = 0.5\n"
        "gamma-dc = 10.0   # trailing comment\n"
        "\n"
        "seed = 42\n"
    )
    config = parse_args(["entangle", "--config", str(cfg)])
    assert config.params["eta"] == 0.5
    assert config.params["gamma_dc"] == 10.0
    assert config.params["p_abs"] == 1.0  # untouched default
    assert config.seed == 42

    config = parse_args(["entangle", "--config", str(cfg), "--eta", "0.25",
                         "--seed", "7"])
    assert config.params["eta"] == 0.25  # CLI beats config
    assert config.seed == 7


def test_seed_format_and_output_from_config(tmp_path, capsys):
    target = tmp_path / "ghz.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 11\nformat = csv\noutput = {target}\n")
    config = parse_args(["ghz", "--config", str(cfg)])
    assert (config.seed, config.fmt, config.output) == (11, "csv", target)
    assert main(["ghz", "--config", str(cfg), "--qubits", "6"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("schema_version,")
    # the command line beats the config file
    config = parse_args(["ghz", "--config", str(cfg), "--seed", "3", "--format", "json",
                         "--output", "other.json"])
    assert (config.seed, config.fmt, config.output) == (3, "json", Path("other.json"))
    for bad in ("seed = abc\n", "format = xml\n"):
        cfg.write_text(bad)
        assert main(["ghz", "--config", str(cfg)]) == EXIT_CONFIG, bad
    capsys.readouterr()


def test_budget_field_from_config(tmp_path):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("dark_count_rate_hz = 40\n")
    from_config = json.loads(run_text(["budget", "--config", str(cfg)]))
    from_set = json.loads(run_text(["budget", "--set", "dark_count_rate_hz=40"]))
    assert from_config["params"]["dark_count_rate_hz"] == 40.0
    assert from_config == from_set


def test_read_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("eta 0.5\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        read_config_file(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        read_config_file(tmp_path / "missing.cfg")


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor = 9\n")
    assert main(["entangle", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown parameter" in capsys.readouterr().err


def test_bad_budget_field_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("dark_count_rate_hz = abc\n")
    assert main(["budget", "--config", str(cfg)]) == EXIT_CONFIG
    assert "dark_count_rate_hz" in capsys.readouterr().err


def test_removed_parameters_are_unknown(capsys):
    assert main(["grow", "--pairing", "random"]) == EXIT_CONFIG
    assert main(["budget", "--set", "boltzmann_j_per_k=1e-23"]) == EXIT_CONFIG
    assert main(["budget", "--set", "cloud_sigma_m=3e-6"]) == EXIT_CONFIG
    capsys.readouterr()


def test_exit_codes():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_CAP) == (0, 2, 3, 4)


def assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert all(needle in err for needle in needles), err


def test_argparse_errors_exit_2(capsys):
    # the usage errors argparse refused still exit 2, each with one error line
    assert main(["entangle", "--no-such-flag"]) == 2
    assert main(["budget", "--preset", "paper-99z"]) == 2
    assert main([]) == 2
    capsys.readouterr()
    for argv, needles in (
            (["grow", "--et", "0.5"], ("ambiguous option: --et", "--eta, --eta-prime")),
            (["budget", "--s=1"], ("--set, --seed",)),
            (["entangle", "--eta"], ("--eta needs a value",)),
            (["entangle", "--trials", "10", "--p-a"], ("--p-abs needs a value",)),
            (["entangle", "--eta=x"], ("bad value for eta",)),
            (["entangle", "0.3"], ("unrecognized arguments: '0.3'",)),
            (["sweep", "ghz", "grow", "--range", "eta=0:1:0.5"], ("'grow'",)),
            (["sweep", "--range", "eta=0:1:0.5"], ("sweep needs a command: one of entangle,",)),
            (["sweep", "warp", "--range", "eta=0:1:0.5"], ("cannot sweep 'warp'",)),
            (["warp"], ("unknown command 'warp'",)),
            (["--seed=1"], ("blockadesim needs a command",)),
            (["entangle", "--help=yes"], ("--help takes no value",))):
        assert main(argv) == EXIT_CONFIG, argv
        assert_one_error_line(capsys, *needles)
    # a unique prefix names its flag, also in the = form, and an exact name wins
    assert main(["ghz", "--qu", "6", "--e=0.5", "--f", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == run_text(["ghz", "--qubits", "6", "--eta", "0.5",
                                                "--format", "csv"])
    assert parse_args(["grow", "--eta", "0.5", "--eta-p", "0.25"]).params["eta"] == 0.5
    # the last value of a repeated flag counts; --set and --range keep every one
    config = parse_args(["sweep", "--set", "qubits=6", "--range", "eta=0.5:1:0.5", "ghz",
                         "--format", "csv", "--set=p_abs=0.5", "--range=qubits=6:8:2",
                         "--format=text"])
    assert (config.fmt, config.sweep_command) == ("text", "ghz")
    assert config.params["p_abs"] == 0.5 and len(config.ranges) == 2
    # every token after -- is a positional
    assert parse_args(["sweep", "--range", "eta=0.5:1:0.5", "--", "ghz"]).sweep_command == "ghz"


@pytest.mark.parametrize("argv, spec", [
    (["entangle", "--trials", "-5"], ("entangle", "trials")),
    (["ghz", "--qubits", "x"], ("ghz", "qubits")),
])
def test_bad_flag_value_gives_the_parse_reason(argv, spec, capsys):
    # a flag refuses a bad value with the reason --set and config files give
    with pytest.raises(ConfigError) as refused:
        cli._parse_value(cli._spec(*spec), argv[-1])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(str(refused.value)), err
    assert "_non_negative_int" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "entangle" in out and "sweep" in out
    # help anywhere past the command lists the command's flags, help text and defaults
    for argv in (["grow", "--help"], ["grow", "--eta", "0.5", "-h"], ["grow", "--he", "--x"],
                 ["grow", "--no-such-flag", "--help", "--eta"]):
        assert main(argv) == EXIT_OK, argv
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: blockadesim grow"), argv
        for spec in cli.FLAGS["grow"].values():
            line = next(l for l in captured.out.splitlines()
                        if l.split()[:1] == ["--" + spec.name.replace("_", "-")])
            assert spec.help in line
            assert spec.default is None or f"(default {spec.default})" in line
    assert main(["sweep", "-h"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "{entangle,ghz,budget,grow}" in out and "--max-grid" in out and "10000" in out
    # a value-taking flag takes the token after it, so this is an eta value
    assert main(["entangle", "--eta", "--help"]) == EXIT_CONFIG
    assert_one_error_line(capsys, "bad value for eta")


def test_validation_error_exits_3(capsys):
    assert main(["ghz", "--qubits", "5"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the reader against the argparse oracle

def _outcome(parse, argv):
    """The RunConfig ``parse`` reads from ``argv``, or the exit code of its refusal."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parse(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after help
        return exc.code
    except HelpRequested:
        return EXIT_OK
    except ConfigError:
        return EXIT_CONFIG
    except WorkBoundError:
        return EXIT_CAP
    except ValueError:
        return EXIT_VALIDATION


def _benchmark_argvs():
    """The first 500 cli_mix, 50 ghz_sweep and 20 grow_long command lines, seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, count in (("cli_mix", 500), ("ghz_sweep", 50), ("grow_long", 20)):
        stream = workloads.commands(name, 1)
        yield from (next(stream)["argv"] for _ in range(count))


def _prefixes(command: str) -> tuple:
    """({flag: its shortest unique prefix or itself}, one prefix shared by two flags or None)."""
    table = cli.FLAGS[command]
    unique, shared = {}, None
    for flag in table:
        for end in range(3, len(flag) + 1):
            hits = [f for f in table if f.startswith(flag[:end])]
            if len(hits) > 1 and shared is None:
                shared = flag[:end]
            if (hits == [flag] or end == len(flag)) and flag not in unique:
                unique[flag] = flag[:end]
    return unique, shared


def _variants(index: int, argv: list):
    """Spellings of one command line, from its (flag, value) pairs, and two mistakes.

    Every command line is spelled five ways; the mistakes take turns, so
    each kind meets about a hundred command lines, and help is inserted at
    position ``index`` modulo the line's length plus one.
    """
    head = argv[:2] if argv[0] == "sweep" else argv[:1]
    pairs = list(zip(argv[len(head)::2], argv[len(head) + 1::2]))
    unique, shared = _prefixes(argv[0])

    def flat(items):
        return [token for pair in items for token in pair]

    yield argv
    yield head + [f"{flag}={value}" for flag, value in pairs]
    yield head + flat((unique[flag], value) for flag, value in pairs)
    yield head + [f"{unique[flag]}={value}" for flag, value in pairs]
    yield head + flat(pairs[::-1]) + flat(pairs)  # each flag twice, the last one counts
    if argv[0] == "sweep":
        yield argv[:1] + flat(pairs) + argv[1:2]  # the swept command after its flags
    bad = index % len(pairs)
    mistakes = [
        argv + ["--no-such-flag", "1"],
        argv + ["stray"],
        head + flat(pairs[:bad]) + [pairs[bad][0]],  # a last flag without its value
        argv + ["--format", "xml"],
        head + flat(pairs[:bad] + [(pairs[bad][0], "x")] + pairs[bad + 1:]),
        head + [shared or "--no-shared-prefix", "1"] + flat(pairs),
    ]
    yield mistakes[index % len(mistakes)]
    at = index % (len(argv) + 1)
    yield argv[:at] + ["-h" if index % 2 else "--help"] + argv[at:]


def test_reader_agrees_with_the_argparse_oracle():
    compared, differ = 0, []
    for index, argv in enumerate(_benchmark_argvs()):
        for variant in _variants(index, argv):
            ours, oracle = _outcome(parse_args, variant), _outcome(argparse_parse, variant)
            compared += 1
            if ours != oracle:
                differ.append((variant, ours, oracle))
    assert compared > 4000
    assert differ == []


def test_reader_departs_from_argparse_only_where_intended(tmp_path, capsys):
    # --max-grid is a count: argparse took -1 and the bound refused every grid
    argv = ["sweep", "ghz", "--range", "eta=0.1:0.2:0.1", "--max-grid", "-1"]
    assert (_outcome(parse_args, argv), _outcome(argparse_parse, argv)) == (EXIT_CONFIG, EXIT_CAP)
    # a value-taking flag takes the next token, which argparse refused when it
    # looked like an option: the value is now validated like any other
    argv = ["entangle", "--gamma-dc", "-1e300"]
    assert _outcome(argparse_parse, argv) == EXIT_CONFIG
    assert parse_args(argv).params["gamma_dc"] == -1e300
    assert main(argv) == EXIT_VALIDATION
    assert_one_error_line(capsys, "dark count rate must be >= 0")
    out = tmp_path / "-artifact"
    argv = ["budget", "--output", str(out)[len(str(tmp_path)) + 1:]]
    assert _outcome(argparse_parse, argv) == EXIT_CONFIG
    assert parse_args(argv).output == Path("-artifact")
    # the seed domain (the third difference) is in test_negative_seed_exits_2_before_any_work;
    # the oracle reads the same specs, so it refuses a negative seed too
    assert _outcome(argparse_parse, ["ghz", "--seed", "-2"]) == EXIT_CONFIG


# edge values of the property test below, beside junk text and the choices
EDGE_VALUES = ("0", "1", "5e-324", "1e300", "-1e300", "-5", str(2**63))


def _drawn_argv(st):
    """A command and up to six flag groups drawn from COMMAND_PARAMS and GLOBAL_PARAMS."""
    specs = cli.GLOBAL_PARAMS + sum(cli.COMMAND_PARAMS.values(), ())
    choices = tuple(choice for spec in specs for choice in spec.choices or ())
    value = st.sampled_from(EDGE_VALUES + choices) | st.text(max_size=6)

    def groups(command):
        names = [spec.name.replace("_", "-")
                 for spec in (*cli.COMMAND_PARAMS[command], *cli.GLOBAL_PARAMS)]
        # a name, or a prefix of it
        flag = st.builds(lambda name, end: "--" + name[:end], st.sampled_from(names),
                         st.integers(1, 12))
        group = st.one_of(
            st.tuples(flag, value).map(list),
            st.tuples(flag, value).map(lambda pair: ["=".join(pair)]),
            flag.map(lambda name: [name]),  # no value follows
            value.map(lambda junk: [junk]),
        )
        return st.lists(group, max_size=6).map(
            lambda gs: [command] + [token for g in gs for token in g])

    return st.one_of([groups(command) for command in cli.COMMAND_PARAMS])


def test_reader_returns_a_config_or_a_documented_refusal():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_drawn_argv(hypothesis.strategies))
    def check(argv):
        try:
            assert isinstance(parse_args(argv), cli.RunConfig)
            return
        except HelpRequested:
            assert any(token == "-h" or token.startswith("--h") for token in argv), argv
            return
        except (ConfigError, WorkBoundError, ValueError):
            pass
        # refused before any work: main prints exactly one error line
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_CONFIG, EXIT_VALIDATION, EXIT_CAP) and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)

    check()


# edge floats of the run property test below
RUN_EDGE_FLOATS = ("0", "1", "5e-324", "1e-300", "1e-78", "0.5", "1e300")
# (first, last, step) of the integer parameters, in bounds that keep each
# command's work small; sampled entangle costs the same at any trial count
RUN_INTEGERS = {
    ("entangle", "trials"): (0, 2**63, 1),
    ("ghz", "qubits"): (4, 10**6, 2),
    ("grow", "block_size"): (4, 10, 2),
    ("grow", "target"): (4, 2000, 1),
    ("grow", "trials"): (1, 5, 1),
    ("grow", "cap"): (1, 2000, 1),
}


def _drawn_run_argv(st):
    """A single command with its floats, trial counts and caps drawn, and
    its other parameters, the budget fields and the seed drawn or left out."""
    edge = st.sampled_from(RUN_EDGE_FLOATS)

    def integer(first, last, step):
        return st.integers(0, (last - first) // step).map(lambda i: str(first + i * step))

    def command_argv(command):
        groups = []
        for spec in (*cli.COMMAND_PARAMS[command], *cli.GLOBAL_PARAMS):
            if spec.name == "output":
                continue
            value = (st.sampled_from(spec.choices) if spec.choices
                     else edge if spec.parse is float
                     else integer(*RUN_INTEGERS.get((command, spec.name), (0, 2**64, 1))))
            flag = "--" + spec.name.replace("_", "-")
            group = value.map(lambda v, flag=flag: [flag, v])
            # the grow defaults of trials and cap are large
            drawn = spec.parse is float or spec.name in ("trials", "cap")
            groups.append(group if drawn else st.just([]) | group)
        if command == "budget":
            override = st.tuples(st.sampled_from(cli._BUDGET_FIELDS), edge).map(
                lambda pair: ["--set", "=".join(pair)])
            groups.append(st.lists(override, max_size=4).map(lambda gs: sum(gs, [])))
        return st.tuples(*groups).map(lambda gs: [command] + sum(gs, []))

    return st.one_of([command_argv(command) for command in cli.COMMAND_PARAMS])


def test_every_drawn_command_runs_or_gives_a_documented_refusal():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_drawn_run_argv(hypothesis.strategies))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_CAP), (argv, code)
        if code != EXIT_OK:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), (
                argv, err.getvalue())
            return
        assert err.getvalue() == "", argv
        if "json" in argv or "--format" not in argv:
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    check()


# ---------------------------------------------------------------------------
# command outputs

def test_entangle_json_document():
    text = run_text(["entangle", "--eta", "0.3", "--p-abs", "0.989",
                     "--trials", "500", "--seed", "9"])
    doc = json.loads(text)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "entangle"
    assert doc["seed"] == 9
    results = doc["results"]
    eps = 1.0 - 0.989
    assert results["success_probability"] == pytest.approx(
        0.3 * (1.0 + eps * 0.7), abs=1e-10)
    assert results["fidelity"] == pytest.approx((1 - eps) / (1 + eps), abs=1e-10)
    sampled = results["sampled"]
    assert sampled["trials"] == 500
    total = (sampled["n_both"] + sampled["n_up_only"] + sampled["n_down_only"]
             + sampled["n_none"])
    assert total == 500


def test_output_reproducible_byte_for_byte():
    argv = ["entangle", "--eta", "0.4", "--p-abs", "0.9", "--trials", "2000",
            "--seed", "123"]
    assert run_text(argv) == run_text(argv)
    other = run_text(["entangle", "--eta", "0.4", "--p-abs", "0.9",
                      "--trials", "2000", "--seed", "124"])
    assert other != run_text(argv)


def test_ghz_csv_and_formula():
    text = run_text(["ghz", "--qubits", "6", "--eta", "0.8", "--format", "csv"])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header[0] == "schema_version"
    row = dict(zip(header, lines[1].split(",")))
    assert row["schema_version"] == str(SCHEMA_VERSION)
    assert float(row["success_probability"]) == pytest.approx(
        ghz_success_probability(6, 0.8), abs=1e-12)
    assert row["circuit_success_probability"] == ""  # enumeration only at 4 qubits


def test_ghz_formula_is_exact_and_finite_at_any_size(capsys):
    # equal bit for bit to eta^(Q/2) (Q - 2) / 2^(Q - 2) wherever that is finite
    for qubits in range(4, 1026, 2):
        for eta in (1.0, 0.8, 0.3, 1e-3):
            assert ghz_success_probability(qubits, eta) == (
                eta ** (qubits // 2) * (qubits - 2) / 2 ** (qubits - 2)), (qubits, eta)
    # 2^1998 no longer overflows a float: the probability underflows to 0
    for fmt in ("json", "csv", "text"):
        assert main(["ghz", "--qubits", "2000", "--format", fmt]) == EXIT_OK
    assert ghz_success_probability(2000, 1.0) == 0.0
    capsys.readouterr()


def test_budget_with_an_underflowing_blockade_shift_exits_3(capsys):
    argv = ["budget", "--set", "blockade_mhz=1e-300", "--format", "csv"]
    assert main(argv) == EXIT_VALIDATION
    assert "underflows" in capsys.readouterr().err


def test_budget_inputs_leaving_the_float_range_exit_3(tmp_path, capsys):
    # pi w0^2 underflows to a zero divisor; lambda^2 and g0^2 overflow
    out = tmp_path / "artifact"
    for setting in ("waist_m=1e-200", "wavelength_m=1e200", "coupling_mhz=1e200"):
        for fmt in ("json", "csv", "text"):
            argv = ["budget", "--set", setting, "--format", fmt, "--output", str(out)]
            assert main(argv) == EXIT_VALIDATION, argv
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_ghz_circuit_enumeration_at_four_qubits():
    doc = json.loads(run_text(["ghz", "--eta", "0.7"]))
    circuit = doc["results"]["circuit"]
    assert circuit["success_probability"] == pytest.approx(0.245, abs=1e-10)
    assert len(circuit["accepted"]) == 4
    for branch in circuit["accepted"]:
        assert branch["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_budget_set_overrides():
    base = json.loads(run_text(["budget", "--preset", "paper-43d"]))
    doubled = json.loads(run_text(["budget", "--preset", "paper-43d",
                                   "--set", "dark_count_rate_hz=40"]))
    assert doubled["results"]["inputs"]["dark_count_rate_hz"] == 40.0
    ratio = (doubled["results"]["derived"]["p_dark_count"]
             / base["results"]["derived"]["p_dark_count"])
    assert ratio == pytest.approx(2.0, rel=1e-3)
    assert main(["budget", "--set", "warp_factor=9"]) == EXIT_CONFIG


def _flat(prefix, value):
    """(dotted key, value) pairs of nested JSON objects."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flat(f"{prefix}.{key}" if prefix else key, item)
    else:
        yield prefix, value


def test_budget_text_format():
    argv = ["budget", "--preset", "paper-58d", "--seed", "6"]
    header, *lines = run_text(argv + ["--format", "text"]).splitlines()
    assert header == f"blockadesim budget (schema_version={SCHEMA_VERSION}, seed=6)"
    assert "dominant_error = absorption_miss" in lines
    # every printed value is the JSON artifact's value under the same key
    carried = dict(_flat("", json.loads(run_text(argv))["results"]))
    printed = dict(line.split(" = ") for line in lines)
    assert printed.keys() == carried.keys()
    for key, text in printed.items():
        want = carried[key]
        assert (float(text) if isinstance(want, float) else text) == want, key


def test_grow_includes_markov_cross_check():
    doc = json.loads(run_text(["grow", "--trials", "50", "--eta", "0.9",
                               "--eta-prime", "0.9", "--seed", "3"]))
    results = doc["results"]
    assert results["trials"] == 50
    assert results["markov"] is not None
    assert results["markov"]["blocks"] > 1.0
    assert results["success_fraction"] == 1.0
    big = json.loads(run_text(["grow", "--trials", "5", "--target", "20",
                               "--cap", "5000", "--seed", "3"]))
    assert big["results"]["markov"] is None


def _reject_constant(name):
    raise AssertionError(f"artifact contains {name}")


def test_json_artifacts_are_strict(tmp_path, capsys):
    # target = block size: no link is attempted, so there is no link rate
    text = run_text(["grow", "--block-size", "4", "--target", "4", "--trials", "20"])
    doc = json.loads(text, parse_constant=_reject_constant)
    assert doc["results"]["link_success_rate"] is None
    # a non-finite value is refused, never written
    out = tmp_path / "budget.json"
    assert main(["budget", "--set", "temperature_k=inf",
                 "--output", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_non_finite_parameters_exit_3(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("gate_time = inf\n")
    for argv in (["entangle", "--gate-time", "inf", "--format", "csv"],
                 ["entangle", "--config", str(cfg)],
                 ["budget", "--set", "temperature_k=inf", "--format", "csv"],
                 ["sweep", "entangle", "--set", "gamma_dc=nan", "--range", "eta=0.5:1:0.5"]):
        assert main(argv) == EXIT_VALIDATION, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_csv_and_text_refuse_non_finite_values(tmp_path, capsys):
    # finite inputs whose collision rate overflows to inf
    overflow = ["--set", "density_cm3=1e300", "--set", "collision_cross_section_cm2=1e300"]
    out = tmp_path / "artifact"
    for argv in (["budget", *overflow, "--format", "csv"],
                 ["budget", *overflow, "--format", "text"],
                 ["sweep", "budget", *overflow, "--range", "temperature_k=0.001:0.002:0.001",
                  "--format", "text"]):
        assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION, argv
        assert not out.exists()
    assert "not finite" in capsys.readouterr().err


def test_grow_unreachable_target_exits_before_any_trial(monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a growth trial ran")

    # the trial kernel behind both run_trial and simulate_growth
    monkeypatch.setattr(growth_mod, "_walk_trials", no_trial)
    assert main(["grow", "--eta-prime", "0"]) == EXIT_VALIDATION
    assert "eta_prime = 0" in capsys.readouterr().err
    # a subnormal block probability, whose attempt counts would overflow
    for eta in ("1e-160", "1e-155"):
        assert main(["grow", "--eta", eta, "--trials", "2", "--target", "4"]) == EXIT_VALIDATION
    assert "attempt count" in capsys.readouterr().err


def test_grow_singular_markov_solve_exits_before_any_trial(monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a growth trial ran")

    # 1 - eta_prime / 8 rounds to 1, so the Markov system is singular
    monkeypatch.setattr(growth_mod, "_walk_trials", no_trial)
    argv = ["grow", "--eta-prime", "1e-300", "--target", "6", "--trials", "2", "--cap", "100"]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "eta_prime = 1e-300" in err and "target 6" in err


@pytest.mark.parametrize("target, eta_prime", [("8", "1e-100"), ("12", "1e-100"),
                                               ("16", "1e-100"), ("12", "1e-300"),
                                               ("16", "1e-300")])
def test_grow_impossible_markov_costs_exit_before_any_trial(target, eta_prime, tmp_path,
                                                            monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a growth trial ran")

    # the solve gives 0 blocks and -1 link attempts at target 8, and about
    # -8 / eta_prime blocks at targets 12 and 16
    monkeypatch.setattr(growth_mod, "_walk_trials", no_trial)
    out = tmp_path / "grow.json"
    argv = ["grow", "--target", target, "--eta-prime", eta_prime, "--trials", "2",
            "--cap", "100", "--output", str(out)]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("error:") == 1
    assert f"eta_prime = {eta_prime}" in captured.err and f"target {target}" in captured.err


def test_grow_names_an_underflowing_block_probability(capsys):
    assert main(["grow", "--eta", "1e-300", "--trials", "2", "--target", "4"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "block probability" in err and "1e-300" in err
    assert "eta = 0 " not in err


def test_grow_statistics_of_rare_blocks_stay_finite(capsys):
    # attempt counts near 1e157, whose squared deviations overflow a float
    for fmt in ("json", "csv", "text"):
        assert main(["grow", "--eta", "1e-78", "--trials", "3", "--format", fmt]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "", fmt
        if fmt == "json":
            std = json.loads(captured.out)["results"]["std_generation_attempts"]
            assert 0.0 < std < math.inf


def test_negative_seed_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(config):
        raise AssertionError("the command ran")

    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -3\n")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run", no_work)
        for argv in (["grow", "--seed", "-1", "--trials", "2"],
                     ["entangle", "--trials", "10", "--seed=-3"],
                     ["budget", "--seed", "-7"], ["ghz", "--seed", "-2"],
                     ["grow", "--config", str(cfg)],
                     ["sweep", "ghz", "--range", "eta=0.5:1:0.5", "--config", str(cfg)]):
            assert main(argv) == EXIT_CONFIG, argv
            assert_one_error_line(capsys, "bad value for seed: must be >= 0")
    # a huge seed is a seed
    for argv in (["grow", "--trials", "3", "--seed", str(2**200)],
                 ["entangle", "--trials", "10", "--seed", str(2**200)]):
        assert main(argv) == EXIT_OK, argv
        assert json.loads(capsys.readouterr().out)["seed"] == 2**200


def assert_trials_refused(command, trials, out, capsys):
    for argv in ([command, "--trials", str(trials)],
                 ["sweep", command, "--set", f"trials={trials}", "--range", "eta=0.5:1:0.5"],
                 ["sweep", command, "--range", f"trials=1:{trials}:{trials - 1}"]):
        begin = time.perf_counter()
        assert main(argv + ["--output", str(out)]) == EXIT_CAP, argv
        assert time.perf_counter() - begin < 1.0, argv
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "bound" in err
    # swept trials replace a fixed value
    parse_args(["sweep", command, "--set", f"trials={trials}", "--range", "trials=1:2:1"])


@pytest.mark.parametrize("trials", [2**63, 10**30])
def test_entangle_trials_above_the_bound_exit_4_before_any_work(tmp_path, capsys, trials):
    assert_trials_refused("entangle", trials, tmp_path / "refused.json", capsys)
    # the bound itself is allowed
    assert parse_args(["entangle", "--trials", str(2**63 - 1)]).params["trials"] == 2**63 - 1


def test_entangle_sampling_costs_the_same_at_any_trial_count(capsys):
    begin = time.perf_counter()
    assert main(["entangle", "--trials", "1000000000000", "--format", "json"]) == EXIT_OK
    assert time.perf_counter() - begin < 1.0
    sampled = json.loads(capsys.readouterr().out)["results"]["sampled"]
    assert sampled["trials"] == 10**12
    assert sum(sampled[k] for k in ("n_both", "n_up_only", "n_down_only", "n_none")) == 10**12


@pytest.mark.parametrize("trials", [1_000_001, 1_000_000_000])
def test_grow_trials_above_the_bound_exit_4_before_any_work(tmp_path, capsys, trials):
    assert_trials_refused("grow", trials, tmp_path / "refused.json", capsys)
    # the bound itself is allowed
    assert parse_args(["grow", "--trials", "1000000"]).params["trials"] == 10**6


def test_grow_builds_only_the_graph_nodes_it_visits(capsys):
    growth_mod._graph.cache_clear()
    assert main(["grow", "--target", "1000000", "--trials", "1", "--cap", "10"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["cap_hit_fraction"] == 1.0
    # ten steps reach at most eleven slot states and their successors
    assert len(growth_mod._graph(4, 1_000_000).states) <= 30


def test_entangle_text_format():
    text = run_text(["entangle", "--format", "text", "--seed", "4"])
    first = text.splitlines()[0]
    assert first == f"blockadesim entangle (schema_version={SCHEMA_VERSION}, seed=4)"
    assert "success_probability = " in text


def test_json_refusals_name_the_non_finite_value(tmp_path, capsys):
    # finite inputs whose double-excitation probability overflows to inf
    out = tmp_path / "artifact.json"
    for argv, key in ((["budget", "--set", "blockade_mhz=1e-160"],
                       "results.derived.p_double_excitation"),
                      (["sweep", "budget", "--set", "blockade_mhz=1e-160",
                        "--range", "temperature_k=0.001:0.002:0.001"],
                       "rows[0].p_double_excitation")):
        assert main(argv + ["--format", "json", "--output", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert_one_error_line(capsys, f"artifact value {key} = inf is not finite")


# ---------------------------------------------------------------------------
# sweep

# each command as a single command and as the one-point sweep of the same point
ONE_POINT_SWEEPS = [
    (["entangle", "--eta", "0.5"], ["entangle", "--range", "eta=0.5:0.5:1"]),
    (["ghz", "--qubits", "4", "--p-abs", "0.95"],
     ["ghz", "--set", "qubits=4", "--range", "p_abs=0.95:0.95:1"]),
    (["budget", "--set", "dark_count_rate_hz=40"],
     ["budget", "--range", "dark_count_rate_hz=40:40:1"]),
    (["grow", "--trials", "30", "--eta", "0.9", "--seed", "3"],
     ["grow", "--set", "trials=30", "--range", "eta=0.9:0.9:1", "--seed", "3"]),
]


@pytest.mark.parametrize("single, swept", ONE_POINT_SWEEPS)
def test_a_one_point_sweep_writes_the_single_commands_csv(single, swept):
    assert run_text(["sweep", *swept, "--format", "csv"]) == run_text(single + ["--format", "csv"])


def test_every_artifact_carries_the_schema_version():
    for argv, fmt in itertools.product(
            [argv for single, swept in ONE_POINT_SWEEPS for argv in (single, ["sweep", *swept])],
            ("json", "csv", "text")):
        text = run_text(argv + ["--format", fmt])
        if fmt == "json":
            assert json.loads(text)["schema_version"] == SCHEMA_VERSION, argv
        elif fmt == "csv":
            header, *rows = csv.reader(io.StringIO(text))
            assert header[0] == "schema_version", argv
            assert rows and all(row[0] == str(SCHEMA_VERSION) for row in rows), argv
        else:
            first = text.splitlines()[0]
            assert first.startswith(f"blockadesim {argv[0]} "), (argv, first)
            assert f"(schema_version={SCHEMA_VERSION}" in first, (argv, first)


def test_sweep_single_range_csv():
    text = run_text(["sweep", "entangle", "--range", "eta=0.2:1.0:0.2",
                     "--format", "csv"])
    lines = text.strip().split("\n")
    assert len(lines) == 6  # header + 5 grid points
    header = lines[0].split(",")
    eta_col = header.index("eta")
    success_col = header.index("success_probability")
    for line in lines[1:]:
        cells = line.split(",")
        # ideal absorption: herald probability equals detector efficiency
        assert float(cells[success_col]) == pytest.approx(float(cells[eta_col]),
                                                          abs=1e-10)
    assert [float(l.split(",")[eta_col]) for l in lines[1:]] == pytest.approx(
        [0.2, 0.4, 0.6, 0.8, 1.0])


def test_sweep_two_ranges_json():
    doc = json.loads(run_text([
        "sweep", "ghz", "--set", "qubits=6",
        "--range", "eta=0.5:1.0:0.25", "--range", "qubits=6:8:2",
    ]))
    assert doc["command"] == "sweep ghz"
    assert len(doc["rows"]) == 3 * 2
    for row in doc["rows"]:
        assert row["success_probability"] == pytest.approx(
            ghz_success_probability(row["qubits"], row["eta"]), abs=1e-12)
        assert isinstance(row["qubits"], int)  # integer params stay integers


def test_sweep_grid_bound(capsys):
    argv = ["sweep", "ghz", "--set", "qubits=6",
            "--range", "eta=0:1:0.005", "--range", "p_abs=0:1:0.01"]
    assert main(argv) == EXIT_CAP
    assert "bound" in capsys.readouterr().err
    assert main(argv + ["--max-grid", "30000"]) == EXIT_OK
    capsys.readouterr()
    # the bound is a count; a grid above 10^15 points is shown in %.3g form
    assert main(["sweep", "ghz", "--range", "eta=0.1:0.2:0.1", "--max-grid", "-1"]) == EXIT_CONFIG
    assert_one_error_line(capsys, "bad value for max_grid: must be >= 0")
    assert main(["sweep", "ghz", "--range", "qubits=4:1e300:2"]) == EXIT_CAP
    assert_one_error_line(capsys, "sweep grid has 5e+299 points, bound is 10000")
    assert main(["sweep", "ghz", "--range", "qubits=4:1e300:2",
                 "--range", "eta=0:1e300:1e-300"]) == EXIT_CAP
    assert_one_error_line(capsys, "sweep grid has inf points")
    assert main(["sweep", "ghz", "--range", "qubits=2:2e15:2", "--max-grid", "0"]) == EXIT_CAP
    assert_one_error_line(capsys, "sweep grid has 1000000000000000 points, bound is 0")
    assert main(["sweep", "ghz", "--range", "qubits=0:2e15:2"]) == EXIT_CAP
    assert_one_error_line(capsys, "sweep grid has 1e+15 points")


def test_sweep_range_validation(capsys):
    assert main(["sweep", "entangle"]) == EXIT_CONFIG  # no range given
    assert main(["sweep", "entangle", "--range", "eta=1:0:0.1"]) == EXIT_CONFIG
    assert main(["sweep", "entangle", "--range", "eta=0:1:0"]) == EXIT_CONFIG
    assert main(["sweep", "entangle", "--range", "warp=0:1:0.5"]) == EXIT_CONFIG
    assert main(["sweep", "entangle", "--range", "eta=0:1"]) == EXIT_CONFIG
    assert main(["sweep", "entangle",
                 "--range", "eta=0:1:0.5", "--range", "eta=0:1:0.5"]) == EXIT_CONFIG
    assert main(["sweep", "entangle", "--range", "eta=0:1:0.5",
                 "--range", "p_abs=0.5:1:0.25", "--range", "gamma_dc=0:10:5",
                 ]) == EXIT_CONFIG
    capsys.readouterr()


def test_sweep_rejects_non_finite_ranges(capsys):
    for spec in ("eta=nan:0.5:0.1", "gate_time=1e-6:inf:1", "eta=0:1:nan"):
        assert main(["sweep", "entangle", "--range", spec]) == EXIT_CONFIG, spec
    assert "finite" in capsys.readouterr().err


def test_sweep_grid_bound_is_checked_before_the_grid_is_built(monkeypatch, capsys):
    def build(*args):
        raise AssertionError("grid built before the bound check")

    monkeypatch.setattr(cli, "_grid_values", build)
    assert main(["sweep", "entangle", "--range", "eta=0:1:1e-9"]) == EXIT_CAP
    # (stop - start) / step overflows a float
    assert main(["sweep", "entangle", "--range", "eta=0:1e300:1e-300"]) == EXIT_CAP
    assert "bound" in capsys.readouterr().err


def test_swept_values_go_through_the_parameters_own_parser(monkeypatch, capsys):
    def no_handler(*args):
        raise AssertionError("a handler ran")

    monkeypatch.setattr(cli, "HANDLERS", dict.fromkeys(cli.HANDLERS, no_handler))
    # the same checks as the flags: choices and trials >= 0
    for argv in (["sweep", "entangle", "--range", "policy=1:2:1"],
                 ["sweep", "budget", "--range", "preset=1:2:1"],
                 ["sweep", "entangle", "--range", "trials=-5:5:5"]):
        assert main(argv) == EXIT_CONFIG, argv
    err = capsys.readouterr().err
    assert "policy must be one of" in err and "preset must be one of" in err
    assert "bad value for trials" in err


def test_sweep_rejects_fractional_integer_ranges(capsys):
    assert main(["sweep", "grow", "--range", "trials=1:3:0.5"]) == EXIT_CONFIG
    assert main(["sweep", "ghz", "--range", "qubits=4.5:8:2"]) == EXIT_CONFIG
    assert "integral" in capsys.readouterr().err
    config = parse_args(["sweep", "grow", "--range", "trials=1:3.5:1"])
    assert config.ranges == (("trials", (1, 2, 3)),)


def test_no_grid_point_passes_its_stop(capsys):
    # 0.1 + 2 * 0.1 is 0.30000000000000004
    assert parse_args(["sweep", "entangle", "--range", "eta=0.1:0.3:0.1"]).ranges == (
        ("eta", (0.1, 0.2, 0.3)),)
    # the five grids ending at 1, with three-decimal starts and steps under
    # 0.2, whose last point 1.0000000000000002 was out of range
    for start, step in ((0.09, 0.035), (0.09, 0.07), (0.116, 0.017), (0.116, 0.034),
                        (0.116, 0.068)):
        for argv in (["sweep", "entangle", "--range", f"eta={start}:1:{step}"],
                     ["sweep", "ghz", "--set", "qubits=4", "--range", f"p_abs={start}:1:{step}"]):
            ((_, grid),) = parse_args(argv).ranges
            assert grid[-1] == 1.0 and max(grid) == 1.0, argv
            assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    # an integer grid whose stop lies just below a point stops before it
    assert parse_args(["sweep", "grow", "--range", "trials=1:2.9999999999:1"]).ranges == (
        ("trials", (1, 2)),)


# ---------------------------------------------------------------------------
# artifact writing

def test_output_file_written_atomically(tmp_path):
    target = tmp_path / "out" / "report.json"
    assert main(["budget", "--output", str(target)]) == EXIT_OK
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_relative_output_respects_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["ghz", "--qubits", "6", "--output", "nested/ghz.json"]) == EXIT_OK
    written = tmp_path / "nested" / "ghz.json"
    assert written.exists()
    doc = json.loads(written.read_text())
    assert doc["results"]["success_probability"] == pytest.approx(0.25)


def test_output_naming_a_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(config):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run", no_work)
    for output in (str(tmp_path), ""):
        assert main(["ghz", "--qubits", "6", "--output", output]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "is a directory" in err and "Traceback" not in err
    (tmp_path / "taken").mkdir()
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    with pytest.raises(ConfigError, match="is a directory"):
        parse_args(["ghz", "--output", "taken"])
    config = parse_args(["ghz", "--output", "free.json"])
    assert config.output == tmp_path / "free.json"


def test_unwritable_output_exits_2_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["budget", "--output", str(blocker / "report.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err

    def refuse(src, dst):
        raise PermissionError(13, "refused", str(dst))

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["budget", "--output", str(tmp_path / "report.json")]) == EXIT_CONFIG
    assert "refused" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_output_naming_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo) as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(["budget", "--output", str(fifo)]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [run_text(["budget"])]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_output_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.json"
        assert main(["budget", "--output", str(fresh)]) == EXIT_OK
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o644
        os.umask(0o027)
        assert main(["budget", "--output", str(tmp_path / "group.json")]) == EXIT_OK
        assert stat.S_IMODE(os.stat(tmp_path / "group.json").st_mode) == 0o640
        # an artifact written over an existing file keeps that file's mode
        os.chmod(fresh, 0o600)
        assert main(["ghz", "--output", str(fresh)]) == EXIT_OK
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o600
        assert json.loads(fresh.read_text())["command"] == "ghz"
    finally:
        os.umask(old)


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "real.json"
    target.write_text("old")
    (tmp_path / "link.json").symlink_to("real.json")
    assert main(["budget", "--output", str(tmp_path / "link.json")]) == EXIT_OK
    assert (tmp_path / "link.json").is_symlink()
    assert target.read_text() == run_text(["budget"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_output_overwrites_previous_artifact(tmp_path):
    target = tmp_path / "a.json"
    assert main(["ghz", "--qubits", "6", "--eta", "0.5",
                 "--output", str(target)]) == EXIT_OK
    first = target.read_text()
    assert main(["ghz", "--qubits", "6", "--eta", "0.9",
                 "--output", str(target)]) == EXIT_OK
    second = target.read_text()
    assert first != second
    assert json.loads(second)["results"]["eta"] == 0.9


def test_seed_from_config_used_for_sampling(tmp_path):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 77\ntrials = 300\n")
    via_config = run_text(["entangle", "--config", str(cfg)])
    via_flags = run_text(["entangle", "--seed", "77", "--trials", "300"])
    assert json.loads(via_config)["results"] == json.loads(via_flags)["results"]


# ---------------------------------------------------------------------------
# one process, many commands

SRC = Path(cli.__file__).resolve().parents[1]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh_process_artifact(argv) -> str:
    done = subprocess.run([sys.executable, "-m", "blockadesim.cli", *argv],
                          capture_output=True, text=True, env=_child_env(), check=True)
    return done.stdout


def test_shared_parser_carries_no_state_between_commands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta = 0.5\np_abs = 0.95\nseed = 4\nformat = csv\n")
    sweep = ["sweep", "ghz", "--set", "qubits=4", "--range", "eta=0.3:0.9:0.3"]
    pairs = [
        (sweep[:4] + ["--set", "p_abs=0.95"] + sweep[4:], EXIT_OK, sweep),
        (["budget", "--set", "temperature_k=0.002"], EXIT_OK, ["budget"]),
        (["ghz", "--config", str(cfg)], EXIT_OK, ["ghz"]),
        (["sweep", "ghz", "--range", "eta=1:0:0.1"], EXIT_CONFIG,
         ["sweep", "ghz", "--range", "eta=0.2:0.4:0.2"]),
        (["--help"], EXIT_OK, ["entangle", "--eta", "0.3"]),
    ]
    for first, first_code, second in pairs:
        assert main(first) == first_code, first
        capsys.readouterr()
        assert main(second) == EXIT_OK, second
        assert capsys.readouterr().out == _fresh_process_artifact(second), (first, second)


def test_exact_commands_run_without_numpy():
    child = """
import contextlib, io, sys
from blockadesim import cli

exact = [["budget"], ["ghz", "--qubits", "4"], ["ghz", "--qubits", "6"],
         ["entangle", "--eta", "0.3", "--p-abs", "0.989"],
         ["sweep", "ghz", "--range", "eta=0.2:1.0:0.4"]]
sampled = [["grow"], ["entangle", "--trials", "1000"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in exact]
    exact_numpy = "numpy" in sys.modules
    codes += [cli.main(argv) for argv in sampled]
print(codes, exact_numpy, "numpy" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=_child_env(), check=True)
    assert done.stdout.split("\n")[0] == "[0, 0, 0, 0, 0, 0, 0] False True"


ENGINE = {"state_algebra", "optics", "ensemble", "protocol"}


@pytest.mark.parametrize("argv, layers, numpy", [
    (["budget"], set(), False),
    (["ghz", "--qubits", "6"], set(), False),
    (["grow", "--trials", "100"], {"growth"}, True),
    (["ghz", "--qubits", "4"], ENGINE, False),
    (["entangle", "--eta", "0.3", "--p-abs", "0.989"], ENGINE, False),
], ids=["budget", "ghz6", "grow", "ghz4", "entangle"])
def test_each_command_loads_only_the_layers_it_runs(argv, layers, numpy):
    child = """
import contextlib, io, sys
import blockadesim
print(sorted(m for m in sys.modules if m.startswith(("blockadesim.", "numpy"))))
from blockadesim import cli
argparse_on_import = "argparse" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, argparse_on_import or "argparse" in sys.modules)
print(" ".join(sorted(m[len("blockadesim."):] for m in sys.modules
                      if m.startswith("blockadesim."))))
"""
    done = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          text=True, env=_child_env(), check=True)
    bare, outcome, loaded = done.stdout.splitlines()
    # importing the package loads none of its modules; the cli never loads argparse
    assert bare == "[]"
    assert outcome == f"0 {numpy} False"
    assert set(loaded.split()) == {"budget", "cli", "rates"} | layers
