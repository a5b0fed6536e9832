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
    build_parser,
    main,
    parse_args,
    read_config_file,
    run,
)
from blockadesim.protocol import ghz_success_probability


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


def test_argparse_errors_exit_2(capsys):
    assert main(["entangle", "--no-such-flag"]) == 2
    assert main(["budget", "--preset", "paper-99z"]) == 2
    assert main([]) == 2
    capsys.readouterr()


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


def test_validation_error_exits_3(capsys):
    assert main(["ghz", "--qubits", "5"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


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


def test_budget_text_format():
    text = run_text(["budget", "--preset", "paper-58d", "--format", "text"])
    assert "dominant error: absorption_miss" in text
    assert "p_absorption" in text
    assert "blockade shift" in text


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


def test_grow_names_an_underflowing_block_probability(capsys):
    assert main(["grow", "--eta", "1e-300", "--trials", "2", "--target", "4"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "block probability" in err and "1e-300" in err
    assert "eta = 0 " not in err


def test_grow_negative_seed_exits_3(capsys):
    assert main(["grow", "--seed", "-1", "--trials", "2"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


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


@pytest.mark.parametrize("trials", [1_000_000_001, 1_000_000_000_000])
def test_entangle_trials_above_the_bound_exit_4_before_any_work(tmp_path, capsys, trials):
    assert_trials_refused("entangle", trials, tmp_path / "refused.json", capsys)
    # the bound itself is allowed
    assert parse_args(["entangle", "--trials", "1000000000"]).params["trials"] == 10**9


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


# ---------------------------------------------------------------------------
# sweep

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
    assert build_parser() is build_parser()
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
