"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blockadesim import cli, optics, protocol  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, binding_sites, layer_metric_units, layer_metrics, self_times  # noqa: E402


def artifact(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def first_of_kind(workload: str, kind: str, fmt: str = "json", **params) -> dict:
    for command in workloads.commands(workload, 7):
        if (command["kind"] == kind and command["fmt"] == fmt
                and all(command["params"].get(k) == v for k, v in params.items())):
            return command
    raise AssertionError("unreachable: streams are endless")


def check(command: dict, text: str):
    checks.Checker(artifact).check(command, text)


@pytest.mark.parametrize("kind, params, path", [
    ("entangle", {"gamma_dc": 0.0}, ("results", "success_probability")),
    ("ghz", {"qubits": 4}, ("results", "circuit", "accepted", 2, "probability")),
    ("sweep_ghz", {}, ("rows", 5, "circuit_success_probability")),
])
def test_checker_flags_a_perturbed_probability(kind, params, path):
    command = first_of_kind("ghz_sweep" if kind == "sweep_ghz" else "cli_mix", kind, **params)
    text = artifact(command["argv"])
    check(command, text)  # the unperturbed artifact passes

    envelope = json.loads(text)
    node = envelope
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1e-9
    with pytest.raises(checks.CheckError, match="differs from oracle"):
        check(command, json.dumps(envelope))


def test_checker_flags_a_nan_artifact():
    command = first_of_kind("cli_mix", "grow")
    envelope = json.loads(artifact(command["argv"]))
    envelope["results"]["mean_blocks"] = float("nan")
    with pytest.raises(checks.CheckError, match="not strict JSON"):
        check(command, json.dumps(envelope))


def test_checker_flags_a_csv_number_the_json_artifact_lacks():
    command = first_of_kind("cli_mix", "entangle", fmt="csv")
    text = artifact(command["argv"])
    check(command, text)
    header, row = text.splitlines()
    fields = row.split(",")
    column = header.split(",").index("success_probability")
    fields[column] = repr(float(fields[column]) * (1 + 1e-6))
    with pytest.raises(checks.CheckError, match="does not carry"):
        check(command, f"{header}\n{','.join(fields)}\n")


def test_checker_flags_monte_carlo_far_from_markov():
    command = first_of_kind("grow_long", "grow")
    envelope = json.loads(artifact(command["argv"]))
    r = envelope["results"]
    p = command["params"]
    std = checks.growth_cost_std(p["block_size"], p["target"],
                                 protocol.ghz_success_probability(p["block_size"], p["eta"]),
                                 protocol.link_success_probability(p["eta_prime"]))
    r["mean_steps"] = r["markov"]["steps"] + 6 * std["steps"] / r["trials"] ** 0.5
    with pytest.raises(checks.CheckError, match="standard errors"):
        check(command, json.dumps(envelope))


def test_checker_judges_a_skewed_grow_sample_by_the_exact_deviation():
    # 217 short trials that missed the long tail: mean_blocks is 5.45 of the
    # sample's own standard errors below the Markov value, but 3.85 exact ones
    params = {"block_size": 4, "target": 5, "eta": 0.655954, "eta_prime": 0.78376,
              "trials": 217, "seed": 1386637916}
    command = workloads._grow_command(params, "json", 1)
    text = artifact(command["argv"])
    r = json.loads(text)["results"]
    assert (r["markov"]["blocks"] - r["mean_blocks"]) / (r["std_blocks"] / 217 ** 0.5) > 5
    check(command, text)


def test_growth_cost_std_matches_a_large_sample():
    params = {"block_size": 4, "target": 8, "eta": 0.8, "eta_prime": 0.9,
              "trials": 20000, "seed": 5}
    r = json.loads(artifact(workloads._grow_command(params, "json", 1)["argv"]))["results"]
    std = checks.growth_cost_std(4, 8, protocol.ghz_success_probability(4, 0.8),
                                 protocol.link_success_probability(0.9))
    for name in checks.GROWTH_COSTS:
        assert std[name] == pytest.approx(r[f"std_{name}"], rel=0.03)


def test_self_times_on_a_nested_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1, 0),   # 0: children 1 and 2 cover 3 + 4
        ("b", 1.0, 4.0, 0, 0),     # 1: leaf
        ("c", 5.0, 9.0, 0, 0),     # 2: child 3 covers 2
        ("b", 6.0, 8.0, 2, 0),     # 3: leaf, same name as span 1
        ("a", 20.0, 21.5, -1, 1),  # 4: second root
    ]
    assert self_times(spans) == {
        "a": [2, 3.0 + 1.5, 10.0 + 1.5],
        "b": [2, 3.0 + 2.0, 5.0],
        "c": [1, 2.0, 4.0],
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORK_UNITS))
def test_workload_streams_are_deterministic_in_their_seed(workload):
    def head(seed):
        stream = workloads.commands(workload, seed)
        return [next(stream) for _ in range(40)]

    assert head(3) == head(3)
    assert [c["argv"] for c in head(3)] != [c["argv"] for c in head(4)]


def test_cli_mix_never_repeats_p_abs_and_keeps_block_shares():
    stream = workloads.commands("cli_mix", 11)
    size = len(workloads.CLI_MIX_BLOCK)
    mix = [next(stream) for _ in range(size * 40)]
    p_abs = [c["params"].get("p_abs") for c in mix]
    assert all(a is None or b is None or a != b for a, b in zip(p_abs, p_abs[1:]))
    for start in range(0, len(mix), size):
        kinds = sorted(c["kind"] for c in mix[start:start + size])
        assert kinds == sorted(k.split(":")[0] for k in workloads.CLI_MIX_BLOCK)


def test_tracer_records_layers_and_restores_the_bindings():
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in binding_sites()}
    command = first_of_kind("cli_mix", "ghz", qubits=4)
    plain = artifact(command["argv"])
    tracer = Tracer()
    tracer.install(binding_sites())
    try:
        traced = artifact(command["argv"])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in binding_sites()} == before
    assert protocol.beam_splitter is optics.beam_splitter

    metrics = layer_metrics(tracer.spans, tracer.counts, 1, {})
    assert [name for name in metrics] == [name for name, _ in layer_metric_units()]
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["protocol.ghz4_exact.calls"] == 1
    assert value["protocol.ghz4_exact.accepted_over_reduced"] == (
        4 / value["optics.detect_all_probabilities.patterns_nonzero"])
    assert value["state_algebra.construct.self_s"] > 0.0
    assert value["growth.run_trial.calls"] == 0


def test_benchmark_json_names_the_generated_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORK_UNITS)


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
