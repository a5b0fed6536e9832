"""Golden corpus: frozen CLI artifacts that a refactor must reproduce.

Each case is one command line and the artifact it wrote when the corpus was
frozen, stored under ``tests/golden/``.  Exact-path floats must agree to
1e-12; integers (Monte Carlo counts among them) and every non-numeric token
must agree exactly.  An intended change of behaviour regenerates the files
with ``python tests/test_golden.py`` and names the change in CHANGES.md.
"""

import json
import re
from pathlib import Path

import pytest

from blockadesim.cli import parse_args, run

GOLDEN_DIR = Path(__file__).parent / "golden"
TOL = 1e-12

CASES = {
    "entangle_exact.json": ["entangle", "--eta", "0.3", "--p-abs", "0.989"],
    "entangle_sampled_exclusive.json": [
        "entangle", "--eta", "0.7", "--p-abs", "0.95", "--gamma-dc", "200",
        "--policy", "exclusive", "--trials", "5000", "--seed", "7"],
    "entangle_text.txt": ["entangle", "--eta", "0.5", "--p-abs", "0.99",
                          "--trials", "1000", "--seed", "3", "--format", "text"],
    "ghz4.json": ["ghz", "--eta", "0.8", "--p-abs", "0.989"],
    "ghz6.csv": ["ghz", "--qubits", "6", "--eta", "0.9", "--format", "csv"],
    "budget_43d.json": ["budget", "--preset", "paper-43d"],
    "budget_58d.txt": ["budget", "--preset", "paper-58d", "--format", "text"],
    "budget_43d_override.csv": ["budget", "--preset", "paper-43d",
                                "--set", "dark_count_rate_hz=40", "--format", "csv"],
    "grow.json": ["grow", "--eta", "0.9", "--eta-prime", "0.9",
                  "--trials", "200", "--seed", "3"],
    "grow_block6.txt": ["grow", "--block-size", "6", "--target", "12", "--eta", "0.95",
                        "--eta-prime", "0.8", "--trials", "100", "--seed", "5",
                        "--format", "text"],
    "sweep_ghz.csv": ["sweep", "ghz", "--set", "qubits=6", "--range", "eta=0.2:1.0:0.2",
                      "--format", "csv"],
    "sweep_entangle.json": ["sweep", "entangle", "--range", "eta=0.2:1.0:0.4",
                            "--range", "p_abs=0.95:1.0:0.05"],
    "sweep_budget.txt": ["sweep", "budget", "--set", "preset=paper-58d",
                         "--range", "temperature_k=0.001:0.003:0.001", "--format", "text"],
    "sweep_grow.json": ["sweep", "grow", "--set", "target=6", "--set", "eta_prime=0.7",
                        "--range", "trials=20:40:20", "--seed", "11"],
}


def _same(got, want) -> bool:
    """Structural equality; floats to TOL, everything else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return False
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= TOL * max(1.0, abs(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


_NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
_SPLIT = re.compile(r"([\s,=()\[\]]+)")


def _token(text: str):
    if _NUMBER.match(text):
        return float(text) if any(c in text for c in ".eE") else int(text)
    return text


def _tokens(text: str) -> list:
    return [_token(t) for t in _SPLIT.split(text) if t]


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name):
    got = run(parse_args(CASES[name]))
    want = (GOLDEN_DIR / name).read_text()
    if name.endswith(".json"):
        assert _same(json.loads(got), json.loads(want)), got
    else:
        assert _same(_tokens(got), _tokens(want)), got


def test_comparison_tolerances():
    assert _same({"p": 0.1 + 0.2}, {"p": 0.3})
    assert not _same({"p": 0.3 + 1e-10}, {"p": 0.3})
    assert not _same({"n": 5}, {"n": 6})
    assert not _same({"n": 5}, {"n": 5, "extra": 1})
    assert _same(_tokens("n_both = 12\nrate = 0.30000000000000004"),
                 _tokens("n_both = 12\nrate = 0.3"))
    assert not _same(_tokens("n_both = 12"), _tokens("n_both = 13"))


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN_DIR / name).write_text(run(parse_args(argv)))
        print(f"wrote {GOLDEN_DIR / name}")


if __name__ == "__main__":
    regenerate()
