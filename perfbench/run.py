"""blockadesim benchmark.

    python3 perfbench/run.py --workload {ghz_sweep,grow_long,cli_mix,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in a child process that calls
``blockadesim.cli.main(argv)`` for one command at a time (closed loop, one
client, no pool).  The report lines name every metric with its unit and
sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

  --trace 0  end-to-end metrics: setup_s, work_per_s, op_p50_ms, peak_rss_mb,
             with times rescaled to a host of fixed speed by a reference
             kernel timed alongside (see worker.py; the text lines also give
             the wall-clock figures, op_p90_ms and failed_frac);
  --trace 1  per-layer metrics from a traced replay of the commands an
             untraced child ran, whose artifacts must be byte-identical.

Full records (environment, failures, digests) go to ``perfbench/out/``.
See README.md beside this file for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_NOMINAL_S
from workloads import WORK_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = tuple(WORK_UNITS)

# Extra child starts per run for the set-up time, besides the timed child.
SETUP_SAMPLES = 10
# Commands a fresh process replays to confirm the artifacts repeat byte for byte.
DIGEST_PREFIX = {"ghz_sweep": 1, "grow_long": 1, "cli_mix": 20}
# Whole-run budget: a run must end within 180 s.
RUN_BUDGET_S = 170.0
# Single-threaded BLAS, so the closed loop uses one core.  glibc raises its
# mmap threshold each time a large block is freed, so whether the next large
# array lands in the reusable heap, and with it the peak RSS, depends on the
# order of earlier commands; pinning the threshold at its initial 128 KiB makes
# peak_rss_mb the largest working set of the run, whatever the order.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "MALLOC_MMAP_THRESHOLD_": "131072"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float, *, seconds: float = 0.0,
          count: int = 0, spans: Path = None) -> dict:
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--mode", mode, "--seconds", repr(seconds),
           "--count", str(count)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} exceeded the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    prefix = DIGEST_PREFIX[workload]
    spawn(workload, seed, "setup", deadline)  # warm-up: bytecode caches, file cache
    main = spawn(workload, seed, "run", deadline, seconds=seconds, count=prefix)
    children = [main]
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        children.append(spawn(workload, seed, "setup", deadline, count=prefix if last else 0))
    replay_equal = children[-1]["digests"] == main["digests"][:prefix]
    # The commands' times share one factor: the drift worth removing lasts
    # minutes, and a single reference timing scatters too much to rescale a
    # single command.  A set-up time is rescaled by its own child's timing.
    refs = main["reference_s"]
    scale = REFERENCE_NOMINAL_S / statistics.fmean(refs)
    wall_setups = [c["setup_s"] for c in children]
    setups = [c["setup_s"] * REFERENCE_NOMINAL_S / c["setup_ref_s"] for c in children]
    wall_times = main["times"]
    times = [scale * t for t in wall_times]
    n = len(times)
    failed = len(main["failures"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "work_per_s": _metric(main["work"] / sum(times), "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
    }
    lines = [
        f"  times are rescaled to a host where the reference kernel takes "
        f"{1e3 * REFERENCE_NOMINAL_S:.1f} ms; here it took {1e3 * statistics.fmean(refs):.2f} ms "
        f"(mean of {len(refs)} timings, {1e3 * min(refs):.2f}..{1e3 * max(refs):.2f} ms); "
        f"wall-clock figures in brackets",
        f"  setup_s      {metrics['setup_s']['value']:.4f} s   (median of {len(setups)} child starts; "
        f"wall {statistics.median(wall_setups):.4f} s)",
        f"  work_per_s   {metrics['work_per_s']['value']:.2f} 1/s   ({WORK_UNITS[workload]}: "
        f"{main['work']} in {sum(times):.2f} s; wall {main['work'] / main['commands_s']:.2f} 1/s)",
        f"  op_p50_ms    {metrics['op_p50_ms']['value']:.3f} ms   (n={n} commands; "
        f"wall {1e3 * statistics.median(wall_times):.3f} ms)",
    ]
    if n >= 100:
        p90 = 1e3 * statistics.quantiles(times, n=10)[8]
        wall_p90 = 1e3 * statistics.quantiles(wall_times, n=10)[8]
        lines.append(f"  op_p90_ms    {p90:.3f} ms   (n={n}, {n - int(0.9 * n)} beyond; "
                     f"wall {wall_p90:.3f} ms)")
    else:
        lines.append(f"  op_p90_ms    not reported (n={n} < 100 commands)")
    lines += [
        f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB",
        f"  failed_frac  {failed / n:.4f}   ({failed} of {n} commands)",
    ]
    lines += [f"    failed #{f['index']}: {' '.join(f['argv'])}: {f['cause']}" for f in main["failures"]]
    lines += [
        f"  checks       max exact deviation {main['max_deviation']:.3g}, max |z| {main['max_z']:.2f} "
        f"(took {main['check_s']:.1f} s, untimed)",
        f"  artifacts    sha256 of first {prefix}: {_combined_digest(main['digests'][:prefix])}; "
        f"fresh-process replay {'equal' if replay_equal else 'DIFFERS'}",
    ]
    probe = main["probe"]
    status = f"fails: {probe['cause']}" if probe["cause"] else "passes"
    lines.append(f"  known failure ({probe['known_cause']}): "
                 f"{' '.join(probe['argv'])} {status}")
    lines.append(_env_line(main["env"]))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
              "metrics": metrics, "setup_samples": setups, "wall_setup_samples": wall_setups,
              "wall_command_s": wall_times, "reference_s": refs, "scale": scale, "failures": main["failures"],
              "run_sha256": _combined_digest(main["digests"]), "commands": n,
              "prefix_sha256": _combined_digest(main["digests"][:prefix]),
              "replay_equal": replay_equal, "probe": probe, "env": main["env"],
              "max_deviation": main["max_deviation"], "max_z": main["max_z"]}
    result = {"correct": failed == 0 and replay_equal, "attempted": n, "failed": failed,
              "metrics": metrics}
    return result, lines, record


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    spawn(workload, seed, "setup", deadline)  # warm-up
    plain = spawn(workload, seed, "run", deadline, seconds=seconds / 2.0, count=1)
    n = len(plain["times"])
    spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    traced = spawn(workload, seed, "trace", deadline, count=n, spans=spans_path)
    mismatched = [i for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])) if a != b]
    overhead = traced["overhead_frac"]
    metrics = traced["layers"]
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    metrics["trace.commands"] = _metric(n, "count")
    failed = len(plain["failures"]) + len(mismatched)

    lines = [f"  traced {n} commands; artifacts {'byte-identical' if not mismatched else 'DIFFER'} "
             f"to the untraced run; overhead {overhead:+.4f} against an untraced run of "
             f"each command in the traced process"]
    lines += [f"    failed #{f['index']}: {' '.join(f['argv'])}: {f['cause']}" for f in plain["failures"]]
    lines += [f"    traced artifact #{i} differs" for i in mismatched]
    width = max(len(name) for name in metrics)
    lines += [f"  {name:<{width}}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append("  inclusive time per call:")
    for name, (calls, self_s, incl_s) in sorted(traced["spans_by_name"].items()):
        lines.append(f"    {name:<{width}}  {1e3 * incl_s / calls:.4f} ms/call  "
                     f"(self {1e3 * self_s / calls:.4f} ms, {calls} calls)")
    lines.append(_env_line(plain["env"]))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 1,
              "metrics": metrics, "spans_by_name": traced["spans_by_name"],
              "failures": plain["failures"], "mismatched": mismatched, "env": plain["env"],
              "spans_file": str(spans_path.relative_to(ROOT))}
    result = {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}
    return result, lines, record


def _env_line(env: dict) -> str:
    return (f"  env          python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
            f"cpu {env['cpu_model']!r}, blas threads {env['blas_threads']}")


def _combined_digest(digests: list) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blockadesim" / "cli.py").is_file():
        print(f"error: no blockadesim source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            result, lines, record = run(workload, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
