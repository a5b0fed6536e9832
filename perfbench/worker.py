"""One benchmark child process: runs a workload's commands through
``blockadesim.cli.main(argv)`` in-process, one at a time, and prints one JSON
object as its last line of output.

Modes (run.py picks them):
  setup  import the package, build the workload stream, take its first
         command, report the set-up time, then run the first ``--count``
         commands untimed and report their artifact digests;
  run    the timed closed loop: commands back to back for ``--seconds``
         (and at least ``--count`` commands), then the correctness checks;
  trace  run exactly the first ``--count`` commands, each once with the
         layer tracer installed and once without, and write the spans to
         ``--spans``.

Set-up time is measured from ``--t0``, the parent's wall clock just before
it started this process.

The host's speed drifts by up to 2x over minutes (a shared virtual machine),
so every child times ``reference_kernel`` (code of the benchmark, not of
the program) right after its set-up, and the timed loop times it again
about every ``REFERENCE_EVERY_S`` between commands and at its end.  run.py
rescales a set-up time by ``REFERENCE_NOMINAL_S`` over the timing taken
right after it, and the commands' times by ``REFERENCE_NOMINAL_S`` over the
mean of the loop's timings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Reference kernel time on a 2-vCPU Intel Xeon VM (Python 3.11) between
# its fast and slow spells; a rescaled time reads as the wall time on a host
# where the kernel takes this.
REFERENCE_NOMINAL_S = 0.004
# Least wall time between two reference timings in the timed loop.
REFERENCE_EVERY_S = 0.25


def reference_kernel() -> int:
    """Fixed interpreter work of the kind the program does: complex
    amplitudes accumulated under nested tuple keys, sorted and merged.

    It is pure Python on purpose: over 10-second windows its time followed
    both a 4-qubit chain and a batch of growth trials to within 2 % through
    the host's fast and slow spells, where a kernel with numpy array ops in
    it followed them to within 5-7 %.
    """
    amplitudes = {}
    for i in range(3000):
        key = ((i % 3, (i // 3) % 5), (i // 15) % 2, i % 7)
        amplitudes[key] = amplitudes.get(key, 0j) + complex(i % 11, -(i % 5)) * 0.125
    merged = {}
    for (first, _, last), value in sorted(amplitudes.items()):
        merged[first, last] = merged.get((first, last), 0j) + value * value.conjugate()
    return len(merged)


def reference_s() -> float:
    """Median wall time of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_one(cli, argv: list) -> tuple:
    """(artifact text, seconds, failure cause or None) of one command."""
    out, err = io.StringIO(), io.StringIO()
    cause = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crashing command is a failed command
            code = None
            cause = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if cause is None and code != 0:
        cause = f"exit code {code}: {err.getvalue().strip()}"
    return out.getvalue(), elapsed, cause


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def check_all(cli, records: list) -> tuple:
    """Failures [(index, argv, cause)] and diagnostics of the recorded commands."""
    from checks import Checker

    def rerun(argv):
        text, _, cause = run_one(cli, argv)
        if cause is not None:
            raise RuntimeError(f"json re-run failed: {cause}")
        return text

    checker = Checker(rerun)
    failures = []
    for index, (command, text, _, cause) in enumerate(records):
        if cause is None:
            try:
                checker.check(command, text)
            except Exception as exc:  # any check that cannot pass is a failed command
                cause = f"{type(exc).__name__}: {exc}"
        if cause is not None:
            failures.append({"index": index, "argv": command["argv"], "cause": cause})
    return failures, checker


def probe_known_failure(cli) -> dict:
    """Run the known failing command and report whether, and why, it still fails."""
    from checks import Checker
    from workloads import KNOWN_FAILURE_PROBE as probe

    text, _, cause = run_one(cli, probe["argv"])
    if cause is None:
        try:
            Checker(None).check(probe, text)
        except Exception as exc:
            cause = f"{type(exc).__name__}: {exc}"
    return {"argv": probe["argv"], "cause": cause,
            "known_cause": probe["known_cause"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    from blockadesim import cli
    import workloads

    stream = workloads.commands(args.workload, args.seed)
    command = next(stream)
    result = {"setup_s": time.time() - args.t0, "setup_ref_s": reference_s()}
    first_commands = itertools.islice(itertools.chain([command], stream), args.count)

    if args.mode == "setup":
        result["digests"] = [digest(run_one(cli, c["argv"])[0]) for c in first_commands]
    elif args.mode == "run":
        records = []
        loop_start = time.perf_counter()
        refs, ref_at = [result["setup_ref_s"]], 0.0
        while True:
            text, elapsed, cause = run_one(cli, command["argv"])
            records.append((command, text, elapsed, cause))
            now = time.perf_counter() - loop_start
            done = len(records) >= args.count and now >= args.seconds
            if done or now - ref_at >= REFERENCE_EVERY_S:
                refs.append(reference_s())
                ref_at = now
            if done:
                break
            command = next(stream)
        result["commands_s"] = sum(r[2] for r in records)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["times"] = [r[2] for r in records]
        result["reference_s"] = refs
        result["work"] = sum(r[0]["work"] for r in records)
        result["digests"] = [digest(r[1]) for r in records]
        check_start = time.perf_counter()
        failures, checker = check_all(cli, records)
        result["check_s"] = time.perf_counter() - check_start
        result["failures"] = failures
        result["max_deviation"] = checker.diag.max_deviation
        result["max_z"] = checker.diag.max_z
        result["probe"] = probe_known_failure(cli)
        result["env"] = environment()
    else:
        from tracer import Tracer, binding_sites, layer_metrics, self_times

        tracer = Tracer()
        sites = binding_sites()
        texts, traced_s, plain_s = [], [], []
        for index, command in enumerate(first_commands):
            tracer.command = index
            # each command also runs untraced, first on alternate commands,
            # so the overhead is measured pairwise through machine-speed drift
            for traced in (index % 2 == 1, index % 2 == 0):
                if traced:
                    tracer.install(sites)
                try:
                    text, elapsed, _ = run_one(cli, command["argv"])
                finally:
                    tracer.uninstall()
                (traced_s if traced else plain_s).append(elapsed)
                if traced:
                    texts.append(text)
        if args.spans is not None:
            tracer.write_spans(args.spans)
        result["overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
        result["digests"] = [digest(t) for t in texts]
        artifact_bytes = sum(len(t.encode()) for t in texts)
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, args.count,
                                         {"cli.artifact_bytes": artifact_bytes / args.count})
        result["spans_by_name"] = self_times(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
