"""nearwave benchmark: CLI workloads timed end to end, and a traced run per layer.

    python3 perfbench/run.py --workload sweep-ula --seed 0 --seconds 30 --trace 0

A workload is a closed loop with one caller: a fresh process (child.py)
calls ``nearwave.cli.main`` once, then the next call starts. Calls repeat
until ``--seconds`` have passed (at least MIN_CALLS times), and every call's
CSV output is checked for correctness and compared byte for byte with the
first call's. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced calls of every workload, checks
that both write the same bytes, and reports the per-layer metrics, which are
declared per workload. The last line of standard output is the JSON result;
the lines before it give each metric with its sample count and quartiles,
and the machine context.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from checks import CheckError, check_sweep, check_trajectories
from layers import layer_metrics
from spans import load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_CALLS = 3
# One BLAS thread: a workload is one caller in one process. A second thread
# made no call faster and left a worker spinning on the other core.
BLAS_THREADS = "1"
# The host's speed drifts by up to a third over minutes (other tenants share
# the cores), and no choice of statistic or run length evens that out. So
# every call also times a fixed reference kernel (child.py), and end-to-end
# times are scaled to a host on which that kernel takes REF_S: its median on
# the 2-core Xeon VM the benchmark was built on.
REF_S = 0.08
CHILD_TIMEOUT_S = 150.0
SWEEP_CSVS = ("mse.csv", "crb.csv")


@dataclass(frozen=True)
class Workload:
    """A timed CLI call, the work units it completes, and how its output is checked.

    ``check(out_dir)`` returns the accuracy gap in dB or raises CheckError.
    ``accuracy`` is an optional (argv, check) pair: a longer call run once,
    untimed, before the timed runs, for a check the short call cannot carry.
    """

    argv: tuple
    units: int
    outputs: tuple
    check: Callable
    accuracy: tuple | None = None
    iterations: int = 0


MLE_ITERATIONS = 3
MLE_STARTS = 128
WORKLOADS = {
    # fig5a: 32-entry tensors, 63 tiny estimates per trial, so per-call
    # overhead dominates. Timed calls are short (10 trials) so that a run
    # holds many of them and their median is steady. Over 1000
    # seeds a 10-trial degree-2 gap spanned -4.2 to 3.1 dB and the LS column
    # strayed up to 0.97 dB, hence the loose timed check; the accuracy call
    # uses criterion 01's 100 trials and 1.5 dB (0.35 dB spread, at most
    # 1.04 dB over 300 seeds).
    "sweep-ula": Workload(
        ("mse", "--preset", "fig5a", "--trials", "10"), units=10, outputs=SWEEP_CSVS,
        check=partial(check_sweep, gap_range_db=(-6.0, 6.0), ls_tol_db=1.5),
        accuracy=(("mse", "--preset", "fig5a", "--trials", "100"),
                  partial(check_sweep, gap_range_db=(-1.5, 1.5), ls_tol_db=0.5))),
    # upa-desk: 32 768-entry tensors, so array passes dominate. Its degree-2
    # MSE sits on average 1.3 dB above the CRB (500 trials), and one trial
    # spanned -2.9 to 5.1 dB over 1500 seeds, so criterion 01's 1.5 dB cannot
    # hold here. The LS column averages 32 768 entries and stays within 0.06 dB.
    "sweep-upa": Workload(
        ("mse", "--preset", "upa-desk", "--trials", "1"), units=1, outputs=SWEEP_CSVS,
        check=partial(check_sweep, gap_range_db=(-5.0, 8.0), ls_tol_db=0.5)),
    # fig3f: 32x32 link, 128 random starts plus the genie; batched synthesis
    # dominates. The genie cost at iteration 0 is the noise power of 1024
    # entries, whose dB standard error is 4.34 / 32 = 0.14 dB; 0.7 dB is five.
    "mle-fig3f": Workload(
        ("mle", "--preset", "fig3f"), units=(MLE_STARTS + 1) * MLE_ITERATIONS,
        outputs=("trajectories.csv",), iterations=MLE_ITERATIONS,
        check=partial(check_trajectories, iterations=MLE_ITERATIONS, starts=MLE_STARTS,
                      snr_db=10.0, tol_db=0.7)),
}


class RunError(RuntimeError):
    """A child call that exited non-zero or wrote no result."""


def run_child(out_dir, argv, traced=False) -> dict:
    """Start one child process, wait for it, and return its result record."""
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "result.json")
    spans_path = os.path.join(out_dir, "spans.json") if traced else "-"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), SRC, repr(spawn), result_path,
         spans_path, "--", *argv, "--out", out_dir],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RunError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    if result["code"] != 0:
        raise RunError(f"nearwave exited {result['code']}: {proc.stderr.strip()[-500:]}")
    if traced:
        result["spans"], result["counters"] = load(spans_path)
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, work: str):
    """Call one workload until ``seconds`` have passed.

    Returns (untraced calls, traced calls, attempted, failed); a call is the
    child's result record, and a failed call is counted and left out.
    """
    workload = WORKLOADS[name]
    common = ["--seed", str(seed)]
    if workload.iterations:
        config = os.path.join(work, f"{name}.cfg")
        with open(config, "w") as fh:
            fh.write(f"iterations = {workload.iterations}\n")
        common += ["--config", config]
    argv = [*workload.argv, *common]
    tally = {"attempted": 0, "failed": 0}
    reference = []

    def check_timed(out_dir):
        gap = workload.check(out_dir)
        outputs = []
        for output in workload.outputs:
            with open(os.path.join(out_dir, output), "rb") as fh:
                outputs.append(fh.read())
        if not reference:
            reference.append(outputs)
        elif outputs != reference[0]:
            raise CheckError("CSV bytes differ from the first timed call with this seed")
        return gap

    def attempt(label, argv, check, traced=False):
        """One child call: its result, or None once the failure is counted."""
        tally["attempted"] += 1
        out_dir = os.path.join(work, label)
        try:
            result = run_child(out_dir, argv, traced)
            result["gap_db"] = check(out_dir)
            return result
        except (CheckError, RunError, OSError, subprocess.TimeoutExpired) as exc:
            tally["failed"] += 1
            print(f"{name} {label} failed: {exc}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    if workload.accuracy is not None:
        accuracy_argv, accuracy_check = workload.accuracy
        attempt("accuracy", [*accuracy_argv, *common], accuracy_check)
    calls, traced_calls = [], []
    deadline = time.monotonic() + seconds
    k = 0
    while k < MIN_CALLS or time.monotonic() < deadline:
        result = attempt(f"call-{k}", argv, check_timed)
        if result is not None:
            calls.append(result)
        if trace:
            result = attempt(f"call-{k}-traced", argv, check_timed, traced=True)
            if result is not None:
                traced_calls.append(result)
        k += 1
    return calls, traced_calls, tally["attempted"], tally["failed"]


def end_to_end(name, calls) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, one per untraced call.

    Times are scaled by REF_S over the call's own reference-kernel time.
    """
    units = WORKLOADS[name].units
    return {
        "work_per_s": [units / c["run_s"] * c["ref_s"] / REF_S for c in calls],
        "setup_s": [c["setup_s"] * REF_S / c["ref_s"] for c in calls],
        "peak_rss_mb": [c["peak_rss_mb"] for c in calls],
    }


def host_speed(name, calls) -> str:
    """The reference-kernel time and the unscaled times, for the log."""
    ref = statistics.median(c["ref_s"] for c in calls)
    work = statistics.median(WORKLOADS[name].units / c["run_s"] for c in calls)
    setup = statistics.median(c["setup_s"] for c in calls)
    return (f"{name}: reference kernel {ref:.4g} s (scaled to {REF_S} s); unscaled "
            f"work_per_s {work:.6g} 1/s, setup_s {setup:.4g} s")


def per_layer(name, calls, traced_calls) -> dict[str, list[float]]:
    """Samples of each per-layer metric of one workload, one per traced call."""
    workload = WORKLOADS[name]
    samples: dict[str, list[float]] = {}
    for c in traced_calls:
        for key, value in layer_metrics(c["spans"], c["counters"], workload.iterations).items():
            samples.setdefault(key, []).append(value)
    # Median against median, scaled to the reference host speed as work_per_s is.
    def scaled(c):
        return c["run_s"] * REF_S / c["ref_s"]

    samples["trace.overhead_s"] = [statistics.median(map(scaled, traced_calls))
                                   - statistics.median(map(scaled, calls))]
    gap = "mle.genie_gap_db" if workload.iterations else "sim.crb_gap_db"
    samples[gap] = [c["gap_db"] for c in calls]
    return samples


def context() -> dict:
    """Machine and build context recorded with every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(samples, units) -> dict:
    """Print each metric's median, sample count and quartiles; return the JSON metrics."""
    metrics = {}
    for key in sorted(samples):
        values = samples[key]
        value = statistics.median(values)
        line = f"{key} = {value:.6g} {units[key]} ({len(values)} samples"
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f", quartiles {q1:.6g} to {q3:.6g}"
        print(line + ")")
        metrics[key] = {"value": value, "unit": units[key]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "nearwave", "cli.py")):
        print(f"error: no nearwave source under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: the running child is killed and waited for, and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    # Per-layer metrics are declared per workload, so a traced run covers them all.
    names = list(WORKLOADS) if trace or args.workload == "all" else [args.workload]
    seconds = args.seconds / len(names)
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work)
    samples, units = {}, {}
    attempted = failed = 0
    try:
        for name in names:
            calls, traced_calls, n_attempted, n_failed = measure(
                name, args.seed, seconds, trace, work)
            attempted += n_attempted
            failed += n_failed
            if not calls or (trace and not traced_calls):
                continue
            if trace:
                found = {f"{name}.{k}": v
                         for k, v in per_layer(name, calls, traced_calls).items()}
                expected = {k for k in declared if k.startswith(f"{name}.")}
            else:
                prefix = f"{name}." if len(names) > 1 else ""
                found = {prefix + k: v for k, v in end_to_end(name, calls).items()}
                print(host_speed(name, calls))
                expected = {prefix + k for k in declared}
            if set(found) != expected:
                raise SystemExit(f"computed metrics {sorted(set(found) ^ expected)} "
                                 "do not match BENCHMARK.json")
            samples.update(found)
            units.update({k: declared[k if k in declared else k.split(".", 1)[1]]
                          for k in found})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    metrics = summarize(samples, units)
    print(json.dumps({"context": context()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
