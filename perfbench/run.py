"""thermoduct benchmark: times the CLI end to end, or per layer when traced.

    python3 perfbench/run.py --workload channel_solve|certify|mms_stokes
                             [--seed N] [--seconds S] [--trace 0|1]

The checkout is the parent of this script's directory.  It must hold
``src/thermoduct``, and the package is imported from there and nowhere
else; without it the benchmark exits with code 2.  Every CLI run is a fresh child
process (``child.py``), one at a time (a closed loop with one client), with
one BLAS/OpenMP thread and ``THERMODUCT_THREADS=1``.  Every run's artifacts
are checked (``workloads.py``).

``--trace 0``: runs SETUP_PROBES set-up probes (CLI runs cut short when
set-up ends), then CLI runs back to back until the next one would end after
``--seconds``, at least one.  Reports the medians of ``setup_s`` over the
probes and of ``wall_s`` and ``peak_rss_mb`` over the CLI runs, each over
the runs that passed only, and the share of CLI runs that passed,
``pass_frac``.

``--trace 1``: one traced CLI run, one untraced, one traced again (fixed, not
bound by ``--seconds``).  Reports the per-layer metrics of ``tracer.py``
(times are the mean of the two traced runs; counts must agree exactly
between them), ``trace.coverage`` and ``trace.overhead_frac``.  The
untraced run is the plain single-threaded baseline.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
machine and each child run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as spans
from workloads import CERTIFY_SAMPLES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread everywhere, so that no run depends on the core count: on a
# 2-core machine, solves with one and with two BLAS threads took the same
# time within the run-to-run noise.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "THERMODUCT_THREADS": "1",
}
SETUP_PROBES = 11
RUN_BUDGET_S = 170.0  # every child is killed past this point of the run


class Runner:
    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = HERE / "configs" / workload.config
        self.env = {**os.environ, **THREAD_ENV}
        self.env.pop("PYTHONPATH", None)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def _spawn(self, opts, log):
        """Run the CLI in child.py; returns (wall s, exit code, rusage, stdout, out dir)."""
        self.count += 1
        self.attempted += 1
        out = self.work / log
        stdout = self.work / f"{log}.out"
        args = [sys.executable, str(HERE / "child.py"), str(SRC), *opts,
                "--", self.workload.command, "--config", str(self.config),
                "--out", str(out), "--seed", str(self.seed)]
        with open(stdout, "wb") as so, open(self.work / f"{log}.err", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, stdout=so, stderr=se, env=self.env, cwd=self.work)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        return wall, proc.returncode, usage, stdout, out

    def fail(self, log, what):
        self.failed += 1
        print(f"FAIL {log}: {what}", flush=True)

    def setup_probe(self):
        """A CLI run cut short when set-up ends; returns setup_s, or None if it failed."""
        log = f"setup{self.count}"
        _, code, _, stdout, out = self._spawn(["--setup-end", self.workload.setup_end], log)
        shutil.rmtree(out, ignore_errors=True)
        if code != 0:
            self.fail(log, f"exit code {code}")
            return None
        setup_s = json.loads(stdout.read_text().splitlines()[-1])["setup_s"]
        print(f"{log}: setup_s={setup_s:.4f}", flush=True)
        return setup_s

    def cli_run(self, trace):
        """One checked CLI run; returns (passed, wall s, rss MiB, span report or None)."""
        log = f"cli{self.count}"
        trace_file = self.work / f"{log}.trace.json"
        wall, code, usage, _, out = self._spawn(
            ["--trace-out", str(trace_file)] if trace else [], log)
        rss_mb = usage.ru_maxrss / 1024.0
        problems = [f"exit code {code}"] if code != 0 else self.workload.check(out, self.seed)
        report = None
        if trace and not problems:
            report = json.loads(trace_file.read_text())
            missing = [n for n in self.workload.must_call if report["stats"][n]["calls"] == 0]
            if missing:
                problems = [f"expected spans recorded no calls: {', '.join(missing)}"]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.fail(log, "; ".join(problems))
        print(f"{log}: trace={int(trace)} wall_s={wall:.4f} peak_rss_mb={rss_mb:.1f} "
              f"ok={not problems}", flush=True)
        return not problems, wall, rss_mb, report


def measure(runner, seconds):
    """End-to-end metrics.  Times and sizes come only from runs that passed;
    a metric with no such run is left out, and the result is not correct."""
    setups = [s for s in (runner.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(runner.cli_run(trace=False))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
    passed = [(wall, rss) for ok, wall, rss, _ in runs if ok]
    metrics = {}
    if passed:
        walls, rsses = zip(*passed)
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (statistics.median(rsses), "MB")
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["pass_frac"] = (len(passed) / len(runs), "ratio")  # CLI runs, not probes
    return metrics


def _counts(report):
    return {"calls": {n: s["calls"] for n, s in report["stats"].items()},
            "pairs": report["pairs"], "lu_nnz": report["lu_nnz"]}


def layer_metrics(report, traced_wall):
    """Per-layer metrics from one traced run's span report."""
    stats = report["stats"]

    def total(names, key):
        return sum(stats[n][key] for n in names)

    outer = stats[spans.INNER]["calls"]
    inner = report["pairs"].get(f"{spans.INNER}>{spans.SADDLE_SOLVE}", 0)
    sampler_total = stats[spans.SAMPLER]["total_s"]
    samples = CERTIFY_SAMPLES * stats[spans.SAMPLER]["calls"]
    return {
        "spaces.build_s": (total(spans.BUILD, "total_s"), "s"),
        "forms.assemble_s": (total(spans.ASSEMBLE, "self_s"), "s"),
        "forms.eval_s": (total(spans.EVAL, "self_s"), "s"),
        "forms.eval_calls": (total(spans.EVAL, "calls"), "count"),
        "forms.load_s": (total(spans.LOAD, "self_s"), "s"),
        "forms.load_calls": (total(spans.LOAD, "calls"), "count"),
        "forms.norms_s": (total(spans.NORMS, "self_s"), "s"),
        "forms.norms_calls": (total(spans.NORMS, "calls"), "count"),
        "linsolve.factor_s": (total([spans.FACTOR], "total_s"), "s"),
        "linsolve.factor_calls": (total([spans.FACTOR], "calls"), "count"),
        "linsolve.lu_nnz": (max(report["lu_nnz"], default=0), "count"),
        "linsolve.saddle_solve_s": (total([spans.SADDLE_SOLVE], "total_s"), "s"),
        "linsolve.saddle_solve_calls": (total([spans.SADDLE_SOLVE], "calls"), "count"),
        "linsolve.spd_solve_s": (total([spans.SPD_SOLVE], "total_s"), "s"),
        "linsolve.spd_solve_calls": (total([spans.SPD_SOLVE], "calls"), "count"),
        "fixed_point.outer_iters": (outer, "count"),
        "fixed_point.inner_iters": (inner, "count"),
        "fixed_point.inner_per_outer": (inner / outer if outer else 0.0, "ratio"),
        "fixed_point.inner_s": (total([spans.INNER], "total_s"), "s"),
        "fixed_point.heat_s": (total([spans.HEAT], "total_s"), "s"),
        "fixed_point.residual_s": (total([spans.RESIDUAL], "total_s"), "s"),
        "certificates.sampler_s": (total([spans.SAMPLER], "self_s"), "s"),
        "certificates.samples_per_s": (samples / sampler_total if samples else 0.0, "1/s"),
        "spectrum.find_roots_s": (total([spans.FIND_ROOTS], "total_s"), "s"),
        "io.write_s": (total(spans.WRITE, "total_s"), "s"),
        "trace.coverage": (report["top_level_s"] / traced_wall, "ratio"),
    }


def trace(runner):
    passes = [runner.cli_run(trace=True), runner.cli_run(trace=False),
              runner.cli_run(trace=True)]
    if not all(ok for ok, _, _, _ in passes):
        return None
    reports = [passes[0][3], passes[2][3]]
    if _counts(reports[0]) != _counts(reports[1]):
        runner.fail("trace", "span counts differ between the two traced runs")
        return None
    traced = [(passes[0][1], reports[0]), (passes[2][1], reports[1])]
    per_run = [layer_metrics(report, wall) for wall, report in traced]
    metrics = {  # counts are equal in both runs; times are averaged
        name: (value if unit == "count" else statistics.fmean(m[name][0] for m in per_run), unit)
        for name, (value, unit) in per_run[0].items()
    }
    untraced = passes[1][1]
    traced_wall = statistics.fmean(wall for wall, _ in traced)
    metrics["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "ratio")
    metrics["baseline.single_thread_wall_s"] = (untraced, "s")
    return metrics


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "thread_env": THREAD_ENV,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermoduct" / "cli.py").is_file():
        print(f"error: no thermoduct sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work)
        metrics = trace(runner) if args.trace else measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("machine " + json.dumps(machine(), sort_keys=True))
    result = {
        "correct": runner.failed == 0 and metrics is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in (metrics or {}).items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
