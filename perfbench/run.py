"""Seeded benchmark of mhmm's fit/compare pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload em-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --smoke --seconds 1

Workloads (see workloads.py): ``em-ladder`` (``mhmm compare`` of a nested
ladder, EM bound), ``long-series`` (simulate, fit, score and decode a
100,000-step series, linear-in-T bound) and ``mstep-sweep`` (cold
constrained M-steps, scoring bound).

A run sets up its inputs, then runs whole sessions of the workload for
``--seconds`` seconds, checking every operation's output. It stops only
after whole passes over the workload's dataset pool (at least one), so
its share of failed operations is the same in every run. With
``--trace 0`` it reports end-to-end metrics: ``setup_s`` (median over
separate set-up processes, from process start to the first timed
operation), ``session_s`` (median session time) and ``peak_rss_mb``. The
two times are scaled to a reference host speed: next to every set-up
sample and session the run times ``host_probe``, a fixed kernel mix that
does not touch mhmm, and multiplies each wall median by the kernel's
reference time over its median in the run. The wall medians are printed
too. With ``--trace 1`` it alternates untraced and traced
sessions on the same dataset and reports per-layer self times and counts,
plus the tracing overhead (traced minus untraced session time); the spans
are written to ``.bench_work/trace-<workload>.jsonl``. ``ops_failed`` is
the share of operations that failed; it is printed, and carried by the
``attempted`` and ``failed`` fields of the last line, a JSON object.

``--workload all`` runs every workload untraced and traced, one process
each, and prints one table. ``--smoke`` uses tiny inputs. BLAS and OpenMP
are pinned to one thread before numpy is imported. ``reference.json``
holds the digests and log-likelihoods the checks compare against; after a
change that is meant to alter results, regenerate it with ``record.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("em-ladder", "long-series", "mstep-sweep")
# Set-up processes per untraced run, one before each of the first sessions
# and the rest after the last, so their median spans the run's drift.
SETUP_SAMPLES = 7
# Seconds of host_probe's two kernels at the reference speed (their medians
# on a quiet 2-vCPU VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31). On a
# shared VM the speed of identical work drifts by a third over minutes, more
# than the bounds the benchmark must resolve, so each reported time is
# multiplied by reference / the run's own probe median. Set-up is scaled by
# the interpreter kernel, a workload's sessions by the kernel its ``probe``
# names.
PROBE_REFERENCE_S = {"interpreter": 0.13, "dense": 0.12}
PROBE_KERNELS = ("interpreter", "dense")
CHILD_TIMEOUT_S = 170

# (metric, unit): the per-layer metrics of a traced run. Every "_s" metric
# is the self time of one layer's spans in a session, the median over the
# run's traced sessions, like the counts.
PER_LAYER = (
    ("modelspec.parse_s", "s"),
    ("constraints.compile_s", "s"),
    ("interactions.space_build_s", "s"),
    ("interactions.invert_s", "s"),
    ("interactions.invert_calls", "count"),
    ("fit.m_step_s", "s"),
    ("fit.m_step_calls", "count"),
    ("fit.m_step_failed", "count"),
    ("fit.scoring_s", "s"),
    ("fit.scoring_calls", "count"),
    ("fit.em_fit_s", "s"),
    ("fit.em_iterations", "count"),
    ("fit.restarts_failed", "count"),
    ("model.forward_backward_s", "s"),
    ("model.forward_backward_calls", "count"),
    ("model.forward_backward_steps_per_s", "1/s"),
    ("model.log_likelihood_s", "s"),
    ("model.viterbi_s", "s"),
    ("model.simulate_s", "s"),
    ("model.read_series_csv_s", "s"),
    ("model.write_series_csv_s", "s"),
    ("model.state_indices_s", "s"),
    ("selection.model_table_s", "s"),
    ("trace.overhead_s", "s"),
)
END_TO_END = (("setup_s", "s"), ("session_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def layer_metrics(totals: dict, plain_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced session from its span totals."""
    out = {f"{layer}_s": totals.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    for layer in ("interactions.invert", "fit.m_step", "fit.scoring", "model.forward_backward"):
        out[f"{layer}_calls"] = totals.get(f"{layer}.calls", 0.0)
    out["fit.m_step_failed"] = totals.get("fit.m_step.failed", 0.0)
    out["fit.em_iterations"] = totals.get("fit.em_iterations", 0.0)
    out["fit.restarts_failed"] = totals.get("fit.restarts.failed", 0.0)
    fb_s = out["model.forward_backward_s"]
    steps = totals.get("model.forward_backward.steps", 0.0)
    out["model.forward_backward_steps_per_s"] = steps / fb_s if fb_s > 0 else 0.0
    out["trace.overhead_s"] = totals["session.wall_s"] - plain_s
    out["session_s"] = totals["session.wall_s"]
    return out


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy has no mode="dicts"
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def setup_seconds(args) -> float:
    """Set-up time of a fresh process: from spawn to the first timed operation."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - spawned


def host_probe() -> tuple[float, float]:
    """Seconds of two fixed kernels that do not touch mhmm, a measure of the
    host's speed at this moment: an interpreter-bound one (a dict and string
    loop, and a 4-state forward recursion in small numpy steps, like the
    E-step) and a dense one (LAPACK solves, like M-step scoring). Its small
    arrays are made per call without numpy.random, so that the probe adds
    next to nothing to the run's peak resident set."""
    import numpy as np

    transition = np.full((4, 4), 0.1) + 0.6 * np.eye(4)
    emission = 0.1 + (np.arange(9_600).reshape(2_400, 4) % 7) / 7.0
    system = 200.0 * np.eye(200) + np.cos(np.add.outer(np.arange(200), np.arange(200)))
    begin = time.perf_counter()
    counts = {}
    for i in range(240_000):
        key = str(i % 1000)
        counts[key] = counts.get(key, 0) + i
    alpha = np.full(4, 0.25)
    for _ in range(10):
        for row in emission:
            alpha = (alpha @ transition) * row
            alpha /= alpha.sum()
    middle = time.perf_counter()
    for _ in range(80):
        np.linalg.solve(system, system)
    return middle - begin, time.perf_counter() - middle


def run_workload(args) -> int:
    import numpy as np

    import workloads

    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload]
    # The run makes whole passes over the pool, in the order its seed gives.
    order = sizes.first + np.random.default_rng(args.seed).permutation(sizes.pool)
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        workload = workloads.WORKLOADS[args.workload](sizes, workdir, order)
        workload.setup()
        if args.setup_only:
            print(time.monotonic())
            return 0
        env = environment(args)
        print("env " + json.dumps(env), flush=True)
        setup_s, probe_s = [], []

        def sample_setup():
            setup_s.append(setup_seconds(args))
            probe_s.append(host_probe())
        references = json.loads((HERE / "reference.json").read_text())
        references = references["smoke" if args.smoke else "full"][args.workload]
        tally = workloads.Tally()
        tracer = Tracer() if args.trace else None

        def check(k, result, reference):
            try:
                workload.check(k, result, reference, tally)
            except Exception as exc:  # e.g. a command that exits 0 without its output
                tally.failure("check", f"session {k}: {type(exc).__name__}: {exc}")
            shutil.rmtree(workload.out(k), ignore_errors=True)

        plain, traced = [], []
        k = 0
        started = time.monotonic()
        while True:
            if tracer is None:
                if len(setup_s) < SETUP_SAMPLES:
                    sample_setup()
                else:
                    probe_s.append(host_probe())
            d = workload.dataset(k)
            reference = references.get(str(d))
            if reference is None:
                tally.problems.append(f"no reference recorded for dataset {d}")
            begin = time.perf_counter()
            result = workload.session(k)
            plain.append(time.perf_counter() - begin)
            check(k, result, reference)
            line = f"session {k} dataset {d} {plain[-1]:.4f} s"
            if tracer is not None:
                check(k, tracer.run_session(k, lambda: workload.session(k)), reference)
                traced.append(layer_metrics(tracer.session_totals(k), plain[-1]))
                line += f" traced {traced[-1]['session_s']:.4f} s"
            print(line, flush=True)
            k += 1
            if k % sizes.pool:
                continue
            per_session = statistics.median(plain) + (
                statistics.median(t["session_s"] for t in traced) if traced else 0.0
            )
            if time.monotonic() - started + sizes.pool * per_session > args.seconds:
                break
        while tracer is None and len(setup_s) < SETUP_SAMPLES:
            sample_setup()

        print(f"ops_failed {tally.failed / tally.attempted:.4f} ratio "
              f"({tally.failed} of {tally.attempted} operations)")
        for problem in tally.problems:
            print(f"problem {problem}")
        if tracer is None:
            probe = {kernel: statistics.median(p[i] for p in probe_s)
                     for i, kernel in enumerate(PROBE_KERNELS)}
            scale = {kernel: PROBE_REFERENCE_S[kernel] / probe[kernel] for kernel in probe}
            print(f"host probe interpreter {probe['interpreter']:.6f} s dense "
                  f"{probe['dense']:.6f} s n={len(probe_s)}; wall setup_s "
                  f"{statistics.median(setup_s):.6f} s, wall session_s {statistics.median(plain):.6f} s")
            values = {
                "setup_s": (statistics.median(setup_s) * scale["interpreter"], len(setup_s)),
                "session_s": (statistics.median(plain) * scale[workload.probe], len(plain)),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            }
            units = dict(END_TO_END)
        else:
            values = {
                name: (statistics.median(t[name] for t in traced), len(traced))
                for name, _ in PER_LAYER
            }
            units = dict(PER_LAYER)
            session = statistics.median(t["session_s"] for t in traced)
            for name, (value, _) in values.items():
                if units[name] == "s" and name != "trace.overhead_s":
                    print(f"share {name} {value / session:.3f} of traced session_s {session:.4f} s")
            absent = tracer.absent_layers()
            print("absent layers: " + (", ".join(absent) if absent else "none"))
            tracer.write(WORKDIR / f"trace-{args.workload}.jsonl", env)
        for name, (value, count) in values.items():
            print(f"metric {name} {value:.6g} {units[name]} n={count}")
        print(json.dumps({
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, (value, _) in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace} failed: {proc.stderr.strip()}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith(("metric ", "ops_failed ", "problem ", "absent ")):
                    print(f"{name:<12} {line}")
            print(f"{name:<12} correct {result['correct']}")
            status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (ROOT / "src" / "mhmm" / "__init__.py").is_file():
        print(f"error: no mhmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
