"""Benchmark entry point for trialopt.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. Prints a run note (machine, library versions, what
was counted) and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass.
See perfbench/README.md.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5       # fresh interpreters
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)   # time set-up only, in a fresh interpreter
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trialopt", "__init__.py")):
        return fail(f"no trialopt package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads                                    # imports trialopt

    if not os.path.abspath(workloads.trialopt.__file__).startswith(SRC + os.sep):
        return fail("trialopt was not imported from this checkout's src/")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        inputs = wl.make_inputs(args.seed, out_dir=out_dir)
        wl.warm_up(inputs)
        own_setup = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        if args.trace:
            result, note = traced_run(workloads, wl, inputs, args, out_dir)
        else:
            result, note = timed_run(workloads, wl, inputs, args, own_setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    note.update(run_note(wl))
    print(json.dumps({"run_note": note}, sort_keys=True))
    print(json.dumps(result))
    return 0


def timed_run(workloads, wl, inputs, args, own_setup):
    """End-to-end metrics: set-up, then whole passes for --seconds.

    Each pass is reduced as soon as the speed log brackets it, so memory
    does not grow with the number of passes.
    """
    from speed import SpeedLog

    setup = setup_times(args)
    checked = workloads.Checked()
    kept, pending = [], []
    stats = []      # per pass: scaled rate, scaled p50, raw rate, raw p50
    samples = 0
    first_keys = None

    def reduce(p):
        nonlocal first_keys, samples
        scaled, raw = p.latencies(log.normalized), p.latencies()
        samples += len(scaled)
        stats.append((p.ops / sum(scaled), statistics.median(scaled),
                      p.ops / sum(raw), statistics.median(raw)))
        if not kept:
            kept.append(p)
            if wl.repeat_key:
                first_keys = [wl.repeat_key(o) for o in p.outputs]
        elif wl.repeat_key:
            wl.compare(first_keys, p, checked)
        else:
            kept.append(p)

    cpus = sorted(os.sched_getaffinity(0))
    if wl.name != "sweep":
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)   # this thread and its sampler share one core
    start = time.perf_counter()
    with SpeedLog(cpus, wl.kernel) as log:
        while True:
            p = wl.run_pass(inputs)
            pending.append(p)
            while pending and sum(pending[0].segments[-1]) <= log.at[-1]:
                reduce(pending.pop(0))
            # stop unless one more pass of the same length still fits
            if time.perf_counter() - start + p.wall > args.seconds:
                break
    for p in pending:
        reduce(p)
    for p in kept:
        wl.check(inputs, p, checked)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "sweep":
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rate, p50, raw_rate, raw_p50 = (statistics.median(col) for col in zip(*stats))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (p50, "s"),
        "ops_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    note = {
        "passes": len(stats), "measured_s": time.perf_counter() - start,
        "ops": kept[0].ops * len(stats), "op_s_p50_samples": samples,
        "raw_ops_per_s": raw_rate, "raw_op_s_p50": raw_p50,
        "speed_kernel_s": {"kernel": wl.kernel, "samples": len(log.kernel), "cpus": cpus,
                           "median": statistics.median(log.kernel),
                           "min": min(log.kernel), "max": max(log.kernel)},
        "setup_samples_s": setup, "own_setup_s": own_setup,
        "optimum_musd": workloads.optimum_musd(wl.name, inputs, kept[0]),
        "failures": checked.messages,
    }
    return result_doc(checked, metrics), note


def traced_run(workloads, wl, inputs, args, out_dir):
    """Per-layer metrics from a traced pass between two untraced ones."""
    from tracer import LAYER_OF, PER_LAYER, Tracer, layer_metrics, self_seconds

    before = wl.run_pass(inputs, in_process=True)
    tracer = Tracer(worker_dir=os.path.join(out_dir, "workers"))
    os.makedirs(tracer.worker_dir)
    tracer.install()
    try:
        traced = wl.run_pass(inputs, in_process=True)
    finally:
        tracer.uninstall()
    after = wl.run_pass(inputs, in_process=True)
    passes = [before, traced, after]
    untraced_wall = (before.wall + after.wall) / 2.0
    checked = wl.check_all(inputs, passes)
    jobs = workloads.SWEEP_JOBS if wl.name == "sweep" else 1
    worker_trees = tracer.worker_spans()
    m = layer_metrics(tracer.spans, worker_trees, jobs=jobs)
    by_fn = self_seconds(tracer.spans, worker_trees)
    m["optimizer.optimum_musd"] = workloads.optimum_musd(wl.name, inputs, before)
    m["cli.import_s"] = statistics.median(import_probe() for _ in range(IMPORT_SAMPLES))
    m["cli.bytes_written"] = traced.bytes_written
    m["trace.overhead_ratio"] = traced.wall / untraced_wall - 1.0
    trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json.gz")
    tracer.write(trace_path, {"workload": wl.name, "seed": args.seed})
    metrics = {name: (m[name], unit) for name, unit in PER_LAYER.items()}
    note = {
        "traced_wall_s": traced.wall, "untraced_wall_s": [before.wall, after.wall],
        "trace_file": os.path.relpath(trace_path, ROOT),
        "spans": len(tracer.spans) + sum(len(t) for t in worker_trees),
        "largest_self": max(by_fn, key=by_fn.get, default=None),
        # self time per layer over the traced pass's wall time; worker
        # processes run in parallel, so on sweep the shares can sum above 1
        "layer_share": {layer: sum(v for f, v in by_fn.items() if LAYER_OF[f] == layer)
                        / traced.wall for layer in sorted(set(map(LAYER_OF.get, by_fn)))},
        "failures": checked.messages,
    }
    if wl.name == "sweep":
        note["worker_spans"] = (
            f"collected from {len(worker_trees)} worker span trees"
            if worker_trees else
            "NOT collected: pool workers did not inherit the tracer "
            "(start method is not fork); pool_busy_ratio reads 0")
    return result_doc(checked, metrics), note


def result_doc(checked, metrics):
    return {
        "correct": checked.failed == 0 and checked.attempted > 0,
        "attempted": max(1, checked.attempted),
        "failed": checked.failed if checked.attempted else 1,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def setup_times(args):
    """Set-up times of fresh interpreters (import, inputs, one warm-up
    call), each scaled to reference speed like the timed metrics. The
    probes inherit this thread's core, where the sampler runs too."""
    from speed import SpeedLog

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:1])
    runs = []
    try:
        with SpeedLog(sorted(cpus)[:1]) as log:
            for _ in range(SETUP_SAMPLES):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-probe"],
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
                wall = time.perf_counter() - start
                runs.append((start, wall, float(proc.stdout.strip().splitlines()[-1])))
    finally:
        os.sched_setaffinity(0, cpus)
    return [inner * log.normalized(start, wall) / wall for start, wall, inner in runs]


def import_probe():
    """Cold ``import trialopt`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import trialopt; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, check=True)
    return float(proc.stdout.strip())


def run_note(wl):
    import multiprocessing

    import numpy
    import scipy

    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "trialopt")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": wl.name, "ops_unit": wl.unit, "op_s_p50_unit": wl.op,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "src_lines": src_lines,
    }


if __name__ == "__main__":
    sys.exit(main())
