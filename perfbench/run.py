"""Outside-in benchmark of the mcpersuasion library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid2 --seed 1 --seconds 30 --trace 0

Workloads: grid2, grid3, otp, reduce (see workloads.py).  The seed fixes
every input; --seconds sizes the job list to take about that long.  The
run imports the package from src/, generates the inputs, runs one
untimed warm-up job, then the timed job list, checking every output
against an exact oracle.  Its standard output ends with two JSON lines:
a report (environment stamp, fail_frac, job counts, failures, oracle
self-test, and with --trace 1 per-kind times and the tracing overhead),
then the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: set-up, repeated in four
fresh processes and its median reported; the geometric mean of the job
times, each scaled to the reference machine speed measured between
jobs (see speed.py); and the peak resident set.  --trace 1 runs the job list
with spans around every call into a library module, probes each job
outside its spans, and reports the per-layer metrics.  The process and
the set-up processes it starts are single-threaded.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

from speed import Speedometer

# set-up runs between two calibrations, so that it too can be scaled
SPEED = Speedometer()
SPEED.calibrate()
START = time.perf_counter()

import argparse
import importlib.metadata
import importlib.util
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4  # fresh processes besides this one; setup_s is the median of all
PROCESS_TIMEOUT_S = 170

END_TO_END = ("setup_s", "job_ref_s.gmean", "peak_rss_mb")
LAYER_TIMES = {
    "lp.solve_s": ("lp.solve.pure", "lp.solve.crash", "lp.solve.unknown"),
    "lp.solve_s.pure": ("lp.solve.pure",),
    "lp.solve_s.crash": ("lp.solve.crash",),
    "lp.check_optimal_s": ("lp.check_optimal",),
    "forest.build_grid_lp_s": ("forest.build_grid_lp",),
    "forest.readback_s": ("forest.readback",),
    "forest.extract_table_s": ("forest.extract_table",),
    "forest.evaluate_table_s": ("forest.evaluate_table",),
    "sharing.build_s": ("sharing.build",),
    "sharing.verify_scheme_s": ("sharing.verify_scheme",),
    "sharing.enumerate_s": ("sharing.enumerate",),
    "io.channel_scheme_to_doc_s": ("io.channel_scheme_to_doc",),
    "io.write_s": ("io.write",),
    "io.load_s": ("io.load",),
    "io.from_doc_s": ("io.from_doc",),
    "hardness.min_b_union_s": ("hardness.min_b_union",),
    "hardness.build_reduction_s": ("hardness.build_reduction",),
    "hardness.verify_reduction_s": ("hardness.verify_reduction",),
    "dominance.analyze_s": ("dominance.analyze",),
    "dominance.is_superior_s": ("dominance.is_superior",),
    "model.validate_instance_s": ("model.validate_instance",),
}
LAYER_COUNTS = (
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "lp.rows_implied",
    "forest.grid_points",
    "sharing.executions",
    "io.bytes_written",
    "hardness.subsets",
)
UNITS = {"setup_s": "s", "job_ref_s.gmean": "s", "peak_rss_mb": "MB"}


class Failed(Exception):
    """The benchmark cannot run here; it prints no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid2", "grid3", "otp", "reduce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    if not (SRC / "mcpersuasion" / "__init__.py").is_file():
        raise Failed(f"no mcpersuasion package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mcpersuasion
    import workloads

    if Path(mcpersuasion.__file__).resolve().parent != SRC / "mcpersuasion":
        raise Failed(f"imported mcpersuasion from {mcpersuasion.__file__}, not from {SRC}")
    return workloads


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_jobs(workload, jobs, tracer, work, samples, probe, speed=None):
    """Run the job list once; returns (job seconds, job seconds at the
    reference speed, one failure message per failed job, probe details
    by job kind, probe errors).  The scaled seconds need a Speedometer,
    which measures the machine's speed between jobs; without one they
    are None."""
    times, failed, details, probe_errors = [], [], {}, []
    clocks = []
    if speed:
        speed.calibrate()
    for job in jobs:
        if speed and speed.due():
            speed.calibrate()
        start = time.perf_counter()
        try:
            with tracer.span("job", tag=job.kind):
                out = workload.run(job, tracer, work)
        except Exception:
            clocks.append((start, time.perf_counter()))
            failed.append(f"{job.kind}: raised {traceback.format_exc(limit=3)}")
            continue
        clocks.append((start, time.perf_counter()))
        try:
            failures = workload.check(job, out, samples)
        except Exception:
            failures = [f"check raised {traceback.format_exc(limit=3)}"]
        if probe:
            try:
                with tracer.span("probe", tag=job.kind):
                    probe_failures, detail = workload.probe(job, out, tracer)
                failures += probe_failures
                if detail is not None:
                    details.setdefault(job.kind, []).append(detail)
            except Exception:
                probe_errors.append(f"{job.kind}: {traceback.format_exc(limit=3)}")
        del out
        if failures:
            failed.append(f"{job.kind}: {'; '.join(failures)}")
    times, scaled = [end - start for start, end in clocks], None
    if speed:
        speed.calibrate()
        scaled = [(end - start) * speed.scale(start, end) for start, end in clocks]
    return times, scaled, failed, details, probe_errors


def setup_in_fresh_process(args):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise Failed(f"set-up process failed: {done.stderr.strip()[-2000:]}")
    setup = json.loads(done.stdout.strip().splitlines()[-1])
    return setup["setup_s"], setup["setup_ref_s"]


def layer_metrics(tracer):
    by_name = {}
    for (_, name), seconds in tracer.self_times().items():
        by_name[name] = by_name.get(name, 0.0) + seconds
    metrics = {
        metric: {"value": sum(by_name.get(n, 0.0) for n in names), "unit": "s"}
        for metric, names in LAYER_TIMES.items()
    }
    for name in LAYER_COUNTS:
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    return metrics


def kind_breakdown(tracer):
    """Self seconds by job kind and span name, probes included.  For grid
    kinds also the LP solve's share of the probe's split of a solve:
    lp.solve over build + lp.solve + read-back + table extraction."""
    out = {}
    for (tag, name), seconds in tracer.self_times().items():
        out.setdefault(tag, {})[name] = seconds
    for spans in out.values():
        solve = sum(v for name, v in spans.items() if name.startswith("lp.solve."))
        if solve:
            rest = sum(spans.get(n, 0.0) for n in ("forest.build_grid_lp", "forest.readback", "forest.extract_table"))
            spans["lp_share_of_solve"] = solve / (solve + rest)
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads = import_library()
    except Failed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer, span_cost
    import oracles

    workload = workloads.WORKLOADS[args.workload]()
    jobs = workload.inputs(random.Random(f"{args.workload}:{args.seed}"), args.seconds)
    warmup = workload.warmup(random.Random(f"{args.workload}:{args.seed}:warmup"))
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        samples: dict = {}
        _, _, warm_failed, _, _ = run_jobs(workload, [warmup], NullTracer(), str(work), {}, False)
        setup_s = time.perf_counter() - START
        SPEED.calibrate()
        setup_ref_s = setup_s * SPEED.scale(START, START + setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
            return 0

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            tracer = Tracer()
            times, _, failed, details, probe_errors = run_jobs(workload, jobs, tracer, str(work), samples, True)
            report["traced_job_s"] = tracer.total("job")
            report["job_spans"] = tracer.spans_under["job"]
            report["trace_overhead_s"] = tracer.spans_under["job"] * span_cost()
            report["by_kind"] = kind_breakdown(tracer)
            report["probe_details"] = details
            report["probe_errors"] = probe_errors
            metrics = layer_metrics(tracer)
        else:
            times, scaled, failed, _, _ = run_jobs(
                workload, jobs, NullTracer(), str(work), samples, False, SPEED
            )
            setups = [(setup_s, setup_ref_s)]
            setups += [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS)]
            report["setup_samples_s"] = [raw for raw, _ in setups]
            report["setup_ref_samples_s"] = [ref for _, ref in setups]
            # as measured, for reading: on a shared host these follow the
            # machine's speed, which swings by up to half from run to run
            report["wall_s"] = sum(times)
            report["job_s.p50"] = statistics.median(times)
            report["job_ref_s.p50"] = statistics.median(scaled)
            by_kind = {}
            for job, seconds in zip(jobs, scaled):
                by_kind.setdefault(job.kind, []).append(seconds)
            report["job_ref_s_by_kind"] = {k: statistics.median(v) for k, v in by_kind.items()}
            report["speed_loop_s"] = {
                "calibrations": len(SPEED.loops),
                "min": min(SPEED.loops),
                "median": statistics.median(SPEED.loops),
                "max": max(SPEED.loops),
            }
            metrics = {
                "setup_s": statistics.median(ref for _, ref in setups),
                "job_ref_s.gmean": statistics.geometric_mean(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": metrics[name], "unit": UNITS[name]} for name in END_TO_END}
        missed = oracles.self_test(samples, workload.checks)
        report["env"] = environment()
        if hasattr(workload, "route_of"):
            routes = {}
            for job in jobs:
                if job.kind not in routes:
                    routes[job.kind] = workload.route_of(job)
            report["env"]["lp_routes"] = routes
        kind_times = {}
        for job, seconds in zip(jobs, times):
            kind_times.setdefault(job.kind, []).append(seconds)
        report["jobs"] = len(jobs)
        report["failed"] = len(failed)
        report["fail_frac"] = len(failed) / len(jobs)
        report["job_s_by_kind"] = {k: statistics.median(v) for k, v in kind_times.items()}
        report["failures"] = failed[:5]
        report["warmup_failures"] = warm_failed
        report["self_test_checks"] = sorted(samples)
        report["self_test_missed"] = missed
        print(json.dumps(report, sort_keys=True, default=str))
        result = {
            "correct": not failed and not warm_failed and not missed,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    except Failed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
