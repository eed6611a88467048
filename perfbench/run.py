"""fpwsim benchmark: seeded closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of s21_design_sweep, density_roundtrip, cli_batch. One client
runs ops back to back (a closed loop) for S seconds and the run checks every
op's output. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run, including the tracing overhead. The line
before it is a JSON record of the environment, sizes, op counts, tail
percentile and output digest. ``--workload all`` runs every workload in turn
and prints each metric with its unit.

The exit status is 0 when every output passed its gates, 1 when a gate
failed, and 2 when the fpwsim sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"  # per-run scratch files, removed when the run ends
OUT = BENCH / "_out"  # span files of traced runs, one per workload

WORKLOAD_NAMES = ("s21_design_sweep", "density_roundtrip", "cli_batch")
# The benchmark is single-threaded; numpy's BLAS and OpenMP pools are capped.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# setup_s is the median of at least SETUP_REPEATS set-ups, repeated until
# they have taken SETUP_SECONDS (at most SETUP_MAX_REPEATS).
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 101
PROCESS_CENSUS_REPEATS = 5
# op_tail_ms is the highest of these percentiles with at least TAIL_BEYOND
# completed ops beyond it. Above p99.9 a run on a small shared machine
# measures scheduler preemption rather than the program.
TAIL_PERCENTILES = (99.9, *range(99, 49, -1))
TAIL_BEYOND = 10
WINDOW_OPS = 1000


@dataclass
class Loop:
    """Outcome of running ops [0, attempted) of one workload."""

    latencies: object = None  # seconds of the completed, unrefused ops (numpy)
    attempted: int = 0
    failed: int = 0  # raised, or failed a gate
    busy: float = 0.0  # seconds spent inside op calls
    messages: list = field(default_factory=list)


def op_loop(workload, count, deadline, buffer, op_base=0) -> Loop:
    """Run up to ``count`` ops back to back, stopping between op groups once
    ``deadline`` (a perf_counter value) has passed. Op ids are offset by
    ``op_base`` in the trace."""
    tracer = workload.tracer
    loop = Loop()
    done = 0
    span_name = f"op.{workload.name}"
    for i in range(min(count, len(buffer))):
        if i and i % workload.group == 0 and time.perf_counter() >= deadline:
            break
        span = None
        if tracer is not None:
            tracer.op_id = op_base + i
            span = tracer.begin(span_name)
        loop.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception as exc:  # counted as failed, and the loop goes on
            error = exc
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.finish(span)
        loop.busy += elapsed
        problem = (f"{type(error).__name__}: {error}" if error is not None
                   else workload.check(i, output))
        if problem is not None:
            loop.failed += 1
            if len(loop.messages) < 5:
                loop.messages.append(f"op {i}: {problem}")
            continue
        if workload.is_refusal(output):
            continue
        buffer[done] = elapsed
        done += 1
    loop.latencies = buffer[:done]
    return loop


def tail_percentile(n):
    """(percentile, ops beyond it) for op_tail_ms over n ops; percentile 100
    (the maximum) when fewer than 20 ops completed."""
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= TAIL_BEYOND:
            return p, beyond
    return 100.0, 0


def latency_stats(latencies):
    """op_p50_ms and op_tail_ms, and how they were taken.

    A run of at least 2 * WINDOW_OPS ops is cut into windows of WINDOW_OPS
    ops or a few more, and the percentiles are taken in each window. The
    host this was tuned on changes speed by up to 1.5x for seconds at a
    time: a whole-run median of microsecond ops flips between the two
    speeds, while the mean of the window medians moves with the share of
    the run spent slow. The tail percentile, chosen from the window size,
    is then p99 (10 ops beyond it), where the slow inputs of a workload
    show; above it a microsecond op measures the host's preemptions. The
    median of the window tails is reported. Shorter runs use all ops at
    once.
    """
    import numpy as np

    windows = max(1, len(latencies) // WINDOW_OPS)
    parts = np.array_split(latencies, windows)
    percentile, beyond = tail_percentile(min(len(part) for part in parts))
    p50 = np.mean([np.percentile(part, 50) for part in parts])
    tail = np.median([np.percentile(part, percentile) for part in parts])
    return float(p50), float(tail), {
        "percentile": percentile, "ops_beyond_per_window": beyond,
        "samples": len(latencies), "windows": windows}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def environment(seed) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "thread_caps": {cap: os.environ.get(cap) for cap in THREAD_CAPS},
    }


def latency_buffer(size):
    """Latency storage, touched up front so it adds the same resident
    memory to every run however many ops complete."""
    import numpy as np

    buffer = np.empty(size)
    buffer.fill(0.0)
    return buffer


# -- end-to-end run -------------------------------------------------------------

def timed_run(workload, seconds):
    buffer = latency_buffer(workload.max_ops)
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_REPEATS
            or sum(setup_times) < SETUP_SECONDS):
        workload.reset()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    loop = op_loop(workload, workload.max_ops, time.perf_counter() + seconds,
                   buffer)
    # Read the peak before the statistics below allocate anything.
    rss = peak_rss_mb(children=workload.name == "cli_batch")
    lat = loop.latencies
    correct = loop.failed == 0 and len(lat) > 0
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    record = {"setup_repeats": len(setup_times),
              "setup_s_quartiles": statistics.quantiles(setup_times, n=4)}
    if len(lat):
        p50, tail, record["op_tail"] = latency_stats(lat)
        metrics.update({
            "ops_per_s": (len(lat) / loop.busy, "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
        })
    metrics["peak_rss_mb"] = (rss, "MB")
    record["failed_ops_ratio"] = loop.failed / max(loop.attempted, 1)
    return correct, [loop], metrics, record


# -- traced run -----------------------------------------------------------------

class MissingLayer(RuntimeError):
    """A per-layer metric had no spans to measure."""


def layer_metrics(tracer, overhead_ms) -> dict:
    """Per-layer metrics from the spans and counters of a traced run.

    A layer's numbers come from the traced workload's own ops when it calls
    that layer, and otherwise from the census ops of the other workloads.
    """

    def source(span, owner):
        if tracer.durations_ns(span, "workload"):
            return "workload"
        return f"census.{owner}"

    def spans(span, owner):
        found = tracer.durations_ns(span, source(span, owner))
        if not found:
            raise MissingLayer(span)
        return found

    def median(span, owner, scale):
        return statistics.median(spans(span, owner)) / scale

    def counted(span, owner, counter):
        return tracer.counts.get(f"{source(span, owner)}:{counter}", 0.0)

    def largest(name, owner):
        for where in ("workload", f"census.{owner}"):
            if f"{where}:{name}" in tracer.maxima:
                return tracer.maxima[f"{where}:{name}"]
        raise MissingLayer(name)

    def everywhere(span, scale):
        found = tracer.durations_ns(span)
        if not found:
            raise MissingLayer(span)
        return statistics.median(found) / scale

    s21, density, cli = "s21_design_sweep", "density_roundtrip", "cli_batch"
    sweep = "com_resonator.s21_sweep"
    csv = "com_resonator.write_sweep_csv"
    resonance = "com_resonator.find_resonance"
    solve = "fpw_dispersion.loaded_velocity"
    invert = "fpw_dispersion.density_from_frequency"
    coupling = "liquid_sensing.viscosity_coupling_report"
    calibrated = "liquid_sensing.invert_density_calibrated"
    points = counted(sweep, s21, "com_resonator.sweep_points")
    start_ms = everywhere("cli.process_start", 1e6)

    m = {
        "com_resonator.sweep_ms": (median(sweep, s21, 1e6), "ms"),
        "com_resonator.sweep_points": (points, "count"),
        "com_resonator.us_per_point": (
            sum(spans(sweep, s21)) / 1e3 / points, "us"),
        "com_resonator.csv_write_ms": (median(csv, s21, 1e6), "ms"),
        "com_resonator.csv_bytes": (
            counted(csv, s21, "com_resonator.csv_bytes"), "bytes"),
        "com_resonator.resonance_us": (median(resonance, s21, 1e3), "us"),
        "com_resonator.resonance_failures": (
            counted(resonance, s21, f"{resonance}.errors"), "count"),
        "com_resonator.gap_points": (
            counted(sweep, s21, "com_resonator.gap_points"), "count"),
        "com_resonator.nonpassive_ratio": (
            counted(sweep, s21, "com_resonator.nonpassive_sweeps")
            / counted(sweep, s21, "com_resonator.sweeps"), "ratio"),
        "com_resonator.reciprocity_max_residual": (
            largest("com_resonator.reciprocity_max_residual", s21), "ratio"),
        "fpw_dispersion.solve_us": (median(solve, density, 1e3), "us"),
        "fpw_dispersion.solve_calls": (
            float(len(spans(solve, density))), "count"),
        "fpw_dispersion.solve_iterations": (
            counted(solve, density, "fpw_dispersion.solve_iterations"),
            "count"),
        "fpw_dispersion.invert_us": (median(invert, density, 1e3), "us"),
        "fpw_dispersion.invert_failures": (
            counted(invert, density, f"{invert}.errors"), "count"),
        "fpw_dispersion.roundtrip_max_rel_err": (
            largest("fpw_dispersion.roundtrip_max_rel_err", density), "ratio"),
        "liquid_sensing.predict_us": (
            median("liquid_sensing.predict_frequency", density, 1e3), "us"),
        "liquid_sensing.coupling_report_us": (
            median(coupling, density, 1e3), "us"),
        "liquid_sensing.calibrated_invert_us": (
            median(calibrated, density, 1e3), "us"),
        "liquid_sensing.coupled_ratio": (
            counted(coupling, density, "liquid_sensing.coupled")
            / counted(coupling, density, "liquid_sensing.coupling_reports"),
            "ratio"),
        "liquid_sensing.extrapolated_ratio": (
            counted(calibrated, density, "liquid_sensing.extrapolated")
            / counted(calibrated, density,
                      "liquid_sensing.calibrated_inversions"),
            "ratio"),
        "cli.process_start_ms": (start_ms, "ms"),
        "cli.import_ms": (everywhere("cli.import_process", 1e6) - start_ms,
                          "ms"),
    }
    for sub in ("plate", "dispersion", "s21", "fit", "invert"):
        m[f"cli.run_ms.{sub}"] = (median(f"cli.run.{sub}", cli, 1e6), "ms")
    m["cli.nonzero_exits"] = (
        counted("cli.run.plate", cli, "cli.nonzero_exits"), "count")
    m["config.parse_ms"] = (everywhere("config.parse", 1e6), "ms")
    m["plate_materials.plate_us"] = (everywhere("plate_materials.plate", 1e3),
                                     "us")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    return m


def traced_run(workload):
    """A fixed number of ops untraced, the same ops traced, then census ops
    of the other workloads, so every layer is measured in every traced run
    and every count repeats exactly for a seed."""
    import numpy as np

    from tracing import CENSUS_OP_BASE, Tracer
    from workloads import WORKLOADS, process_census

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    workload.setup()
    tracer.uninstall()
    workload.tracer = None

    untraced = op_loop(workload, workload.trace_ops, math.inf,
                       latency_buffer(workload.trace_ops))
    workload.reset()
    tracer.source = "workload"
    tracer.install()
    workload.tracer = tracer
    traced = op_loop(workload, untraced.attempted, math.inf,
                     latency_buffer(untraced.attempted))
    loops = [untraced, traced]
    for cls in WORKLOADS.values():
        if isinstance(workload, cls):
            continue
        other = cls(workload.seed, workload.workdir, workload.tiny)
        other.tracer = tracer
        tracer.source, tracer.op_id = "setup", -1
        other.setup()
        tracer.source = f"census.{other.name}"
        loops.append(op_loop(other, other.census_ops, math.inf,
                             latency_buffer(other.census_ops),
                             op_base=CENSUS_OP_BASE))
    tracer.source = "census.cli_batch"
    process_census(tracer, workload.workdir, PROCESS_CENSUS_REPEATS)
    tracer.uninstall()

    correct = (all(loop.failed == 0 for loop in loops)
               and len(untraced.latencies) > 0)
    record = {"trace_ops": untraced.attempted,
              "census_ops": [loop.attempted for loop in loops[2:]],
              "spans": len(tracer.start),
              "counts": tracer.counts}
    if not correct:
        return False, loops, {}, record
    overhead_ms = float(np.median(traced.latencies)
                        - np.median(untraced.latencies)) * 1e3
    metrics = layer_metrics(tracer, overhead_ms)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}.csv"
    tracer.write_csv(spans_file)
    record["spans_file"] = str(spans_file.relative_to(ROOT))
    return correct, loops, metrics, record


# -- driver ---------------------------------------------------------------------

def run_one(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result, record) as printed."""
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = WORKLOADS[name](seed, workdir, tiny)
        if trace:
            correct, loops, metrics, extra = traced_run(workload)
        else:
            correct, loops, metrics, extra = timed_run(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "env": environment(seed),
        "sizes": workload.sizes(),
        "ops": {"attempted": attempted, "completed": attempted - failed,
                "failed": failed},
        "observations": workload.observations(),
        "digest": {"sha256": workload.digest(), "ops": workload.digested},
        "failures": [m for loop in loops for m in loop.messages][:5],
        **extra,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def print_run(result, record) -> None:
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    if "failed_ops_ratio" in record:
        rows.append(("failed_ops_ratio", record["failed_ops_ratio"], "ratio"))
    for name, value, unit in rows:
        print(f"{record['workload']:<18} {name:<42} {value:>16.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        process = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = process.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {process.returncode})",
                  file=sys.stderr)
            return 1
        if process.returncode != 0 or not result["correct"]:
            status = 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> str | None:
    """Point the imports at the checkout's sources; return an error or None."""
    if not (SRC / "fpwsim" / "__init__.py").is_file():
        return f"no fpwsim sources under {SRC}"
    for cap in THREAD_CAPS:
        os.environ[cap] = "1"
    sys.path.insert(0, str(SRC))
    import fpwsim

    if SRC.resolve() not in Path(fpwsim.__file__).resolve().parents:
        return f"fpwsim was imported from {fpwsim.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    error = prepare()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, record = run_one(args.workload, args.seed, args.seconds, args.trace)
    print_run(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
