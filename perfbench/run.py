"""Repository benchmark: end-to-end metrics, or per-layer timings with ``--trace 1``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_matrix --seed 1 --seconds 30 --trace 0

The workload names, metric names, units and bounds live in
``BENCHMARK.json``.  One run sets the workload up five times (four times in
fresh child interpreters, once for real) and reports the median as
``setup_s``; repeats the workload until ``--seconds`` are spent; runs the
workload's output checks; and prints every metric by name with its unit,
one ``record:`` line with the full result record (machine fingerprint,
result digest, latency sample count, checks), and as its last line the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.

Host-time metrics come from each timed unit's best time over the
repetitions (:func:`stats.best_total`): the shared hosts this runs on
slow a process by up to half for seconds at a time, which a median over
a 30-second run does not average out, while one clean pass of each
short unit is nearly always seen.  CPU-bound times -- set-up, and the
timed phase of the matrix workloads -- are then converted to
reference-host time with the run's :mod:`calibrate` scale, which takes
out the host's slower drift over minutes.

With ``--trace 1`` every other repetition runs with the layer spans of
:mod:`spans` installed; the untraced ones in between give the tracing
overhead.  The program is imported from ``src/`` next to this directory
and never modified.  Scratch files go to ``.perfbench-work/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import stats  # noqa: E402
from calibrate import Calibration  # noqa: E402
from spans import Tracer, coverage, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: layers reported as busy seconds per traced repetition
TIMED_LAYERS = (
    "traces.generate", "runner.bundle", "runner.build_predictor", "batched.base_record",
    "results_io.cache_get", "results_io.cache_put", "artifacts.save", "artifacts.load",
    "ledger.append", "regress.check",
)
#: layers reported as calls per traced repetition
COUNTED_LAYERS = (
    "traces.generate", "runner.bundle", "batched.base_adopt", "results_io.cache_get", "ledger.append",
)
SIMULATED_CONFIGS = ("tsl_64k", "llbp", "llbpx", "llbpx_optw", "tsl_512k")
SERVICE_PHASES = ("http_submit", "queue_wait", "exec", "completion_wait", "result_fetch")
#: hard cap on repetitions, whatever the time budget
MAX_REPS = 40
SETUP_PROBES = 4
#: calibration calls before and after set-up and after the repetitions, on
#: top of those before every timed unit (``service_mix`` has few units)
BRACKET_CALLS = 10
PROBE_TIMEOUT = 120.0
#: glibc gives every thread that allocates its own malloc arena; the freed
#: memory they keep made ``service_mix``'s peak RSS grow with each episode
#: (78 MB after set-up, 137 MB after nine) and spread 0.25 of its median
#: across runs.  With one arena it stays at 78 MB: the program's live memory.
MALLOC_ENV = ("MALLOC_ARENA_MAX", "1")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(name: str, work: Path, seed: int):
    start = time.perf_counter()
    workload = WORKLOADS[name](work, seed)
    workload.setup()
    return workload, time.perf_counter() - start


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up seconds measured in a fresh interpreter (imports included)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--probe-setup",
    ]
    done = subprocess.run(
        command, cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_reps(workload, args: argparse.Namespace, tracer, calibration: Calibration) -> List[tuple]:
    """Repeat the workload until the time budget is spent; ``(rep, traced)`` pairs.

    The calibration kernel runs before every timed unit, so its best
    time is taken over the same stretch of host time as the units'.
    """
    reps: List[tuple] = []
    elapsed: List[float] = []
    start = time.perf_counter()
    min_reps = 2 if tracer is not None else 1
    while len(reps) < MAX_REPS:
        rep_start = time.perf_counter()
        traced = tracer is not None and len(reps) % 2 == 0
        if traced:
            tracer.install()
        try:
            with tracer.span("rep") if traced else contextlib.nullcontext():
                # traced repetitions skip it: their "rep" span measures layer coverage
                rep = workload.rep(len(reps), (lambda: None) if traced else calibration.sample)
        finally:
            if traced:
                tracer.unpatch()
                tracer.collect_workers()
        reps.append((rep, traced))
        elapsed.append(time.perf_counter() - rep_start)
        if len(reps) >= min_reps and time.perf_counter() - start + statistics.median(elapsed) > args.seconds:
            break
    return reps


def job_latencies(workload, reps, scale: float = 1.0) -> List[float]:
    """Seconds per job: on a CPU-bound workload a cell's best over the
    repetitions (each repeats the same computation) times ``scale``, the
    reference-host conversion; on the wait-bound ``service_mix`` every
    job as it came."""
    if not workload.cpu_bound:
        return [x for rep in reps for x in rep.latencies.values()]
    return [x * scale for x in stats.best_of([rep.latencies for rep in reps]).values()]


def end_to_end(
    workload, reps, setup_samples, peak_mb, scale: float = 1.0, setup_scale: float = 1.0
) -> Dict[str, float]:
    """The end-to-end metrics: best-of-repetition CPU-bound seconds times
    ``scale``, the median set-up time times ``setup_scale``."""
    wall = stats.best_total([rep.units for rep in reps]) * (scale if workload.cpu_bound else 1.0)
    latencies = job_latencies(workload, reps, scale)
    return {
        "setup_s": statistics.median(setup_samples) * setup_scale,
        "sim_branches_per_s": statistics.median(rep.branches for rep in reps) / wall,
        "jobs_per_s": statistics.median(len(rep.latencies) for rep in reps) / wall,
        "submit_p50_ms": 1000.0 * stats.percentile(latencies, 50.0),
        "submit_p90_ms": 1000.0 * stats.percentile(latencies, 90.0),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload, tracer: Tracer, traced, untraced) -> Dict[str, float]:
    n = len(traced)
    layers = self_times(tracer.spans)

    def layer(name: str) -> Dict[str, float]:
        return layers.get(name, {"calls": 0, "seconds": 0.0, "items": 0})

    out: Dict[str, float] = {"paper_gap_pp": workload.gap_pp()}
    for name in TIMED_LAYERS:
        out[f"{name}.s"] = layer(name)["seconds"] / n
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = layer(name)["calls"] / n
    counters = tracer.counters
    groups = counters.get("batched.groups", 0.0)
    out["batched.lanes_per_group"] = counters.get("batched.lanes", 0.0) / groups if groups else 0.0
    for config in SIMULATED_CONFIGS:
        entry = layer(f"simulate.{config}")
        out[f"simulate.{config}.s"] = entry["seconds"] / n
        out[f"simulate.{config}.branches_per_s"] = (
            entry["items"] / entry["seconds"] if entry["seconds"] else 0.0
        )
    gets = layer("results_io.cache_get")["calls"]
    out["results_io.cache_hit_ratio"] = counters.get("results_io.cache_hits", 0.0) / gets if gets else 0.0
    all_reps = traced + untraced
    busy = sum(rep.layer.get("parallel.cell_seconds", 0.0) for rep in all_reps)
    wall = sum(rep.wall for rep in all_reps) * workload.jobs
    out["parallel.utilization"] = busy / wall if "parallel.cell_seconds" in all_reps[0].layer else 0.0
    out["parallel.retries"] = sum(rep.layer.get("parallel.retries", 0) for rep in all_reps)
    for phase in SERVICE_PHASES:
        key = f"service.{phase}_ms"
        values = [rep.layer[key] for rep in traced if key in rep.layer]
        out[key] = statistics.mean(values) if values else 0.0

    # every repetition does the same work: compare best times
    slow = stats.best_total([rep.units for rep in traced])
    fast = stats.best_total([rep.units for rep in untraced])
    out["trace.overhead_pct"] = 100.0 * (slow / fast - 1.0)
    out["trace.top_level_coverage"] = coverage(tracer.spans, "rep")
    return out


def load_benchmark() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args: argparse.Namespace, work: Path) -> int:
    benchmark = load_benchmark()
    fingerprint = host.fingerprint()
    calibration = Calibration()
    calibration.sample(BRACKET_CALLS)
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = Tracer(work / "spans") if args.trace else None
    if tracer is not None:
        (work / "spans").mkdir(parents=True, exist_ok=True)
    with host.PeakRss() as rss:
        workload, seconds = timed_setup(args.workload, work, args.seed)
        setup_samples.append(seconds)
        calibration.sample(BRACKET_CALLS)
        # the calls so far bracket the set-ups
        setup_scale = calibration.typical_scale()
        try:
            pairs = run_reps(workload, args, tracer, calibration)
        finally:
            workload.close()
    errors = workload.check()
    reps = [rep for rep, _ in pairs]
    traced = [rep for rep, was_traced in pairs if was_traced]
    untraced = [rep for rep, was_traced in pairs if not was_traced]
    fingerprint["loadavg_end"] = list(os.getloadavg())

    attempted = sum(rep.attempted for rep in reps)
    refused = sum(rep.refused for rep in reps)
    failed = sum(rep.failed for rep in reps) + refused
    calibration.sample(BRACKET_CALLS)
    e2e = end_to_end(workload, untraced, setup_samples, rss.peak_mb, calibration.scale, setup_scale)
    if args.trace:
        values = per_layer(workload, tracer, traced, untraced)
        declared = benchmark["per_layer"]
    else:
        values = e2e
        declared = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    latencies = job_latencies(workload, untraced, calibration.scale)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint,
        "result_digest": workload.digest(),
        "reps": len(reps),
        "traced_reps": len(traced),
        "rep_units_s": [rep.units for rep in reps],
        "setup_samples_s": setup_samples,
        "latency": stats.latency_summary(latencies),
        "error_rate": stats.error_rate(attempted, failed - refused, refused),
        "paper_gap_pp": workload.gap_pp(),
        "checks": errors or "ok",
        "end_to_end": e2e,
        "end_to_end_measured": end_to_end(workload, untraced, setup_samples, rss.peak_mb),
        "calibration": {
            "best_s": calibration.best, "calls": calibration.calls,
            "scale": calibration.scale, "setup_scale": setup_scale,
        },
    }
    if args.trace:
        record["per_layer"] = values
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(
        f"host calibration: kernel best {1000 * calibration.best:.3f} ms of {calibration.calls} calls; "
        f"to reference-host time x{calibration.scale:.4f} (timed units), x{setup_scale:.4f} (set-up); "
        "measured values in the record"
    )
    summary = record["latency"]
    print(
        f"latency samples: {summary['n']} (p50 {1000 * summary['p50']:.2f} ms"
        + (f", p{summary['tail_pct']:g} {1000 * summary['tail']:.2f} ms)" if summary.get("tail_pct", 50) > 50 else ")")
    )
    print(f"error_rate: {record['error_rate']:.6g} ({failed} of {attempted} failed or refused)")
    print(f"paper_gap_pp: {record['paper_gap_pp']:.6g} pp (|mean LLBP-X-over-LLBP gain - 3.6%|)")
    print(f"result digest ({args.workload}, seed {args.seed}): {record['result_digest']}")
    print(f"output checks: {'ok' if not errors else '; '.join(errors)}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: List[str]) -> int:
    name, value = MALLOC_ENV
    if os.environ.get(name) != value:
        # glibc reads it at start-up only: run this script again, in place
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *argv], {**os.environ, name: value})
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            workload, seconds = timed_setup(args.workload, work, args.seed)
            workload.close()
            print(repr(seconds))
            return 0
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
