"""The benchmark's own statistics.

* :func:`percentile` / :func:`tail_percentile` -- latency percentiles and
  the rule for the highest one worth reporting: the highest percentile
  that still has at least ten samples beyond it.
* :func:`best_of` / :func:`best_total` -- the best time of each timed
  unit over a run's repetitions, which is what its host-time metrics
  are computed from.
* :func:`error_rate` -- failed or refused operations over attempted ones.
* :func:`spread` / :func:`agreement` -- the run-to-run check: the
  quartile spread of each set of runs, as a share of its median, stays
  within the metric's bound, and the second set's median is not worse
  than the first's by more than the bound.

Run ``python3 perfbench/stats.py A.jsonl B.jsonl`` to apply the
agreement check to two files of run records written by
``perfbench/prove.py``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: percentiles a latency report may name, lowest first
LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``count``."""
    return count - _rank(count, pct)


def tail_percentile(count: int, ladder: Sequence[float] = LADDER) -> Optional[float]:
    """Highest percentile of ``ladder`` with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung has fewer than ``MIN_BEYOND``
    samples beyond it (fewer than about 20 samples).
    """
    best = None
    for pct in ladder:
        if beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """p50, the reportable tail percentile and the sample count."""
    tail = tail_percentile(len(samples))
    out = {"n": len(samples), "p50": percentile(samples, 50.0)}
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(samples, tail)
    return out


def best_of(reps: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per key, the smallest value any repetition recorded for it.

    The shared hosts the benchmark runs on slow a process down by up to
    half for seconds at a time; the slowdown only ever adds time, so the
    best of several short identical units is the steady estimate of
    their cost.  A key a repetition lacks (a failed unit) is skipped.
    """
    best: Dict[str, float] = {}
    for rep in reps:
        for key, value in rep.items():
            best[key] = min(value, best.get(key, math.inf))
    return best


def best_total(reps: Sequence[Dict[str, float]]) -> float:
    """Sum over timed units of each unit's best time: one clean repetition."""
    if not reps:
        raise ValueError("best_total of no repetitions")
    return sum(best_of(reps).values())


def error_rate(attempted: int, failed: int, refused: int = 0) -> float:
    """Failed plus refused operations over attempted ones.

    A refused operation (HTTP 429) was attempted and did not succeed,
    so it counts as failed; ``refused`` must therefore not already be
    included in ``failed``.
    """
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if failed < 0 or refused < 0 or failed + refused > attempted:
        raise ValueError(f"bad counts: {failed} failed + {refused} refused of {attempted}")
    return (failed + refused) / attempted


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def agreement(
    first: Sequence[float], second: Sequence[float], bound: float, better: str, check_spread: bool = True
) -> Tuple[bool, Dict[str, float]]:
    """Whether two sets of runs of the same code agree within ``bound``.

    Each set's spread must stay within ``bound`` (skipped with
    ``check_spread=False``, as for set-up time), and the second median
    may be worse than the first by at most ``bound``.
    """
    detail = {
        "spread_1": spread(first),
        "spread_2": spread(second),
        "median_1": statistics.median(first),
        "median_2": statistics.median(second),
    }
    detail["worse_by"] = worsening(detail["median_1"], detail["median_2"], better)
    ok = detail["worse_by"] <= bound
    if check_spread:
        ok = ok and detail["spread_1"] <= bound and detail["spread_2"] <= bound
    return ok, detail


def load_runs(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(runs: Iterable[Dict[str, object]], workload: str, metric: str) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and metric in run["result"]["metrics"]
    ]


def compare_files(first_path: str, second_path: str, benchmark_path: str = "BENCHMARK.json") -> bool:
    """Print the agreement check per (workload, end-to-end metric); True if all agree."""
    with open(benchmark_path, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    first, second = load_runs(first_path), load_runs(second_path)
    workloads = sorted({run["workload"] for run in first})
    all_ok = True
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            a = metric_values(first, workload, metric["name"])
            b = metric_values(second, workload, metric["name"])
            if len(a) < 2 or len(b) < 2:
                continue
            ok, detail = agreement(
                a, b, metric["bound"], metric["better"], check_spread=metric["name"] != "setup_s"
            )
            all_ok = all_ok and ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {workload:12s} {metric['name']:20s} "
                f"bound {metric['bound']:.2f}  spread {detail['spread_1']:.3f}/{detail['spread_2']:.3f}  "
                f"median {detail['median_1']:.6g} -> {detail['median_2']:.6g} "
                f"(worse by {detail['worse_by']:+.3f})"
            )
    return all_ok


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit("usage: python3 perfbench/stats.py FIRST.jsonl SECOND.jsonl [BENCHMARK.json]")
    sys.exit(0 if compare_files(*sys.argv[1:]) else 1)
