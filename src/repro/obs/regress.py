"""Regression watchdog over the run ledger.

Every finished run is compared against a *rolling baseline* keyed by
``(matrix digest, backend, host)`` -- the narrowest key under which
throughput numbers are comparable: a different matrix is different work,
a different backend is a different engine, and a different host is a
different machine.  Four checks run, ordered by how loudly they should
alarm:

* **result digest** -- for a fixed matrix digest the serialized results
  must be bit-identical across runs (simulation is a pure function of
  the cell key).  A mismatch is a *correctness* alarm, not a perf note.
  A baseline digest made with an older digest scheme
  (``result_digest_version``) than the record's is not comparable; the
  record re-baselines it silently.
* **throughput** -- branches/sec below ``(1 - tolerance)`` of the
  baseline's exponential moving average (only when both runs actually
  simulated; a fully cached replay has no meaningful throughput).
* **cache hit rate** -- an absolute drop beyond ``hit_rate_drop`` means
  previously cached cells are being re-simulated (cache damage or key
  churn).
* **retries** -- more than ``retry_slack`` retries above the baseline
  average points at a newly flaky host or workload.

Ordering contract (pinned by tests): a record is checked against the
baseline *as it stood before the run*, and only then folded into it --
so the very first run of a key establishes the baseline silently, and a
regression is flagged exactly once against the pre-regression history
rather than being absorbed into its own comparison point.

Baselines live in ``baselines.json`` inside the ledger directory,
replaced atomically (temp + rename) like every other piece of shared
state in this repo.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "BASELINES_FILENAME",
    "DEFAULT_HIT_RATE_DROP",
    "DEFAULT_RETRY_SLACK",
    "DEFAULT_TOLERANCE",
    "baseline_key",
    "check_record",
    "check_and_update",
    "digest_version",
    "flagged_records",
    "load_baselines",
    "save_baselines",
    "update_baseline",
]

BASELINES_FILENAME = "baselines.json"

#: fractional throughput drop tolerated before flagging (runs are noisy)
DEFAULT_TOLERANCE = 0.30
#: absolute cache-hit-rate drop tolerated before flagging
DEFAULT_HIT_RATE_DROP = 0.25
#: retries above the baseline average tolerated before flagging
DEFAULT_RETRY_SLACK = 2.0
#: EMA weight of the newest run when folding it into the baseline
EMA_ALPHA = 0.3


def digest_version(record: Mapping[str, object]) -> int:
    """Digest scheme of a record or baseline (absent: the original, 1)."""
    return int(record.get("result_digest_version", 1) or 1)


def baseline_key(record: Mapping[str, object]) -> str:
    return "%s|%s|%s" % (
        record.get("matrix_digest", ""),
        record.get("backend", ""),
        record.get("host", ""),
    )


def load_baselines(directory: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    path = Path(directory) / BASELINES_FILENAME
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def save_baselines(directory: Union[str, Path], baselines: Mapping[str, object]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / BASELINES_FILENAME
    tmp = path.with_name("%s.tmp.%d" % (BASELINES_FILENAME, os.getpid()))
    try:
        tmp.write_text(json.dumps(baselines, indent=2, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        pass


def check_record(
    record: Mapping[str, object],
    baseline: Optional[Mapping[str, object]],
    tolerance: float = DEFAULT_TOLERANCE,
    hit_rate_drop: float = DEFAULT_HIT_RATE_DROP,
    retry_slack: float = DEFAULT_RETRY_SLACK,
) -> List[Dict[str, object]]:
    """Flags for ``record`` vs ``baseline`` (no baseline: no flags)."""
    if not baseline:
        return []
    flags: List[Dict[str, object]] = []

    base_digest = baseline.get("result_digest")
    digest = record.get("result_digest")
    comparable = digest_version(baseline) >= digest_version(record)
    if base_digest and digest and comparable and digest != base_digest:
        flags.append(
            {
                "kind": "result_digest",
                "severity": "correctness",
                "baseline": base_digest,
                "observed": digest,
                "detail": "result digest changed for an identical matrix -- "
                "simulation output is no longer bit-stable",
            }
        )

    base_bps = float(baseline.get("branches_per_sec", 0.0) or 0.0)
    bps = float(record.get("branches_per_sec", 0.0) or 0.0)
    report = record.get("report")
    # records without an embedded report (benchmarks) are pure-throughput
    # measurements; records with one only compare when work was simulated
    simulated = (
        int(dict(report).get("totals", {}).get("simulated", 0)) if isinstance(report, dict) else 1
    )
    if base_bps > 0 and bps > 0 and simulated > 0 and bps < base_bps * (1.0 - tolerance):
        flags.append(
            {
                "kind": "throughput",
                "severity": "perf",
                "baseline": round(base_bps, 2),
                "observed": round(bps, 2),
                "detail": "throughput dropped %.0f%% below the rolling baseline"
                % (100.0 * (1.0 - bps / base_bps)),
            }
        )

    base_hit = baseline.get("cache_hit_rate")
    hit = record.get("cache_hit_rate")
    if base_hit is not None and hit is not None:
        if float(hit) < float(base_hit) - hit_rate_drop:
            flags.append(
                {
                    "kind": "cache_hit_rate",
                    "severity": "perf",
                    "baseline": round(float(base_hit), 4),
                    "observed": round(float(hit), 4),
                    "detail": "cache hit rate fell -- previously cached cells "
                    "are being re-simulated",
                }
            )

    base_retries = float(baseline.get("retries", 0.0) or 0.0)
    retries = float(record.get("retries", 0.0) or 0.0)
    if retries > base_retries + retry_slack:
        flags.append(
            {
                "kind": "retries",
                "severity": "perf",
                "baseline": round(base_retries, 2),
                "observed": retries,
                "detail": "retry count rose well above the baseline average",
            }
        )
    return flags


def update_baseline(
    baseline: Optional[Mapping[str, object]], record: Mapping[str, object]
) -> Dict[str, object]:
    """Fold ``record`` into the rolling baseline (EMA for noisy figures).

    The result digest always adopts the latest value: once a correctness
    alarm has been raised and recorded, subsequent identical re-runs of
    the *new* output compare clean instead of re-alarming forever -- the
    historical flag lives in the ledger record, not the baseline.
    """
    bps = float(record.get("branches_per_sec", 0.0) or 0.0)
    hit = float(record.get("cache_hit_rate", 0.0) or 0.0)
    retries = float(record.get("retries", 0.0) or 0.0)
    if not baseline:
        return {
            "runs": 1,
            "branches_per_sec": bps,
            "cache_hit_rate": hit,
            "retries": retries,
            "result_digest": record.get("result_digest", ""),
            "result_digest_version": digest_version(record),
            "last_run_id": record.get("run_id", ""),
            "last_ts": record.get("ts", 0.0),
        }

    def ema(old: float, new: float) -> float:
        return (1.0 - EMA_ALPHA) * old + EMA_ALPHA * new

    old_bps = float(baseline.get("branches_per_sec", 0.0) or 0.0)
    return {
        "runs": int(baseline.get("runs", 0)) + 1,
        # a fully cached replay (bps recorded but nothing simulated) must
        # not drag the simulated-throughput baseline around
        "branches_per_sec": ema(old_bps, bps) if bps > 0 else old_bps,
        "cache_hit_rate": ema(float(baseline.get("cache_hit_rate", 0.0) or 0.0), hit),
        "retries": ema(float(baseline.get("retries", 0.0) or 0.0), retries),
        "result_digest": record.get("result_digest", baseline.get("result_digest", "")),
        "result_digest_version": digest_version(record),
        "last_run_id": record.get("run_id", ""),
        "last_ts": record.get("ts", 0.0),
    }


def check_and_update(
    directory: Union[str, Path],
    record: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict[str, object]]:
    """Watchdog entry point: check first, then fold into the baseline.

    Mutates ``record`` in place (sets ``record["regressions"]``) so the
    flags are persisted inside the ledger record itself -- ``repro
    history regressions`` needs no recomputation, and the verdict can
    never drift from what the watchdog saw at run time.
    """
    baselines = load_baselines(directory)
    key = baseline_key(record)
    flags = check_record(record, baselines.get(key), tolerance=tolerance)
    record["regressions"] = flags
    baselines[key] = update_baseline(baselines.get(key), record)
    save_baselines(directory, baselines)
    return flags


def flagged_records(records) -> List[Dict[str, object]]:
    """The subset of ledger records carrying at least one flag."""
    return [record for record in records if record.get("regressions")]
