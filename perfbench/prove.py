"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/prove.py --workloads cold_matrix,service_mix --seeds 1-10 --out runs.jsonl

Each run is ``perfbench/run.py`` in its own process, one after another.
Every run's final result line and its ``record:`` line are appended to
``--out`` as one JSON line.  The summary gives, per workload and
end-to-end metric, the median over the seeds and the quartile spread as
a share of the median, against the bound in ``BENCHMARK.json``.  Two
such files can be checked for run-to-run agreement with
``python3 perfbench/stats.py A.jsonl B.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    record = next(json.loads(line[len("record: "):]) for line in lines if line.startswith("record: "))
    return {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1]), "record": record}


def summarise(runs: List[dict], benchmark: dict) -> None:
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        bad = [run["seed"] for run in mine if not run["result"]["correct"]]
        print(f"{workload}: {len(mine)} runs, digests {sorted({r['record']['result_digest'] for r in mine})[:3]}..."
              + (f" INCORRECT on seeds {bad}" if bad else ""))
        for metric in benchmark["end_to_end"]:
            values = stats.metric_values(mine, workload, metric["name"])
            if len(values) < 2:
                continue
            share = stats.spread(values)
            verdict = "ok" if share <= metric["bound"] / 3 else ("within bound" if share <= metric["bound"] else "TOO WIDE")
            print(
                f"  {metric['name']:20s} median {statistics.median(values):<14.6g} spread {share:.3f} "
                f"(bound {metric['bound']:.2f}) {verdict}"
            )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSONL file the runs are appended to")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = args.seconds or benchmark["run_seconds"]
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = run_one(workload, seed, seconds, args.trace)
            runs.append(run)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(run, sort_keys=True) + "\n")
            values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={run['result']['correct']} {values}", flush=True)
    if not args.trace:
        summarise(runs, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
