"""The three benchmark workloads.

Each workload has a ``setup`` (timed as ``setup_s``: imports, store and
daemon construction, priming), a ``rep`` (one repetition of one or more
timed units, repeated until the run's time budget is spent; it calls its
``calibrate`` argument before every unit) and a ``check`` (untimed output
checks that must pass before any number counts).

* ``cold_matrix`` -- serial ``Runner.run_matrix`` over four traces x
  {tsl_64k, llbp, llbpx}, fresh result cache and artifact store on every
  repetition: generate -> tensors/context streams -> shared-base record
  -> LLBP/LLBP-X tails -> cache, artifact and ledger writes.
* ``fig12_jobs2`` -- ``run_fig12`` at ``jobs=2``, cold: the process pool,
  its cost-model ordering, the reference-backend fallbacks
  (``llbpx_optw``, ``tsl_512k``) and the largest TAGE tables.
* ``service_mix`` -- two closed-loop clients against an in-process
  daemon; about nine in ten jobs are fully cached, one in ten carries a
  never-simulated cell.

The trace seed of ``cold_matrix`` and ``fig12_jobs2`` is the benchmark
seed (``RunnerConfig.seed``); the service request mix draws from it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: paper's mean LLBP-X-over-LLBP MPKI gain (Fig 12), in percent
PAPER_GAIN_PCT = 3.6

COLD_WORKLOADS = ("kafka", "twitter", "nodeapp", "whiskey")
COLD_CONFIGS = ("tsl_64k", "llbp", "llbpx")
COLD_BRANCHES = 30_000

FIG12_WORKLOADS = ("kafka", "twitter", "nodeapp")
FIG12_BRANCHES = 15_000
FIG12_JOBS = 2

#: trace length of the warm-up matrix run during set-up
WARMUP_BRANCHES = 4_000

SERVICE_BRANCHES = 4_000
SERVICE_WORKLOADS = ("kafka", "twitter", "nodeapp", "whiskey")
#: configs of the cached part of the mix
SERVICE_WARM_CONFIGS = ("tsl_64k", "llbp", "llbpx")
#: configs whose cells are never requested twice in an episode
SERVICE_COLD_CONFIGS = (
    "tsl_8k", "tsl_16k", "tsl_32k", "tsl_128k", "tsl_256k", "tsl_512k", "llbp_0lat", "llbpx_0lat",
)
SERVICE_CLIENTS = 2
#: jobs per episode; latency grows with ledger history, so it is fixed
SERVICE_JOBS = 120
SERVICE_COLD_EVERY = 10
TERMINAL_EVENTS = ("job-done", "job-failed", "job-cancelled")


def canonical(results: Dict[str, Dict[str, object]]) -> str:
    return json.dumps(results, sort_keys=True)


def digest_of(results: Dict[str, Dict[str, object]]) -> str:
    return hashlib.sha256(canonical(results).encode("utf-8")).hexdigest()[:16]


def gain_gap_pp(llbp_mpki: List[float], llbpx_mpki: List[float]) -> float:
    """|mean LLBP-X-over-LLBP MPKI gain - the paper's +3.6%|, in points."""
    gains = [100.0 * (a - b) / a for a, b in zip(llbp_mpki, llbpx_mpki) if a]
    return abs(sum(gains) / len(gains) - PAPER_GAIN_PCT)


def settle(calibrate: Callable[[], None]) -> None:
    """Untimed, before every timed unit: collect the garbage earlier units
    left (so neither a unit's time nor the peak memory depends on when
    the collector last ran) and run the calibration kernel."""
    gc.collect()
    calibrate()


class Rep:
    """One timed repetition's outcome."""

    def __init__(self) -> None:
        self.units: Dict[str, float] = {}  # wall seconds per timed unit
        self.branches = 0  # simulated branches (cells x trace length)
        self.latencies: Dict[str, float] = {}  # seconds per job, by job
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.results: Dict[str, Dict[str, object]] = {}
        self.layer: Dict[str, float] = {}  # per-layer figures measured from outside

    @property
    def wall(self) -> float:
        return sum(self.units.values())


class MatrixWorkload:
    """Shared shape of the two cold-matrix workloads.

    A repetition runs one or more *units*, each a whole matrix call over
    a fresh cache and store, timed on its own; see :meth:`units`.
    """

    name = ""
    branches = 0
    workloads: Tuple[str, ...] = ()
    #: its timed phase is host CPU work (see :mod:`calibrate`)
    cpu_bound = True

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.errors: List[str] = []
        self.reference: Optional[Dict[str, Dict[str, object]]] = None

    def units(self) -> List[Tuple[str, List[str]]]:
        """``(unit name, trace workloads)`` run as one matrix call each."""
        raise NotImplementedError

    def setup(self) -> None:
        """Imports plus a small warm-up matrix, so first-call costs (lazy
        imports, allocator growth) stay out of the first repetition."""
        # the workloads' own trace seeds: set-up cost must not depend on --seed
        for unit, workloads in self.units():
            self._execute(self.work / "warmup" / unit, WARMUP_BRANCHES, None, workloads)
        shutil.rmtree(self.work / "warmup", ignore_errors=True)

    def _runner(self, directory: Path, branches: int, seed: Optional[int]):
        from repro.core.artifacts import ArtifactStore
        from repro.core.results_io import ResultCache
        from repro.core.runner import Runner, RunnerConfig

        return Runner(
            RunnerConfig(num_branches=branches, seed=seed),
            cache=ResultCache(directory / "cache"),
            artifacts=ArtifactStore(directory / "artifacts"),
        )

    def _execute(self, directory: Path, branches: int, seed: Optional[int], workloads: List[str]):
        """Run the matrix over ``workloads`` once, on a fresh cache and store in ``directory``."""
        raise NotImplementedError

    def _results(self, runner, workloads: List[str]) -> Dict[str, Dict[str, object]]:
        from repro.core.results_io import result_to_dict

        out = {}
        for workload in workloads:
            for config in self.configs:
                hit = runner.lookup_cached(workload, config)
                if hit is not None:
                    out[f"{workload}/{config}"] = result_to_dict(hit)
        return out

    def rep(self, index: int, calibrate: Callable[[], None] = lambda: None) -> Rep:
        from repro.traces import clear_trace_cache

        clear_trace_cache()  # the in-process trace memo would make later reps warm
        directory = self.work / f"rep{index}"
        outcome = Rep()
        outcome.attempted = len(self.workloads) * len(self.configs)
        simulated = 0
        for unit, workloads in self.units():
            settle(calibrate)
            start = time.perf_counter()
            try:
                runner = self._execute(directory / unit, self.branches, self.seed, workloads)
            except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
                self.errors.append(f"rep {index} {unit}: {type(exc).__name__}: {exc}")
                continue
            # a failed unit records no time: it must not become the best one
            outcome.units[unit] = time.perf_counter() - start
            outcome.results.update(self._results(runner, workloads))
            for cell in runner.report.cells():
                if cell.source == "simulated":
                    outcome.latencies[f"{cell.workload}/{cell.config}"] = cell.seconds
                    simulated += 1
            totals = runner.report.totals()
            layer = outcome.layer
            layer["parallel.cell_seconds"] = layer.get("parallel.cell_seconds", 0.0) + totals["seconds"]
            layer["parallel.retries"] = layer.get("parallel.retries", 0) + totals["retries"]
        outcome.failed = outcome.attempted - len(outcome.results)
        outcome.branches = simulated * self.branches
        if simulated != outcome.attempted:
            self.errors.append(
                f"rep {index}: {simulated} cells simulated, expected {outcome.attempted} (cache not cold?)"
            )
        if self.reference is None:
            # the first repetition's caches and stores stay for the warm replay
            self.reference = outcome.results
            self.reference_dir = directory
            return outcome
        if canonical(outcome.results) != canonical(self.reference):
            self.errors.append(f"rep {index}: results differ from rep 0")
        shutil.rmtree(directory, ignore_errors=True)
        return outcome

    def _warm_replay(self) -> None:
        """The same matrix over the first repetition's caches simulates nothing."""
        replayed: Dict[str, Dict[str, object]] = {}
        for unit, workloads in self.units():
            runner = self._execute(self.reference_dir / unit, self.branches, self.seed, workloads)
            if runner.sim_count:
                self.errors.append(f"warm replay of {unit} simulated {runner.sim_count} cells (expected 0)")
            replayed.update(self._results(runner, workloads))
        if canonical(replayed) != canonical(self.reference):
            self.errors.append("warm replay results are not bit-identical to the cold run")
        shutil.rmtree(self.reference_dir, ignore_errors=True)

    def gap_pp(self) -> float:
        ref = self.reference or {}
        llbp = [ref[f"{w}/llbp"]["mispredictions"] / ref[f"{w}/llbp"]["instructions"] for w in self.workloads]
        llbpx = [ref[f"{w}/llbpx"]["mispredictions"] / ref[f"{w}/llbpx"]["instructions"] for w in self.workloads]
        return gain_gap_pp(llbp, llbpx)

    def check(self) -> List[str]:
        if self.reference is None:
            self.errors.append("no repetition completed")
        else:
            self._warm_replay()
        return self.errors

    def close(self) -> None:
        """Nothing outlives a repetition."""

    def results(self) -> Dict[str, Dict[str, object]]:
        return self.reference or {}

    def digest(self) -> str:
        return digest_of(self.results())


class ColdMatrix(MatrixWorkload):
    """One serial matrix call per trace: the serial runner works trace by
    trace anyway, and a unit of under a second is short enough to fall
    between the host's slow phases (see :mod:`run`)."""

    name = "cold_matrix"
    branches = COLD_BRANCHES
    workloads = COLD_WORKLOADS
    configs = COLD_CONFIGS
    jobs = 1

    def units(self) -> List[Tuple[str, List[str]]]:
        return [(workload, [workload]) for workload in self.workloads]

    def _execute(self, directory: Path, branches: int, seed: Optional[int], workloads: List[str]):
        runner = self._runner(directory, branches, seed)
        runner.run_matrix(workloads, list(self.configs))
        return runner


class Fig12Jobs2(MatrixWorkload):
    """The whole figure is one unit: the pool hands out whole traces."""

    name = "fig12_jobs2"
    branches = FIG12_BRANCHES
    workloads = FIG12_WORKLOADS
    jobs = FIG12_JOBS

    @property
    def configs(self):
        from repro.experiments.fig12_mpki_reduction import FIG12_CONFIGS

        return ("tsl_64k",) + tuple(FIG12_CONFIGS)

    def units(self) -> List[Tuple[str, List[str]]]:
        return [("fig12", list(self.workloads))]

    def _execute(self, directory: Path, branches: int, seed: Optional[int], workloads: List[str]):
        from repro.experiments.fig12_mpki_reduction import run_fig12

        runner = self._runner(directory, branches, seed)
        run_fig12(runner, workloads, jobs=self.jobs)
        return runner


class ServiceMix:
    """Closed loop: two clients, each waiting for its job before the next."""

    name = "service_mix"
    jobs = 1
    #: about nine tenths of a job is waiting for the daemon's 0.1 s event poll
    cpu_bound = False

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.errors: List[str] = []
        self.fetched: Dict[str, Dict[str, object]] = {}
        self.cold_cells: set = set()
        self.server = None
        self.service = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        from repro.core.artifacts import ArtifactStore
        from repro.core.runner import Runner, RunnerConfig
        from repro.service import ExperimentService, ServiceServer  # noqa: F401

        config = RunnerConfig(num_branches=SERVICE_BRANCHES)
        self.store_dir = self.work / "artifacts"
        # prime bundles, base streams and derived streams for every cell
        # the mix can request, so a cold cell costs load + tail + put
        primer = Runner(config, artifacts=ArtifactStore(self.store_dir))
        primer.run_matrix(
            list(SERVICE_WORKLOADS), list(SERVICE_WARM_CONFIGS + SERVICE_COLD_CONFIGS)
        )
        self._start(0)

    def _start(self, index: int) -> None:
        from repro.service import ExperimentService, ServiceServer

        episode = self.work / f"episode{index}"
        self.service = ExperimentService(
            cache_dir=episode / "cache",
            artifact_dir=self.store_dir,
            branches=SERVICE_BRANCHES,
        )
        self.server = ServiceServer(self.service, port=0)
        self.server.start_background()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop_background()
            self.server = None

    # -- the request mix ----------------------------------------------------

    def mix(self) -> List[Dict[str, object]]:
        """Job specs drawn from the benchmark seed; every episode replays them.

        The cold cells take the cold configs in turn, so every seed asks
        for the same configs (memory and cost follow the config); the seed
        picks their traces, their order and the rest of the mix.
        """
        rng = random.Random(self.seed)
        count = SERVICE_JOBS // SERVICE_COLD_EVERY
        turns = [SERVICE_COLD_CONFIGS[k % len(SERVICE_COLD_CONFIGS)] for k in range(count)]
        cold_pool = [
            (workload, config)
            for config in sorted(set(turns))
            for workload in rng.sample(SERVICE_WORKLOADS, turns.count(config))
        ]
        rng.shuffle(cold_pool)
        cold_jobs = set(rng.sample(range(SERVICE_JOBS), count))
        specs = []
        for job in range(SERVICE_JOBS):
            configs = rng.sample(SERVICE_WARM_CONFIGS, rng.randint(1, len(SERVICE_WARM_CONFIGS)))
            if job in cold_jobs:
                workload, cold = cold_pool.pop()
                workloads, configs = [workload], [cold] + configs[:1]
            else:
                workloads = rng.sample(SERVICE_WORKLOADS, rng.randint(1, 2))
            specs.append(
                {"workloads": workloads, "configs": configs, "branches": SERVICE_BRANCHES}
            )
        return specs

    # -- one episode --------------------------------------------------------

    def rep(self, index: int, calibrate: Callable[[], None] = lambda: None) -> Rep:
        from repro.service import ServiceClient, ServiceError

        if self.server is None:
            self._start(index)
        client = ServiceClient(f"http://127.0.0.1:{self.server.port}", timeout=60.0)
        specs = self.mix()
        outcome = Rep()
        lock = threading.Lock()
        phases: Dict[str, List[float]] = {
            "http_submit": [], "completion_wait": [], "result_fetch": [], "queue_wait": [], "exec": [],
        }
        fetched: Dict[str, Dict[str, object]] = {}
        next_job = iter(range(len(specs)))
        sims_before = self.service.cache.stats().get("writes", 0)

        def one_job(number: int, spec: Dict[str, object]) -> None:
            t0 = time.perf_counter()
            job = client.submit(spec)
            t1 = time.perf_counter()
            cursor, final = 0, None
            while final is None:
                for event in client.events(job["id"], after=cursor, wait=10.0):
                    cursor = max(cursor, int(event.get("seq", 0) or 0))
                    if event.get("type") in TERMINAL_EVENTS:
                        final = event["type"]
            t2 = time.perf_counter()
            record = client.job(job["id"])
            results = {}
            for cell in record["cells"]:
                results[f"{cell['workload']}/{cell['config']}"] = client.result(cell["digest"])
            t3 = time.perf_counter()
            if final != "job-done":
                raise RuntimeError(f"{job['id']} ended as {final}")
            server_job = self.service.job(job["id"])
            with lock:
                outcome.latencies[str(number)] = t3 - t0
                phases["http_submit"].append(t1 - t0)
                phases["completion_wait"].append(t2 - t1)
                phases["result_fetch"].append(t3 - t2)
                phases["queue_wait"].append(server_job.started_at - server_job.created_at)
                phases["exec"].append(server_job.finished_at - server_job.started_at)
                for key, result in results.items():
                    fetched[key] = result

        def client_loop() -> None:
            while True:
                with lock:
                    index_ = next(next_job, None)
                    if index_ is None:
                        return
                    outcome.attempted += 1
                try:
                    one_job(index_, specs[index_])
                except ServiceError as exc:
                    with lock:
                        if exc.status == 429:
                            outcome.refused += 1
                        else:
                            outcome.failed += 1
                        self.errors.append(f"job {index_}: {exc}")
                except Exception as exc:  # noqa: BLE001 - counted as a failed job
                    with lock:
                        outcome.failed += 1
                        self.errors.append(f"job {index_}: {type(exc).__name__}: {exc}")

        settle(calibrate)
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, name=f"perfbench-client-{i}")
            for i in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.units["episode"] = time.perf_counter() - start
        simulated = self.service.cache.stats().get("writes", 0) - sims_before
        outcome.branches = simulated * SERVICE_BRANCHES
        for name, values in phases.items():
            if values:
                outcome.layer[f"service.{name}_ms"] = 1000.0 * sorted(values)[len(values) // 2]
        self._absorb(index, specs, fetched)
        self.close()
        shutil.rmtree(self.work / f"episode{index}", ignore_errors=True)
        return outcome

    def _absorb(self, index: int, specs, fetched) -> None:
        from repro.core.results_io import result_to_dict

        for key, result in fetched.items():
            data = result_to_dict(result)
            if key in self.fetched and canonical(self.fetched[key]) != canonical(data):
                self.errors.append(f"episode {index}: {key} differs between fetches")
            self.fetched[key] = data
        for spec in specs:
            for config in spec["configs"]:
                if config in SERVICE_COLD_CONFIGS:
                    self.cold_cells.add(f"{spec['workloads'][0]}/{config}")

    # -- checks -------------------------------------------------------------

    def check(self) -> List[str]:
        """Every fetched cell equals the same cell simulated here directly."""
        from repro.core.results_io import result_to_dict
        from repro.core.runner import Runner, RunnerConfig

        if not self.fetched:
            self.errors.append("no result fetched")
            return self.errors
        direct = Runner(RunnerConfig(num_branches=SERVICE_BRANCHES), backend="reference")
        missing = self.cold_cells - set(self.fetched)
        if missing:
            self.errors.append(f"{len(missing)} cold cells never fetched")
        for key in sorted(self.fetched):
            workload, config = key.split("/")
            expected = result_to_dict(direct.run_one(workload, config))
            if canonical(expected) != canonical(self.fetched[key]):
                self.errors.append(f"{key}: daemon result differs from a direct simulation")
        return self.errors

    def results(self) -> Dict[str, Dict[str, object]]:
        return self.fetched

    def digest(self) -> str:
        return digest_of(self.results())

    def gap_pp(self) -> float:
        ref = self.fetched
        pairs = [
            (ref[f"{w}/llbp"], ref[f"{w}/llbpx"])
            for w in SERVICE_WORKLOADS
            if f"{w}/llbp" in ref and f"{w}/llbpx" in ref
        ]
        return gain_gap_pp(
            [a["mispredictions"] / a["instructions"] for a, _ in pairs],
            [b["mispredictions"] / b["instructions"] for _, b in pairs],
        )


WORKLOADS = {cls.name: cls for cls in (ColdMatrix, Fig12Jobs2, ServiceMix)}
