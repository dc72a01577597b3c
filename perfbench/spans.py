"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It times each layer by replacing a
module's public function (or a class's public method) with a
``perf_counter`` wrapper for the duration of a traced repetition, and
puts the original back afterwards.  cProfile is deliberately not used:
it charges every Python call and so inflates call-heavy layers such as
trace generation.

A span is ``(id, parent, layer, start, end, pid, tag, items)``.  Spans
live in memory and are summarised when the run ends.  Parents are
tracked per thread, so the service daemon's drain thread and the
benchmark's client threads each get their own tree.  Pool workers of
``repro.core.parallel`` inherit the patches through ``fork``; the
wrapper around ``simulate_task`` appends each task's worker spans to a
per-pid file that the parent reads back (:meth:`Tracer.collect_workers`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, int, str, int]

#: layer names whose spans are further split by configuration tag
TAGGED_LAYERS = ("simulate",)


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self, worker_dir: Optional[Path] = None) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.worker_dir = worker_dir
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._parent_pid = self.pid

    # -- recording ------------------------------------------------------------

    def _fork_guard(self) -> None:
        """A forked worker starts with an empty span list of its own."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counters = {}
            self._local = threading.local()

    def _state(self) -> threading.local:
        self._fork_guard()
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.config = None
            local.outer_config = None
        return local

    def count(self, name: str, value: float = 1.0) -> None:
        self._fork_guard()
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    @contextlib.contextmanager
    def span(self, layer: str, tag: str = "", items: int = 0):
        """Record one ``layer`` span around the ``with`` body."""
        local = self._state()
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else 0
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, layer, start, end, self.pid, tag, items))

    def record(self, layer: str, fn: Callable, tag: Callable = None, items: Callable = None):
        """Wrap ``fn`` so each call records one ``layer`` span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tag(self._state(), args, kwargs) if tag is not None else ""
            n = items(args, kwargs) if items is not None else 0
            with self.span(layer, label, n):
                return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- worker spans -----------------------------------------------------------

    def flush_worker(self) -> None:
        """Append this worker's spans to its per-pid file and forget them."""
        if self.worker_dir is None or os.getpid() == self._parent_pid:
            return
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = self.counters, {}
        with open(self.worker_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": counters}) + "\n")

    def collect_workers(self) -> int:
        """Read back (and delete) every worker span file; returns spans read."""
        if self.worker_dir is None:
            return 0
        read = 0
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    if isinstance(record, dict):
                        for name, value in record["counters"].items():
                            self.count(name, value)
                    else:
                        self.spans.append(tuple(record))
                        read += 1
            path.unlink()
        return read

    def install(self) -> None:
        """Patch every measured layer (see the module docstring)."""
        self._parent_pid = os.getpid()
        import repro.core.batched as batched
        import repro.core.parallel as parallel
        import repro.core.runner as runner
        import repro.obs.regress as regress
        from repro.core.artifacts import ArtifactStore, BundleArtifacts
        from repro.core.results_io import ResultCache
        from repro.obs.ledger import RunLedger
        from repro.tage.batched_state import SharedBase

        def config_arg(args, kwargs, position):
            return args[position] if len(args) > position else kwargs.get("name", "")

        def sim_tag(local, args, kwargs):
            # Opt-W runs llbpx three times inside run_one("llbpx_optw"); a
            # batched lane's simulate follows its own build_predictor(name)
            return local.outer_config or local.config or getattr(args[0], "name", "")

        def trace_len(args, kwargs):
            return len(args[1])

        run_one = runner.Runner.run_one
        build_predictor = self.record("runner.build_predictor", runner.Runner.build_predictor)

        @functools.wraps(run_one)
        def run_one_scope(*args, **kwargs):
            local = self._state()
            saved = local.outer_config
            local.outer_config = config_arg(args, kwargs, 2)
            try:
                return run_one(*args, **kwargs)
            finally:
                local.outer_config = saved

        @functools.wraps(runner.Runner.build_predictor)
        def build_scope(*args, **kwargs):
            self._state().config = config_arg(args, kwargs, 1)
            return build_predictor(*args, **kwargs)

        simulate = self.record("simulate", runner.simulate, tag=sim_tag, items=trace_len)
        self.patch(runner.Runner, "run_one", run_one_scope)
        self.patch(runner.Runner, "build_predictor", build_scope)
        self.patch(runner.Runner, "bundle", self.record("runner.bundle", runner.Runner.bundle))
        self.patch(runner, "generate_workload", self.record("traces.generate", runner.generate_workload))
        self.patch(runner, "simulate", simulate)
        self.patch(batched, "simulate", simulate)
        self.patch(SharedBase, "record", self.record("batched.base_record", SharedBase.record))
        self.patch(
            SharedBase, "adopt_stream", self.record("batched.base_adopt", SharedBase.adopt_stream)
        )
        run_group = batched.run_group

        @functools.wraps(run_group)
        def counted_group(runner_obj, workload, cells):
            cells = list(cells)
            self.count("batched.groups")
            self.count("batched.lanes", len(cells))
            return run_group(runner_obj, workload, cells)

        self.patch(batched, "run_group", counted_group)

        cache_get = ResultCache.get

        @functools.wraps(cache_get)
        def counted_get(cache, digest):
            hit = cache_get(cache, digest)
            self.count("results_io.cache_hits", hit is not None)
            return hit

        self.patch(ResultCache, "get", self.record("results_io.cache_get", counted_get))
        self.patch(ResultCache, "put", self.record("results_io.cache_put", ResultCache.put))
        for name in ("save_bundle", "save_base_stream"):
            self.patch(ArtifactStore, name, self.record("artifacts.save", getattr(ArtifactStore, name)))
        for name in ("load_bundle", "load_base_stream"):
            self.patch(ArtifactStore, name, self.record("artifacts.load", getattr(ArtifactStore, name)))
        for name in ("store_fold", "store_stream", "store_context_hashes"):
            self.patch(
                BundleArtifacts, name, self.record("artifacts.save", getattr(BundleArtifacts, name))
            )
        for name in ("load_fold", "load_stream", "load_context_hashes"):
            self.patch(
                BundleArtifacts, name, self.record("artifacts.load", getattr(BundleArtifacts, name))
            )
        self.patch(RunLedger, "append", self.record("ledger.append", RunLedger.append))
        self.patch(
            regress, "check_and_update", self.record("regress.check", regress.check_and_update)
        )

        simulate_task = parallel.simulate_task

        @functools.wraps(simulate_task)
        def traced_task(*args, **kwargs):
            try:
                return simulate_task(*args, **kwargs)
            finally:
                self.flush_worker()

        self.patch(parallel, "simulate_task", traced_task)


def layer_key(span: Span) -> str:
    layer, tag = span[2], span[6]
    return f"{layer}.{tag}" if layer in TAGGED_LAYERS and tag else layer


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, busy ``seconds`` (self time) and ``items``.

    Self time is a span's duration minus its direct children's
    durations.  Children of one parent run on the parent's thread, one
    after another, so their durations never overlap.
    """
    child_seconds: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span[1]:
            key = (span[5], span[1])
            child_seconds[key] = child_seconds.get(key, 0.0) + (span[4] - span[3])
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(layer_key(span), {"calls": 0, "seconds": 0.0, "items": 0})
        entry["calls"] += 1
        entry["seconds"] += (span[4] - span[3]) - child_seconds.get((span[5], span[0]), 0.0)
        entry["items"] += span[7]
    return out


def coverage(spans: List[Span], root_layer: str) -> float:
    """Share of the ``root_layer`` spans' wall covered by their direct children."""
    roots = {(s[5], s[0]): s for s in spans if s[2] == root_layer}
    wall = sum(s[4] - s[3] for s in roots.values())
    covered = sum(s[4] - s[3] for s in spans if (s[5], s[1]) in roots)
    return covered / wall if wall > 0 else 0.0
