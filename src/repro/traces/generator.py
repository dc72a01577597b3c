"""Trace generation: replay per-request-type templates of a synthetic program.

A trace is a stream of *requests*; each request is one activation of the
program's root function.  Structural randomness inside a request
(callee selection, loop trip counts) comes from a ``random.Random``
re-seeded from the request *type*, so every request of one type walks the
identical sequence of branch sites, call paths and loop back-edges.
Control flow never depends on branch outcomes.  The generator therefore
walks each request type once into a flat :class:`_RequestTemplate` and
replays it per request.  Only two things change from one request to the
next:

* conditional outcomes, which behaviour models compute from the execution
  context -- a global register of recent conditional outcomes
  (``cond_history``), a rolling hash of the call stack (``path_hash``,
  fixed per template position) and per-branch occurrence counters;
* instruction gaps, drawn from the trace's own ``random.Random``, which
  also picks each request's type.  Draws happen in a fixed order: the
  type choice, then one gap per record of the request.

A ``(program, seed, length)`` triple always produces the identical trace.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.common.bitops import mix64
from repro.traces.cfg import CallSite, CondSite, Function, JumpSite, LoopSite, Program, Site
from repro.traces.record import COLUMN_DTYPES, BranchKind, Trace

_COND_HISTORY_BITS = 256
_COND_HISTORY_MASK = (1 << _COND_HISTORY_BITS) - 1

#: Version of the trace-generation semantics.  Persistent result caches
#: embed this in their content hash, so bumping it (whenever generator or
#: behaviour-model changes alter traces -- the golden hashes in
#: tests/test_reproducibility.py will catch it) invalidates every cached
#: simulation without any manual cleanup.
GENERATOR_VERSION = 1

#: one behaviour-driven conditional branch of a template: shift the
#: ``shift`` structural outcomes ``bits`` (loop back-edges since the
#: previous one) into the history, then evaluate ``outcome_of(history,
#: path_hash, occurrence)`` with the occurrence counter of ``slot``
_CondEvent = Tuple[int, int, Callable[[int, int, int], bool], int, int]


class _RequestTemplate:
    """The flat record sequence of one request type.

    ``taken`` holds the structural outcomes (unconditional branches and
    loop back-edges); the behaviour-driven conditionals sit at
    ``cond_pos`` with ``targets`` holding their taken target, and their
    outcomes are filled in per request.
    """

    __slots__ = ("pcs", "targets", "kinds", "taken", "cond_pos", "conds", "tail_shift", "tail_bits")

    def __init__(self) -> None:
        self.pcs: List[int] = []
        self.targets: List[int] = []
        self.kinds: List[int] = []
        self.taken: List[bool] = []
        self.cond_pos: List[int] = []
        self.conds: List[_CondEvent] = []
        # structural outcomes after the last behaviour-driven conditional
        self.tail_shift = 0
        self.tail_bits = 0

    def __len__(self) -> int:
        return len(self.pcs)

    def freeze(self) -> "_RequestTemplate":
        """Columns to numpy (the replay concatenates them per request)."""
        for column in ("pcs", "targets", "kinds", "taken"):
            setattr(self, column, np.asarray(getattr(self, column), dtype=COLUMN_DTYPES[column]))
        self.cond_pos = np.asarray(self.cond_pos, dtype=np.int64)
        self.conds = tuple(self.conds)
        return self


class _TemplateBuilder:
    """Walks one request of the program into a :class:`_RequestTemplate`."""

    def __init__(self, generator: "TraceGenerator", request_type: int) -> None:
        self.generator = generator
        self.rng = random.Random(mix64(generator.seed ^ 0xF00D ^ request_type))
        self.template = _RequestTemplate()
        self.path_hashes: List[int] = [mix64(generator.seed ^ 0x57AC)]  # root frame

    def build(self) -> _RequestTemplate:
        program = self.generator.program
        self._function(program.root, return_to=program.root.entry_pc)
        return self.template.freeze()

    def _emit(self, pc: int, target: int, kind: BranchKind, taken: bool) -> None:
        template = self.template
        template.pcs.append(pc)
        template.targets.append(target)
        template.kinds.append(int(kind))
        template.taken.append(taken)

    def _structural_outcome(self, taken: bool) -> None:
        template = self.template
        template.tail_shift += 1
        template.tail_bits = ((template.tail_bits << 1) | int(taken)) & _COND_HISTORY_MASK

    def _function(self, function: Function, return_to: int) -> None:
        for site in function.sites:
            self._site(site)
        self._emit(function.exit_pc, return_to, BranchKind.RETURN, True)

    def _site(self, site: Site) -> None:
        if isinstance(site, CondSite):
            template = self.template
            template.cond_pos.append(len(template))
            template.conds.append(
                (
                    template.tail_shift,
                    template.tail_bits,
                    site.behavior.outcome_of,
                    self.generator._occurrence_slot(site.pc),
                    self.path_hashes[-1],
                )
            )
            template.tail_shift = template.tail_bits = 0
            self._emit(site.pc, site.target, BranchKind.COND, False)
        elif isinstance(site, JumpSite):
            self._emit(site.pc, site.target, BranchKind.JUMP, True)
        elif isinstance(site, CallSite):
            callee = self._pick_callee(site)
            self._emit(site.pc, callee.entry_pc, BranchKind.CALL, True)
            if len(self.path_hashes) <= self.generator.max_call_depth:
                self.path_hashes.append(mix64(self.path_hashes[-1] ^ site.pc))
                self._function(callee, return_to=site.pc + 4)
                self.path_hashes.pop()
            else:  # depth limit: treat the call as a leaf no-op
                self._emit(callee.exit_pc, site.pc + 4, BranchKind.RETURN, True)
        elif isinstance(site, LoopSite):
            trips = self._sample_trips(site)
            for trip in range(trips):
                for inner in site.body:
                    self._site(inner)
                last = trip == trips - 1
                self._emit(site.pc, site.pc + 4 if last else site.target, BranchKind.COND, not last)
                self._structural_outcome(not last)
        else:  # pragma: no cover - exhaustive over the Site union
            raise TypeError(f"unknown site type: {type(site).__name__}")

    def _pick_callee(self, site: CallSite) -> Function:
        if len(site.callees) == 1:
            return site.callees[0]
        return self.rng.choices(site.callees, weights=site.weights, k=1)[0]

    def _sample_trips(self, site: LoopSite) -> int:
        if site.mean_trips == 1:
            return 1
        jitter = self.rng.randint(-1, 1) if site.mean_trips > 2 else 0
        return max(1, site.mean_trips + jitter)


class TraceGenerator:
    """Executes a program until the requested number of branches is emitted."""

    def __init__(
        self,
        program: Program,
        seed: int = 1,
        mean_gap: float = 5.0,
        max_call_depth: int = 64,
        request_types: int = 16,
        type_skew: float = 0.8,
        type_stickiness: float = 0.6,
    ) -> None:
        if mean_gap < 0:
            raise ValueError(f"mean_gap must be non-negative, got {mean_gap}")
        if request_types < 1:
            raise ValueError(f"request_types must be >= 1, got {request_types}")
        if not 0.0 <= type_stickiness < 1.0:
            raise ValueError(f"type_stickiness must be in [0, 1), got {type_stickiness}")
        self.program = program
        self.seed = seed
        self.mean_gap = mean_gap
        self.max_call_depth = max_call_depth
        self.request_types = request_types
        #: probability that the next request repeats the previous type --
        #: server workloads see bursty, session-affine request streams,
        #: which is what makes deep (W=64) context windows repeat
        self.type_stickiness = type_stickiness
        #: Zipf-like popularity of request types: real services handle a
        #: small set of recurring request kinds, which is what makes control
        #: flow paths (and therefore history patterns) *repeat*.
        self._type_weights = [1.0 / (r + 1) ** type_skew for r in range(request_types)]
        self._rng = random.Random(mix64(seed ^ 0xC0FFEE))
        self._templates: Dict[int, _RequestTemplate] = {}
        #: occurrence-counter slot of each conditional site's pc
        self._slots: Dict[int, int] = {}

    def _occurrence_slot(self, pc: int) -> int:
        return self._slots.setdefault(pc, len(self._slots))

    def _template(self, request_type: int) -> _RequestTemplate:
        template = self._templates.get(request_type)
        if template is None:
            template = _TemplateBuilder(self, request_type).build()
            self._templates[request_type] = template
        return template

    # -- public API ---------------------------------------------------------

    def generate(self, num_branches: int) -> Trace:
        """Produce a trace with at least ``num_branches`` records.

        The generator finishes the in-flight request (root-function
        activation) before stopping, so the trace may run slightly longer
        than requested; callers that need an exact length can slice.
        """
        if num_branches <= 0:
            raise ValueError(f"num_branches must be positive, got {num_branches}")
        rng = self._rng
        choices = rng.choices
        types = list(range(self.request_types))
        weights = self._type_weights
        stickiness = self.type_stickiness
        occurrences: List[int] = []
        history = 0
        history_mask = _COND_HISTORY_MASK
        requests: List[_RequestTemplate] = []
        outcomes: List[bool] = []
        gaps: List[float] = []
        length = 0
        request_type = 0
        while length < num_branches:
            if not requests or rng.random() >= stickiness:
                request_type = choices(types, weights=weights, k=1)[0]
            template = self._template(request_type)
            if len(occurrences) < len(self._slots):
                occurrences.extend([0] * (len(self._slots) - len(occurrences)))
            for shift, bits, outcome_of, slot, path_hash in template.conds:
                history = ((history << shift) | bits) & history_mask
                occurrence = occurrences[slot]
                occurrences[slot] = occurrence + 1
                taken = outcome_of(history, path_hash, occurrence)
                outcomes.append(taken)
                history = ((history << 1) | taken) & history_mask
            history = ((history << template.tail_shift) | template.tail_bits) & history_mask
            gaps.extend(self._gaps(len(template)))
            requests.append(template)
            length += len(template)
        trace = self._assemble(requests, outcomes, gaps)
        trace.meta["requested_branches"] = num_branches
        trace.meta["request_types"] = self.request_types
        trace.meta["static_branches"] = self.program.static_branch_count()
        return trace

    # -- replay helpers --------------------------------------------------------

    def _gaps(self, count: int) -> List[float]:
        """Unrounded plain-instruction counts before the next ``count`` branches.

        Geometric-ish gaps with the requested mean; :meth:`_assemble`
        truncates them to integers and bounds them for sanity.
        """
        if self.mean_gap == 0:
            return [0.0] * count
        expovariate = self._rng.expovariate
        rate = 1.0 / self.mean_gap
        return [expovariate(rate) for _ in range(count)]

    def _assemble(
        self, requests: List[_RequestTemplate], outcomes: List[bool], gaps: List[float]
    ) -> Trace:
        """Concatenate the replayed templates into columnar numpy."""
        trace = Trace(name=self.program.name, seed=self.seed)
        for column in ("pcs", "targets", "kinds", "taken"):
            setattr(trace, column, np.concatenate([getattr(r, column) for r in requests]))
        offsets = np.cumsum([0] + [len(r) for r in requests[:-1]])
        positions = np.concatenate([r.cond_pos + offset for r, offset in zip(requests, offsets)])
        taken = np.asarray(outcomes, dtype=np.bool_)
        trace.taken[positions] = taken
        # a not-taken conditional falls through to the next instruction
        fall_through = positions[~taken]
        trace.targets[fall_through] = trace.pcs[fall_through] + np.uint64(4)
        # gaps are non-negative, so the cast truncates exactly like int()
        cap = int(self.mean_gap * 8) + 1
        trace.inst_gaps = np.minimum(np.asarray(gaps).astype(np.int64), cap).astype(
            COLUMN_DTYPES["inst_gaps"]
        )
        return trace


def generate_trace(
    program: Program,
    num_branches: int,
    seed: int = 1,
    mean_gap: float = 5.0,
    request_types: int = 16,
    type_stickiness: float = 0.6,
) -> Trace:
    """Convenience wrapper: build a generator and produce one trace."""
    generator = TraceGenerator(
        program, seed=seed, mean_gap=mean_gap,
        request_types=request_types, type_stickiness=type_stickiness,
    )
    return generator.generate(num_branches)
