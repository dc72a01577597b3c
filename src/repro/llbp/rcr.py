"""The rolling context register (RCR): context-ID formation from UB history.

A context ID is a hash of the ``W`` unconditional branches that precede
the ``D`` most recent ones (paper §II-C.2 and Fig 2).  Because the UB
stream is fixed by the trace, every context ID -- current (CCID) and
prefetch-trigger (PCID) -- is precomputable.  :class:`ContextStreams`
computes, per context depth W:

* ``window_hash[k]``: hash of the UB window ending at UB index ``k``
  (size W, or the available prefix while the register warms up), and

* helpers mapping record positions to UB indices, so a predictor can read
  its active context as ``window_hash[ub_prefix[t] - D - 1]`` and its
  prefetch trigger at UB ``k`` as ``window_hash[k]`` (that context becomes
  active after D further UBs -- the latency-hiding window).

Predictors gather these once per bundle into per-record streams
(:meth:`repro.tage.streams.TraceTensors.derived`), so the per-branch
kernels index an array instead of re-deriving the context.

Hashing uses a polynomial rolling hash mod 2**64 finalised with
:func:`repro.common.mix64`, computed with numpy in closed form.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tage.streams import TraceTensors, typed_array
from repro.traces.record import BranchKind

_B = 0x100000001B3  # odd polynomial base (FNV prime), invertible mod 2^64
_B_INV = pow(_B, -1, 1 << 64)


#: branch kinds that participate in context formation.  Calls and returns
#: carry the call-chain identity the paper's contexts are built from;
#: plain direct jumps would only dilute shallow windows, so the rolling
#: register skips them (they still appear in the trace and in history).
CONTEXT_KINDS = (int(BranchKind.CALL), int(BranchKind.RETURN))


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`repro.common.mix64` over a ``uint64`` array (wrapping arithmetic)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _powers(base: int, count: int) -> np.ndarray:
    """``base**k mod 2**64`` for ``k < count``."""
    powers = np.full(count, base, dtype=np.uint64)
    if count:
        powers[0] = 1
    return np.cumprod(powers, dtype=np.uint64)


def _ub_values(tensors: TraceTensors) -> np.ndarray:
    """Per-context-UB identity values: site plus target (path identity)."""
    is_ub = np.isin(tensors.kinds, CONTEXT_KINDS)
    pcs = np.asarray(tensors.trace.pcs, dtype=np.uint64)[is_ub]
    targets = np.asarray(tensors.trace.targets, dtype=np.uint64)[is_ub]
    return _mix64_array((pcs * np.uint64(3)) ^ targets)


def _window_hashes(values: np.ndarray, window: int) -> np.ndarray:
    """Vectorised :func:`rolling_window_hashes` over a ``uint64`` array.

    The window sum ``S[k] = sum(v[j] * B**(k-j))`` over the last
    ``window`` positions equals ``B**k * (P[k] - P[k-window])`` with
    ``P = cumsum(v * B**-j)``, exactly, in wrapping mod-2**64 arithmetic
    (``B`` is odd, hence invertible).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    prefix = np.cumsum(values * _powers(_B_INV, len(values)), dtype=np.uint64)
    sums = prefix.copy()
    sums[window:] -= prefix[:-window]
    return _mix64_array(sums * _powers(_B, len(values)))


def rolling_window_hashes(values: Sequence[int], window: int) -> List[int]:
    """Hash of the last ``window`` values ending at each position.

    Positions earlier than ``window - 1`` hash the available prefix, which
    models a warming-up rolling register deterministically.
    """
    return _window_hashes(np.asarray(values, dtype=np.uint64), window).tolist()


class ContextStreams:
    """Precomputed context-ID streams for one trace and several depths W.

    ``ub_prefix`` and ``values`` may be supplied preloaded (the artifact
    store persists them as raw arrays), skipping the per-record scan.
    ``hash_cache`` optionally attaches a persistent read-through /
    write-back store for the per-depth window hashes (duck-typed:
    ``load_context_hashes(depth)`` / ``store_context_hashes(depth,
    hashes)`` -- see :class:`repro.core.artifacts.BundleArtifacts`).
    """

    def __init__(
        self,
        tensors: TraceTensors,
        ub_prefix: Optional[Sequence[int]] = None,
        values: Optional[Sequence[int]] = None,
        hash_cache: Optional[object] = None,
    ) -> None:
        self.tensors = tensors
        self.hash_cache = hash_cache
        if ub_prefix is not None and values is not None:
            self._prefix = np.asarray(ub_prefix, dtype=np.int64)
            value_array = np.asarray(values, dtype=np.uint64)
        else:
            is_ub = np.isin(tensors.kinds, CONTEXT_KINDS).astype(np.int64)
            self._prefix = np.cumsum(is_ub) - is_ub
            value_array = _ub_values(tensors)
        #: per-context-UB identity values
        self._values = typed_array(value_array, "Q")
        self.num_ubs = len(self._values)
        self._ub_prefix: Optional[List[int]] = None
        self._hashes: Dict[int, np.ndarray] = {}

    @property
    def ub_prefix(self) -> List[int]:
        """Number of context-forming UBs *strictly before* each record."""
        if self._ub_prefix is None:
            self._ub_prefix = self._prefix.tolist()
        return self._ub_prefix

    def window_hashes(self, depth: int) -> np.ndarray:
        """Rolling hashes (``uint64``) for context depth ``depth``, per UB (cached)."""
        if depth not in self._hashes:
            hashes = None
            if self.hash_cache is not None:
                hashes = self.hash_cache.load_context_hashes(depth)
            if hashes is None:
                hashes = _window_hashes(np.frombuffer(self._values, dtype=np.uint64), depth)
                if self.hash_cache is not None:
                    self.hash_cache.store_context_hashes(depth, hashes)
            self._hashes[depth] = hashes
        return self._hashes[depth]

    def window_ids(self, depth: int) -> array:
        """:meth:`window_hashes` as a plain-int-indexable ``array('Q')`` (memoised)."""
        return self.tensors.derived(("window_ids", depth), lambda: typed_array(self.window_hashes(depth), "Q"))

    def record_windows(self, distance: int) -> Tuple[np.ndarray, int]:
        """``(ends, warm_from)`` for prefetch distance D = ``distance``.

        ``ends[t]`` is the UB index whose window is the active context of
        record ``t`` (``ub_prefix[t] - D - 1``, clamped to 0 while the
        register is cold); records before ``warm_from`` are cold.
        """
        ends = self._prefix - (distance + 1)
        warm_from = int(np.count_nonzero(ends < 0))  # ub_prefix never decreases
        return np.maximum(ends, 0), warm_from

    def ub_bounds(self) -> array:
        """``ub_prefix`` plus a final entry holding ``num_ubs`` (memoised).

        The context UBs among records ``start .. end-1`` are exactly the
        UB indices ``bounds[start] .. bounds[end]-1``.
        """
        return self.tensors.derived(
            ("ub_bounds",), lambda: typed_array(np.append(self._prefix, self.num_ubs))
        )

    def ub_positions(self) -> array:
        """Record index of each context UB (memoised)."""
        return self.tensors.derived(
            ("ub_positions",),
            lambda: typed_array(np.flatnonzero(np.isin(self.tensors.kinds, CONTEXT_KINDS))),
        )

    def context_of_record(self, t: int, depth: int, distance: int) -> int:
        """Active context ID for the branch at record ``t`` (-1 while cold).

        The context is formed from the ``depth`` UBs preceding the
        ``distance`` most recent ones, per §II-C.2.
        """
        end = int(self._prefix[t]) - distance - 1
        if end < 0:
            return -1
        return int(self.window_hashes(depth)[end])
