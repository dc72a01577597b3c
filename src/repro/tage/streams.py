"""Vectorised precomputation of folded-history index/tag streams.

Trace-driven simulation has a property this module exploits aggressively:
branch *outcomes* come from the trace, never from the predictor, so the
global history -- and therefore every folded history, table index, and
tag -- is a pure function of the trace.  We precompute those streams for
the whole trace with numpy once, and the per-branch simulation loop just
reads ``stream[table][t]``, which makes a 21-table TAGE tractable in
pure Python.

Folded-history math.  At record ``t`` the fold of window length ``L``
into width ``w`` is::

    folded[t] = XOR_{a=0}^{L-1}  b[t-1-a] << (a % w)

(the bit of age ``a`` has been rotated ``a`` times since insertion, so it
sits at position ``a % w`` -- identical to the incremental
:class:`repro.common.FoldedHistory`).  Grouping ages by residue ``p = a %
w`` turns each output bit into a parity of a strided subsequence of the
bit stream, which is a difference of strided XOR-prefix sums -- ``O(w)``
vector operations per (L, w) pair instead of ``O(L)``.

History-bit convention: conditional branches contribute their outcome;
unconditional branches contribute a *target-derived* bit, which is what
makes call paths visible to long-history pattern matching (DESIGN.md §4).
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.traces.record import BranchKind, Trace

#: fold widths of the wide master streams; per-config widths are derived
#: from these by XOR-folding down (which preserves dependence on all ages)
WIDE_INDEX_BITS = 14
WIDE_TAG1_BITS = 20
WIDE_TAG2_BITS = 19


def history_bits(trace: Trace) -> np.ndarray:
    """Per-record global-history bit (uint8): outcome or target bit."""
    kinds = np.asarray(trace.kinds, dtype=np.int8)
    taken = np.asarray(trace.taken, dtype=np.uint8)
    targets = np.asarray(trace.targets, dtype=np.uint64)
    ub_bits = ((targets >> np.uint64(2)) ^ (targets >> np.uint64(5))).astype(np.uint8) & 1
    return np.where(kinds == int(BranchKind.COND), taken, ub_bits).astype(np.uint8)


def _strided_prefix_xor(bits: np.ndarray, stride: int) -> np.ndarray:
    """``C[t] = bits[t] ^ C[t - stride]`` for all t, vectorised.

    Computed as a parity cumsum along each of the ``stride`` interleaved
    columns.
    """
    n = len(bits)
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    rows = -(-n // stride)  # ceil division
    padded = np.zeros(rows * stride, dtype=np.int64)
    padded[:n] = bits
    columns = padded.reshape(rows, stride)
    prefix = np.cumsum(columns, axis=0) & 1
    return prefix.reshape(-1)[:n].astype(np.uint8)


def folded_stream(bits: np.ndarray, length: int, width: int) -> np.ndarray:
    """``folded[t]`` (per module docstring) for every record, as int32.

    ``folded[t]`` covers records ``t-1 .. t-L``; records before the trace
    start count as 0, matching a predictor that begins with empty history.
    """
    if length <= 0 or width <= 0:
        raise ValueError(f"length and width must be positive, got {length}, {width}")
    n = len(bits)
    prefix = _strided_prefix_xor(bits, width).astype(np.int64)
    # Left-pad with zeros so all window offsets index directly (records
    # before the trace start have zero history).
    pad = length + 2 * width + 2
    padded = np.zeros(pad + n, dtype=np.int64)
    padded[pad:] = prefix
    folded = np.zeros(n, dtype=np.int64)
    # every window offset is uniform across t, so each gather is a
    # contiguous slice (position of t-1 is pad-1+t)
    for p in range(min(width, length)):
        count = -(-(length - p) // width)  # ages p, p+w, ... below length
        hi = pad - 1 - p
        lo = hi - count * width
        term = padded[hi : hi + n] ^ padded[lo : lo + n]
        folded |= term << p
    return folded.astype(np.int32)


def xor_fold(values: np.ndarray, from_bits: int, to_bits: int) -> np.ndarray:
    """Fold a ``from_bits``-wide value down to ``to_bits`` by XOR of chunks."""
    if to_bits <= 0:
        raise ValueError(f"to_bits must be positive, got {to_bits}")
    out = values.astype(np.int64)
    if to_bits < from_bits:
        folded = np.zeros_like(out)
        shift = 0
        while shift < from_bits:
            folded ^= out >> shift
            shift += to_bits
        out = folded
    return out & ((1 << to_bits) - 1)


class TraceTensors:
    """Per-trace cache of history bits and wide folded streams.

    One instance is shared by every predictor configuration simulated on
    the same trace; folds are computed lazily per (length, width) pair.

    ``artifact_cache`` optionally attaches a persistent read-through /
    write-back store for the derived streams (duck-typed:
    ``load_fold/store_fold`` and ``load_stream/store_stream`` -- see
    :class:`repro.core.artifacts.BundleArtifacts`): folds and built
    index/tag/bimodal streams are then loaded memory-mapped when a prior
    run already computed them, and persisted when computed fresh.
    """

    def __init__(self, trace: Trace, artifact_cache: Optional[object] = None) -> None:
        self.trace = trace
        self.artifact_cache = artifact_cache
        self.num_records = len(trace)
        self.bits = history_bits(trace)
        self.pcs = np.asarray(trace.pcs, dtype=np.int64)
        self.kinds = np.asarray(trace.kinds, dtype=np.int8)
        # instruction index of each record (cumulative clock for timing)
        gaps = np.asarray(trace.inst_gaps, dtype=np.int64)
        self.instr_index = np.cumsum(gaps + 1)
        self._folds: Dict[Tuple[int, int], np.ndarray] = {}
        # built index/tag/bimodal streams, keyed by their full parameter
        # tuple; streams are read-only after construction, so every
        # predictor instance with the same table geometry shares them
        # (matrix runs build 3+ predictors per trace)
        self._streams: Dict[Tuple, object] = {}
        # other trace-pure per-record streams (context IDs, SC indices);
        # cheap to rebuild, so kept in-process only
        self._derived: Dict[Tuple, object] = {}
        self._kind_runs: List[Tuple[int, int, bool]] = []

    def fold(self, length: int, width: int) -> np.ndarray:
        key = (length, width)
        if key not in self._folds:
            cache = self.artifact_cache
            fold = cache.load_fold(length, width) if cache is not None else None
            if fold is None:
                fold = folded_stream(self.bits, length, width)
                if cache is not None:
                    cache.store_fold(length, width, fold)
            self._folds[key] = fold
        return self._folds[key]

    def release_folds(self) -> None:
        """Free fold and stream memory (runner calls this between workloads)."""
        self._folds.clear()
        self._streams.clear()
        self._derived.clear()

    def derived(self, key: Tuple, build: Callable[[], object]) -> object:
        """``build()``, memoised under ``key`` for every predictor on this trace."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def kind_runs(self) -> List[Tuple[int, int, bool]]:
        """Maximal runs of same-kind records: ``[(start, end, is_cond), ...]``.

        The simulation loop iterates these instead of testing
        ``kinds[t] == COND`` per record; conditional/unconditional
        alternation is sparse relative to trace length, so the per-branch
        kind check (and its list indexing) amortises to ~nothing.
        """
        if not self._kind_runs and self.num_records:
            cond = self.kinds == np.int8(int(BranchKind.COND))
            boundaries = np.flatnonzero(np.diff(cond.view(np.int8))) + 1
            starts = [0, *boundaries.tolist()]
            ends = [*starts[1:], self.num_records]
            self._kind_runs = list(zip(starts, ends, cond[starts].tolist()))
        return self._kind_runs


def typed_array(values: np.ndarray, typecode: str = "q") -> array:
    """A numpy vector as a compact fixed-width ``array`` (``q``, ``Q`` or ``i``).

    ``array`` indexing returns plain Python ints faster than numpy scalar
    indexing and stores the elements with no per-object overhead; the
    per-branch kernels read every precomputed stream (table indices and
    tags, context IDs, SC indices) this way.
    """
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(values, dtype=np.dtype(typecode)).tobytes())
    return out


def streams_to_matrix(rows: Sequence[array]) -> np.ndarray:
    """Serialise built stream rows to one contiguous int64 matrix.

    The inverse of :func:`matrix_to_streams`; the artifact store persists
    the matrix as a single ``.npy`` so a later run reconstructs the
    ``array('q')`` rows with two bulk copies instead of recomputing folds
    and hashes.
    """
    if rows and rows[0].itemsize == 8:
        return np.stack([np.frombuffer(row, dtype=np.int64) for row in rows])
    return np.asarray([row.tolist() for row in rows], dtype=np.int64)


def matrix_to_streams(matrix: np.ndarray) -> List[array]:
    """Rebuild per-table ``array('q')`` stream rows from a stored matrix."""
    return [typed_array(row) for row in np.atleast_2d(matrix)]


def _cached_stream(tensors: TraceTensors, key: Tuple) -> Optional[List[array]]:
    """Memo-then-artifact-store lookup of a built stream."""
    cached = tensors._streams.get(key)
    if cached is not None:
        return cached
    cache = tensors.artifact_cache
    if cache is not None:
        matrix = cache.load_stream(key)
        if matrix is not None:
            rows = matrix_to_streams(matrix)
            tensors._streams[key] = rows
            return rows
    return None


def _admit_stream(tensors: TraceTensors, key: Tuple, rows: List[array]) -> List[array]:
    """Memoise a freshly built stream and write it back to the store."""
    tensors._streams[key] = rows
    if tensors.artifact_cache is not None:
        tensors.artifact_cache.store_stream(key, streams_to_matrix(rows))
    return rows


def build_index_streams(
    tensors: TraceTensors,
    lengths: Sequence[int],
    index_bits: Sequence[int],
) -> List[array]:
    """Per-table index stream: hash of pc and folded history."""
    if len(lengths) != len(index_bits):
        raise ValueError("lengths and index_bits must align")
    key = ("idx", tuple(lengths), tuple(index_bits))
    cached = _cached_stream(tensors, key)
    if cached is not None:
        return cached
    pcs = tensors.pcs >> 2
    rows = []
    for table, (length, bits) in enumerate(zip(lengths, index_bits)):
        fold = tensors.fold(length, WIDE_INDEX_BITS)
        mixed = pcs ^ (pcs >> bits) ^ (np.int64(table + 1) * np.int64(0x9E37)) ^ fold.astype(np.int64)
        rows.append(typed_array(xor_fold(mixed, max(WIDE_INDEX_BITS, 30), bits)))
    return _admit_stream(tensors, key, rows)


def build_bimodal_stream(tensors: TraceTensors, bim_mask: int) -> array:
    """Per-record bimodal table index: ``(pc >> 2) & mask``.

    Precomputed so the fused hot path reads ``stream[t]`` like every other
    table index instead of re-hashing the pc per branch.
    """
    if bim_mask < 0:
        raise ValueError(f"bim_mask must be non-negative, got {bim_mask}")
    key = ("bim", bim_mask)
    cached = _cached_stream(tensors, key)
    if cached is not None:
        return cached[0]
    stream = typed_array((tensors.pcs >> np.int64(2)) & np.int64(bim_mask))
    return _admit_stream(tensors, key, [stream])[0]


def build_tag_streams(
    tensors: TraceTensors,
    lengths: Sequence[int],
    tag_bits: Sequence[int],
) -> List[array]:
    """Per-table tag stream: pc mixed with two independent folds."""
    if len(lengths) != len(tag_bits):
        raise ValueError("lengths and tag_bits must align")
    key = ("tag", tuple(lengths), tuple(tag_bits))
    cached = _cached_stream(tensors, key)
    if cached is not None:
        return cached
    pcs = tensors.pcs >> 2
    rows = []
    for length, bits in zip(lengths, tag_bits):
        fold1 = tensors.fold(length, WIDE_TAG1_BITS).astype(np.int64)
        fold2 = tensors.fold(length, WIDE_TAG2_BITS).astype(np.int64)
        mixed = pcs ^ (pcs >> 5) ^ fold1 ^ (fold2 << 1)
        rows.append(typed_array(xor_fold(mixed, max(WIDE_TAG1_BITS + 1, 30), bits)))
    return _admit_stream(tensors, key, rows)
