"""The statistical corrector (SC) component of TAGE-SC-L.

TAGE occasionally insists on a pattern-based prediction for branches that
are merely statistically biased; the SC is a small GEHL-style perceptron
that sums signed counters indexed by pc and several short global-history
hashes and overrides TAGE when the weighted vote confidently disagrees.
The confidence threshold adapts online (Seznec's dynamic threshold
fitting).

Like the TAGE core, the SC is stream-bound: its per-table history-hash
index streams are precomputed from the trace tensors.  So are its bias
and local-history indices: the local history is a per-pc-slot shift
register of *trace* outcomes (every resolved conditional branch shifts
its own outcome in), so it too is a pure function of the trace.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.common.stats import StatGroup
from repro.tage.config import SC_HISTORY_LENGTHS, TageConfig
from repro.tage.streams import TraceTensors, build_index_streams, typed_array
from repro.traces.record import BranchKind

#: local-history registers: one per ``(pc >> 2) & _LOCAL_SLOT_MASK`` slot
_LOCAL_SLOT_MASK = 1023
_LOCAL_BITS = 11


def local_histories(tensors: TraceTensors) -> Tuple[np.ndarray, np.ndarray]:
    """``(before, final)`` local-history registers over the whole trace.

    ``before[t]`` is the register of conditional record ``t``'s slot just
    before it resolves (newest outcome in bit 0); ``final`` holds every
    slot's register after the last record.  Memoised on ``tensors``.
    """
    return tensors.derived(("sc_local_history",), lambda: _local_histories(tensors))


def _local_histories(tensors: TraceTensors) -> Tuple[np.ndarray, np.ndarray]:
    before = np.zeros(tensors.num_records, dtype=np.int64)
    final = np.zeros(_LOCAL_SLOT_MASK + 1, dtype=np.int64)
    cond = np.flatnonzero(tensors.kinds == np.int8(int(BranchKind.COND)))
    if not len(cond):
        return before, final
    slots = (tensors.pcs[cond] >> 2) & _LOCAL_SLOT_MASK
    order = np.argsort(slots, kind="stable")
    slots = slots[order]
    outcomes = tensors.bits[cond[order]].astype(np.int64)
    # position of each conditional among its slot's, in trace order
    first = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
    rank = np.arange(len(slots)) - np.repeat(first, np.diff(np.r_[first, len(slots)]))
    history = np.zeros(len(slots), dtype=np.int64)
    for age in range(1, _LOCAL_BITS + 1):
        older = np.zeros_like(history)
        older[age:] = outcomes[:-age]
        history |= np.where(rank >= age, older, 0) << (age - 1)
    before[cond[order]] = history
    last = np.r_[first[1:], len(slots)] - 1
    final[slots[last]] = ((history[last] << 1) | outcomes[last]) & ((1 << _LOCAL_BITS) - 1)
    return before, final


@dataclass
class SCPrediction:
    """Result of a statistical-corrector evaluation."""

    pred: bool  # final direction after possible override
    overrode: bool  # SC disagreed with and overrode the input prediction
    total: int  # signed perceptron sum (includes the prior term)


class StatisticalCorrector:
    """GEHL-style corrector with an adaptive override threshold."""

    def __init__(self, config: TageConfig, tensors: TraceTensors) -> None:
        self.config = config
        self.stats = StatGroup("sc")
        entries = config.sc_entries
        index_bits = max(2, (entries - 1).bit_length())
        self._mask = (1 << index_bits) - 1
        # length 0 = bias table indexed by pc alone; others use history hashes
        self._history_lengths = [length for length in SC_HISTORY_LENGTHS if length > 0]
        self.idx_streams: List[array] = build_index_streams(
            tensors, self._history_lengths, [index_bits] * len(self._history_lengths)
        )
        self._tensors = tensors
        self._ctr_max = (1 << (config.sc_counter_bits - 1)) - 1
        self._ctr_min = -(self._ctr_max + 1)
        self._bias = array("h", [0]) * (1 << index_bits)
        self._tables = [array("h", [0]) * (1 << index_bits) for _ in self._history_lengths]
        # local-history component (real TSL has one): per-branch outcome
        # shift registers feeding a dedicated counter table
        self._local_table = array("h", [0]) * (2 << index_bits)
        self._local_mask = (2 << index_bits) - 1
        self._bias_idx, self._local_idx = tensors.derived(
            ("sc_index", index_bits), self._build_index_streams
        )
        # adaptive threshold state
        self._theta = 6
        self._theta_counter = 0
        #: fused evaluate+train kernel; bit-identical to predict()+update()
        self.fused_step = self._build_fused_step()

    def _build_index_streams(self) -> Tuple[array, array]:
        """Per-record bias-table and local-table indices."""
        tensors = self._tensors
        pcs = tensors.pcs
        history = local_histories(tensors)[0]
        bias = ((pcs >> 2) ^ (pcs >> 8)) & self._mask
        local = ((pcs >> 2) ^ (pcs >> 7) ^ history * 3 ^ (history >> 4)) & self._local_mask
        return typed_array(bias, "i"), typed_array(local, "i")

    @property
    def _local_hist(self) -> array:
        """Every slot's local-history register after the trace's last branch."""
        return array("l", local_histories(self._tensors)[1].tolist())

    def _sum(self, t: int, pc: int, input_pred: bool, input_conf: int) -> int:
        total = 2 * self._bias[self._bias_idx[t]] + 1
        total += 2 * (2 * self._local_table[self._local_idx[t]] + 1)
        for table, stream in zip(self._tables, self.idx_streams):
            total += 2 * table[stream[t]] + 1
        # prior: trust the input proportionally to its confidence
        prior = 4 + 2 * min(input_conf, 3)
        total += prior if input_pred else -prior
        return total

    def predict(self, t: int, pc: int, input_pred: bool, input_conf: int) -> SCPrediction:
        total = self._sum(t, pc, input_pred, input_conf)
        sc_pred = total >= 0
        if sc_pred != input_pred and abs(total) >= self._theta:
            self.stats.add("overrides")
            return SCPrediction(pred=sc_pred, overrode=True, total=total)
        return SCPrediction(pred=input_pred, overrode=False, total=total)

    def update(self, t: int, pc: int, taken: bool, result: SCPrediction) -> None:
        """Train counters on low-margin or incorrect sums; adapt threshold."""
        sc_pred = result.total >= 0
        if sc_pred != taken or abs(result.total) < self._theta * 4:
            delta = 1 if taken else -1
            idx = self._bias_idx[t]
            self._bias[idx] = self._clip(self._bias[idx] + delta)
            local = self._local_idx[t]
            self._local_table[local] = self._clip(self._local_table[local] + delta)
            for table, stream in zip(self._tables, self.idx_streams):
                j = stream[t]
                table[j] = self._clip(table[j] + delta)
        # dynamic threshold fitting: balance override aggressiveness
        if result.overrode:
            if result.pred == taken:
                self._theta_counter -= 1
            else:
                self._theta_counter += 1
            if self._theta_counter >= 8:
                # the sum spans several hundred; the threshold must be able
                # to suppress a confidently-wrong consensus entirely
                self._theta = min(511, self._theta + self._theta // 8 + 2)
                self._theta_counter = 0
            elif self._theta_counter <= -8:
                self._theta = max(4, self._theta - max(1, self._theta // 16))
                self._theta_counter = 0

    def _clip(self, value: int) -> int:
        return max(self._ctr_min, min(self._ctr_max, value))

    # -- fused hot path ----------------------------------------------------------

    def _build_fused_step(self) -> Callable[[int, int, bool, int, bool], bool]:
        """Specialise the per-branch SC kernel at construction time.

        Returns ``fused(t, pc, input_pred, input_conf, taken) -> final
        prediction``: one call evaluates the corrector *and* trains it,
        matching ``predict()`` followed by ``update()`` bit for bit without
        constructing an :class:`SCPrediction`.  Tables, streams, and masks
        are hoisted into locals; the adaptive threshold stays on ``self``
        (it is only rewritten on the rare override path).
        """
        bias = self._bias
        bias_idx_stream = self._bias_idx
        local_table = self._local_table
        local_idx_stream = self._local_idx
        table_streams = tuple(zip(self._tables, self.idx_streams))
        # each counter c votes 2c+1 (the local one twice), so the vote sum
        # is 2 * (sum of counters) plus this constant
        vote_offset = 3 + len(table_streams)
        ctr_max = self._ctr_max
        ctr_min = self._ctr_min
        stats_add = self.stats.add

        def fused(t: int, pc: int, input_pred: bool, input_conf: int, taken: bool) -> bool:
            bias_idx = bias_idx_stream[t]
            local_idx = local_idx_stream[t]
            counters = bias[bias_idx] + 2 * local_table[local_idx]
            for table, stream in table_streams:
                counters += table[stream[t]]
            prior = 4 + 2 * (input_conf if input_conf < 3 else 3)
            total = 2 * counters + vote_offset + (prior if input_pred else -prior)

            sc_pred = total >= 0
            abs_total = total if sc_pred else -total
            theta = self._theta
            if sc_pred != input_pred and abs_total >= theta:
                stats_add("overrides")
                overrode = True
                final = sc_pred
            else:
                overrode = False
                final = input_pred

            # -- train --
            if sc_pred != taken or abs_total < theta * 4:
                if taken:
                    value = bias[bias_idx]
                    if value < ctr_max:
                        bias[bias_idx] = value + 1
                    value = local_table[local_idx]
                    if value < ctr_max:
                        local_table[local_idx] = value + 1
                    for table, stream in table_streams:
                        j = stream[t]
                        value = table[j]
                        if value < ctr_max:
                            table[j] = value + 1
                else:
                    value = bias[bias_idx]
                    if value > ctr_min:
                        bias[bias_idx] = value - 1
                    value = local_table[local_idx]
                    if value > ctr_min:
                        local_table[local_idx] = value - 1
                    for table, stream in table_streams:
                        j = stream[t]
                        value = table[j]
                        if value > ctr_min:
                            table[j] = value - 1

            if overrode:
                if final == taken:
                    counter = self._theta_counter - 1
                else:
                    counter = self._theta_counter + 1
                if counter >= 8:
                    self._theta = min(511, theta + theta // 8 + 2)
                    counter = 0
                elif counter <= -8:
                    self._theta = max(4, theta - max(1, theta // 16))
                    counter = 0
                self._theta_counter = counter
            return final

        return fused

    @property
    def theta(self) -> int:
        return self._theta
