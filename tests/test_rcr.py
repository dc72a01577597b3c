"""Tests for the rolling context register / context streams."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import mix64
from repro.llbp import LLBP, LLBPX, llbp_default, llbpx_default
from repro.llbp.llbpx import DEEP_BIT
from repro.llbp.rcr import CONTEXT_KINDS, ContextStreams, rolling_window_hashes
from repro.tage import tsl_64k
from repro.tage.streams import TraceTensors
from repro.traces import generate_workload
from repro.traces.record import BranchKind, Trace
from tests.conftest import TEST_SCALE

#: digests of ``ContextStreams.window_hashes(depth)`` at 8000 branches
GOLDEN_WINDOW_HASHES = {
    ("kafka", 2): "f62bd77f417abc20",
    ("kafka", 8): "8d587f526415d07a",
    ("kafka", 64): "68c9c6d363c4ab9e",
    ("whiskey", 2): "2d14b925de48fe58",
    ("whiskey", 8): "760e7dda828d6733",
    ("whiskey", 64): "f0101ce3f0b5c246",
}


def naive_window_hash(values, k, window):
    """Reference: polynomial hash of values[max(0, k-window+1) .. k]."""
    B = 0x100000001B3
    M = (1 << 64) - 1
    acc = 0
    for v in values[max(0, k - window + 1) : k + 1]:
        acc = (acc * B + v) & M
    return mix64(acc)


class TestRollingWindowHashes:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=120),
        window=st.integers(1, 70),
    )
    def test_matches_naive(self, values, window):
        hashes = rolling_window_hashes(values, window)
        for k in range(len(values)):
            assert hashes[k] == naive_window_hash(values, k, window)

    def test_same_window_same_hash(self):
        values = [7, 8, 9, 7, 8, 9]
        hashes = rolling_window_hashes(values, 3)
        assert hashes[2] == hashes[5]

    def test_different_window_differs(self):
        hashes = rolling_window_hashes([1, 2, 3, 4], 2)
        assert hashes[1] != hashes[3]

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            rolling_window_hashes([1], 0)


def ub_trace():
    trace = Trace(name="ubs")
    # cond, call, cond, return, jump, call
    trace.append(0x10, 0x20, BranchKind.COND, True, 0)
    trace.append(0x14, 0x100, BranchKind.CALL, True, 0)
    trace.append(0x100, 0x120, BranchKind.COND, False, 0)
    trace.append(0x104, 0x18, BranchKind.RETURN, True, 0)
    trace.append(0x18, 0x40, BranchKind.JUMP, True, 0)
    trace.append(0x40, 0x200, BranchKind.CALL, True, 0)
    return trace


class TestContextStreams:
    def test_jumps_excluded_from_context_formation(self):
        streams = ContextStreams(TraceTensors(ub_trace()))
        # only the call/return/call records form context UBs
        assert streams.num_ubs == 3

    def test_ub_prefix_counts_strictly_before(self):
        streams = ContextStreams(TraceTensors(ub_trace()))
        assert streams.ub_prefix == [0, 0, 1, 1, 2, 2]

    def test_context_cold_until_enough_ubs(self):
        streams = ContextStreams(TraceTensors(ub_trace()))
        assert streams.context_of_record(0, depth=2, distance=1) == -1
        # record 4 has 2 UBs before it; distance 1 -> window ends at UB 0
        assert streams.context_of_record(4, depth=2, distance=1) != -1

    def test_window_cache(self):
        streams = ContextStreams(TraceTensors(ub_trace()))
        assert streams.window_hashes(4) is streams.window_hashes(4)

    def test_context_kinds_constant(self):
        assert int(BranchKind.CALL) in CONTEXT_KINDS
        assert int(BranchKind.RETURN) in CONTEXT_KINDS
        assert int(BranchKind.JUMP) not in CONTEXT_KINDS
        assert int(BranchKind.COND) not in CONTEXT_KINDS

    def test_same_call_sequence_same_context(self, small_bundle):
        _, _, streams = small_bundle
        hashes = streams.window_hashes(2)
        # rolling hashes must repeat (finite program paths)
        assert len(set(hashes)) < len(hashes)


class TestGoldenContextHashes:
    def test_window_hashes_pinned(self):
        streams = {}
        for (workload, depth), expected in GOLDEN_WINDOW_HASHES.items():
            if workload not in streams:
                trace = generate_workload(workload, num_branches=8000, use_cache=False)
                streams[workload] = ContextStreams(TraceTensors(trace))
            digest = hashlib.sha256(bytes(str([int(h) for h in streams[workload].window_hashes(depth)]), "utf8"))
            assert digest.hexdigest()[:16] == expected, (workload, depth)


class TestPerRecordStreams:
    """The gathered per-record / per-UB streams equal the per-branch
    formulas they replace: ``window[ub_prefix[t] - D - 1]`` (-1 while
    cold) for the active context, ``window[k]`` for the prefetch trigger
    of UB ``k``, and the CTT's own ``_locate`` for LLBP-X's probe slot."""

    @staticmethod
    def _bundle(workload):
        trace = generate_workload(workload, num_branches=6000, use_cache=False)
        tensors = TraceTensors(trace)
        return trace, tensors, ContextStreams(tensors)

    @pytest.mark.parametrize("workload", ["kafka", "tpcc"])
    def test_llbp_contexts_match_formula(self, workload):
        trace, tensors, contexts = self._bundle(workload)
        predictor = LLBP(llbp_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts)
        config = predictor.config
        window = [int(h) for h in contexts.window_hashes(config.context_depth)]
        pcs = trace.aslists("pcs")[0]
        for t, prefix in enumerate(contexts.ub_prefix):
            end = prefix - config.prefetch_distance - 1
            assert predictor._context_of(t, pcs[t]) == (window[end] if end >= 0 else -1)
        assert [predictor._prefetch_id(k) for k in range(contexts.num_ubs)] == window

    @pytest.mark.parametrize("workload", ["kafka", "tpcc"])
    def test_llbpx_streams_match_formula(self, workload):
        trace, tensors, contexts = self._bundle(workload)
        predictor = LLBPX(llbpx_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts)
        config = predictor.config
        shallow = [int(h) & (DEEP_BIT - 1) for h in contexts.window_hashes(config.shallow_depth)]
        deep = [(int(h) & (DEEP_BIT - 1)) | DEEP_BIT for h in contexts.window_hashes(config.deep_depth)]
        locate = predictor.ctt._locate
        for k in range(contexts.num_ubs):
            assert predictor._ub_shallow[k] == shallow[k]
            assert predictor._ub_deep[k] == deep[k]
            assert (predictor._ub_ctt_set[k], predictor._ub_ctt_tag[k]) == locate(shallow[k])
        for t, prefix in enumerate(contexts.ub_prefix):
            end = prefix - config.prefetch_distance - 1
            if end < 0:
                assert predictor._shallow_context_of(t) == -1
                continue
            assert predictor._shallow_ids[t] == shallow[end]
            assert predictor._deep_ids[t] == deep[end]
            assert (predictor._ctt_sets[t], predictor._ctt_tags[t]) == locate(shallow[end])

    def test_llbpx_context_follows_ctt_depth(self):
        trace, tensors, contexts = self._bundle("kafka")
        predictor = LLBPX(llbpx_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts)
        pcs = trace.aslists("pcs")[0]
        t = len(trace) - 1
        shallow_id = predictor._shallow_context_of(t)
        assert predictor._context_of(t, pcs[t]) == shallow_id
        predictor.ctt.track(shallow_id).deep = True
        assert predictor._context_of(t, pcs[t]) == predictor._deep_ids[t]
        assert predictor._context_of(t, pcs[t]) & DEEP_BIT
