"""Golden-value reproducibility tests.

The reproduction's claims rest on determinism: the same (workload, seed,
length) must generate bit-identical traces across processes and versions.
These hashes pin the committed generator behaviour; if a change to the
generator or behaviour models is *intentional*, regenerate the constants
(see the commands in each test) and re-run the benchmark suite so
EXPERIMENTS.md stays in sync.
"""

import hashlib

from repro.traces import WORKLOAD_NAMES, generate_workload

GOLDEN_TRACE_HASHES = {
    "kafka": "408356a506b3348c",
    "nodeapp": "6260d57eb547d0b3",
}


#: digests over all five trace columns -- instruction gaps included, since
#: they drive ``instr_index`` and therefore pattern-buffer latency -- for
#: every workload at 6000 branches and its default seed
GOLDEN_FULL_TRACE_HASHES = {
    "kafka": "521f9d9416b08e3f",
    "chirper": "83b85dada9aebd26",
    "delta": "185046cc0d02a760",
    "wikipedia": "de90364bd869cd31",
    "finagle_http": "58d5483c7f647e5a",
    "charlie": "cc6d24d1598b33a5",
    "twitter": "b79079dc7a0a20e3",
    "phpwiki": "1c413980f18e09e0",
    "tomcat": "96d94dc82cd421da",
    "spring": "ff381b90ca9b97c9",
    "tpcc": "1afbc7a866cd4410",
    "merced": "b4b72a4692944f8f",
    "nodeapp": "7db5f2cdab1f091a",
    "whiskey": "497a9d6d289f23c0",
}


def full_trace_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(bytes(str(trace.aslists("pcs", "targets", "kinds", "taken", "inst_gaps")), "utf8"))
    return h.hexdigest()[:16]


def trace_digest(trace) -> str:
    # aslists normalises list- and array-backed columns to the identical
    # Python-scalar form, so these hashes are invariant to the backing
    # (they pinned list columns before traces became numpy-backed).
    h = hashlib.sha256()
    h.update(bytes(str(trace.aslists("pcs", "taken", "kinds", "targets")), "utf8"))
    return h.hexdigest()[:16]


class TestGoldenTraces:
    def test_trace_hashes_stable(self):
        """Regenerate with:
        python -c "from tests.test_reproducibility import *; \
        [print(w, trace_digest(generate_workload(w, num_branches=5000, use_cache=False))) \
        for w in GOLDEN_TRACE_HASHES]"
        """
        for workload, expected in GOLDEN_TRACE_HASHES.items():
            trace = generate_workload(workload, num_branches=5000, use_cache=False)
            assert trace_digest(trace) == expected, (
                f"{workload} trace changed; if intentional, update "
                "GOLDEN_TRACE_HASHES and re-run the benchmark suite"
            )

    def test_every_workload_pinned_with_gaps(self):
        """Regenerate with:
        python -c "from tests.test_reproducibility import *; \
        [print(repr(w), repr(full_trace_digest(generate_workload(w, num_branches=6000, \
        use_cache=False)))) for w in WORKLOAD_NAMES]"
        """
        assert sorted(GOLDEN_FULL_TRACE_HASHES) == sorted(WORKLOAD_NAMES)
        for workload, expected in GOLDEN_FULL_TRACE_HASHES.items():
            trace = generate_workload(workload, num_branches=6000, use_cache=False)
            assert full_trace_digest(trace) == expected, f"{workload} trace changed"

    def test_regeneration_is_deterministic(self):
        a = generate_workload("kafka", num_branches=3000, use_cache=False)
        b = generate_workload("kafka", num_branches=3000, use_cache=False)
        assert trace_digest(a) == trace_digest(b)
