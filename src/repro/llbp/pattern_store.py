"""The LLBP pattern store (PS) and context directory (CD).

The pattern store is the high-capacity second level holding one pattern
set per context; the context directory is its set-associative tag array.
This model fuses the two: lookups go through ``(set index, context tag)``
keys, so context-tag aliasing (two contexts mapping to the same set and
tag share a pattern set) is modelled faithfully, and the limit-study
``infinite_contexts`` switch simply keys on the full context ID.

Replacement follows the paper: the victim is the resident set with the
fewest high-confidence patterns (LLBP's policy "favors sets with more
high-confidence patterns"), with insertion order breaking ties (FIFO-ish,
standing in for the replacement bits).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.stats import StatGroup
from repro.llbp.pattern import PatternSet


class PatternStore:
    """Set-associative storage of pattern sets, keyed by context ID."""

    def __init__(
        self,
        num_contexts: int,
        assoc: int,
        context_tag_bits: int,
        infinite: bool = False,
    ) -> None:
        if num_contexts < 1:
            raise ValueError(f"num_contexts must be >= 1, got {num_contexts}")
        if assoc < 1:
            raise ValueError(f"assoc must be >= 1, got {assoc}")
        self.infinite = infinite
        self.assoc = assoc
        self.num_sets = max(1, num_contexts // assoc)
        self.context_tag_bits = context_tag_bits
        self.stats = StatGroup("pattern_store")
        # storage-set index -> list of (key, PatternSet) in insertion order
        self._sets: Dict[int, List[Tuple[int, PatternSet]]] = {}
        self._flat: Dict[int, PatternSet] = {}  # infinite mode
        # small reservoir of recently written context IDs; used by the
        # wrong-path model to pick a real-but-arbitrary resident context
        self._recent: List[int] = []
        self._recent_pos = 0

    def _locate(self, context_id: int) -> Tuple[int, int]:
        """(storage set index, context tag) for a context ID."""
        set_index = context_id % self.num_sets
        tag = (context_id // self.num_sets) & ((1 << self.context_tag_bits) - 1)
        return set_index, tag

    def lookup(self, context_id: int) -> Optional[PatternSet]:
        """Directory probe + read; returns the stored set or ``None``."""
        self.stats.add("lookups")
        if self.infinite:
            return self._flat.get(context_id)
        set_index, tag = self._locate(context_id)
        for key, pattern_set in self._sets.get(set_index, ()):
            if key == tag:
                return pattern_set
        return None

    def contains(self, context_id: int) -> bool:
        """Directory-only probe (no data read is counted)."""
        if self.infinite:
            return context_id in self._flat
        set_index, tag = self._locate(context_id)
        for key, _ in self._sets.get(set_index, ()):
            if key == tag:
                return True
        return False

    def insert(self, context_id: int, pattern_set: PatternSet) -> None:
        """Write a (possibly dirty) pattern set back into the store."""
        self.stats.add("writes")
        pattern_set.dirty = False
        if len(self._recent) < 256:
            self._recent.append(context_id)
        else:
            self._recent[self._recent_pos] = context_id
            self._recent_pos = (self._recent_pos + 1) % 256
        if self.infinite:
            self._flat[context_id] = pattern_set
            return
        set_index, tag = self._locate(context_id)
        ways = self._sets.setdefault(set_index, [])
        for i, (key, _existing) in enumerate(ways):
            if key == tag:
                ways[i] = (tag, pattern_set)
                return
        if len(ways) >= self.assoc:
            victim_pos = min(
                range(len(ways)), key=lambda i: (ways[i][1].confident_count(), i)
            )
            ways.pop(victim_pos)
            self.stats.add("evictions")
        ways.append((tag, pattern_set))

    def sample_context(self, seed: int) -> Optional[int]:
        """A pseudo-randomly chosen recently-stored context ID (or None).

        Used by the wrong-path prefetch model: the wrong path executes
        real code, so its bogus prefetches target real stored contexts.
        """
        if not self._recent:
            return None
        return self._recent[seed % len(self._recent)]

    def resident_sets(self) -> int:
        if self.infinite:
            return len(self._flat)
        return sum(len(ways) for ways in self._sets.values())
