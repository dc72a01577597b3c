"""Lightweight statistics accumulators for simulation runs."""

from __future__ import annotations

from typing import Dict, Iterator


def mpki(mispredictions: int, instructions: int) -> float:
    """Mispredictions per kilo-instruction."""
    if instructions <= 0:
        raise ValueError(f"instruction count must be positive, got {instructions}")
    return 1000.0 * mispredictions / instructions


class StatCounter:
    """A named monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatCounter({self.name}={self.value})"


class RatioStat:
    """A hits-out-of-total ratio with safe division."""

    __slots__ = ("name", "hits", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.total = 0

    def record(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    @property
    def ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatioStat({self.name}={self.hits}/{self.total})"


class StatGroup:
    """A named collection of counters, created on first use.

    Predictor models use one group each; ``as_dict`` snapshots everything
    for result records and reports.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, StatCounter] = {}

    def counter(self, name: str) -> StatCounter:
        if name not in self._counters:
            self._counters[name] = StatCounter(name)
        return self._counters[name]

    def add(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = StatCounter(name)
        counter.value += amount

    def get(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()

    def as_dict(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def __iter__(self) -> Iterator[StatCounter]:
        return iter(self._counters.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name}, {len(self._counters)} counters)"
