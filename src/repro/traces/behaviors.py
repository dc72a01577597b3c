"""Branch behaviour models for the synthetic workload generator.

Each conditional branch in a synthetic program owns a *behaviour*: a
deterministic function from execution context (recent conditional-outcome
history, current call path, per-branch occurrence count) to a direction.
Determinism matters twice over: traces are reproducible from a seed, and
the mapping "history pattern -> outcome" is a *function*, so a predictor
with enough history and capacity can in principle learn it -- exactly the
premise of TAGE, LLBP, and LLBP-X.

The behaviour classes mirror the branch taxonomy the paper's analysis
relies on:

* :class:`BiasedBehavior` / :class:`RandomBehavior` -- statistically biased
  or irreducibly noisy branches (the Statistical Corrector's domain).
* :class:`LocalPatternBehavior` -- short repeating per-branch patterns.
* :class:`GlobalCorrelatedBehavior` -- outcome determined by the last *k*
  global conditional outcomes; small *k* gives the easy, short-history
  branches that contextualisation duplicates, large *k* gives
  capacity-hungry branches.
* :class:`PathCorrelatedBehavior` -- outcome determined by the call path
  plus a short outcome window: the hard-to-predict (H2P) branches whose
  hundreds of long-history patterns overflow LLBP's pattern sets and that
  dynamic context depth adaptation targets.

Lazy truth tables are realised with :func:`repro.common.mix64`: the hash
of (branch seed, pattern key) *is* the table entry, so tables cost no
memory and never desynchronise between runs.

Each behaviour's logic lives in its scalar form ``outcome_of(cond_history,
path_hash, occurrence)``, which the trace generator calls once per
conditional branch; ``outcome(ctx)`` is the same function over a
:class:`BehaviorContext` record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import mask, mix64

_P_SCALE = float(1 << 64)


@dataclass(frozen=True)
class BehaviorContext:
    """Execution context visible to a behaviour when producing an outcome."""

    cond_history: int  # recent global conditional outcomes, bit 0 = newest
    path_hash: int  # rolling hash of the current call stack
    occurrence: int  # how many times this branch has executed before


class Behavior:
    """Base class: a deterministic direction function."""

    #: human-readable class tag used by trace metadata and analyses
    tag = "abstract"

    def __init__(self, seed: int) -> None:
        self.seed = seed & ((1 << 64) - 1)

    def outcome(self, ctx: BehaviorContext) -> bool:
        return self.outcome_of(ctx.cond_history, ctx.path_hash, ctx.occurrence)

    def outcome_of(self, cond_history: int, path_hash: int, occurrence: int) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.tag}(seed={self.seed:#x})"


class BiasedBehavior(Behavior):
    """Taken with fixed probability ``p_taken``, independently per instance.

    The per-occurrence hash makes the stream i.i.d.: no predictor can do
    better than ``min(p, 1-p)`` on it, but the statistical corrector and
    the bimodal table capture the bias.
    """

    tag = "biased"

    def __init__(self, seed: int, p_taken: float) -> None:
        super().__init__(seed)
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken must be in [0, 1], got {p_taken}")
        self.p_taken = p_taken

    def outcome_of(self, cond_history: int, path_hash: int, occurrence: int) -> bool:
        draw = mix64(self.seed ^ (occurrence * 0x2545F4914F6CDD1D))
        return draw < self.p_taken * _P_SCALE

    def describe(self) -> str:
        return f"biased(p={self.p_taken:.2f})"


class RandomBehavior(BiasedBehavior):
    """An alias of :class:`BiasedBehavior` marking irreducible noise.

    Kept as a distinct class so workload specs and analyses can tell
    deliberate noise apart from predictable-but-biased branches.
    """

    tag = "random"

    def describe(self) -> str:
        return f"random(p={self.p_taken:.2f})"


class LoopBehavior(Behavior):
    """Taken ``trip_count - 1`` times, then not taken, repeating.

    Matches the classic loop back-edge shape the loop predictor targets.
    """

    tag = "loop"

    def __init__(self, seed: int, trip_count: int) -> None:
        super().__init__(seed)
        if trip_count < 2:
            raise ValueError(f"trip_count must be >= 2, got {trip_count}")
        self.trip_count = trip_count

    def outcome_of(self, cond_history: int, path_hash: int, occurrence: int) -> bool:
        return (occurrence % self.trip_count) != self.trip_count - 1

    def describe(self) -> str:
        return f"loop(trip={self.trip_count})"


class LocalPatternBehavior(Behavior):
    """A fixed repeating direction pattern of the given length."""

    tag = "local_pattern"

    def __init__(self, seed: int, length: int) -> None:
        super().__init__(seed)
        if length < 1:
            raise ValueError(f"pattern length must be >= 1, got {length}")
        self.length = length
        self.pattern = mix64(seed ^ 0xA5A5A5A5) & mask(length)
        if length >= 2 and self.pattern in (0, mask(length)):
            # Avoid degenerate all-same patterns: use half ones, half zeros.
            self.pattern = mask(length) >> (length // 2)

    def outcome_of(self, cond_history: int, path_hash: int, occurrence: int) -> bool:
        return bool((self.pattern >> (occurrence % self.length)) & 1)

    def describe(self) -> str:
        return f"local_pattern(len={self.length})"


class GlobalCorrelatedBehavior(Behavior):
    """Outcome is a lazy truth table over the last ``k`` conditional outcomes.

    With history length >= roughly ``k`` (plus interleaved unconditional
    bits) and sufficient table capacity, TAGE predicts these perfectly
    after training.  The number of distinct patterns the predictor must
    hold is the number of distinct ``k``-bit windows occurring at the
    branch -- controlled by ``k``.
    """

    tag = "global_correlated"

    def __init__(self, seed: int, k: int, noise: float = 0.0) -> None:
        super().__init__(seed)
        if k < 1:
            raise ValueError(f"history width k must be >= 1, got {k}")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        self.k = k
        self.noise = noise
        self._key_mask = mask(k)

    def outcome_of(self, cond_history: int, path_hash: int, occurrence: int) -> bool:
        key = cond_history & self._key_mask
        bit = mix64(self.seed ^ key) & 1
        if self.noise:
            flip_draw = mix64(self.seed ^ 0xFEED ^ (occurrence * 0x9E3779B97F4A7C15))
            if flip_draw < self.noise * _P_SCALE:
                bit ^= 1
        return bool(bit)

    def describe(self) -> str:
        return f"global_correlated(k={self.k}, noise={self.noise:.2f})"


class PathCorrelatedBehavior(Behavior):
    """Outcome determined by the call path plus a short outcome window.

    These are the H2P branches of the paper: a branch living in a shared
    function reached through many call paths.  Each (path, window) pair is
    one pattern, so pattern counts scale with path diversity -- hundreds
    to thousands for hot library code.  Only a long global history (which
    encodes the path) or LLBP's explicit contexts can separate them.
    """

    tag = "path_correlated"

    def __init__(self, seed: int, hist_k: int, noise: float = 0.0) -> None:
        super().__init__(seed)
        if hist_k < 0:
            raise ValueError(f"hist_k must be >= 0, got {hist_k}")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        self.hist_k = hist_k
        self.noise = noise
        self._hist_mask = mask(hist_k)

    def outcome_of(self, cond_history: int, path_hash: int, occurrence: int) -> bool:
        key = mix64(path_hash ^ self.seed) ^ (cond_history & self._hist_mask)
        bit = mix64(self.seed ^ key) & 1
        if self.noise:
            flip_draw = mix64(self.seed ^ 0xBEEF ^ (occurrence * 0x2545F4914F6CDD1D))
            if flip_draw < self.noise * _P_SCALE:
                bit ^= 1
        return bool(bit)

    def describe(self) -> str:
        return f"path_correlated(hist_k={self.hist_k}, noise={self.noise:.2f})"
