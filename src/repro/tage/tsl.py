"""TAGE-SC-L: composition of the TAGE core, loop predictor, and SC.

The prediction pipeline is decomposed into stages --
:meth:`TageSCL.base_predict` (TAGE + loop) and :meth:`TageSCL.apply_sc`
-- because LLBP interposes *between* them: the pattern buffer competes
with TAGE's provider before the statistical corrector sees the combined
result (and the original LLBP suppresses the SC entirely when it
provides; see ``repro.llbp.llbp``).  :meth:`predict`/:meth:`update` give
the plain standalone-TSL behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.common.stats import StatGroup
from repro.obs.sampling import active_sampler
from repro.tage.config import TageConfig
from repro.tage.loop_predictor import _CONF_MAX, LoopPrediction, LoopPredictor
from repro.tage.statistical_corrector import SCPrediction, StatisticalCorrector
from repro.tage.streams import TraceTensors
from repro.tage.tage import TageCore, TagePrediction


@dataclass
class TSLPrediction:
    """Full record of one TAGE-SC-L prediction."""

    pred: bool  # final direction
    tage: TagePrediction
    loop: Optional[LoopPrediction]
    sc: Optional[SCPrediction]
    base_pred: bool  # TAGE+loop prediction, before the SC

    @property
    def provider_length(self) -> int:
        return self.tage.provider_length


class TageSCL:
    """A complete TAGE-SC-L instance bound to one trace.

    ``core``/``loop`` optionally inject pre-built shared components: the
    batched backend (:mod:`repro.core.batched`) drives one TAGE core and
    loop predictor for every lane that shares a :class:`TageConfig`, and
    each lane's TSL then owns only its statistical corrector and stats.
    When ``core`` is injected the caller must also replace ``self.step``
    (the default kernel would advance the shared core a second time);
    ``loop`` is only consulted alongside ``core``.
    """

    def __init__(
        self,
        config: TageConfig,
        tensors: TraceTensors,
        core: Optional[TageCore] = None,
        loop: Optional[LoopPredictor] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        if core is not None:
            self.tage = core
            self.loop = loop
        else:
            self.tage = TageCore(config, tensors)
            self.loop = LoopPredictor(config.loop_entries) if config.use_loop else None
        self.sc = StatisticalCorrector(config, tensors) if config.use_sc else None
        self.stats = StatGroup(f"tsl[{config.name}]")
        #: fused predict+update entry point used by the simulation loop
        self.step = self._build_step()
        sampler = active_sampler()
        if sampler is not None:
            # only wraps when telemetry sampling is enabled; the default
            # hot path runs the bare fused kernel untouched
            self.step = sampler.instrument(self.name, self.step, self.telemetry_sample)

    def telemetry_sample(self) -> Dict[str, float]:
        """Periodic sampler payload: the TAGE core's internals."""
        return {"tage.%s" % key: value for key, value in self.tage.telemetry_sample().items()}

    # -- staged prediction (used directly by the LLBP wrappers) -----------------

    def base_predict(self, t: int, pc: int) -> TSLPrediction:
        """TAGE lookup plus loop-predictor override; no SC yet."""
        tage_pred = self.tage.predict(t, pc)
        pred = tage_pred.pred
        loop_pred = None
        if self.loop is not None:
            loop_pred = self.loop.predict(pc)
            if loop_pred.valid:
                pred = loop_pred.pred
        return TSLPrediction(pred=pred, tage=tage_pred, loop=loop_pred, sc=None, base_pred=pred)

    def apply_sc(self, t: int, pc: int, prediction: TSLPrediction, pred: bool, conf: int) -> bool:
        """Run the statistical corrector over ``pred`` and record its result."""
        if self.sc is None:
            return pred
        sc_result = self.sc.predict(t, pc, pred, conf)
        prediction.sc = sc_result
        return sc_result.pred

    def base_update(self, t: int, pc: int, taken: bool, prediction: TSLPrediction) -> None:
        """Train loop predictor and TAGE core (SC trained separately)."""
        tage_mispredicted = prediction.tage.pred != taken
        if self.loop is not None:
            self.loop.update(pc, taken, tage_mispredicted)
        self.tage.update(t, pc, taken, prediction.tage)

    def update_sc(self, t: int, pc: int, taken: bool, prediction: TSLPrediction) -> None:
        if self.sc is not None and prediction.sc is not None:
            self.sc.update(t, pc, taken, prediction.sc)

    # -- standalone operation ----------------------------------------------------

    def predict(self, t: int, pc: int) -> TSLPrediction:
        prediction = self.base_predict(t, pc)
        final = self.apply_sc(t, pc, prediction, prediction.pred, prediction.tage.confidence)
        prediction.pred = final
        return prediction

    def update(self, t: int, pc: int, taken: bool, prediction: TSLPrediction) -> None:
        if prediction.pred != taken:
            self.stats.add("mispredictions")
        if prediction.pred != prediction.tage.bim_pred:
            self.stats.add("fast_path_overrides")
        self.stats.add("predictions")
        self.update_sc(t, pc, taken, prediction)
        self.base_update(t, pc, taken, prediction)

    def on_unconditional(self, t: int, pc: int, target: int) -> None:
        """Unconditional branches need no state change: streams are precomputed."""

    def on_unconditional_run(self, start: int, end: int) -> None:
        """A run of unconditional records: nothing to do either."""

    # -- fused hot path ----------------------------------------------------------

    def _build_step(self) -> Callable[[int, int, bool], bool]:
        """Build the fused ``step(t, pc, taken) -> mispredicted`` kernel.

        One call per branch replaces ``predict()`` + ``update()``: the TAGE
        core runs its own fused lookup+train kernel, the loop predictor's
        lookup is inlined, and the statistical corrector runs its fused
        evaluate+train kernel.  No ``TagePrediction``/``TSLPrediction``/
        ``LoopPrediction``/``SCPrediction`` records are constructed.  The
        result -- final direction, every table write, and every statistic
        -- is bit-identical to the two-call API (pinned by
        ``tests/test_step_equivalence.py``).
        """
        tage_fused = self.tage.fused_step
        loop = self.loop
        sc_fused = self.sc.fused_step if self.sc is not None else None
        stats = self.stats
        predictions_counter = stats.counter("predictions")
        stats_add = stats.add
        if loop is not None:
            loop_entries = loop._entries
            loop_mask = loop._mask
            loop_update = loop.update

        def step(t: int, pc: int, taken: bool) -> bool:
            tage_pred, conf, bim_pred, _table, _length = tage_fused(t, pc, taken)
            pred = tage_pred
            if loop is not None:
                key = pc >> 2
                entry = loop_entries[key & loop_mask]
                if entry.tag == (key & 0x3FFF) and entry.confidence >= _CONF_MAX:
                    direction = entry.direction
                    pred = (not direction) if entry.current_iter >= entry.past_iter else direction
            final = sc_fused(t, pc, pred, conf, taken) if sc_fused is not None else pred
            if final != taken:
                stats_add("mispredictions")
            if final != bim_pred:
                stats_add("fast_path_overrides")
            predictions_counter.value += 1
            if loop is not None:
                loop_update(pc, taken, tage_pred != taken)
            return final != taken

        return step
