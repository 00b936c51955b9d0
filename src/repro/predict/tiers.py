"""Confidence/escalation layer over the two prediction tiers.

One :class:`PredictTiers` instance serves one harness context, exactly
like the semantic cache it sits beside in the consult order (digest
cache -> semcache -> predict -> DES).  A consult prices the query's
kernel groups analytically, asks both tiers for an app-level estimate
with a modeled relative error bound, and serves the **tightest** bound
that clears ``max_error_bound`` as a frozen
:class:`PredictedResult` carrying ``prediction_error_bound`` and
``predicted_by``; anything else escalates to the DES with a typed
reason (cold / coverage / bound).  The ledger reconciles by
construction: every lookup is exactly one prediction or one escalation.

Bound model (shared shape across tiers): the app-level residual is the
cycle-share-weighted combination of per-group residual terms, combined
in quadrature — per-kernel residuals are idiosyncratic by signature, so
independent errors average out across diverse groups while a
single-kernel app keeps its full per-kernel dispersion:

* analytical: ``s_g`` = calibrated per-behaviour-bucket dispersion;
* surrogate:  ``s_g`` = out-of-fold error + lipschitz * nearest-row
  distance (extrapolation widens the bound).

``bound = error_floor + safety_factor * sqrt(sum share_g^2 s_g^2)``.

Every served estimate is remembered against its cell digest; when a
computed ground truth later arrives for that digest (predict disabled,
another process escalated), the realized error is recorded against the
advertised bound — the same observed-error feedback loop the semantic
cache keeps.  Predictions are memoized in memory only and never written
to the digest cache, and prediction answers are never ingested as
training data: the exact cache stays exact and the model never trains
on its own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.approx import ApproxTier
from repro.errors import ReproError
from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.predict.analytical import (
    AppEstimate,
    ResidualCalibration,
    price_app,
)
from repro.predict.surrogate import CycleSurrogate
from repro.sim.simulator import ModelErrorConfig
from repro.sim.stats import AppRunResult

__all__ = [
    "PREDICT_STATE_VERSION",
    "PREDICTABLE_METHODS",
    "PredictConfig",
    "PredictTiers",
    "PredictedResult",
]

#: Bump when the state document layout changes; mismatched states are
#: discarded (calibration is derived data — rebuilding costs warm-up).
PREDICT_STATE_VERSION = 1

#: Methods the tiers may answer.  Full simulation is the one method
#: whose result is a pure function of the launch stream on one GPU —
#: the closed form prices it directly and its per-kernel ground truth
#: is harvestable from the simulator's memo cache.  Sampled methods
#: (pks/pka/tbpoint) fold a Volta-side selection into the answer and
#: silicon is already closed-form; both escalate.
PREDICTABLE_METHODS = ("full_sim",)


@dataclass(frozen=True)
class PredictedResult(AppRunResult):
    """An :class:`AppRunResult` served by a prediction tier.

    ``simulated_cycles`` is zero — no event loop ran.
    ``prediction_error_bound`` is the modeled *relative* error bound on
    ``total_cycles`` versus the DES ground truth; ``predicted_by`` names
    the tier ("analytical" or "surrogate").
    """

    prediction_error_bound: float = 0.0
    predicted_by: str = ""


@dataclass(frozen=True)
class PredictConfig:
    """Tuning knobs of the prediction tiers.

    ``max_error_bound`` escalates estimates whose modeled bound is too
    loose to serve.  ``error_floor``/``safety_factor`` shape every
    advertised bound over the modeled residual.  ``min_calibration``
    (observed apps) gates the analytical tier; ``min_training_rows``
    gates the surrogate; ``coverage_radius`` is the surrogate's maximum
    nearest-training-row distance; ``lipschitz`` converts that distance
    into bound width.  ``dispersion_prior`` prices unseen behaviour
    buckets; ``min_dispersion`` keeps calibrated buckets honest about
    re-seeded idiosyncrasy.  ``max_samples`` caps the stores FIFO-style.
    """

    max_error_bound: float = 0.35
    error_floor: float = 0.05
    safety_factor: float = 2.0
    min_calibration: int = 3
    min_training_rows: int = 8
    coverage_radius: float = 0.25
    lipschitz: float = 1.0
    dispersion_prior: float = 0.35
    min_dispersion: float = 0.05
    max_samples: int = 256
    methods: tuple[str, ...] = PREDICTABLE_METHODS

    def __post_init__(self) -> None:
        if self.max_error_bound <= 0:
            raise ReproError("max_error_bound must be > 0")
        if self.error_floor < 0:
            raise ReproError("error_floor must be >= 0")
        if self.safety_factor < 1.0:
            raise ReproError("safety_factor must be >= 1")
        if self.min_calibration < 1 or self.min_training_rows < 1:
            raise ReproError(
                "min_calibration and min_training_rows must be >= 1"
            )
        if self.coverage_radius <= 0:
            raise ReproError("coverage_radius must be > 0")
        if self.lipschitz < 0:
            raise ReproError("lipschitz must be >= 0")
        if self.dispersion_prior < 0 or self.min_dispersion < 0:
            raise ReproError(
                "dispersion_prior and min_dispersion must be >= 0"
            )
        if self.max_samples < 1:
            raise ReproError("max_samples must be >= 1")


class _Partition:
    """Per method@gpu calibration + surrogate state."""

    def __init__(self, config: PredictConfig) -> None:
        self.calibration = ResidualCalibration(max_samples=config.max_samples)
        self.surrogate = CycleSurrogate(
            max_rows=config.max_samples, min_rows=config.min_training_rows
        )


class PredictTiers(ApproxTier):
    """The two estimator tiers behind one escalation decision.

    The ledger, observed-error feedback and persistence under
    ``<cache>/predict/<context>.json`` come from :class:`ApproxTier`;
    this class serves the tighter-bounded of the analytical and the
    surrogate estimate and calibrates both from computed runs.
    """

    kind = "predict"
    source = "predicted"
    answers_key = "predictions"
    error_key = "prediction_error"
    result_type = PredictedResult
    bound_field = "prediction_error_bound"
    by_field = "predicted_by"
    config_type = PredictConfig
    state_version = PREDICT_STATE_VERSION
    escalation_reasons = ("cold", "coverage", "bound")
    answerers = ("analytical", "surrogate")

    def _describe(self) -> dict:
        partitions = self._partitions.values()
        return {
            "max_error_bound": self.config.max_error_bound,
            "partitions": len(self._partitions),
            "calibration_samples": sum(p.calibration.samples for p in partitions),
            "training_rows": sum(len(p.surrogate.rows) for p in partitions),
        }

    # -- the prediction decision ------------------------------------------

    def _price(self, *, workload, method, gpu, launches, model_error):
        estimate = price_app(launches, gpu, model_error)
        if not estimate.groups or estimate.total_cycles <= 0:
            return "coverage"
        partition = self._partitions.get(self._partition_key(method, gpu))
        if partition is None:
            return "cold"
        candidates: list[tuple[float, float, str]] = []
        analytical = self._analytical_bound(partition, estimate)
        if analytical is not None:
            candidates.append((analytical, estimate.total_cycles, "analytical"))
        surrogate = self._surrogate_estimate(partition, estimate)
        if surrogate is not None:
            bound, cycles = surrogate
            candidates.append((bound, cycles, "surrogate"))
        if not candidates:
            return "cold"
        bound, cycles, tier = min(candidates, key=lambda c: c[0])
        if bound > self.config.max_error_bound:
            return "bound"
        result = PredictedResult(
            workload=workload,
            gpu=gpu,
            method=method,
            total_cycles=float(cycles),
            total_instructions=float(estimate.total_instructions),
            total_dram_bytes=float(estimate.total_dram_bytes),
            simulated_cycles=0.0,
            prediction_error_bound=float(bound),
            predicted_by=tier,
        )
        return result, float(bound), tier

    def tier_estimates(
        self,
        *,
        method: str,
        gpu: GPUConfig,
        launches: list[KernelLaunch],
        model_error: ModelErrorConfig,
    ) -> dict[str, tuple[float, float | None]]:
        """Both tiers' (cycles, bound) for a query — no ledger mutation.

        The report/figures layer uses this to chart each tier's accuracy
        side by side with the DES methods.  The analytical entry is
        always present (bound None until calibrated); the surrogate
        entry appears only when trained and covered.
        """
        with self._lock:
            self._load_if_stale()
            estimate = price_app(launches, gpu, model_error)
            out: dict[str, tuple[float, float | None]] = {}
            if not estimate.groups or estimate.total_cycles <= 0:
                return out
            partition = self._partitions.get(self._partition_key(method, gpu))
            bound = (
                self._analytical_bound(partition, estimate)
                if partition is not None
                else None
            )
            out["analytical"] = (estimate.total_cycles, bound)
            if partition is not None:
                surrogate = self._surrogate_estimate(partition, estimate)
                if surrogate is not None:
                    s_bound, s_cycles = surrogate
                    out["surrogate"] = (s_cycles, s_bound)
            return out

    def _analytical_bound(
        self, partition: _Partition, estimate: AppEstimate
    ) -> float | None:
        """Calibrated bound for serving the raw analytical estimate."""
        calibration = partition.calibration
        if calibration.apps_observed < self.config.min_calibration:
            return None
        quad = 0.0
        for group, share in zip(
            estimate.groups, estimate.shares(), strict=True
        ):
            dispersion = calibration.dispersion(
                group.bucket,
                prior=self.config.dispersion_prior,
                min_dispersion=self.config.min_dispersion,
            )
            quad += (share * dispersion) ** 2
        return self.config.error_floor + self.config.safety_factor * math.sqrt(
            quad
        )

    def _surrogate_estimate(
        self, partition: _Partition, estimate: AppEstimate
    ) -> tuple[float, float] | None:
        """(bound, corrected cycles) from the learned tier, or None.

        Coverage gate: every query group must lie within
        ``coverage_radius`` of a training row; an uncovered group makes
        the whole tier ineligible (the analytical tier may still serve).
        """
        from repro.sim.perfmodel import KERNEL_LAUNCH_OVERHEAD

        surrogate = partition.surrogate
        if not surrogate.trained:
            return None
        oof = surrogate.oof_error
        if oof is None:
            return None
        total = 0.0
        quad = 0.0
        for group, share in zip(
            estimate.groups, estimate.shares(), strict=True
        ):
            predicted = surrogate.predict(group.counters)
            if predicted is None:
                return None
            ratio, distance = predicted
            if distance > self.config.coverage_radius:
                return None
            corrected = group.cycles * ratio
            total += group.count * (corrected + KERNEL_LAUNCH_OVERHEAD)
            term = oof + self.config.lipschitz * distance
            quad += (share * term) ** 2
        bound = self.config.error_floor + self.config.safety_factor * math.sqrt(
            quad
        )
        return bound, total

    # -- calibration growth -----------------------------------------------

    def _ingest(
        self, *, workload, method, gpu, launches, digest, result, model_error,
        kernel_cycles,
    ) -> None:
        """Feed per-group residuals against the DES's memoized per-kernel
        cycles, keyed (spec signature, grid blocks), into the calibration
        and the surrogate's training rows.  Without ``kernel_cycles``
        only the observed-error feedback is recorded."""
        truths = kernel_cycles() if kernel_cycles is not None else None
        if not truths:
            return
        partition = self._partitions.setdefault(
            self._partition_key(method, gpu), _Partition(self.config)
        )
        ingested = False
        for group in price_app(launches, gpu, model_error).groups:
            truth = truths.get((group.signature, group.grid_blocks))
            if truth is None or truth <= 0 or group.cycles <= 0:
                continue
            log_residual = math.log(truth / group.cycles)
            partition.calibration.observe(group.bucket, log_residual)
            partition.surrogate.add_row(group.counters, log_residual)
            ingested = True
        if ingested:
            partition.calibration.apps_observed += 1

    # -- persistence -------------------------------------------------------

    def _merge_partitions(self, partitions: dict) -> None:
        for key, state in partitions.items():
            try:
                calibration = ResidualCalibration.from_state(
                    state.get("calibration", {}),
                    max_samples=self.config.max_samples,
                )
                surrogate = CycleSurrogate.from_state(
                    state.get("surrogate", {}),
                    max_rows=self.config.max_samples,
                    min_rows=self.config.min_training_rows,
                )
            except (KeyError, TypeError, ValueError):
                continue  # one malformed partition must not poison the rest
            partition = self._partitions.get(key)
            if partition is None:
                partition = _Partition(self.config)
                partition.calibration = calibration
                partition.surrogate = surrogate
                self._partitions[key] = partition
            else:
                partition.calibration.merge(calibration)
                partition.surrogate.merge(surrogate)

    def _dump_partitions(self) -> dict:
        return {
            key: {
                "calibration": partition.calibration.to_state(),
                "surrogate": partition.surrogate.to_state(),
            }
            for key, partition in self._partitions.items()
        }
