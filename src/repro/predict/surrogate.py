"""Learned cycle surrogate: Table-2 counters -> per-kernel DES residual.

NeuroScalar-style fast proxy, scoped to what is actually learnable here:
the analytical tier already reproduces the DES up to a per-kernel
residual ratio, so the surrogate regresses ``log(DES / analytic)`` on
the log-compressed Table-2 counters with the mlkit SGD regressor,
trained online from every computed full run.  Predicting the residual
(instead of raw cycles) means the model starts from a strong physical
prior and only has to learn the systematic, behaviour-correlated part of
the gap.

Honesty over optimism: the advertised accuracy comes from deterministic
k-fold **out-of-fold** evaluation on the training rows — each fold is
predicted by a model that never saw it — and a query kernel is only
covered at all when it lies within ``coverage_radius`` of some training
row in mean-absolute log-counter distance (the same interpretable metric
the semantic cache uses).  Distance to the nearest row additionally
widens the per-kernel error term, so extrapolation pays for itself in
bound width rather than in silent violations.

Coverage needs only the training rows' log counters, not a model: the
surrogate keeps that matrix on its own, so a caller gates on
:meth:`CycleSurrogate.distance` first and an uncovered query never pays
for the (lazy, deterministic) refit.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from repro.mlkit import SGDRegressor

__all__ = ["CycleSurrogate", "TrainingRow"]

#: Deterministic out-of-fold split count (row index modulo K).
_OOF_FOLDS = 4


class TrainingRow:
    """One observed kernel group: counters plus realized log residual.

    Never changed once built, so its state renders once (:attr:`text`).
    """

    def __init__(self, counters: tuple[float, ...], log_residual: float) -> None:
        self.counters = tuple(float(v) for v in counters)
        self.log_residual = float(log_residual)

    def to_state(self) -> dict:
        return {
            "counters": list(self.counters),
            "log_residual": self.log_residual,
        }

    @cached_property
    def text(self) -> str:
        """:meth:`to_state` as ``json.dumps(..., sort_keys=True)``."""
        return json.dumps(self.to_state(), sort_keys=True)

    @classmethod
    def from_state(cls, state: dict) -> "TrainingRow":
        return cls(
            counters=tuple(float(v) for v in state["counters"]),
            log_residual=float(state["log_residual"]),
        )


class CycleSurrogate:
    """Online-fit residual regressor with out-of-fold error tracking.

    ``add_row`` appends observations and marks the model dirty; fitting
    is lazy (first :attr:`oof_error` or :meth:`predict` after new data,
    never :meth:`distance`) and deterministic — the
    regressor's seed is fixed and rows are kept in arrival order, so
    every process that loads the same persisted rows refits the same
    model.  ``oof_error`` is the maximum out-of-fold relative cycle
    error over the training set, the surrogate's honest accuracy claim
    on kernels it has *not* memorized.
    """

    def __init__(self, max_rows: int = 256, min_rows: int = 8) -> None:
        self.max_rows = max_rows
        self.min_rows = min_rows
        self.rows: list[TrainingRow] = []
        self._dirty = True
        self._model: SGDRegressor | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._oof_error: float | None = None
        self._log_matrix: np.ndarray | None = None

    # -- training ---------------------------------------------------------

    def add_row(self, counters: tuple[float, ...], log_residual: float) -> None:
        if not math.isfinite(log_residual):
            return
        self.rows.append(TrainingRow(counters, log_residual))
        del self.rows[: max(0, len(self.rows) - self.max_rows)]
        self._changed()

    def _changed(self) -> None:
        self._dirty = True
        self._log_matrix = None

    def _logs(self) -> np.ndarray:
        """The training rows' ``log1p`` counters, rebuilt after a change."""
        if self._log_matrix is None:
            self._log_matrix = np.log1p(
                np.asarray([row.counters for row in self.rows], dtype=np.float64)
            )
        return self._log_matrix

    @property
    def trained(self) -> bool:
        return len(self.rows) >= self.min_rows

    def _features(self, matrix: np.ndarray) -> np.ndarray:
        assert self._mean is not None and self._std is not None
        return (np.log1p(matrix) - self._mean) / self._std

    def _fit_if_dirty(self) -> None:
        if not self._dirty or not self.trained:
            return
        targets = np.asarray(
            [row.log_residual for row in self.rows], dtype=np.float64
        )
        logs = self._logs()
        self._mean = logs.mean(axis=0)
        std = logs.std(axis=0)
        self._std = np.where(std > 0, std, 1.0)
        features = (logs - self._mean) / self._std

        # Out-of-fold: fold k is predicted by a model fit on the other
        # folds.  Deterministic (index % K), so refits reproduce.
        folds = np.arange(len(self.rows)) % _OOF_FOLDS
        oof = 0.0
        for fold in range(_OOF_FOLDS):
            train = folds != fold
            test = ~train
            if not test.any() or train.sum() < 2:
                continue
            model = SGDRegressor().fit(features[train], targets[train])
            predicted = model.predict(features[test])
            # Relative cycle error implied by the log-residual miss.
            errors = np.abs(np.expm1(predicted - targets[test]))
            oof = max(oof, float(errors.max()))
        self._oof_error = oof
        self._model = SGDRegressor().fit(features, targets)
        self._dirty = False

    # -- prediction -------------------------------------------------------

    @property
    def oof_error(self) -> float | None:
        """Max out-of-fold relative cycle error (None until trained)."""
        self._fit_if_dirty()
        return self._oof_error

    def distance(self, counters: tuple[float, ...]) -> float | None:
        """Mean-absolute log-counter distance from one kernel group to the
        nearest training row — the caller's coverage gate and
        bound-widening term.  None until enough rows have been observed;
        never fits the model.
        """
        if not self.trained:
            return None
        query = np.log1p(np.asarray(counters, dtype=np.float64))
        return float(np.abs(self._logs() - query).mean(axis=1).min())

    def predict(self, counters: tuple[float, ...]) -> float | None:
        """Residual ratio for one kernel group: it multiplies the
        analytical cycle estimate.  None until enough rows have been
        observed.
        """
        if not self.trained:
            return None
        self._fit_if_dirty()
        assert self._model is not None
        features = self._features(
            np.asarray([counters], dtype=np.float64)
        )
        log_residual = float(self._model.predict(features)[0])
        # A runaway extrapolation must not produce absurd cycle totals;
        # the residuals this model sees are fractions of a log unit.
        log_residual = float(np.clip(log_residual, -2.0, 2.0))
        return math.exp(log_residual)

    # -- persistence ------------------------------------------------------

    def render(self) -> str:
        """The persisted state ``{"rows": [...]}`` as
        ``json.dumps(..., sort_keys=True)``, from each row's own text."""
        return f'{{"rows": [{", ".join(row.text for row in self.rows)}]}}'

    @classmethod
    def from_state(
        cls, state: dict, max_rows: int = 256, min_rows: int = 8
    ) -> "CycleSurrogate":
        surrogate = cls(max_rows=max_rows, min_rows=min_rows)
        try:
            for row in state.get("rows", []):
                surrogate.rows.append(TrainingRow.from_state(row))
        except (KeyError, TypeError, ValueError):
            return cls(max_rows=max_rows, min_rows=min_rows)
        del surrogate.rows[: max(0, len(surrogate.rows) - max_rows)]
        return surrogate

    def merge(self, other: "CycleSurrogate") -> None:
        """Fold another process's rows in (stale-state reload)."""
        seen = {
            (row.counters, row.log_residual) for row in self.rows
        }
        for row in other.rows:
            if (row.counters, row.log_residual) not in seen:
                self.rows.append(row)
                self._changed()
        del self.rows[: max(0, len(self.rows) - self.max_rows)]
