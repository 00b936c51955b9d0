"""Two-tier prediction subsystem: answer cold cells without the DES.

Consult order inside the evaluation harness is digest cache ->
semantic cache -> **predict tiers** -> discrete-event simulation.  The
analytical tier prices kernel groups from the shared occupancy × latency
closed form; the surrogate tier corrects it with a learned residual
model trained online from computed DES results.  Either serves only
when its modeled relative error bound clears the configured threshold;
everything else escalates to the DES with a typed reason, and the
ledger ``predictions + escalations == lookups`` always reconciles.
"""

from repro.predict.analytical import (
    AppEstimate,
    GroupEstimate,
    ResidualCalibration,
    price_app,
)
from repro.predict.surrogate import CycleSurrogate, TrainingRow
from repro.predict.tiers import (
    PREDICT_STATE_VERSION,
    PREDICTABLE_METHODS,
    PredictConfig,
    PredictTiers,
    PredictedResult,
)

__all__ = [
    "AppEstimate",
    "CycleSurrogate",
    "GroupEstimate",
    "PREDICTABLE_METHODS",
    "PREDICT_STATE_VERSION",
    "PredictConfig",
    "PredictTiers",
    "PredictedResult",
    "ResidualCalibration",
    "TrainingRow",
    "price_app",
]
