"""Tests for the shared core of the approximate tiers.

Both tiers — the semantic cache and the prediction tiers — share one
ledger, one observed-error summary and one run-cache state API.  These
tests pin that core down once per tier: the lookup ledger reconciles
after every consult/observe step of a random sequence, the observed-
error summary equals a recomputation from every sample, and the state
documents round-trip, stay isolated by kind, reject corruption, fall
back to memory on a degraded store and still load in their on-disk
format.
"""

from __future__ import annotations

import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.persistence import CacheDegradedWarning, NullRunCache, RunCache
from repro.analysis.semcache import SemanticCache, SemanticCacheConfig
from repro import approx
from repro.approx import ObservedError
from repro.gpu.architectures import VOLTA_V100
from repro.predict import PredictConfig, PredictTiers, price_app
from repro.sim.simulator import ModelErrorConfig
from repro.sim.stats import AppRunResult
from repro.workloads import get_workload

#: (tier class, config, the method it serves) per tier under test.  The
#: predict config calibrates after one app so short sequences answer.
TIERS = {
    "semcache": (SemanticCache, SemanticCacheConfig(), "pka_sim"),
    "predict": (PredictTiers, PredictConfig(min_calibration=1), "full_sim"),
}
#: The answer field carrying each tier's advertised bound.
BOUND_FIELDS = {"semcache": "transfer_error_bound", "predict": "prediction_error_bound"}
#: Near-duplicate families plus one dissimilar app.
WORKLOADS = ("atax", "atax~nd1", "atax~nd2", "fdtd2d", "fdtd2d~nd1", "bfs1MW")
MODEL_ERROR = ModelErrorConfig()
CONTEXT = "0123456789abcdef" * 4

_ESTIMATES: dict[str, tuple] = {}


def _query(name: str) -> tuple:
    """(launches, closed-form estimate) of one workload, built once."""
    if name not in _ESTIMATES:
        launches = list(get_workload(name).build("volta"))
        _ESTIMATES[name] = (launches, price_app(launches, VOLTA_V100, MODEL_ERROR))
    return _ESTIMATES[name]


def _ground_truth(name: str, method: str, factor: float):
    """A computed-looking run: the closed form scaled by ``factor``, with
    per-kernel truths scaled alike."""
    launches, estimate = _query(name)
    result = AppRunResult(
        workload=name,
        gpu=VOLTA_V100,
        method=method,
        total_cycles=estimate.total_cycles * factor,
        total_instructions=estimate.total_instructions,
        total_dram_bytes=estimate.total_dram_bytes,
        simulated_cycles=estimate.total_cycles * factor,
    )
    truths = {
        (group.signature, group.grid_blocks): group.cycles * factor
        for group in estimate.groups
    }
    return launches, result, lambda: truths


def _assert_ledger(tier) -> None:
    snap = tier.snapshot()
    assert snap["reconciles"] is True, snap
    assert snap[tier.answers_key] + snap["escalations"] == snap["lookups"]
    assert snap["escalations"] == sum(
        snap[f"escalations_{reason}"] for reason in tier.escalation_reasons
    )
    if tier.answerers:
        assert snap[tier.answers_key] == sum(
            snap[f"{tier.answers_key}_{by}"] for by in tier.answerers
        )


STEPS = st.lists(
    st.tuples(
        st.sampled_from(("consult", "observe")),
        st.sampled_from(WORKLOADS),
        st.floats(min_value=0.9, max_value=1.1),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("kind", sorted(TIERS))
class TestSharedLedger:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=STEPS)
    # Always cover an answer whose ground truth lands later.
    @example(
        steps=[
            ("observe", "atax", 1.0),
            ("consult", "atax~nd1", 1.0),
            ("observe", "atax~nd1", 1.05),
        ]
    )
    def test_ledger_reconciles_after_every_step(self, kind, steps):
        cls, config, method = TIERS[kind]
        tier = cls(config, NullRunCache(), CONTEXT)
        answered: dict[str, tuple[float, float]] = {}
        errors: list[float] = []
        violations = 0
        for op, name, factor in steps:
            launches, result, truths = _ground_truth(name, method, factor)
            if op == "consult":
                lookups = tier.lookups
                answer = tier.consult(
                    workload=name,
                    method=method,
                    gpu=VOLTA_V100,
                    launches=launches,
                    digest=name,
                    model_error=MODEL_ERROR,
                )
                assert tier.lookups == lookups + 1
                if answer is not None:
                    assert isinstance(answer, tier.result_type)
                    bound = getattr(answer, BOUND_FIELDS[kind])
                    answered[name] = (answer.total_cycles, bound)
            else:
                tier.observe(
                    workload=name,
                    method=method,
                    gpu=VOLTA_V100,
                    launches=launches,
                    digest=name,
                    result=result,
                    model_error=MODEL_ERROR,
                    kernel_cycles=truths,
                )
                if name in answered:
                    predicted, bound = answered.pop(name)
                    error = abs(predicted - result.total_cycles) / result.total_cycles
                    errors.append(error)
                    violations += error > bound
            _assert_ledger(tier)
            observed = tier.snapshot()[tier.error_key]
            assert observed["samples"] == len(errors)
            assert observed["violations"] == violations
            if errors:
                assert observed["observed_mean"] == pytest.approx(
                    np.mean(errors), rel=1e-12
                )
                assert observed["observed_max"] == max(errors)

    def test_remembered_answers_are_capped_oldest_first(self, kind, monkeypatch):
        monkeypatch.setattr(approx, "MAX_PREDICTIONS", 2)
        cls, config, method = TIERS[kind]
        tier = cls(config, NullRunCache(), CONTEXT)
        context = dict(method=method, gpu=VOLTA_V100, model_error=MODEL_ERROR)
        launches, result, truths = _ground_truth("atax", method, 1.0)
        tier.observe(
            workload="atax", launches=launches, digest="atax", result=result,
            kernel_cycles=truths, **context,
        )
        launches, result, truths = _ground_truth("atax~nd1", method, 1.0)
        for copy in range(4):
            answer = tier.consult(
                workload="atax~nd1", launches=launches, digest=f"d{copy}", **context
            )
            assert answer is not None
        assert list(tier._predictions) == ["d2", "d3"]
        # A ground truth landing on a dropped answer records no error.
        tier.observe(
            workload="atax~nd1", launches=launches, digest="d0", result=result,
            kernel_cycles=truths, **context,
        )
        assert tier.observed.samples == 0
        _assert_ledger(tier)

    def test_unserved_method_bypasses_the_ledger(self, kind):
        cls, config, _method = TIERS[kind]
        tier = cls(config, NullRunCache(), CONTEXT)
        launches, _estimate = _query("atax")
        assert (
            tier.consult(
                workload="atax",
                method="selection",
                gpu=VOLTA_V100,
                launches=launches,
                digest="atax",
                model_error=MODEL_ERROR,
            )
            is None
        )
        assert tier.lookups == 0
        _assert_ledger(tier)


class TestObservedError:
    def test_summary_matches_a_recomputation_from_every_sample(self):
        rng = random.Random(20261017)
        summary = ObservedError()
        errors, bounds = [], []
        for _ in range(5000):
            errors.append(rng.lognormvariate(-3.0, 1.5))
            bounds.append(rng.uniform(0.0, 0.3))
            summary.add(errors[-1], bounds[-1])
        violations = sum(1 for e, b in zip(errors, bounds, strict=True) if e > b)
        snap = summary.snapshot()
        assert snap["samples"] == len(errors)
        assert snap["observed_mean"] == pytest.approx(np.mean(errors), rel=1e-12)
        assert snap["observed_max"] == pytest.approx(max(errors), rel=1e-12)
        assert snap["violations"] == violations
        assert 0 < violations < len(errors)

    def test_empty_summary_reports_none(self):
        assert ObservedError().snapshot() == {
            "samples": 0,
            "observed_mean": None,
            "observed_max": None,
            "violations": 0,
        }


# ---------------------------------------------------------------------------
# The run cache's state API.
# ---------------------------------------------------------------------------

#: Envelopes exactly as an earlier cache layout wrote them (before the
#: state API was shared): one donor app, one calibrated partition.
LEGACY_ENVELOPES = {
    "semcache": (
        '{"kind": "semcache_state", "payload": {"context": '
        '"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", '
        '"partitions": {"pka_sim@V100": {"feed": {"cycles_rate": 2.0, '
        '"dram_rate": 4.0, "rows": [{"counters": [1.0, 1.0, 1.0, 1.0, 1.0, '
        '1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], "launches": 1, '
        '"warp_instructions": 100.0}], "total_launches": 1, '
        '"total_warp_instructions": 100.0, "workload": "donor"}}}, '
        '"version": 1}, "schema": 2, "sha256": '
        '"f95d2428de54119d51eb623feafe89db0a25074484e3bc85d1ad1084f2410272"}'
    ),
    "predict": (
        '{"kind": "predict_state", "payload": {"context": '
        '"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", '
        '"partitions": {"full_sim@V100": {"calibration": {"all": [0.1], '
        '"apps_observed": 3, "buckets": {"7": [0.1]}}, "surrogate": '
        '{"rows": [{"counters": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, '
        '1.0, 1.0, 1.0, 1.0], "log_residual": 0.05}]}}}, "version": 1}, '
        '"schema": 2, "sha256": '
        '"3ba9ba42004fc099f2e847a3e8b933ceb56c5f27219590ee17aafa959edb9e56"}'
    ),
}


def _document(kind: str) -> dict:
    return {"version": 1, "context": CONTEXT, "partitions": {kind: {"n": 1}}}


def _state_file(root, kind: str):
    return root / kind / f"{CONTEXT[:32]}.json"


@pytest.mark.parametrize("kind", sorted(TIERS))
class TestRunCacheState:
    def test_round_trip(self, tmp_path, kind):
        cache = RunCache(tmp_path)
        assert cache.get_state(kind, CONTEXT) is None
        assert cache.state_mtime(kind, CONTEXT) is None
        cache.put_state(kind, CONTEXT, _document(kind))
        assert cache.get_state(kind, CONTEXT) == _document(kind)
        assert cache.state_mtime(kind, CONTEXT) is not None
        # A fresh process reads the same document from disk.
        assert RunCache(tmp_path).get_state(kind, CONTEXT) == _document(kind)
        # State is LRU-exempt: it is not a run/selection entry.
        assert cache.entry_count() == 0

    def test_kinds_are_isolated(self, tmp_path, kind):
        other = next(name for name in TIERS if name != kind)
        cache = RunCache(tmp_path)
        cache.put_state(kind, CONTEXT, _document(kind))
        assert cache.get_state(other, CONTEXT) is None
        assert RunCache(tmp_path).get_state(other, CONTEXT) is None
        # Even a state file moved under the other kind's directory is
        # refused: the envelope names its kind.
        moved = _state_file(tmp_path, other)
        moved.parent.mkdir(parents=True, exist_ok=True)
        moved.write_text(
            _state_file(tmp_path, kind).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert RunCache(tmp_path).get_state(other, CONTEXT) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda envelope: envelope.update(sha256="0" * 64),
            lambda envelope: envelope["payload"].update(version=2),
            lambda envelope: envelope.update(schema=envelope["schema"] + 1),
            lambda envelope: envelope.pop("payload"),
        ],
        ids=["checksum", "tampered-payload", "foreign-schema", "no-payload"],
    )
    def test_bad_envelope_reads_as_none(self, tmp_path, kind, corrupt):
        RunCache(tmp_path).put_state(kind, CONTEXT, _document(kind))
        path = _state_file(tmp_path, kind)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        corrupt(envelope)
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert RunCache(tmp_path).get_state(kind, CONTEXT) is None

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
    def test_undecodable_state_reads_as_none(self, tmp_path, kind, text):
        path = _state_file(tmp_path, kind)
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert RunCache(tmp_path).get_state(kind, CONTEXT) is None

    def test_degraded_store_falls_back_to_memory(self, tmp_path, kind):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the cache root should be", encoding="utf-8")
        with pytest.warns(CacheDegradedWarning):
            cache = RunCache(blocker / "cache")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no second warning
            cache.put_state(kind, CONTEXT, _document(kind))
        assert cache.get_state(kind, CONTEXT) == _document(kind)
        assert cache.state_mtime(kind, CONTEXT) is None

    def test_null_cache_keeps_nothing(self, kind):
        cache = NullRunCache()
        cache.put_state(kind, CONTEXT, _document(kind))
        assert cache.get_state(kind, CONTEXT) is None
        assert cache.state_mtime(kind, CONTEXT) is None

    def test_legacy_envelope_still_loads(self, tmp_path, kind):
        path = _state_file(tmp_path, kind)
        path.parent.mkdir(parents=True)
        path.write_text(LEGACY_ENVELOPES[kind], encoding="utf-8")
        document = RunCache(tmp_path).get_state(kind, CONTEXT)
        assert document is not None and document["version"] == 1
        cls, config, _method = TIERS[kind]
        tier = cls(config, RunCache(tmp_path), CONTEXT)
        snap = tier.snapshot()  # before any consult: nothing loaded yet
        assert snap["partitions"] == 0
        tier._load_if_stale()
        snap = tier.snapshot()
        assert snap["partitions"] == 1
        if kind == "semcache":
            assert snap["index_apps"] == 1 and snap["index_rows"] == 1
        else:
            assert snap["calibration_samples"] == 1
            assert snap["training_rows"] == 1


@pytest.mark.parametrize("kind", sorted(TIERS))
def test_tier_state_survives_a_restart(tmp_path, kind):
    """Observe through one tier instance, reload through a fresh one."""
    cls, config, method = TIERS[kind]
    first = cls(config, RunCache(tmp_path), CONTEXT)
    for name in ("atax", "fdtd2d"):
        launches, result, truths = _ground_truth(name, method, 1.02)
        first.observe(
            workload=name,
            method=method,
            gpu=VOLTA_V100,
            launches=launches,
            digest=name,
            result=result,
            model_error=MODEL_ERROR,
            kernel_cycles=truths,
        )
    second = cls(config, RunCache(tmp_path), CONTEXT)
    second._load_if_stale()
    expected = first.snapshot()
    reloaded = second.snapshot()
    for key in ("partitions", "index_apps", "index_rows", "calibration_samples", "training_rows"):
        assert reloaded.get(key) == expected.get(key)
    assert reloaded["partitions"] == 1


# ---------------------------------------------------------------------------
# The CI ledger checker over a loadgen report.
# ---------------------------------------------------------------------------


def _checker():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "scripts" / "check_tier_ledger.py"
    spec = importlib.util.spec_from_file_location("check_tier_ledger", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(section: str) -> dict:
    answered, hits, answers = {
        "semcache": ("transferred", "service.transfer_hits", "transfers"),
        "predict": ("predicted", "service.predict_hits", "predictions"),
    }[section]
    error = {"semcache": "transfer_error", "predict": "prediction_error"}[section]
    return {
        "submitted": 8,
        "accepted": 8,
        "completed": 8,
        "errors": 0,
        "failed": 0,
        answered: 3,
        "server_metrics": {
            "counters": {hits: 2},
            section: {
                "enabled": True,
                "reconciles": True,
                "lookups": 5,
                answers: 2,
                "escalations": 3,
                error: {"violations": 0},
            },
        },
    }


@pytest.mark.parametrize("section", sorted(TIERS))
class TestLedgerChecker:
    def test_clean_report_passes(self, section):
        line = _checker().check(_report(section), section, submitted=8)
        assert "ledger reconciles (5 lookups = 2" in line

    @pytest.mark.parametrize(
        "damage",
        [
            lambda report, ledger: report.update(submitted=9),
            lambda report, ledger: report.update(failed=1),
            lambda report, ledger: ledger.update(reconciles=False),
            lambda report, ledger: ledger.update(lookups=6),
            lambda report, ledger: ledger.update(enabled=False),
            lambda report, ledger: report["server_metrics"]["counters"].clear(),
        ],
        ids=["submitted", "failed", "reconciles", "lookups", "disabled", "no-hits"],
    )
    def test_broken_report_fails(self, section, damage):
        report = _report(section)
        damage(report, report["server_metrics"][section])
        with pytest.raises((AssertionError, KeyError)):
            _checker().check(report, section, submitted=8)

    def test_tier_specific_checks(self, section):
        report = _report(section)
        ledger = report["server_metrics"][section]
        if section == "semcache":
            # Every transfer must be a submit-time probe hit.
            ledger.update(transfers=1, escalations=4)
        else:
            ledger["prediction_error"]["violations"] = 1
        with pytest.raises(AssertionError):
            _checker().check(report, section, submitted=8)
