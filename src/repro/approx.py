"""Shared core of the approximate tiers above the discrete-event simulator.

The semantic cache (:mod:`repro.analysis.semcache`) and the prediction
tiers (:mod:`repro.predict.tiers`) both apply the paper's premise —
kernels with similar PKS features have similar performance — to answer
a cell without running the DES.  They differ only in how they price a
query and what they learn from a computed run.  Everything around that
decision lives here, once:

* the lock and the run-cache context the tier persists under;
* the lookup ledger: every :meth:`ApproxTier.consult` past the method
  gate counts one lookup and exactly one answer or one escalation with
  a typed reason, so ``answers + escalations == lookups`` always holds
  (``snapshot()["reconciles"]``).  Every tally is mirrored into an obs
  counter under the tier's ``kind`` prefix;
* observed-error feedback: each answer is remembered against its cell
  digest (the latest :data:`MAX_PREDICTIONS` of them), and when a
  computed ground truth later lands on that digest the realized error
  is recorded against the advertised bound;
* ``method@gpu`` partitions inside one per-context state document, and
  the mtime-gated load-and-merge / persist of that document through the
  run cache's ``get_state``/``put_state``/``state_mtime``.

An observe costs what it adds, not what the tier holds.  Donor entries
and training rows never change once built, so each renders its JSON
text once and keeps it; a persist joins those texts under sorted keys
(:func:`json_object`) into the exact bytes of
``json.dumps(document, sort_keys=True)`` and hands the text to
``put_state``.  What stays proportional to the state is the join, the
checksum and the file write, not the encoding.  The consult after an
observe is cheap too: the prediction tiers' learned surrogate refits
(five SGD fits) only for a query whose every kernel group it covers,
because the coverage gate reads the training rows, not the model.

A subclass supplies the decision (:meth:`ApproxTier._price`), the
ingest of a computed run (:meth:`ApproxTier._ingest`), its partition
merge and rendering and the tier-specific fields of its snapshot.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable, Iterable

from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.obs import obs_count
from repro.sim.simulator import ModelErrorConfig
from repro.sim.stats import AppRunResult

__all__ = ["ApproxTier", "ObservedError", "json_object"]

#: Answers a tier remembers for observed-error feedback, oldest dropped
#: first, so a long-lived server's map stays bounded.  A ``serve-mix``
#: benchmark run answers 192-199 of its 650 jobs by a tier (seeds 1-7),
#: so none of its answers is dropped before its ground truth can land.
MAX_PREDICTIONS = 4096


def json_object(items: Iterable[tuple[str, str]]) -> str:
    """A JSON object from ``(key, rendered value)`` pairs: exactly
    ``json.dumps`` of the parsed values' dict with ``sort_keys=True``."""
    members = ", ".join(f"{json.dumps(key)}: {text}" for key, text in sorted(items))
    return f"{{{members}}}"


class ObservedError:
    """Running summary of realized relative errors against their bounds.

    Keeps a count, sum, max and violation count instead of every sample,
    so a long-lived server's feedback state stays constant in size.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.total = 0.0
        self.max = 0.0
        self.violations = 0

    def add(self, error: float, bound: float) -> bool:
        """Record one realized error; True when it exceeded its bound."""
        self.samples += 1
        self.total += error
        self.max = max(self.max, error)
        violated = error > bound
        self.violations += violated
        return violated

    def snapshot(self) -> dict:
        return {
            "samples": self.samples,
            "observed_mean": self.total / self.samples if self.samples else None,
            "observed_max": self.max if self.samples else None,
            "violations": self.violations,
        }


class ApproxTier:
    """One approximate tier: a bounded answer for a cell, or escalation.

    One instance serves one harness (one context fingerprint).  State
    persists through the harness's run cache under
    ``<cache>/<kind>/<context>.json`` — LRU-exempt like manifests — and
    is merged back on load, so worker processes sharing a cache
    directory pool what they learned.  All public methods are
    thread-safe (the serving scheduler consults from request threads).
    """

    #: Obs-counter prefix, run-cache state kind and ``/metricsz`` section.
    kind: str
    #: Answer source label of a job or cell the tier answered.
    source: str
    #: Snapshot keys of the answer count and of the observed-error block.
    answers_key: str
    error_key: str
    #: The frozen :class:`AppRunResult` subclass the tier answers with;
    #: answers are never ingested back.
    result_type: type
    #: Its fields holding the modeled relative error bound and what
    #: answered (the latter is also that value's wire key).
    bound_field: str
    by_field: str
    config_type: type
    #: Layout version of the state document; mismatched states are
    #: discarded.
    state_version: int
    #: Typed escalation reasons, in snapshot order.
    escalation_reasons: tuple[str, ...]
    #: Sub-tiers whose answers are also counted separately.
    answerers: tuple[str, ...] = ()

    def __init__(self, config, run_cache, context: str) -> None:
        self.config = config
        self.run_cache = run_cache
        self.context = context
        self._partitions: dict = {}
        self._predictions: dict[str, tuple[float, float]] = {}
        self._lock = threading.RLock()
        self._loaded = False
        self._state_mtime: float | None = None
        self.lookups = 0
        self.answers = 0
        self.answered_by = dict.fromkeys(self.answerers, 0)
        self.escalations_by = dict.fromkeys(self.escalation_reasons, 0)
        self.observations = 0
        self.observed = ObservedError()

    @classmethod
    def resolve_config(cls, spec):
        """Normalize a harness-facing spec: a config passes through, a
        true value means the defaults, anything else turns the tier off
        (None)."""
        if isinstance(spec, cls.config_type):
            return spec
        return cls.config_type() if spec else None

    @classmethod
    def create(cls, spec, run_cache, context: str):
        """The tier for ``spec`` (see :meth:`resolve_config`), or None."""
        config = cls.resolve_config(spec)
        return None if config is None else cls(config, run_cache, context)

    # -- the ledger ------------------------------------------------------

    @property
    def escalations(self) -> int:
        return sum(self.escalations_by.values())

    def snapshot(self) -> dict:
        """JSON-ready metrics section (the tier's ``/metricsz`` block).

        ``reconciles`` asserts the lookup ledger: every consult either
        answered or escalated — ``answers + escalations == lookups``.
        """
        with self._lock:
            return {
                "enabled": True,
                **self._describe(),
                "lookups": self.lookups,
                self.answers_key: self.answers,
                **{
                    f"{self.answers_key}_{by}": count
                    for by, count in self.answered_by.items()
                },
                "escalations": self.escalations,
                **{
                    f"escalations_{reason}": count
                    for reason, count in self.escalations_by.items()
                },
                "observations": self.observations,
                "reconciles": self.answers + self.escalations == self.lookups,
                self.error_key: self.observed.snapshot(),
            }

    def consult(
        self,
        *,
        workload: str,
        method: str,
        gpu: GPUConfig,
        launches: list[KernelLaunch],
        digest: str,
        model_error: ModelErrorConfig | None = None,
    ) -> AppRunResult | None:
        """Try to answer a digest miss approximately; None escalates.

        Counts exactly one lookup, and exactly one of answer /
        escalation — the ledger ``snapshot()`` reconciles.  Methods the
        tier does not serve bypass it without a lookup.
        """
        if method not in self.config.methods:
            return None
        with self._lock:
            self._load_if_stale()
            self.lookups += 1
            obs_count(f"{self.kind}.lookups")
            priced = self._price(
                workload=workload,
                method=method,
                gpu=gpu,
                launches=launches,
                model_error=model_error,
            )
            if isinstance(priced, str):
                self.escalations_by[priced] += 1
                obs_count(f"{self.kind}.escalations")
                obs_count(f"{self.kind}.escalations_{priced}")
                return None
            result, bound, by = priced
            self._predictions[digest] = (result.total_cycles, bound)
            if len(self._predictions) > MAX_PREDICTIONS:
                del self._predictions[next(iter(self._predictions))]
            self.answers += 1
            obs_count(f"{self.kind}.{self.answers_key}")
            if by is not None:
                self.answered_by[by] += 1
                obs_count(f"{self.kind}.{self.answers_key}_{by}")
            return result

    def observe(
        self,
        *,
        workload: str,
        method: str,
        gpu: GPUConfig,
        launches: list[KernelLaunch],
        digest: str,
        result: AppRunResult,
        model_error: ModelErrorConfig | None = None,
        kernel_cycles: Callable[[], dict[tuple[int, int], float]] | None = None,
    ) -> None:
        """Ingest one *computed* run and persist the tier's state.

        The tier's own answers are never ingested (their error would
        compound), and a run without cycles or instruction mass has
        nothing to teach.  ``kernel_cycles`` lazily yields the DES's
        memoized per-kernel cycles for tiers that learn from them.
        """
        if method not in self.config.methods or isinstance(result, self.result_type):
            return
        if result.total_cycles <= 0 or result.total_instructions <= 0:
            return
        with self._lock:
            self._load_if_stale()
            prediction = self._predictions.pop(digest, None)
            if prediction is not None:
                predicted, bound = prediction
                error = abs(predicted - result.total_cycles) / result.total_cycles
                obs_count(f"{self.kind}.observed_samples")
                if self.observed.add(error, bound):
                    obs_count(f"{self.kind}.observed_violations")
            self._ingest(
                workload=workload,
                method=method,
                gpu=gpu,
                launches=launches,
                digest=digest,
                result=result,
                model_error=model_error,
                kernel_cycles=kernel_cycles,
            )
            self.observations += 1
            obs_count(f"{self.kind}.observations")
            self._persist()

    # -- the subclass's decision and ingest --------------------------------

    def _describe(self) -> dict:
        """Tier-specific snapshot fields (config knobs, state sizes)."""
        raise NotImplementedError

    def _price(
        self, *, workload, method, gpu, launches, model_error
    ) -> str | tuple[AppRunResult, float, str | None]:
        """An escalation reason, or ``(answer, bound, answered_by)``."""
        raise NotImplementedError

    def _ingest(
        self, *, workload, method, gpu, launches, digest, result, model_error,
        kernel_cycles,
    ) -> None:
        raise NotImplementedError

    def _merge_partitions(self, partitions: dict) -> None:
        """Merge a persisted ``partitions`` document into memory."""
        raise NotImplementedError

    def _render_partition(self, partition) -> str:
        """One partition's state as ``json.dumps(state, sort_keys=True)``."""
        raise NotImplementedError

    # -- persistence -------------------------------------------------------

    @staticmethod
    def _partition_key(method: str, gpu: GPUConfig) -> str:
        return f"{method}@{gpu.name}"

    def _load_if_stale(self) -> None:
        """Merge on-disk state written by other processes (mtime-gated)."""
        current = self.run_cache.state_mtime(self.kind, self.context)
        if self._loaded and current == self._state_mtime:
            return
        document = self.run_cache.get_state(self.kind, self.context)
        self._loaded = True
        self._state_mtime = current
        if not document or document.get("version") != self.state_version:
            return
        self._merge_partitions(document.get("partitions", {}))

    def _persist(self) -> None:
        partitions = json_object(
            (key, self._render_partition(partition))
            for key, partition in self._partitions.items()
        )
        document = json_object(
            [
                ("context", json.dumps(self.context)),
                ("partitions", partitions),
                ("version", json.dumps(self.state_version)),
            ]
        )
        self.run_cache.put_state(self.kind, self.context, document)
        self._state_mtime = self.run_cache.state_mtime(self.kind, self.context)
