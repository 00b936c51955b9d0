"""Persisting PKA results: selections and the content-addressed run cache.

The paper's artifact emits, per workload, "pkl files containing the number
of principal groups, the principal kernels associated with each group and
their respective weights" — the hand-off between the characterization
machine (which has the GPU) and the simulation cluster (which does not).

This module serializes a :class:`~repro.core.pka.KernelSelection` to a
self-contained JSON document (embedding the representative launches in
the .pkatrace record format) and restores it, so characterization and
simulation can run in different processes, machines or sessions.

On top of the hand-off format sits the **run cache**: a content-addressed
on-disk store of :class:`~repro.sim.stats.AppRunResult` cells and
selections, keyed by a digest of everything the result depends on (the
workload's launch lists, the full GPU config, the PKA and model-error
configs, and a code-version salt).  Every run in this reproduction is
deterministic, so a cache hit is *exactly* the result a recompute would
produce — repeated benchmark sweeps and cross-process fan-outs reuse
prior work instead of re-simulating the corpus.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import threading
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy

from repro import __version__
from repro.core.pka import KernelSelection, SelectedGroup
from repro.core.pks import KernelGroup, PKSResult
from repro.errors import ReproError
from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.obs import obs_count
from repro.sim.stats import AppRunResult, KernelRecord
from repro.traces.format import _launch_from_record, _launch_record
from repro.workloads.table import LaunchTable

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "RUN_FORMAT_VERSION",
    "SELECTION_FORMAT_VERSION",
    "CacheDegradedWarning",
    "NullRunCache",
    "RunCache",
    "RunKey",
    "dump_run",
    "dump_selection",
    "fingerprint",
    "launch_code_fingerprint",
    "launches_digest",
    "load_run",
    "load_selection",
    "read_selection",
    "resolve_run_cache",
    "run_digest",
    "save_selection",
]

SELECTION_FORMAT_VERSION = 1


def dump_selection(selection: KernelSelection) -> str:
    """Serialize a selection to a JSON document."""
    document = {
        "version": SELECTION_FORMAT_VERSION,
        "workload": selection.workload,
        "total_launches": selection.total_launches,
        "total_warp_instructions": selection.total_warp_instructions,
        "used_two_level": selection.used_two_level,
        "detailed_count": selection.detailed_count,
        "classifier_name": selection.classifier_name,
        "classifier_accuracy": selection.classifier_accuracy,
        "profiling_seconds": selection.profiling_seconds,
        "k": selection.pks.k,
        "projection_error": selection.pks.projection_error,
        "sweep_errors": list(selection.pks.sweep_errors),
        "groups": [
            {
                "group_id": group.group_id,
                "weight": group.weight,
                "representative": _launch_record(group.representative),
                "member_launch_ids": list(
                    _pks_group(selection, group.group_id).member_launch_ids
                ),
                "mean_cycles": _pks_group(selection, group.group_id).mean_cycles,
                "representative_cycles": _pks_group(
                    selection, group.group_id
                ).representative_cycles,
            }
            for group in selection.groups
        ],
    }
    return json.dumps(document, sort_keys=True, indent=2)


def _pks_group(selection: KernelSelection, group_id: int) -> KernelGroup:
    for group in selection.pks.groups:
        if group.group_id == group_id:
            return group
    raise ReproError(f"selection has no PKS group {group_id}")


def load_selection(text: str) -> KernelSelection:
    """Restore a selection from its JSON document.

    The restored object carries everything simulation-side consumers need
    (groups, weights, representatives, instruction totals, the K sweep's
    projected errors).  The fitted clustering artifacts (PCA basis,
    k-means centres) are characterization-side state and are not
    round-tripped; the restored ``pks`` summary exposes group structure
    and the recorded errors only.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"not a selection document: {exc}") from exc
    if document.get("version") != SELECTION_FORMAT_VERSION:
        raise ReproError(
            f"unsupported selection version {document.get('version')!r}"
        )
    try:
        pks_groups = []
        selected_groups = []
        for record in document["groups"]:
            representative = _launch_from_record(record["representative"])
            pks_groups.append(
                KernelGroup(
                    group_id=record["group_id"],
                    representative_launch_id=representative.launch_id,
                    member_launch_ids=tuple(record["member_launch_ids"]),
                    weight=len(record["member_launch_ids"]),
                    mean_cycles=record["mean_cycles"],
                    representative_cycles=record["representative_cycles"],
                )
            )
            selected_groups.append(
                SelectedGroup(
                    group_id=record["group_id"],
                    representative=representative,
                    weight=record["weight"],
                )
            )
        import numpy as np

        labels = np.zeros(0, dtype=np.intp)
        pks = PKSResult(
            k=document["k"],
            groups=tuple(pks_groups),
            labels=labels,
            projection_error=document["projection_error"],
            sweep_errors=tuple(document.get("sweep_errors", ())),
            pipeline=None,  # type: ignore[arg-type]
            kmeans=None,  # type: ignore[arg-type]
        )
        return KernelSelection(
            workload=document["workload"],
            total_launches=document["total_launches"],
            total_warp_instructions=document["total_warp_instructions"],
            groups=tuple(selected_groups),
            pks=pks,
            used_two_level=document["used_two_level"],
            detailed_count=document["detailed_count"],
            classifier_name=document["classifier_name"],
            classifier_accuracy=document["classifier_accuracy"],
            profiling_seconds=document["profiling_seconds"],
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed selection document: {exc}") from exc


def save_selection(path: str | Path, selection: KernelSelection) -> Path:
    """Write a selection document to ``path``."""
    path = Path(path)
    path.write_text(dump_selection(selection), encoding="utf-8")
    return path


def read_selection(path: str | Path) -> KernelSelection:
    """Read a selection document from ``path``."""
    return load_selection(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Run documents: AppRunResult <-> JSON, exact round trip.
# ---------------------------------------------------------------------------

RUN_FORMAT_VERSION = 1

#: Bump when a change alters what any cached run would contain without
#: changing the package version (the digest salts on both).  Version 2
#: added the per-entry integrity envelope (schema stamp + payload
#: checksum); pre-PR-3 entries live at version-1 digests and are simply
#: never looked up again.
CACHE_SCHEMA_VERSION = 2


def dump_run(result: AppRunResult) -> str:
    """Serialize an application run to a JSON document.

    The round trip is exact: JSON numbers are written with ``repr``
    precision, so every float is restored bit-identically and a cached
    run compares equal to the run that produced it.
    """
    document = {
        "version": RUN_FORMAT_VERSION,
        "workload": result.workload,
        "method": result.method,
        "gpu": dataclasses.asdict(result.gpu),
        "total_cycles": result.total_cycles,
        "total_instructions": result.total_instructions,
        "total_dram_bytes": result.total_dram_bytes,
        "simulated_cycles": result.simulated_cycles,
        "kernel_records": [
            dataclasses.asdict(record) for record in result.kernel_records
        ],
    }
    return json.dumps(document, sort_keys=True)


def load_run(text: str) -> AppRunResult:
    """Restore an application run from its JSON document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"not a run document: {exc}") from exc
    if document.get("version") != RUN_FORMAT_VERSION:
        raise ReproError(f"unsupported run version {document.get('version')!r}")
    try:
        return AppRunResult(
            workload=document["workload"],
            gpu=GPUConfig(**document["gpu"]),
            method=document["method"],
            total_cycles=document["total_cycles"],
            total_instructions=document["total_instructions"],
            total_dram_bytes=document["total_dram_bytes"],
            simulated_cycles=document["simulated_cycles"],
            kernel_records=tuple(
                KernelRecord(**record) for record in document["kernel_records"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed run document: {exc}") from exc


# ---------------------------------------------------------------------------
# Cache keys and digests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunKey:
    """Typed identity of one memoized evaluation cell.

    ``method`` names the accessor ("silicon", "full_sim", "pka_sim", ...)
    and ``gpu`` the :attr:`GPUConfig.name` it ran on (``None`` for
    GPU-independent cells such as the characterization selection).  Both
    the harness's in-memory memo tables and the on-disk cache derive
    their identity from this one object, so the two layers cannot
    disagree about what a cell is.
    """

    method: str
    gpu: str | None = None

    @property
    def label(self) -> str:
        return self.method if self.gpu is None else f"{self.method}/{self.gpu}"


#: Types ``_jsonable`` returns as they are: most payload values are these.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _jsonable(value):
    """Canonical JSON-compatible form of digest payload values."""
    if type(value) in _JSON_SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    return value


def _canonical_json(payload: object) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(payload: object) -> str:
    """SHA-256 over the canonical JSON rendering of ``payload``."""
    return _sha256(_canonical_json(payload))


def launches_digest(launches: Iterable[KernelLaunch]) -> str:
    """Digest of a launch list's behavioural identity.

    Covers, per launch, the spec signature (which already hashes every
    behavioural field), the grid, the chronological id and the NVTX
    annotations — everything any method's result can depend on.

    The bytes are one ``{id}:{signature}:{grid}:{sorted nvtx items}\n``
    line per launch.  Everything after the id depends only on the launch's
    :class:`~repro.workloads.LaunchTable` row, so each distinct row is
    rendered once and the lines are joined in launch order.  A plain
    sequence is converted with :meth:`LaunchTable.from_launches` first.
    """
    table = LaunchTable.from_launches(launches)
    signatures = [spec.signature() for spec in table.specs]
    tags = [f"{sorted(items)}" for items in table.annotations]
    suffixes = [
        f":{signatures[spec]}:{grid}:{tags[annotation]}\n"
        for spec, grid, annotation in table.rows()
    ]
    lines = map(
        str.__add__, map(str, table.ids()), map(suffixes.__getitem__, table.row_index)
    )
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


#: The sources, relative to the ``repro`` package, that a workload's
#: launch digests are a function of: the builders, the GPU and kernel
#: model, and this module (the digest format).
LAUNCH_SOURCES = ("workloads/*.py", "gpu/*.py", "analysis/persistence.py")


def launch_code_fingerprint(package: str | Path) -> str | None:
    """Fingerprint of the code that derives built-in launch digests.

    sha256 over the bytes of every :data:`LAUNCH_SOURCES` file under the
    package directory ``package``, the package version, the python
    major.minor version and numpy's (the builders draw from
    ``numpy.random``).  None when a source is missing or unreadable: a
    digest remembered under an unknown code identity is not safe.
    """
    root = Path(package)
    hasher = hashlib.sha256()
    try:
        for pattern in LAUNCH_SOURCES:
            paths = sorted(root.glob(pattern))
            if not paths:
                return None
            for path in paths:
                hasher.update(f"{path.relative_to(root).as_posix()}\0".encode())
                hasher.update(path.read_bytes())
    except OSError:
        return None
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    hasher.update(f"{__version__}/{python}/{numpy.__version__}".encode())
    return hasher.hexdigest()


def run_digest(
    key: RunKey,
    *,
    workload: str,
    launch_digests: dict[str, str],
    gpu: GPUConfig | None,
    context: str,
) -> str:
    """Content address of one evaluation cell.

    ``launch_digests`` maps each GPU generation whose launch list the
    cell consumed to its :func:`launches_digest`; ``context`` is the
    harness fingerprint (configs, model error, budgets, code version).
    The full ``gpu`` config is hashed — not just its name — so two
    configs that share a name but differ in any parameter never collide.

    The digest is :func:`fingerprint` of the payload below with ``gpu``
    added.  Sorted, the ``gpu`` key falls between ``context`` and the
    rest, so its rendering, made once per config
    (:attr:`GPUConfig.field_json`), is spliced in between the two.
    """
    head = _canonical_json({"context": context})
    tail = _canonical_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "key": {"method": key.method, "gpu": key.gpu},
            "workload": workload,
            "launches": launch_digests,
        }
    )
    rendered = "null" if gpu is None else gpu.field_json
    return _sha256(f'{head[:-1]},"gpu":{rendered},{tail[1:]}')


# ---------------------------------------------------------------------------
# The on-disk store.
# ---------------------------------------------------------------------------


class CacheDegradedWarning(UserWarning):
    """The on-disk run cache lost its directory and fell back to memory."""


class NullRunCache:
    """Disabled cache: every lookup misses and writes are dropped."""

    enabled = False

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.schema_mismatches = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.quarantine_log: list[dict] = []

    def get_run(self, digest: str) -> AppRunResult | None:
        return None

    def put_run(self, digest: str, result: AppRunResult) -> None:
        return None

    def get_selection(self, digest: str) -> KernelSelection | None:
        return None

    def put_selection(self, digest: str, selection: KernelSelection) -> None:
        return None

    def get_manifest(self, sweep_id: str) -> dict | None:
        return None

    def put_manifest(self, sweep_id: str, document: dict) -> None:
        return None

    def get_state(self, kind: str, context: str) -> dict | None:
        return None

    def put_state(self, kind: str, context: str, document: dict | str) -> None:
        return None

    def state_mtime(self, kind: str, context: str) -> float | None:
        return None

    def __repr__(self) -> str:
        return "NullRunCache()"


class RunCache:
    """Content-addressed on-disk store of runs and selections.

    Entries live at ``<root>/<digest[:2]>/<digest>.json`` and are written
    atomically (temp file + rename), so concurrent processes sharing one
    cache directory can only ever observe complete entries.  Every entry
    carries an integrity envelope — a schema-version stamp plus a sha256
    checksum of its payload — that is verified on read.  A corrupted or
    truncated entry — a killed writer on a non-atomic filesystem, a
    stray editor, bit rot — is treated as a miss and **quarantined**
    (moved to ``<root>/quarantine/`` and recorded in
    :attr:`quarantine_log`); the caller recomputes and rewrites it.  An
    entry stamped with a different schema version is refused and simply
    recomputed.

    A cache that cannot *write* — read-only directory, full disk,
    vanished mount — must not abort the sweep that was trying to
    checkpoint into it.  The first failed write emits one
    :class:`CacheDegradedWarning` and flips the store into **degraded
    mode**: entries land in an in-process dictionary instead, reads
    check that overlay before disk, and the sweep carries on with plain
    memoization semantics.  Sweep manifests (quarantine records written
    by ``evaluate_cells``) share the same fallback.

    **Concurrency.**  Any number of processes and threads may share one
    cache directory.  Entry and manifest writes are atomic renames of
    fully-written temp files in the destination directory, so a reader
    can only ever observe a complete document or no document — never a
    torn one.  Concurrent writers of one digest are idempotent (the
    content address guarantees they carry identical payloads; last
    rename wins).  An entry deleted underneath a reader — by eviction or
    quarantine in another process — is a plain miss.  Instance tallies
    are guarded by a lock so multi-threaded callers (the serving layer)
    reconcile exactly.

    **Bounded size.**  With ``max_bytes`` set the store evicts
    least-recently-used entries after each write until the run/selection
    entries fit the budget.  Recency is the entry file's mtime, which a
    read hit refreshes; manifests and quarantined files are not counted
    and never evicted.  The entry just written is never evicted, so a
    single oversized result still caches.
    """

    enabled = True

    def __init__(self, root: str | Path, *, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ReproError("max_bytes must be positive or None")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.schema_mismatches = 0
        self.evictions = 0
        self.evicted_bytes = 0
        #: One ``{"digest", "reason"}`` record per quarantined entry, in
        #: discovery order; ``evaluate_cells`` copies these into the sweep
        #: manifest so operators can see what bit-rotted.
        self.quarantine_log: list[dict] = []
        self.degraded = False
        self._memory: dict[str, dict] = {}
        self._tally_lock = threading.Lock()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                f"run cache at {self.root} is not writable ({exc}); "
                "falling back to in-memory caching for this process",
                CacheDegradedWarning,
                stacklevel=4,
            )

    # -- generic entry plumbing -----------------------------------------

    # Every hit/miss/write/quarantine goes through one of these helpers so
    # the instance tallies and the tracer counters can never disagree.

    def _note_hit(self, n: int = 1) -> None:
        with self._tally_lock:
            self.hits += n
        obs_count("cache.hits", n)

    def _note_miss(self) -> None:
        with self._tally_lock:
            self.misses += 1
        obs_count("cache.misses")

    def _note_write(self) -> None:
        with self._tally_lock:
            self.writes += 1
        obs_count("cache.writes")

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _quarantine_path(self, digest: str) -> Path:
        return self.root / "quarantine" / f"{digest}.json"

    def quarantine_entry(self, digest: str, reason: str) -> None:
        """Move a bad entry aside (never delete evidence) and record why.

        Quarantined files land under ``<root>/quarantine/`` so an operator
        can inspect what bit-rotted; the caller treats the lookup as a
        miss and recomputes.
        """
        path = self._path(digest)
        destination = self._quarantine_path(digest)
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            # Quarantine is best-effort; fall back to removal so the bad
            # entry can at least never be served again.
            try:
                path.unlink()
            except OSError:
                pass
        with self._tally_lock:
            self.quarantined += 1
            self.quarantine_log.append({"digest": digest, "reason": reason})
        obs_count("cache.quarantined")

    @staticmethod
    def _payload_checksum(payload) -> str:
        text = (
            payload
            if isinstance(payload, str)
            else json.dumps(payload, sort_keys=True)
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _read(self, digest: str, kind: str):
        overlay = self._memory.get(digest)
        if overlay is not None:
            if overlay.get("kind") != kind:
                self._note_miss()
                return None
            self._note_hit()
            return overlay["payload"]
        path = self._path(digest)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self._note_miss()
            return None
        except (OSError, ValueError):
            # Unreadable or not even JSON: a truncated writer or bit rot.
            self._note_miss()
            self.quarantine_entry(digest, "undecodable entry document")
            return None
        if document.get("schema") != CACHE_SCHEMA_VERSION:
            # A different schema is not corruption — it is an entry some
            # other code version wrote under a colliding digest.  Refuse
            # it and recompute (the rewrite lands at this digest).
            self._note_miss()
            with self._tally_lock:
                self.schema_mismatches += 1
            obs_count("cache.schema_mismatches")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if document.get("kind") != kind:
            self._note_miss()
            self.quarantine_entry(
                digest,
                f"kind {document.get('kind')!r} where {kind!r} was expected",
            )
            return None
        payload = document.get("payload")
        checksum = document.get("sha256")
        if payload is None or checksum != self._payload_checksum(payload):
            self._note_miss()
            self.quarantine_entry(digest, "payload checksum mismatch")
            return None
        if self.max_bytes is not None:
            try:
                # Refresh recency so a hot entry survives LRU eviction.
                os.utime(path)
            except OSError:
                pass
        self._note_hit()
        return payload

    def _store(
        self,
        key: str,
        path: Path,
        document: dict | Callable[[], dict],
        *,
        indent: int | None = None,
        text: str | None = None,
    ) -> bool:
        """Write ``document`` to ``path`` atomically (temp file + rename).

        The one writer of entries, manifests and tier state.  ``text``,
        when given, is the document already rendered as
        ``json.dumps(document, sort_keys=True)``; then ``document`` may
        be a callable that builds it, called only if the store degrades
        to the in-memory overlay under ``key``.  True when the document
        reached disk.
        """
        if not self.degraded:
            if text is None:
                text = json.dumps(document, sort_keys=True, indent=indent)
            tmp_name = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                handle, tmp_name = tempfile.mkstemp(
                    prefix=f".{path.stem[:8]}.", suffix=".tmp", dir=path.parent
                )
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(text)
                os.replace(tmp_name, path)
                return True
            except OSError as exc:
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                self._degrade(exc)
        self._memory[key] = document() if callable(document) else document
        return False

    def _write(self, digest: str, kind: str, payload) -> None:
        document = {
            "kind": kind,
            "schema": CACHE_SCHEMA_VERSION,
            "payload": payload,
            "sha256": self._payload_checksum(payload),
        }
        if self._store(digest, self._path(digest), document) and (
            self.max_bytes is not None
        ):
            self._maybe_evict(protect=digest)
        self._note_write()

    # -- size accounting and LRU eviction ---------------------------------

    def _entry_files(self) -> list[Path]:
        """Every run/selection entry on disk (manifests and quarantine
        live in their own subdirectories and are neither counted nor
        evicted)."""
        return list(self.root.glob("[0-9a-f][0-9a-f]/*.json"))

    def total_bytes(self) -> int:
        """Bytes currently held by run/selection entries on disk."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # evicted/quarantined by a concurrent process
        return total

    def _maybe_evict(self, protect: str | None = None) -> None:
        """Drop least-recently-used entries until the budget is met.

        Runs after each successful disk write, so the store's footprint
        only ever overshoots ``max_bytes`` by one entry.  Recency is the
        file mtime (refreshed on every read hit); the just-written
        ``protect`` digest is exempt so an entry larger than the whole
        budget still caches.  Losing a race with a concurrent evictor is
        harmless: the unlink misses and the entry is simply gone.
        """
        entries = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        protected = None if protect is None else f"{protect}.json"
        for _mtime, name, path, size in sorted(entries):
            if total <= self.max_bytes:
                break
            if name == protected:
                continue
            try:
                path.unlink()
            except OSError:
                total -= size  # already gone; stop double-counting it
                continue
            total -= size
            with self._tally_lock:
                self.evictions += 1
                self.evicted_bytes += size
            obs_count("cache.evictions")
            obs_count("cache.evicted_bytes", size)

    # -- typed entry points ----------------------------------------------

    def get_run(self, digest: str) -> AppRunResult | None:
        payload = self._read(digest, "app_run")
        if payload is None:
            return None
        try:
            return load_run(payload)
        except ReproError:
            # Checksum matched but the document does not deserialize: the
            # *writer* was broken, not the disk.  Still quarantine it.
            self._note_hit(-1)
            self._note_miss()
            self._memory.pop(digest, None)
            self.quarantine_entry(digest, "run payload failed to deserialize")
            return None

    def put_run(self, digest: str, result: AppRunResult) -> None:
        self._write(digest, "app_run", dump_run(result))

    def get_selection(self, digest: str) -> KernelSelection | None:
        payload = self._read(digest, "selection")
        if payload is None:
            return None
        try:
            return load_selection(payload)
        except ReproError:
            self._note_hit(-1)
            self._note_miss()
            self._memory.pop(digest, None)
            self.quarantine_entry(
                digest, "selection payload failed to deserialize"
            )
            return None

    def put_selection(self, digest: str, selection: KernelSelection) -> None:
        self._write(digest, "selection", dump_selection(selection))

    # -- sweep manifests --------------------------------------------------

    def _manifest_path(self, sweep_id: str) -> Path:
        return self.root / "manifests" / f"{sweep_id}.json"

    def get_manifest(self, sweep_id: str) -> dict | None:
        """The last recorded manifest of one sweep, or None."""
        overlay = self._memory.get(f"manifest:{sweep_id}")
        if overlay is not None:
            return overlay["payload"]
        try:
            document = json.loads(
                self._manifest_path(sweep_id).read_text(encoding="utf-8")
            )
            if not isinstance(document, dict):
                return None
            if document.get("kind") != "sweep_manifest":
                return None
            return document["payload"]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put_manifest(self, sweep_id: str, document: dict) -> None:
        """Record a sweep's completion/quarantine state, atomically."""
        self._store(
            f"manifest:{sweep_id}",
            self._manifest_path(sweep_id),
            {"kind": "sweep_manifest", "payload": document},
            indent=2,
        )

    # -- approximate-tier state -------------------------------------------

    def _state_path(self, kind: str, context: str) -> Path:
        return self.root / kind / f"{context[:32]}.json"

    def get_state(self, kind: str, context: str) -> dict | None:
        """One approximate tier's state for one harness context, or None.

        ``kind`` names the tier (``semcache``, ``predict``); its state
        lives at ``<root>/<kind>/<context[:32]>.json`` in an envelope of
        kind ``<kind>_state`` with the same schema stamp and payload
        checksum as run entries.  A corrupt, foreign-schema or
        other-kind state is simply discarded — tier state is derived
        data and rebuilds itself.
        """
        overlay = self._memory.get(f"{kind}:{context}")
        if overlay is not None:
            return overlay["payload"]
        try:
            document = json.loads(
                self._state_path(kind, context).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        payload = document.get("payload")
        if (
            document.get("kind") != f"{kind}_state"
            or document.get("schema") != CACHE_SCHEMA_VERSION
            or payload is None
            or document.get("sha256") != self._payload_checksum(payload)
        ):
            return None
        return payload

    def put_state(self, kind: str, context: str, document: dict | str) -> None:
        """Persist one tier's state for one context, atomically.

        ``document`` is the payload, or its text already rendered as
        ``json.dumps(payload, sort_keys=True)`` (the approximate tiers
        assemble theirs from pieces rendered once); a text is parsed
        only if the write falls back to memory.  Lives under
        ``<root>/<kind>/`` — outside the two-hex entry directories, so
        like manifests it is never counted against ``max_bytes`` nor
        LRU-evicted.
        """
        # One payload text is both what the checksum hashes and what the
        # envelope embeds (keys in sorted order, so the file is exactly
        # ``json.dumps(envelope, sort_keys=True)``).
        if isinstance(document, str):
            payload = document
        else:
            payload = json.dumps(document, sort_keys=True)
        checksum = self._payload_checksum(payload)
        text = (
            f'{{"kind": {json.dumps(f"{kind}_state")}, "payload": {payload}, '
            f'"schema": {json.dumps(CACHE_SCHEMA_VERSION)}, '
            f'"sha256": {json.dumps(checksum)}}}'
        )

        def envelope() -> dict:
            return {
                "kind": f"{kind}_state",
                "schema": CACHE_SCHEMA_VERSION,
                "payload": json.loads(payload) if isinstance(document, str) else document,
                "sha256": checksum,
            }

        self._store(
            f"{kind}:{context}", self._state_path(kind, context), envelope, text=text
        )

    def state_mtime(self, kind: str, context: str) -> float | None:
        """Staleness probe: the state file's mtime (None when absent or
        when the store is degraded to memory)."""
        if self.degraded:
            return None
        try:
            return self._state_path(kind, context).stat().st_mtime
        except OSError:
            return None

    def entry_count(self) -> int:
        """Number of run/selection entries currently on disk (manifests
        live under ``manifests/`` and are not counted)."""
        return sum(1 for _ in self.root.glob("[0-9a-f][0-9a-f]/*.json"))

    def __repr__(self) -> str:
        return f"RunCache(root={str(self.root)!r})"


def resolve_run_cache(
    cache_dir: str | Path | None,
    *,
    enabled: bool = True,
    max_bytes: int | None = None,
) -> RunCache | NullRunCache:
    """Build the run cache a harness should use.

    ``enabled=False`` (the CLI's ``--no-cache``) always yields the null
    cache; otherwise ``cache_dir`` selects the store location, with
    ``None`` meaning caching stays off.  ``max_bytes`` (the CLI's
    ``--cache-max-bytes``) bounds the store with LRU eviction.
    """
    if not enabled or cache_dir is None:
        return NullRunCache()
    return RunCache(cache_dir, max_bytes=max_bytes)
