"""Crash points of the sealed record every durable file is made of.

A truncated or bit-flipped record of any family — a run-cache entry,
tier state, a sweep manifest, a journal line — must come back as its
original payload or as a typed :class:`Rejection`: never an exception,
never a different payload.  A journal torn at any byte replays exactly
the records before the tear.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.persistence import Rejection, RunCache, seal, unseal
from repro.service.journal import JobJournal, _line

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
documents = st.dictionaries(st.text(max_size=8), json_values, max_size=5)


def _rendered(value) -> str:
    return json.dumps(value, sort_keys=True)


def _entry(document: dict) -> tuple[str, str, str]:
    """(kind, record, payload rendering) as ``RunCache.put_run`` seals."""
    text = _rendered(document)
    return "app_run", seal("app_run", text), json.dumps(text)


def _state(document: dict) -> tuple[str, str, str]:
    text = _rendered(document)
    return "semcache_state", seal("semcache_state", text, inline=True), text


def _manifest(document: dict) -> tuple[str, str, str]:
    text = _rendered(document)
    return "sweep_manifest", seal("sweep_manifest", text, inline=True), text


def _journal(document: dict) -> tuple[str, str, str]:
    record = {"event": "accepted", "job_id": "j-1", "ts": 1.5, "data": document}
    return "journal", _line(record), _rendered(record)


FAMILIES = {
    "entry": _entry,
    "state": _state,
    "manifest": _manifest,
    "journal": _journal,
}


def _check(damaged: bytes, kind: str, original: str) -> None:
    payload = unseal(damaged, kind)
    if isinstance(payload, Rejection):
        return
    rendered = json.dumps(payload) if isinstance(payload, str) else _rendered(payload)
    assert rendered == original


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=80, deadline=None)
@given(document=documents, data=st.data())
def test_a_truncated_record_is_rejected(family, document, data):
    kind, record, original = FAMILIES[family](document)
    raw = record.rstrip("\n").encode("utf-8")  # a journal line's end is not its record
    assert _rendered(unseal(raw, kind)) == _rendered(json.loads(original))
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    assert isinstance(unseal(raw[:cut], kind), Rejection)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=120, deadline=None)
@given(document=documents, data=st.data())
def test_a_flipped_bit_is_the_payload_or_a_rejection(family, document, data):
    kind, record, original = FAMILIES[family](document)
    raw = bytearray(record.encode("utf-8"))
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    _check(bytes(raw), kind, original)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(document=documents, data=st.data())
def test_a_high_bit_flip_is_rejected(family, document, data):
    """Every byte of a record is ASCII, so setting a high bit anywhere
    leaves bytes that are not UTF-8."""
    kind, record, _original = FAMILIES[family](document)
    raw = bytearray(record.encode("utf-8"))
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[offset] ^= 0x80
    assert unseal(bytes(raw), kind) is Rejection.UNDECODABLE


def test_a_wrong_kind_and_a_foreign_schema_are_typed():
    record = seal("app_run", "{}")
    assert unseal(record, "selection") is Rejection.WRONG_KIND
    assert unseal(record.replace('"schema": 2', '"schema": 3'), "app_run") is (
        Rejection.FOREIGN_SCHEMA
    )
    assert unseal(record.replace("{}", "[]"), "app_run") is (
        Rejection.CHECKSUM_MISMATCH
    )
    assert unseal("[1, 2]", "app_run") is Rejection.UNDECODABLE


@settings(max_examples=40, deadline=None)
@given(offset=st.integers(0, 10_000), bit=st.integers(0, 7))
def test_a_damaged_pinned_run_entry_is_the_run_or_a_miss(offset, bit):
    """Through the store: a flipped bit of a real entry reads as the
    same run or as a miss (the entry quarantined), never raises."""
    digest = "7bca471e2338769662d82b46d6f4299428e9b0acb8220864ad4c35919d1ec9de"
    text = (Path(__file__).parent / "data" / "run_entry.json").read_bytes()
    with tempfile.TemporaryDirectory() as root:
        cache = RunCache(root)
        path = cache._path(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(text)
        expected = cache.get_run(digest)
        raw = bytearray(text)
        raw[offset % len(raw)] ^= 1 << bit
        path.write_bytes(bytes(raw))
        result = RunCache(root).get_run(digest)
    assert result is None or result == expected


def test_a_journal_torn_at_every_offset_replays_its_intact_prefix(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.append("accepted", "j-1", digest="d1", request={"workload": "ü"})
    journal.append("started", "j-1")
    journal.append("completed", "j-1", state="done", latency_ms=1.25)
    journal.close()
    data = path.read_bytes()
    # Byte offsets at which each record's text is complete.
    ends = [index for index, byte in enumerate(data) if byte == ord("\n")]
    full = [(r.event, r.job_id, r.data) for r in JobJournal(path).replay()]
    assert len(full) == len(ends) == 3
    torn = tmp_path / "torn.jsonl"
    for cut in range(len(data) + 1):
        torn.write_bytes(data[:cut])
        replayed = JobJournal(torn)
        records = replayed.replay()
        intact = sum(end <= cut for end in ends)
        assert [(r.event, r.job_id, r.data) for r in records] == full[:intact]
        partial = cut > (ends[intact - 1] + 1 if intact else 0)
        assert replayed.stats()["corrupt_skipped"] == int(partial)
