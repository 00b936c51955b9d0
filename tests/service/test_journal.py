"""Journal tests: integrity envelope, crash artifacts, compaction."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.analysis.harness import EvaluationHarness
from repro.analysis.persistence import CACHE_SCHEMA_VERSION
from repro.service import JobRequest, PKAService, ServiceClient
from repro.service.journal import JobJournal


@pytest.fixture(autouse=True)
def _tracing():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "journal.jsonl"


class TestRoundTrip:
    def test_append_replay_round_trip(self, journal_path):
        with JobJournal(journal_path) as journal:
            journal.append("accepted", "j-1", request={"workload": "w"}, digest="d")
            journal.append("started", "j-1")
            journal.append("completed", "j-1", state="done", source="computed")
        fresh = JobJournal(journal_path)
        records = fresh.replay()
        assert [(r.event, r.job_id) for r in records] == [
            ("accepted", "j-1"),
            ("started", "j-1"),
            ("completed", "j-1"),
        ]
        assert records[0].data["digest"] == "d"
        assert records[2].data["state"] == "done"
        assert fresh.lag() == 0

    def test_every_line_carries_a_valid_checksum(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1", digest="d")
        journal.close()
        for line in journal_path.read_text().splitlines():
            document = json.loads(line)
            assert document["kind"] == "journal"
            assert document["schema"] == CACHE_SCHEMA_VERSION
            assert len(document["sha256"]) == 64

    def test_unknown_event_rejected(self, journal_path):
        journal = JobJournal(journal_path)
        with pytest.raises(ValueError):
            journal.append("vanished", "j-1")

    def test_lag_counts_open_jobs(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1")
        journal.append("accepted", "j-2")
        assert journal.lag() == 2
        journal.append("completed", "j-1", state="done")
        assert journal.lag() == 1
        assert journal.stats()["appends"] == 3

    def test_replay_missing_file_is_empty(self, journal_path):
        assert JobJournal(journal_path).replay() == []


class TestCrashArtifacts:
    def test_torn_final_line_is_skipped(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1", digest="d")
        journal.append("accepted", "j-2", digest="d")
        journal.close()
        # Simulate a crash mid-append: truncate the last line.
        text = journal_path.read_text()
        journal_path.write_text(text[: len(text) - 25])
        fresh = JobJournal(journal_path)
        records = fresh.replay()
        assert [r.job_id for r in records] == ["j-1"]
        assert fresh.stats()["corrupt_skipped"] == 1

    def test_bit_flip_fails_checksum(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1", digest="aaaa")
        journal.close()
        corrupted = journal_path.read_text().replace("aaaa", "aaab")
        journal_path.write_text(corrupted)
        fresh = JobJournal(journal_path)
        assert fresh.replay() == []
        assert fresh.stats()["corrupt_skipped"] == 1

    def test_foreign_schema_is_ignored(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1")
        journal.close()
        line = journal_path.read_text()
        document = json.loads(line)
        document["schema"] = CACHE_SCHEMA_VERSION + 1
        journal_path.write_text(json.dumps(document) + "\n" + line)
        fresh = JobJournal(journal_path)
        records = fresh.replay()
        assert len(records) == 1  # the valid line survives, the alien does not
        assert fresh.stats()["corrupt_skipped"] == 1

    def test_garbage_line_is_skipped_not_raised(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1")
        journal.close()
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        assert len(JobJournal(journal_path).replay()) == 1


class TestCompaction:
    def test_compact_keeps_one_lifecycle_per_job(self, journal_path):
        journal = JobJournal(journal_path)
        for _ in range(3):
            journal.append("started", "j-1")
            journal.append("requeued", "j-1", redispatches=1)
        journal.append("accepted", "j-1", digest="d1")
        journal.append("completed", "j-1", state="done")
        journal.append("accepted", "j-2", digest="d2")  # still open
        kept = journal.compact()
        assert kept == 3  # j-1 accepted+completed, j-2 accepted
        records = JobJournal(journal_path).replay()
        assert [(r.event, r.job_id) for r in records] == [
            ("accepted", "j-1"),
            ("completed", "j-1"),
            ("accepted", "j-2"),
        ]

    def test_compacted_journal_replays_identically(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1", digest="d")
        journal.append("completed", "j-1", state="done", source="cache")
        before = {
            (r.event, r.job_id, json.dumps(r.data, sort_keys=True))
            for r in journal.replay()
        }
        journal.compact()
        after = {
            (r.event, r.job_id, json.dumps(r.data, sort_keys=True))
            for r in JobJournal(journal_path).replay()
        }
        assert before == after

    def test_failed_compaction_leaves_the_old_journal(self, journal_path, monkeypatch):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1")
        journal.append("started", "j-1")
        before = journal_path.read_bytes()

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            journal.compact()
        monkeypatch.undo()
        assert journal_path.read_bytes() == before
        assert list(journal_path.parent.iterdir()) == [journal_path]  # no temp file
        journal.append("completed", "j-1", state="done")
        assert [r.event for r in JobJournal(journal_path).replay()] == [
            "accepted",
            "started",
            "completed",
        ]

    def test_append_after_compact_lands_in_new_file(self, journal_path):
        journal = JobJournal(journal_path)
        journal.append("accepted", "j-1")
        journal.compact()
        journal.append("accepted", "j-2")
        journal.close()
        records = JobJournal(journal_path).replay()
        assert [r.job_id for r in records] == ["j-1", "j-2"]


class TestTierAnswerRecovery:
    """A job a tier answered is not in the run cache: a restarted
    coordinator re-attaches its answer through the same no-compute cell
    path the submission probes use, or runs the job again."""

    @staticmethod
    def _serve(tmp_path, **tiers) -> tuple[PKAService, ServiceClient]:
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", **tiers
        )
        service = PKAService(
            harness, port=0, journal_path=str(tmp_path / "journal.jsonl")
        )
        service.start()
        return service, ServiceClient(port=service.port, timeout=10.0)

    def _transferred(self, tmp_path) -> tuple[str, dict]:
        service, client = self._serve(tmp_path, semcache=True)
        try:
            donor = client.submit(JobRequest(workload="atax", method="pka_sim"))
            client.wait(donor["job_id"], timeout=120.0)
            job_id = client.submit(
                JobRequest(workload="atax~nd1", method="pka_sim")
            )["job_id"]
            before = client.result(job_id)
        finally:
            service.close()
        assert before["job"]["source"] == "transfer"
        assert before["result_kind"] == "app_run" and "transfer" in before
        return job_id, before

    def test_transferred_job_keeps_its_answer(self, tmp_path):
        job_id, before = self._transferred(tmp_path)
        service, client = self._serve(tmp_path, semcache=True)
        try:
            after = client.result(job_id)
        finally:
            service.close()
        assert after["job"]["state"] == "done"
        assert after["job"]["source"] == "transfer"
        assert after["result_kind"] == "app_run"
        assert after["result"] == before["result"]
        assert after["transfer"] == before["transfer"]

    def test_job_no_tier_answers_runs_again(self, tmp_path):
        job_id, _ = self._transferred(tmp_path)
        service, client = self._serve(tmp_path)  # the semantic cache is off
        try:
            final = client.wait(job_id, timeout=120.0)
            after = client.result(job_id)
        finally:
            service.close()
        assert final["state"] == "done" and final["source"] == "computed"
        assert after["result_kind"] == "app_run" and "transfer" not in after
