"""Unit tests for the service's job types and bounded fair queue."""

from __future__ import annotations

import threading

import pytest

from repro.errors import InvalidJobRequestError, QueueFullError
from repro.service import JobQueue, JobRecord, JobRequest, job_id_for, parse_job_fault
from repro.sim.faults import PERSISTENT


def _record(
    workload: str = "histo",
    *,
    client: str = "anonymous",
    priority: int = 1,
    digest: str | None = None,
) -> JobRecord:
    digest = digest or f"d-{workload}-{client}-{priority}"
    request = JobRequest(workload=workload, client=client, method="silicon", priority=priority)
    return JobRecord(job_id=job_id_for(digest), request=request, digest=digest)


class TestParseJobFault:
    def test_bare_kinds(self):
        assert parse_job_fault("exception") == ("exception", 1)
        assert parse_job_fault("hang") == ("hang", 1)
        assert parse_job_fault("crash") == ("crash", 1)

    def test_attempt_suffix_splits_on_last_x(self):
        # "exception" itself contains an 'x'; the suffix split must not
        # eat it.
        assert parse_job_fault("exceptionx99") == ("exception", 99)
        assert parse_job_fault("crashx2") == ("crash", 2)

    def test_persistent_suffix(self):
        assert parse_job_fault("exceptionxP") == ("exception", PERSISTENT)
        assert parse_job_fault("hangxp") == ("hang", PERSISTENT)

    @pytest.mark.parametrize(
        "bad", ["nope", "x3", "exceptionx", "exceptionx0", "crashx-1", ""]
    )
    def test_bad_specs_raise_typed(self, bad):
        with pytest.raises(InvalidJobRequestError):
            parse_job_fault(bad)


class TestJobRequest:
    def test_from_document_roundtrip(self):
        request = JobRequest(
            workload="histo", method="silicon", gpu="turing", client="c1", priority=0
        )
        assert JobRequest.from_document(request.to_document()) == request

    @pytest.mark.parametrize(
        "document",
        [
            "not an object",
            {},
            {"workload": "histo"},
            {"workload": "", "method": "silicon"},
            {"workload": "histo", "method": "silicon", "priority": "high"},
            {"workload": "histo", "method": "silicon", "priority": True},
            {"workload": "histo", "method": "silicon", "bogus": 1},
            {"workload": "histo", "method": "silicon", "fault": "nope"},
        ],
    )
    def test_bad_documents_raise_typed(self, document):
        with pytest.raises(InvalidJobRequestError):
            JobRequest.from_document(document)

    def test_fault_salts_the_job_id(self):
        # A faulted job must never share an id (the dedup key) with its
        # clean twin — dedup or a cache hit would skip the injection.
        assert job_id_for("abc") != job_id_for("abc", "exception")
        assert job_id_for("abc", "exception") != job_id_for("abc", "crash")
        assert job_id_for("abc") == job_id_for("abc")


class TestJobQueue:
    def test_fifo_within_one_client(self):
        queue = JobQueue(max_depth=8)
        records = [_record(digest=f"d{i}") for i in range(3)]
        for record in records:
            queue.put(record)
        assert queue.take_batch(8, timeout=0.1) == records

    def test_priority_bands_dispatch_low_first(self):
        queue = JobQueue(max_depth=8)
        bulk = _record(priority=5, digest="bulk")
        express = _record(priority=0, digest="express")
        queue.put(bulk)
        queue.put(express)
        batch = queue.take_batch(8, timeout=0.1)
        assert batch == [express, bulk]

    def test_round_robin_across_clients(self):
        queue = JobQueue(max_depth=16)
        # Client A floods; client B submits one job.  B must not wait
        # behind all of A's work.
        flood = [_record(client="a", digest=f"a{i}") for i in range(5)]
        single = _record(client="b", digest="b0")
        for record in flood[:3]:
            queue.put(record)
        queue.put(single)
        for record in flood[3:]:
            queue.put(record)
        batch = queue.take_batch(3, timeout=0.1)
        assert single in batch

    def test_depth_bound_raises_typed_backpressure(self):
        queue = JobQueue(max_depth=2)
        queue.put(_record(digest="d0"))
        queue.put(_record(digest="d1"))
        with pytest.raises(QueueFullError) as excinfo:
            queue.put(_record(digest="d2"))
        assert excinfo.value.depth == 2
        assert excinfo.value.max_depth == 2
        assert queue.depth == 2

    def test_remove_plucks_queued_job(self):
        queue = JobQueue(max_depth=8)
        keep = _record(digest="keep")
        drop = _record(digest="drop")
        queue.put(keep)
        queue.put(drop)
        assert queue.remove(drop.job_id) is drop
        assert queue.remove("j-missing") is None
        assert queue.take_batch(8, timeout=0.1) == [keep]

    def test_take_batch_times_out_empty(self):
        queue = JobQueue(max_depth=2)
        assert queue.take_batch(4, timeout=0.05) == []

    def test_take_batch_wakes_on_put(self):
        queue = JobQueue(max_depth=2)
        record = _record(digest="late")
        result: list = []

        def taker() -> None:
            result.extend(queue.take_batch(4, timeout=2.0))

        thread = threading.Thread(target=taker)
        thread.start()
        queue.put(record)
        thread.join(timeout=5.0)
        assert result == [record]

    def test_close_unblocks_waiters(self):
        queue = JobQueue(max_depth=2)
        result: list = ["sentinel"]

        def taker() -> None:
            result[:] = queue.take_batch(4, timeout=None)

        thread = threading.Thread(target=taker)
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result == []

    def test_drain_all_empties_every_band(self):
        queue = JobQueue(max_depth=8)
        records = [
            _record(client=client, priority=priority, digest=f"{client}{priority}")
            for client in ("a", "b")
            for priority in (0, 1)
        ]
        for record in records:
            queue.put(record)
        drained = queue.drain_all()
        assert sorted(r.job_id for r in drained) == sorted(
            r.job_id for r in records
        )
        assert queue.depth == 0
