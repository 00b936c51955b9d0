"""Service quickstart: the evaluation harness as a long-lived daemon.

Starts a PKAService in-process on an ephemeral port, talks to it over
real HTTP with the typed client, and walks the service's whole value
proposition in one sitting: submit a job, watch single-flight dedup
collapse a duplicate, see a repeat submission complete straight from
the warm on-disk cache, read /metricsz, and drain gracefully without
losing anything.

Run with:  python examples/service_quickstart.py
"""

from __future__ import annotations

import tempfile

from repro.analysis import EvaluationHarness
from repro.service import JobRequest, PKAService, ServiceClient


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        harness = EvaluationHarness(backend="serial", cache_dir=cache_dir)
        with PKAService(harness, port=0) as service:
            client = ServiceClient(port=service.port)
            print(f"service {service.service_id} on http://{service.host}:{service.port}")
            print(f"healthy={client.healthy()} ready={client.ready()}")

            # Submit one job and poll it to a terminal state.
            request = JobRequest(workload="histo", method="silicon", client="demo")
            accepted = client.submit(request)
            print(f"\nsubmitted {accepted['job_id']} state={accepted['state']}")
            final = client.wait(accepted["job_id"], timeout=120.0)
            print(f"finished  state={final['state']} source={final['source']} "
                  f"latency={final['latency_ms']:.1f} ms")
            result = client.result(final["job_id"])
            print(f"result    {result['result']['total_cycles']:.3g} cycles "
                  f"({result['result_kind']})")

            # An identical submission is the *same* job: single flight.
            again = client.submit(request)
            print(f"\nresubmit  {again['job_id']} created={again['created']} "
                  f"state={again['state']}  (deduplicated)")

            # A selection job returns the concise program representation.
            selection = client.submit_and_wait(
                JobRequest(workload="histo", method="selection", client="demo"),
                timeout=120.0,
            )
            print(f"selection K={selection['result']['k']} over "
                  f"{selection['result']['total_launches']} launches")

            # The server's own accounting.
            metrics = client.metrics()
            counters = metrics["counters"]
            print(f"\nmetrics   jobs={metrics['jobs']} states={metrics['states']}")
            print(f"          submitted={counters['service.jobs_submitted']} "
                  f"dedup_hits={counters.get('service.dedup_hits', 0)} "
                  f"computed={metrics['latency_ms']['computed']['count']}")

            # Graceful shutdown: finish everything, write a drain manifest
            # into the run cache, report whether any accepted job was lost.
            manifest, clean = service.drain()
            print(f"\ndrained   clean={clean} states={manifest['states']}")
            stored = harness.run_cache.get_manifest(service.service_id)
            print(f"manifest  persisted={stored is not None}")


if __name__ == "__main__":
    main()
