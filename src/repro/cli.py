"""Command-line interface: ``pka <command>``.

Commands
--------
``pka list``
    List the workload corpus (suite, launch count, scale).
``pka characterize <workload>``
    Run PKA characterization on one workload and print the selection.
``pka simulate <workload> [--no-pkp] [--gpu volta|turing|ampere]``
    Sampled simulation of one workload, with error versus silicon.
``pka table3`` / ``pka table4 [--suite S]``
    Regenerate the paper's tables.
``pka figure <1|4|5|6|7|8|9|10>``
    Regenerate one figure's series as text.
``pka compare <workload>``
    Every applicable method on one workload, side by side.
``pka inspect <workload> [--micro]``
    Bottleneck/mix breakdown; ``--micro`` adds warp-level stall reports.
``pka phases <workload>``
    Behavioural phase decomposition of the launch sequence.
``pka project <workload>``
    Price the Volta selection on every known GPU.
``pka validate [--suite S] [--traces DIR]``
    Check the corpus's structural invariants, or validate ``.pkatrace``
    files under a directory (strict exits 1 on findings; ``--lenient``
    reports repairs and exits 0).
``pka sweep-k <workload>``
    PKS's K sweep: projected error per K until the 5% target.
``pka trace-plan <workload>``
    The selective-tracing plan implied by the PKS selection.
``pka report [--output FILE]``
    Render the whole evaluation as one markdown report.
``pka sweep [--suite S] [--methods M,...] [--gpus G,...]``
    Fault-tolerant workload x method x GPU sweep with partial results,
    a quarantine manifest, and cache-based resume.
``pka serve [--port P] [--max-queue N] [--workers N|auto] [--journal FILE]``
    Run the evaluation service (see ``docs/API.md``, "Service mode"):
    a JSON HTTP job API over the harness with single-flight dedup,
    batching, cache-aware fast paths and graceful drain on
    SIGTERM/SIGINT.  ``--workers N`` enables fleet mode: N supervised
    worker processes with exit-or-deadline liveness, re-dispatch,
    poison-job quarantine, and a crash-safe job journal for durable
    recovery across coordinator restarts (``docs/OPERATIONS.md``).
    ``--workers auto`` (or ``--min-workers``/``--max-workers``) makes
    the fleet elastic: an SLO-driven autoscaler grows and shrinks the
    pool, and ``--default-deadline`` adds deadline-aware admission.
``pka submit <workload> <method> [--gpu G] [--port P]``
    Submit one job to a running service and wait for its result.
``pka loadgen [--jobs N] [--shape SPEC] [--chaos SPECS] [--report FILE]``
    Drive a running service with a seeded, replayable load plan;
    ``--shape burst:10@1`` and friends reshape open-loop arrivals;
    ``--chaos "kill-worker@0.5,..."`` fires seeded fault actions
    against a co-hosted fleet mid-run.

Exit codes are uniform across every command: 0 success, 1 error
(bad input, unreachable service, strict-mode failure), 3 partial
completion (some cells/jobs failed or were lost), 130 interrupted.
``pka serve`` treats SIGINT like SIGTERM — a *requested* graceful
shutdown, exiting 0 after a clean drain (3 if the drain timed out).

Every command accepts the execution flags (see ``docs/API.md``,
"Parallel execution & caching" and "Fault tolerance & resume"):

``--jobs N``
    Execution backend: ``serial`` (default), ``auto`` (one worker per
    CPU) or a worker count.  Parallel runs are bit-identical to serial.
``--intra-jobs N``
    Intra-run backend: shard one run's kernel stream and block ranges
    across workers (default: inherit ``--jobs``).  A pure execution
    detail — results and cache digests are identical for every setting.
``--cache-dir DIR``
    Content-addressed on-disk run cache shared across invocations.
``--no-cache``
    Ignore ``--cache-dir`` for this invocation.
``--retries N`` / ``--task-timeout SECONDS``
    Fault policy for sweep cells: retry budget per cell (default 2)
    and wall-clock timeout per attempt (default: none).  ``serve``
    ships the same policy to its fleet workers, and a job that kills
    more than ``--retries`` workers is quarantined as poison.
``--strict``
    Fail fast on the first cell failure instead of returning partial
    results.
``--inject-faults PLAN``
    Chaos testing: deterministically inject failures at chosen cell
    indices, e.g. ``exception@3,crash@7x99,hang@11`` (``xN`` poisons
    the first N attempts; ``xP`` is persistent).
``--lenient``
    Lenient validation: degenerate inputs (NaN/inf spec or counter
    fields) are sanitized with recorded diagnostics instead of raising
    ``InputValidationError``.
``--trace`` / ``--trace-out FILE``
    Structured tracing (see docs/API.md, "Observability & tracing"):
    ``--trace`` prints a span/counter summary table after the command;
    ``--trace-out trace.json`` additionally writes a Chrome-trace event
    file (open in Perfetto / ``chrome://tracing``) plus a JSON run
    summary at ``trace.summary.json``.  ``--trace-out`` implies
    ``--trace``.

Interrupting a sweep (Ctrl-C) is safe: completed cells are already
checkpointed in the run cache, a resume hint is printed, and the
process exits with status 130.  Re-running the same command with the
same ``--cache-dir`` recomputes only the missing cells.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from repro.analysis import (
    CellFailure,
    EvaluationHarness,
    SemanticCacheConfig,
    abs_pct_error,
    figure1_time_landscape,
    figure4_group_composition,
    figure5_ipc_series,
    figure6_simtime_reduction,
    figure7_speedups,
    figure8_errors,
    figure9_volta_over_turing,
    figure10_half_sms,
    format_duration,
    speedup,
    table3_pks_examples,
    table4_rows,
)
from repro.errors import ReproError, TaskFailureError
from repro.gpu import get_gpu
from repro.predict import PredictConfig
from repro.sim.faults import FaultPlan
from repro.sim.parallel import FaultPolicy
from repro.workloads import get_workload, iter_workloads

__all__ = ["main"]

#: Exit codes beyond 0/1: partial sweep completion and interruption.
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 130


def _tier_config(config_type, enabled: bool, **overrides):
    """An approximate tier's config: the defaults with every override
    that was given, or None when the tier is off."""
    if not enabled:
        return None
    given = {name: value for name, value in overrides.items() if value is not None}
    return replace(config_type(), **given)


def _harness_from_args(args: argparse.Namespace) -> EvaluationHarness:
    """Build the harness every command shares from the execution flags."""
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "task_timeout", None)
    policy = None
    if retries is not None or timeout is not None:
        policy = FaultPolicy(
            max_retries=retries if retries is not None else 2,
            timeout_seconds=timeout,
        )
    plan_text = getattr(args, "inject_faults", None)
    harness = EvaluationHarness(
        backend=getattr(args, "jobs", None),
        intra_jobs=getattr(args, "intra_jobs", None),
        cache_dir=(
            None if getattr(args, "no_cache", False) else getattr(args, "cache_dir", None)
        ),
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
        fault_policy=policy,
        fault_plan=FaultPlan.parse(plan_text) if plan_text else None,
        validation_mode=(
            "lenient" if getattr(args, "lenient", False) else "strict"
        ),
        semcache=_tier_config(
            SemanticCacheConfig,
            getattr(args, "semcache", False),
            transfer_threshold=getattr(args, "transfer_threshold", None),
        ),
        predict=_tier_config(
            PredictConfig,
            getattr(args, "predict", False),
            max_error_bound=getattr(args, "predict_max_bound", None),
        ),
    )
    # Remember the harness so --trace-out can embed the sweep manifest
    # into the run summary after the handler returns.
    args._harness = harness
    return harness


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'workload':30s} {'suite':10s} {'launches':>9s} {'scale':>7s}")
    for spec in iter_workloads():
        launches = spec.build()  # a table: len() builds no launch objects
        print(
            f"{spec.name:30s} {spec.suite:10s} {len(launches):9d} "
            f"{spec.scale:7.0f}"
        )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    selection = evaluation.selection()
    if getattr(args, "save", None):
        from repro.analysis.persistence import save_selection

        path = save_selection(args.save, selection)
        print(f"selection saved to {path}")
    print(f"workload:            {selection.workload}")
    print(f"launches:            {selection.total_launches}")
    print(f"groups (K):          {selection.pks.k}")
    print(f"selected kernel ids: {selection.selected_launch_ids}")
    print(f"group weights:       {tuple(g.weight for g in selection.groups)}")
    print(f"two-level:           {selection.used_two_level}")
    if selection.used_two_level:
        print(f"detailed head:       {selection.detailed_count} kernels")
        print(
            f"classifier:          {selection.classifier_name} "
            f"(holdout accuracy {selection.classifier_accuracy:.2%})"
        )
    print(f"profiling cost:      {format_duration(selection.profiling_seconds)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    gpu = get_gpu(args.gpu)
    use_pkp = not args.no_pkp
    run = (
        evaluation.pka_sim(gpu) if use_pkp else evaluation.pks_sim(gpu)
    )
    if run is None:
        print(f"{args.workload} cannot be simulated on {gpu.name} (see quirks)")
        return 1
    truth = evaluation.silicon_on(gpu)
    print(f"method:              {'PKA (PKS+PKP)' if use_pkp else 'PKS only'}")
    print(f"GPU:                 {gpu.name}")
    print(f"projected cycles:    {run.total_cycles:.4g}")
    print(f"simulated cycles:    {run.simulated_cycles:.4g}")
    print(f"simulation time:     {format_duration(run.sim_wall_seconds)}")
    if truth is not None:
        print(
            f"cycle error:         "
            f"{abs_pct_error(run.total_cycles, truth.total_cycles):.2f}%"
        )
        full = evaluation.full_sim(gpu)
        if full is not None:
            print(
                f"speedup vs full sim: "
                f"{speedup(full.simulated_cycles, run.simulated_cycles):.2f}x"
            )
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from repro.analysis import sweep_architectures

    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    selection = evaluation.selection()
    projections = sweep_architectures(selection, pka=harness.pka)
    scale = evaluation.spec.scale
    print(f"{args.workload}: projected execution per architecture "
          f"(Volta-selected kernels, paper-scale x{scale:.0f})")
    print(f"{'GPU':10s} {'time':>14s} {'DRAM util':>10s}")
    for projection in projections:
        print(
            f"{projection.gpu_name:10s} "
            f"{format_duration(projection.projected_seconds * scale):>14s} "
            f"{projection.dram_util_percent:9.1f}%"
        )
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.analysis.phases import detect_phases

    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    launches = evaluation.launches("volta")
    analysis = detect_phases(args.workload, launches)
    print(f"workload: {args.workload} ({len(launches)} launches)")
    print(f"phases:   {analysis.n_phases}")
    for phase in analysis.phases:
        share = (
            phase.thread_instructions / analysis.total_thread_instructions
            if analysis.total_thread_instructions
            else 0.0
        )
        first = launches[phase.start_launch].spec.name
        print(
            f"  phase {phase.phase_id}: launches "
            f"[{phase.start_launch}, {phase.end_launch}) "
            f"({phase.launches} kernels, {share:.1%} of instructions), "
            f"starts with {first!r}"
        )
    budget = harness.instruction_budget
    print(
        f"first-{budget:.0g}-instruction prefix: covers "
        f"{analysis.coverage_of_prefix(budget):.0%} of phases, "
        f"phase-mix representativeness "
        f"{analysis.prefix_representativeness(budget):.2f}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    lenient = getattr(args, "lenient", False)
    if getattr(args, "traces", None):
        return _validate_traces(args.traces, lenient)
    from repro.workloads import validate_corpus

    report = validate_corpus(args.suite)
    print(f"checked {report.workloads_checked} workloads")
    if report.ok:
        print("corpus OK: every structural invariant holds")
        return 0
    for issue in report.issues:
        print(f"  {issue.workload}: [{issue.check}] {issue.detail}")
    # Lenient callers want the diagnostics but not a failing exit unless
    # something is unrecoverable; every corpus issue is reportable.
    return 0 if lenient else 1


def _validate_traces(directory: str, lenient: bool) -> int:
    """Validate every .pkatrace file under ``directory``.

    Strict (the default) exits 1 when any file carries error-severity
    issues; ``--lenient`` reports what would be repaired and exits 0.
    """
    from pathlib import Path

    from repro.core.validation import launch_issues, sanitize_launches
    from repro.errors import WorkloadError
    from repro.traces import read_trace

    paths = sorted(Path(directory).glob("*.pkatrace"))
    if not paths:
        print(f"no .pkatrace files under {directory}")
        return 1
    total_errors = 0
    for path in paths:
        try:
            workload, launches = read_trace(path)
        except (OSError, WorkloadError, ValueError) as exc:
            print(f"{path.name}: unreadable: {exc}")
            total_errors += 1
            continue
        source = workload or path.stem
        issues = launch_issues(source, launches)
        errors = [issue for issue in issues if issue.severity == "error"]
        if not issues:
            print(f"{path.name}: OK ({len(launches)} launches)")
            continue
        total_errors += len(errors)
        for issue in issues:
            print(f"  {path.name}: [{issue.check}] {issue.detail}")
        if lenient and errors:
            _, repairs = sanitize_launches(source, launches, "lenient")
            print(
                f"{path.name}: lenient mode would repair "
                f"{len(repairs)} field(s)"
            )
    if total_errors:
        print(f"{total_errors} validation error(s) across {len(paths)} trace file(s)")
        return 0 if lenient else 1
    print(f"all {len(paths)} trace file(s) OK")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.analysis import inspect_workload
    from repro.workloads import get_workload as _get

    spec = _get(args.workload)
    harness = _harness_from_args(args)
    profile = inspect_workload(
        spec.name,
        harness.evaluation(spec.name).launches("volta"),
        silicon=harness.silicon(get_gpu("volta")),
    )
    print(f"workload:           {profile.workload}")
    print(f"launches:           {profile.launches} "
          f"({profile.distinct_kernels} distinct kernels)")
    print(f"silicon time:       {format_duration(profile.silicon_seconds)}")
    print(f"grid blocks:        min {profile.grid_stats[0]}, "
          f"median {profile.grid_stats[1]}, max {profile.grid_stats[2]}")
    print(f"sub-wave launches:  {profile.sub_wave_fraction:.0%}")
    print(f"irregular launches: {profile.irregular_fraction:.0%}")
    print(f"trace footprint:    {profile.trace_bytes / 1e9:.2f} GB")
    print("cycle share by bottleneck:")
    for name, share in sorted(
        profile.bottleneck_cycle_share.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:8s} {share:6.1%}")
    print("dynamic instruction mix:")
    for name, share in sorted(profile.mix_share.items(), key=lambda kv: -kv[1]):
        print(f"  {name:14s} {share:6.1%}")
    if args.micro:
        from repro.sim import MicrosimConfig, SMMicrosimulator

        gpu = get_gpu("volta")
        microsim = SMMicrosimulator(
            gpu, MicrosimConfig(dram_share=1.0 / gpu.num_sms)
        )
        print("\nwarp-level bottleneck reports (distinct kernels):")
        seen = set()
        for launch in harness.evaluation(spec.name).launches("volta"):
            signature = launch.spec.signature()
            if signature in seen:
                continue
            seen.add(signature)
            print(microsim.bottleneck_report(launch.spec))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    truth = evaluation.silicon("volta")
    if truth is None:
        print(f"{args.workload} has no Volta silicon reference")
        return 1
    methods = [
        ("full simulation", evaluation.full_sim()),
        ("PKS", evaluation.pks_sim()),
        ("PKA (PKS+PKP)", evaluation.pka_sim()),
        ("first-1B", evaluation.first_1b()),
        ("TBPoint", evaluation.tbpoint_sim()),
    ]
    full = evaluation.full_sim()
    print(f"{'method':16s} {'cycle err':>10s} {'sim cost':>12s} {'speedup':>9s}")
    for label, run in methods:
        if run is None:
            print(f"{label:16s} {'*':>10s} {'*':>12s} {'*':>9s}")
            continue
        error = abs_pct_error(run.total_cycles, truth.total_cycles)
        cost = format_duration(run.sim_wall_seconds)
        ratio = (
            f"{speedup(full.simulated_cycles, run.simulated_cycles):.2f}x"
            if full is not None
            else "-"
        )
        print(f"{label:16s} {error:9.1f}% {cost:>12s} {ratio:>9s}")
    return 0


def _cmd_sweep_k(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    selection = evaluation.selection()
    print(f"K sweep for {args.workload} (target error "
          f"{harness.pka.config.pks.target_error:.0%}):")
    for k, error in enumerate(selection.pks.sweep_errors, start=1):
        marker = " <- chosen" if k == selection.pks.k else ""
        print(f"  K={k:2d}  projected error {error:7.2%}{marker}")
    return 0


def _cmd_trace_plan(args: argparse.Namespace) -> int:
    from repro.traces import build_tracing_plan

    harness = _harness_from_args(args)
    evaluation = harness.evaluation(args.workload)
    plan = build_tracing_plan(evaluation.selection(), evaluation.launches("volta"))
    scale = evaluation.spec.scale
    print(f"workload:             {plan.workload}")
    print(f"kernels to trace:     {plan.selected_count} "
          f"(ids {plan.selected_launch_ids})")
    print(f"full trace size:      {plan.full_trace_bytes * scale / 1e9:,.1f} GB "
          f"(paper-scale)")
    print(f"selective trace size: {plan.selected_trace_bytes / 1e9:,.3f} GB")
    print(f"reduction:            {plan.reduction_factor * scale:,.0f}x")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import write_report

    path = write_report(args.output)
    print(f"report written to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Fault-tolerant corpus sweep: every cell, partial results, manifest."""
    harness = _harness_from_args(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    gpus = [g.strip() for g in args.gpus.split(",") if g.strip()] or [None]
    cells = [
        (spec.name, method, gpu)
        for spec in iter_workloads(args.suite)
        for method in methods
        for gpu in gpus
    ]
    try:
        results = harness.evaluate_cells(cells, strict=args.strict)
    except TaskFailureError as exc:
        # --strict: fail fast, but completed cells are already
        # checkpointed and the manifest recorded before the raise.
        print(f"sweep failed (strict): {exc}", file=sys.stderr)
        return 1
    completed = failed = skipped = 0
    # strict=True: a truncated result list would silently drop trailing
    # cells from the tally; a mismatch is a harness bug and must raise.
    for (workload, method, gpu), result in zip(cells, results, strict=True):
        label = f"{workload}:{method}" + (f"@{gpu}" if gpu else "")
        if isinstance(result, CellFailure):
            failed += 1
            print(
                f"  FAIL {label:44s} {result.kind}: {result.error_type}: "
                f"{result.message} ({result.attempts} attempts)"
            )
        elif result is None:
            skipped += 1
        else:
            completed += 1
    manifest = harness.last_manifest
    transferred = len((manifest or {}).get("transferred", ()))
    transfer_note = f", {transferred} by transfer" if transferred else ""
    predicted = len((manifest or {}).get("predicted", ()))
    predict_note = f", {predicted} by prediction" if predicted else ""
    print(
        f"sweep: {len(cells)} cells — {completed} completed"
        f"{transfer_note}{predict_note}, {skipped} not applicable, "
        f"{failed} failed"
    )
    if harness.semcache is not None:
        snap = harness.semcache.snapshot()
        print(
            f"semcache: {snap['index_apps']} app(s) indexed, "
            f"{snap['transfers']} transfer(s), "
            f"{snap['escalations']} escalation(s)"
        )
    if harness.predict is not None:
        snap = harness.predict.snapshot()
        print(
            f"predict: {snap['predictions']} prediction(s) "
            f"({snap['predictions_analytical']} analytical, "
            f"{snap['predictions_surrogate']} surrogate), "
            f"{snap['escalations']} escalation(s)"
        )
    if manifest is not None:
        print(f"sweep id: {manifest['sweep_id'][:16]}")
        if harness.run_cache.enabled:
            print(
                f"manifest: {harness.run_cache.root / 'manifests'}/"
                f"{manifest['sweep_id']}.json"
            )
    if failed:
        if harness.run_cache.enabled:
            print(
                "resume: re-run this command with the same --cache-dir; "
                "completed cells load from cache, only failed cells recompute"
            )
        else:
            print("tip: pass --cache-dir DIR to make this sweep resumable")
        return EXIT_PARTIAL
    return 0


def _parse_workers(text: object) -> int | str:
    """Parse a ``--workers`` value: a non-negative integer or ``auto``.

    ``auto`` selects the elastic fleet (autoscaling between the min/max
    band).  Anything else — negative numbers, floats, garbage — raises
    :class:`ValueError` with the accepted grammar in the message.
    """
    bare = str(text).strip().lower()
    if bare == "auto":
        return "auto"
    try:
        value = int(bare)
    except ValueError:
        raise ValueError(
            f"--workers must be a non-negative integer or 'auto', "
            f"got {text!r}"
        ) from None
    if value < 0:
        raise ValueError(f"--workers must be >= 0 or 'auto', got {value}")
    return value


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the evaluation service until SIGTERM/SIGINT, then drain.

    Both signals trigger the same graceful shutdown: stop accepting
    jobs (``/readyz`` flips to 503), finish everything accepted, write
    the drain manifest into the run cache, exit 0.  A drain that times
    out with jobs unfinished exits EXIT_PARTIAL instead.

    ``--workers auto`` (or any ``--min-workers``/``--max-workers``)
    selects the elastic fleet: the SLO-driven autoscaler grows and
    shrinks the pool between the min/max band.
    """
    import signal
    import threading

    from repro.service import AutoscalerConfig, PKAService

    harness = _harness_from_args(args)
    raw_workers = args.workers
    if raw_workers is None:
        raw_workers = os.environ.get("PKA_SERVICE_WORKERS") or "0"
    try:
        workers = _parse_workers(raw_workers)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    autoscale = None
    elastic = (
        workers == "auto"
        or args.min_workers is not None
        or args.max_workers is not None
    )
    if elastic:
        min_workers = args.min_workers if args.min_workers is not None else 1
        if args.max_workers is not None:
            max_workers = args.max_workers
        else:
            max_workers = max(min_workers, min(4, os.cpu_count() or 1))
        try:
            autoscale = AutoscalerConfig(
                min_workers=min_workers,
                max_workers=max_workers,
                interval=args.scale_interval,
                slo_queue_wait_s=args.slo_queue_wait,
            )
        except ValueError as exc:
            print(f"bad autoscale configuration: {exc}", file=sys.stderr)
            return 1
        if workers == "auto":
            workers = 0  # the service starts the pool at min_workers
    fleet = workers > 0 or autoscale is not None
    journal_path = args.journal
    if journal_path is None and not args.no_journal and fleet:
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir and not getattr(args, "no_cache", False):
            journal_path = os.path.join(cache_dir, "journal.jsonl")
    if args.no_journal:
        journal_path = None
    try:
        service = PKAService(
            harness,
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            batch_max=args.batch_max,
            drain_timeout=args.drain_timeout,
            workers=workers,
            journal_path=journal_path,
            retry_after=args.retry_after,
            autoscale=autoscale,
            default_deadline=args.default_deadline,
        )
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service.start()
    print(f"pka service listening on http://{service.host}:{service.port}")
    if harness.semcache is not None:
        print(
            "semcache: enabled (transfer threshold "
            f"{harness.semcache.config.transfer_threshold}, "
            f"max error bound {harness.semcache.config.max_error_bound})"
        )
    if harness.predict is not None:
        print(
            "predict: enabled (max error bound "
            f"{harness.predict.config.max_error_bound})"
        )
    if fleet:
        journal_note = journal_path if journal_path else "disabled"
        if autoscale is not None:
            print(
                f"fleet: elastic, {autoscale.min_workers}.."
                f"{autoscale.max_workers} worker(s) "
                f"(starting at {service.supervisor.workers}); "
                f"journal: {journal_note}"
            )
        else:
            print(f"fleet: {workers} worker(s); journal: {journal_note}")
    print(f"service id: {service.service_id}", flush=True)
    stop.wait()
    print("draining: refusing new jobs, finishing accepted work", flush=True)
    manifest, clean = service.drain()
    total = sum(manifest["states"].values())
    print(
        f"drained {total} job(s) {manifest['states']}; "
        f"manifest {manifest['service_id']}; clean={clean}",
        flush=True,
    )
    return 0 if clean else EXIT_PARTIAL


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running service and (by default) wait on it."""
    from repro.service import JobRequest, ServiceClient

    client = ServiceClient(args.host, args.port, timeout=min(args.timeout, 30.0))
    request = JobRequest(
        workload=args.workload,
        method=args.method,
        gpu=args.gpu,
        client=args.client,
        priority=args.priority,
        fault=args.fault,
    )
    document = client.submit(request)
    attached = "" if document.get("created", True) else " (attached to existing job)"
    print(f"job {document['job_id']}: {document['state']}{attached}")
    if args.no_wait:
        return 0
    final = client.wait(document["job_id"], timeout=args.timeout)
    latency = final.get("latency_ms")
    detail = (
        f" (source={final.get('source')}, latency={latency:.1f}ms)"
        if latency is not None
        else ""
    )
    print(f"job {final['job_id']}: {final['state']}{detail}")
    if final["state"] != "done":
        if final.get("error"):
            error = final["error"]
            print(
                f"  {error.get('error_type', 'error')}: "
                f"{error.get('message', '')}",
                file=sys.stderr,
            )
        return 1
    result = client.result(final["job_id"])
    if result["result_kind"] == "app_run":
        payload = result["result"]
        print(f"  total cycles: {payload['total_cycles']:.6g}")
        print(f"  instructions: {payload['total_instructions']:.6g}")
        transfer = result.get("transfer")
        if transfer:
            donors = ", ".join(transfer.get("transferred_from", ())) or "?"
            print(
                f"  transfer bound: {transfer['error_bound']:.3f} "
                f"(from {donors})"
            )
        predicted = result.get("predicted")
        if predicted:
            print(
                f"  prediction bound: {predicted['error_bound']:.3f} "
                f"(by {predicted.get('predicted_by', '?')} tier)"
            )
    elif result["result_kind"] == "selection":
        payload = result["result"]
        print(f"  groups (K): {payload['k']}")
        print(f"  launches:   {payload['total_launches']}")
    else:
        print(f"  result: {result['result_kind']}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running service with seeded load and report what happened."""
    import json as _json

    from repro.service import LoadConfig, ServiceClient, run_load

    client = ServiceClient(args.host, args.port, timeout=min(args.timeout, 30.0))
    try:
        config = LoadConfig(
            jobs=args.jobs,
            mode=args.mode,
            rate=args.rate,
            concurrency=args.concurrency,
            duplicate_ratio=args.duplicate_ratio,
            seed=args.seed,
            workloads=(
                tuple(w.strip() for w in args.workloads.split(",") if w.strip())
                if args.workloads
                else None
            ),
            methods=tuple(
                m.strip() for m in args.methods.split(",") if m.strip()
            ),
            gpus=(
                tuple(
                    None if g.strip().lower() == "none" else g.strip()
                    for g in args.gpus.split(",")
                    if g.strip()
                )
                if args.gpus
                else (None,)
            ),
            fault=args.fault,
            timeout=args.timeout,
            chaos=(
                tuple(c.strip() for c in args.chaos.split(",") if c.strip())
                if args.chaos
                else ()
            ),
            shape=args.shape,
            deadline_s=args.deadline,
        )
    except ValueError as exc:
        print(f"bad load configuration: {exc}", file=sys.stderr)
        return 1
    if not client.ready():
        print(
            f"service at {client.base_url} is not ready", file=sys.stderr
        )
        return 1
    report = run_load(client, config)
    document = report.to_document()
    print(
        f"submitted {report.submitted}  accepted {report.accepted}  "
        f"deduplicated {report.deduplicated}  rejected {report.rejected}  "
        f"shed {report.shed}"
    )
    print(
        f"completed {report.completed}  transferred {report.transferred}  "
        f"predicted {report.predicted}  "
        f"failed {report.failed}  quarantined {report.quarantined}  "
        f"cancelled {report.cancelled}  errors {report.errors}"
    )
    if report.chaos_events:
        for event in report.chaos_events:
            print(f"chaos: {event}")
    reconciliation = document["reconciliation"]
    print(
        "reconciliation: "
        f"balanced={reconciliation.get('balanced')}  "
        f"fresh={reconciliation.get('client_fresh_accepted')}  "
        f"server_submitted={reconciliation.get('server_jobs_submitted')}  "
        f"server_shed={reconciliation.get('server_jobs_shed')}"
    )
    latency = document["latency_ms"]
    if latency["p50"] is not None:
        tail = f"p50 {latency['p50']:.1f}ms  p95 {latency['p95']:.1f}ms"
    else:
        tail = "(no latency samples)"
    print(
        f"wall {report.wall_seconds:.2f}s  "
        f"throughput {report.throughput:.1f} jobs/s  {tail}"
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as stream:
            _json.dump(document, stream, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    return 0 if report.clean else EXIT_PARTIAL


def _cmd_table3(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)
    print(f"{'suite':10s} {'workload':30s} {'selected ids':24s} {'counts'}")
    for row in table3_pks_examples(harness):
        ids = ",".join(str(i) for i in row.selected_kernel_ids)
        counts = ",".join(str(c) for c in row.group_counts)
        print(f"{row.suite:10s} {row.workload:30s} {ids:24s} {counts}")
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)

    def fmt(value, unit="") -> str:
        return "*" if value is None else f"{value:.1f}{unit}"

    print(
        f"{'workload':28s} {'V err':>6s} {'V SU':>7s} {'T err':>6s} {'A err':>6s} "
        f"{'SimErr':>7s} {'PKS err':>8s} {'PKS H':>7s} {'PKA err':>8s} {'PKA H':>7s}"
    )
    for row in table4_rows(harness, suite=args.suite):
        print(
            f"{row.workload:28s} {fmt(row.silicon_error['volta']):>6s} "
            f"{fmt(row.silicon_speedup['volta'], 'x'):>7s} "
            f"{fmt(row.silicon_error['turing']):>6s} "
            f"{fmt(row.silicon_error['ampere']):>6s} "
            f"{fmt(row.sim_error):>7s} {fmt(row.pks_error):>8s} "
            f"{fmt(row.pks_sim_hours):>7s} {fmt(row.pka_error):>8s} "
            f"{fmt(row.pka_sim_hours):>7s}"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    harness = _harness_from_args(args)
    number = args.number
    if number == 1:
        for landscape in figure1_time_landscape(harness):
            print(
                f"{landscape.workload:30s} silicon={format_duration(landscape.silicon_seconds):>12s} "
                f"profiler={format_duration(landscape.detailed_profiling_seconds):>12s} "
                f"simulation={format_duration(landscape.full_simulation_seconds):>14s}"
            )
    elif number == 4:
        for group in figure4_group_composition(harness):
            names = ", ".join(
                f"{name}x{count}"
                for name, count in sorted(group.name_counts.items())
            )
            print(f"group {group.group_id} ({group.total_kernels} kernels): {names}")
    elif number == 5:
        for workload in ("atax", "bfs65536"):
            series = figure5_ipc_series(harness, workload)
            print(
                f"{workload}: {len(series.cycles)} windows, "
                f"stops={series.stop_points}"
            )
    elif number == 6:
        for row in figure6_simtime_reduction(harness):
            pks = "*" if row.pks_hours is None else f"{row.pks_hours:10.3f}"
            pka = "*" if row.pka_hours is None else f"{row.pka_hours:10.3f}"
            print(f"{row.workload:30s} full={row.full_hours:14.2f}H pks={pks}H pka={pka}H")
    elif number in (7, 8):
        aggregate = figure7_speedups(harness) if number == 7 else figure8_errors(harness)
        print(f"PKA     speedup geomean {aggregate.pka_speedup_geomean:6.2f}  mean error {aggregate.mean_error('pka'):6.1f}%")
        print(f"TBPoint speedup geomean {aggregate.tbpoint_speedup_geomean:6.2f}  mean error {aggregate.mean_error('tbpoint'):6.1f}%")
        print(f"1B      speedup geomean {aggregate.first1b_speedup_geomean:6.2f}  mean error {aggregate.mean_error('first1b'):6.1f}%")
        print(f"FullSim                          mean error {aggregate.mean_error('full'):6.1f}%")
    elif number in (9, 10):
        study = (
            figure9_volta_over_turing(harness)
            if number == 9
            else figure10_half_sms(harness)
        )
        for method, value in study.geomeans.items():
            print(f"{method:10s} geomean speedup {value:.2f}")
        for method, value in study.mae_wrt_silicon.items():
            print(f"{method:10s} MAE wrt silicon {value:.2f}")
    else:
        print(f"unknown figure {number}; choose 1, 4, 5, 6, 7, 8, 9 or 10")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pka", description="Principal Kernel Analysis reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Execution flags shared by every command (parsed per-subcommand so
    # they can appear after the command name, the way pytest flags do).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="execution backend: 'serial' (default), 'auto' or a worker count",
    )
    common.add_argument(
        "--intra-jobs",
        default=None,
        metavar="N",
        help="intra-run backend: shard one run's kernel stream and "
        "block ranges across 'serial', 'auto' or N workers (default: "
        "inherit --jobs); results are bit-identical for every setting",
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk run cache shared across invocations",
    )
    common.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir for this invocation",
    )
    common.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the run cache: least-recently-used entries are "
        "evicted once on-disk size exceeds BYTES",
    )
    common.add_argument(
        "--semcache",
        action="store_true",
        help="semantic cache: answer digest misses whose kernels are "
        "covered by already-simulated clusters via similarity transfer "
        "(requires --cache-dir to persist the index across invocations)",
    )
    common.add_argument(
        "--transfer-threshold",
        type=float,
        default=None,
        metavar="DIST",
        help="semantic cache coverage radius: maximum mean log-counter "
        "distance a kernel group may have from its nearest indexed "
        "cluster to be answered by transfer (default 0.25; requires "
        "--semcache)",
    )
    common.add_argument(
        "--predict",
        action="store_true",
        help="prediction tiers: answer cold full-sim cells from the "
        "analytical model or the learned cycle surrogate when the "
        "modeled error bound is tight enough, escalating to the DES "
        "otherwise (calibrates online from computed runs)",
    )
    common.add_argument(
        "--predict-max-bound",
        type=float,
        default=None,
        metavar="FRAC",
        help="prediction serving threshold: maximum modeled relative "
        "error bound an estimate may advertise and still be served "
        "instead of escalating to the DES (default 0.35; requires "
        "--predict)",
    )
    common.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="fault policy: retries per failing cell; in fleet mode, "
        "re-dispatches per job after failed attempts (default 2)",
    )
    common.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fault policy: wall-clock timeout per cell attempt",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on the first cell failure instead of quarantining it",
    )
    common.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="chaos testing: e.g. 'exception@3,crash@7x99,hang@11'",
    )
    common.add_argument(
        "--lenient",
        action="store_true",
        help="lenient validation: sanitize degenerate inputs and record "
        "diagnostics instead of raising InputValidationError",
    )
    common.add_argument(
        "--trace",
        action="store_true",
        help="enable structured tracing and print a span/counter summary",
    )
    common.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome-trace event file to FILE and a JSON run "
        "summary next to it (implies --trace)",
    )
    # The service's address, shared by the server and its two clients.
    address = argparse.ArgumentParser(add_help=False)
    address.add_argument("--host", default="127.0.0.1")
    address.add_argument(
        "--port",
        type=int,
        default=8471,
        help="listen port (0 binds an ephemeral port; default 8471)",
    )
    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--timeout", type=float, default=120.0)

    subparsers.add_parser(
        "list", help="list the workload corpus", parents=[common]
    )

    characterize = subparsers.add_parser(
        "characterize",
        help="run PKA characterization on one workload",
        parents=[common],
    )
    characterize.add_argument("workload")
    characterize.add_argument(
        "--save", default=None, help="write the selection to a JSON file"
    )

    simulate = subparsers.add_parser(
        "simulate", help="sampled simulation of one workload", parents=[common]
    )
    simulate.add_argument("workload")
    simulate.add_argument("--no-pkp", action="store_true", help="PKS only")
    simulate.add_argument("--gpu", default="volta")

    subparsers.add_parser("table3", help="regenerate Table 3", parents=[common])
    table4 = subparsers.add_parser(
        "table4", help="regenerate Table 4", parents=[common]
    )
    table4.add_argument("--suite", default=None)

    figure = subparsers.add_parser(
        "figure", help="regenerate one figure", parents=[common]
    )
    figure.add_argument("number", type=int)

    compare = subparsers.add_parser(
        "compare",
        help="all methods on one workload, side by side",
        parents=[common],
    )
    compare.add_argument("workload")

    inspect = subparsers.add_parser(
        "inspect",
        help="bottleneck/mix breakdown of one workload",
        parents=[common],
    )
    inspect.add_argument("workload")
    inspect.add_argument(
        "--micro",
        action="store_true",
        help="add warp-level microsimulator reports per distinct kernel",
    )

    validate = subparsers.add_parser(
        "validate",
        help="check the corpus's structural invariants (or trace files)",
        parents=[common],
    )
    validate.add_argument("--suite", default=None)
    validate.add_argument(
        "--traces",
        default=None,
        metavar="DIR",
        help="validate .pkatrace files in DIR instead of the built-in corpus",
    )

    phases = subparsers.add_parser(
        "phases",
        help="behavioural phase decomposition of one workload",
        parents=[common],
    )
    phases.add_argument("workload")

    project = subparsers.add_parser(
        "project",
        help="price a selection on every known GPU",
        parents=[common],
    )
    project.add_argument("workload")

    sweep = subparsers.add_parser(
        "sweep-k", help="show PKS's K sweep", parents=[common]
    )
    sweep.add_argument("workload")

    trace_plan = subparsers.add_parser(
        "trace-plan",
        help="selective-tracing plan for one workload",
        parents=[common],
    )
    trace_plan.add_argument("workload")

    report = subparsers.add_parser(
        "report",
        help="render the full evaluation as markdown",
        parents=[common],
    )
    report.add_argument("--output", default="pka_report.md")

    sweep_cmd = subparsers.add_parser(
        "sweep",
        help="fault-tolerant workload x method x GPU sweep with resume",
        parents=[common],
    )
    sweep_cmd.add_argument("--suite", default=None)
    sweep_cmd.add_argument(
        "--methods",
        default="silicon,pka_sim",
        help="comma-separated cell methods (default: silicon,pka_sim)",
    )
    sweep_cmd.add_argument(
        "--gpus",
        default="volta",
        help="comma-separated GPU generations (default: volta)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the evaluation service (JSON HTTP API over the harness)",
        parents=[common, address],
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="queue depth bound; beyond it submissions get HTTP 429",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=32,
        metavar="N",
        help="max jobs coalesced into one backend fan-out",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown budget for finishing accepted jobs",
    )
    serve.add_argument(
        "--workers",
        default=None,
        metavar="N|auto",
        help="fleet mode: N supervised worker processes execute jobs; "
        "'auto' enables the elastic fleet with autoscaling defaults "
        "(default: PKA_SERVICE_WORKERS or 0 = in-process dispatch)",
    )
    serve.add_argument(
        "--min-workers",
        type=int,
        default=None,
        metavar="N",
        help="elastic fleet: never shrink below N workers (implies "
        "autoscaling; default 1)",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="elastic fleet: never grow beyond N workers (implies "
        "autoscaling; default min(4, cpu count))",
    )
    serve.add_argument(
        "--scale-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="autoscaler control-loop sampling period",
    )
    serve.add_argument(
        "--slo-queue-wait",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="queue-wait SLO: a job queued longer than this is a "
        "scale-up breach",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline-aware admission: shed submissions whose predicted "
        "queue wait exceeds this (clients may override per job with "
        "'deadline_s'; default: no deadline)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="job journal path for durable recovery across restarts "
        "(default in fleet mode: <cache-dir>/journal.jsonl)",
    )
    serve.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the job journal even in fleet mode",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After advice attached to shedding (429/503) responses",
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit one job to a running service and wait for the result",
        parents=[address, client],
    )
    submit.add_argument("workload")
    submit.add_argument("method")
    submit.add_argument("--gpu", default=None)
    submit.add_argument("--client", default="cli")
    submit.add_argument("--priority", type=int, default=1)
    submit.add_argument(
        "--fault",
        default=None,
        metavar="SPEC",
        help="chaos passthrough: inject 'exception'/'hang'/'crash' "
        "(append xN or xP for persistent) into this job's execution",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="submit and exit without polling for the terminal state",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a running service with seeded open/closed-loop load",
        parents=[address, client],
    )
    loadgen.add_argument(
        "--jobs", type=int, default=20, help="number of submissions"
    )
    loadgen.add_argument("--mode", choices=("open", "closed"), default="open")
    loadgen.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="open loop: submissions per second",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4, help="closed loop: worker count"
    )
    loadgen.add_argument(
        "--duplicate-ratio",
        type=float,
        default=0.0,
        help="fraction of submissions repeating an earlier request verbatim",
    )
    loadgen.add_argument("--seed", type=int, default=20260807)
    loadgen.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload pool (default: the whole corpus)",
    )
    loadgen.add_argument(
        "--methods",
        default="silicon",
        help="comma-separated method pool (default: silicon)",
    )
    loadgen.add_argument(
        "--gpus",
        default=None,
        help="comma-separated GPU pool sampled per request ('none' for "
        "the workload default; default: none)",
    )
    loadgen.add_argument(
        "--shape",
        default="constant",
        metavar="SPEC",
        help="open-loop arrival pattern: constant, burst:<factor>@<t>, "
        "ramp:<r>, or diurnal:<period>",
    )
    loadgen.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="attach this admission deadline (deadline_s) to every "
        "submission",
    )
    loadgen.add_argument(
        "--fault",
        default=None,
        metavar="SPEC",
        help="attach this fault spec to one submission (and its duplicates)",
    )
    loadgen.add_argument(
        "--chaos",
        default=None,
        metavar="SPECS",
        help="comma-separated chaos schedule, e.g. "
        "'kill-worker@0.5,kill-coordinator@2' (offsets in seconds from "
        "the start of the run; requires a co-hosted fleet-mode service)",
    )
    loadgen.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the full JSON load report to FILE",
    )

    return parser


def _emit_trace(args: argparse.Namespace, trace_out: str | None) -> None:
    """Print the span/counter summary and write --trace-out artifacts."""
    from repro import obs

    tracer = obs.get_tracer()
    print()
    print(obs.summary_table(tracer))
    if trace_out is None:
        return
    trace_path = obs.write_chrome_trace(trace_out, tracer)
    harness = getattr(args, "_harness", None)
    manifest = harness.last_manifest if harness is not None else None
    summary_path = obs.write_run_summary(
        obs.run_summary_path(trace_out), tracer, manifest=manifest
    )
    print(f"trace written to {trace_path}")
    print(f"run summary written to {summary_path}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A tier knob without its tier would be silently ignored.
    for knob, flag, tier in (
        ("transfer_threshold", "--transfer-threshold", "semcache"),
        ("predict_max_bound", "--predict-max-bound", "predict"),
    ):
        if getattr(args, knob, None) is not None and not getattr(args, tier):
            parser.error(f"{flag} requires --{tier}")
    handlers = {
        "list": _cmd_list,
        "characterize": _cmd_characterize,
        "simulate": _cmd_simulate,
        "table3": _cmd_table3,
        "table4": _cmd_table4,
        "figure": _cmd_figure,
        "compare": _cmd_compare,
        "inspect": _cmd_inspect,
        "validate": _cmd_validate,
        "phases": _cmd_phases,
        "project": _cmd_project,
        "sweep-k": _cmd_sweep_k,
        "trace-plan": _cmd_trace_plan,
        "report": _cmd_report,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "loadgen": _cmd_loadgen,
    }
    trace_out = getattr(args, "trace_out", None)
    tracing = bool(getattr(args, "trace", False)) or trace_out is not None
    if tracing:
        from repro import obs

        obs.enable()
    try:
        # get_workload raises WorkloadError with a clear message for typos.
        if getattr(args, "workload", None) is not None:
            get_workload(args.workload)
        code = handlers[args.command](args)
        if tracing:
            _emit_trace(args, trace_out)
        return code
    except KeyboardInterrupt:
        # Completed cells were checkpointed into the run cache as they
        # finished, so nothing computed so far is lost.
        print("\ninterrupted", file=sys.stderr)
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir and not getattr(args, "no_cache", False):
            print(
                f"resume: re-run the same command with --cache-dir {cache_dir}; "
                "completed cells load from cache, only missing cells recompute",
                file=sys.stderr,
            )
        else:
            print(
                "tip: pass --cache-dir DIR to make interrupted runs resumable",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    except ReproError as exc:
        # Typed domain errors (unknown workload/GPU, bad config, an
        # unreachable service, ...) are user-facing: message + exit 1,
        # never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracing:
            # main() is also called in-process (tests); don't leak an
            # enabled tracer into the caller.
            from repro import obs

            obs.reset()


if __name__ == "__main__":
    sys.exit(main())
