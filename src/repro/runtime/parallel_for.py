"""The data-parallel loop target pattern.

``parallel_for`` executes independent loop iterations on a worker pool,
honouring the DOALL tuning parameters (``NumWorkers``, ``ChunkSize``,
``Schedule``, ``SequentialExecution`` — and, since the backend layer,
``Backend``).  Results are collected in index order — the "ordered
collector" transformation for ``out.append(...)`` loops — and
``parallel_reduce`` implements the reduction idiom with an associative
combiner.

Three execution substrates (see :mod:`repro.runtime.backend`):
``serial`` runs in the calling thread, ``thread`` on a supervised thread
pool (no GIL relief, but zero setup cost), ``process`` on a
``multiprocessing`` pool — real multicore speedup for CPU-bound bodies.
A body that cannot cross the process boundary is detected up front and
downgraded to the thread backend with a recorded
:class:`~repro.runtime.backend.BackendEvent` — never a crash.

Workers are supervised: once any worker records an error — or a shared
:class:`~repro.runtime.faults.CancellationToken` fires — the pool stops
claiming new chunks instead of running the full remaining input.  A
:class:`~repro.runtime.faults.FaultPolicy` can wrap the loop body
(``Retries@loop`` / ``ItemTimeout@loop`` / ``OnError@loop`` in a tuning
file); ``skip`` and ``fallback`` substitute the policy's fallback value
for poison elements so the result list keeps its length and order.  All
backends feed the same optional ``ledger`` of
:class:`~repro.runtime.faults.ErrorRecord` entries, so fault accounting
is backend-independent.
"""

from __future__ import annotations

import contextlib
import pickle
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.adaptive import (
    SCHEDULES,
    AdaptiveController,
    WaveJournal,
    WaveResult,
    plan_chunks,
    plan_fixed,
    plan_guided,
    run_adaptive,
)
from repro.runtime.backend import (
    BackendEvent,
    ProcessPayload,
    RecoveryEvent,
    TuningError,
    build_process_payload,
    downgrade,
    downgrade_transport,
    get_session,
    normalize_backend,
    run_process_chunks,
)
from repro.runtime.chaos import ChaosInjector
from repro.runtime.checkpoint import CheckpointError, ChunkJournal
from repro.runtime.faults import (
    CancellationToken,
    CancelledError,
    ErrorRecord,
    FaultPolicy,
    raise_if_stopped,
)
from repro.runtime.metrics import (
    MetricsRegistry,
    count_outcome,
    resolve_registry,
)
from repro.runtime.profiler import SamplingProfiler, resolve_profiler
from repro.runtime.shm import ShmInput, ShmOutput, normalize_transport
from repro.runtime.trace import TraceCollector, resolve_collector

#: fixed-stride planning (kept under its historical private name; the
#: planner family lives in :mod:`repro.runtime.adaptive` now)
_chunks = plan_fixed


def _validate(workers: int, chunk_size: int, schedule: str) -> None:
    if workers <= 0:
        raise TuningError(
            f"NumWorkers must be >= 1, got {workers} "
            "(an empty pool would hang the collector)"
        )
    if chunk_size <= 0:
        raise TuningError(f"ChunkSize must be >= 1, got {chunk_size}")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")


def _resolve_plan(
    n: int,
    chunk_size: int,
    schedule: str,
    workers: int,
    checkpoint: ChunkJournal | None,
) -> list[tuple[int, int]]:
    """The run's chunk descriptors, honoring a resumed journal's plan.

    ``static``/``dynamic`` plans are a pure function of ``(n,
    chunk_size)``, so they are recomputed (and always equal what an
    earlier run journaled).  Variable-size plans (``guided``, and the
    serial degradation of ``adaptive``) depend on worker count and
    feedback, so a resumed journal's ``plan`` records are
    authoritative: the journaled descriptors are replayed verbatim —
    that is what keeps chunk indices naming the same element ranges
    across the resume — and any uncovered tail (a run killed before it
    finished planning) is extended with the guided shrink and
    journaled.  Fresh plans are journaled before dispatch when a
    checkpoint is attached.
    """
    if schedule in ("static", "dynamic"):
        return plan_fixed(n, chunk_size)
    planned = checkpoint.planned() if checkpoint is not None else {}
    if not planned:
        bounds = plan_chunks(n, chunk_size, schedule, workers)
        if checkpoint is not None:
            checkpoint.plan(0, bounds)
        return bounds
    bounds = []
    end = 0
    for i, k in enumerate(sorted(planned)):
        lo, hi = planned[k]
        if k != i or lo != end or hi < lo:
            raise CheckpointError(
                f"journal {checkpoint.path} holds a non-contiguous plan "
                f"(chunk {k} spans [{lo}, {hi}) after element {end})"
            )
        bounds.append((lo, hi))
        end = hi
    if end < n:
        tail = plan_guided(n, chunk_size, workers, start=end)
        checkpoint.plan(len(bounds), tail)
        bounds.extend(tail)
    return bounds


def _stopped(
    errors: list[BaseException], cancel: CancellationToken | None
) -> bool:
    return bool(errors) or (cancel is not None and cancel.cancelled)


def _record(
    ledger: list[ErrorRecord] | None,
    lock: threading.Lock | None,
    seq: int,
    error: BaseException,
    attempts: int,
) -> None:
    if ledger is None:
        return
    record = ErrorRecord("loop", seq, error, attempts)
    if lock is not None:
        with lock:
            ledger.append(record)
    else:
        ledger.append(record)


def _make_element(
    body: Callable[[Any], Any],
    policy: FaultPolicy | None,
    cancel: CancellationToken | None,
    ledger: list[ErrorRecord] | None,
    lock: threading.Lock | None,
    trace: TraceCollector | None = None,
    stage: str = "loop",
    metrics: MetricsRegistry | None = None,
) -> Callable[[int, Any], Any]:
    """The per-element runner shared by the serial and thread paths.

    Applies the fault policy and feeds the ledger, so serial, thread and
    process runs of the same workload produce the same error records —
    and, when ``trace`` is set, the same span shapes the process workers
    emit in :func:`~repro.runtime.backend._run_map_chunk`.  ``metrics``
    mirrors the worker-side counter accounting
    (:func:`~repro.runtime.metrics.count_chunk_counters`) element by
    element, so counter totals agree across backends.
    """
    if policy is None and trace is None and metrics is None:
        # the fully-disabled runner is specialized at build time: no
        # trace/metrics branches (not even an ``is None``), no clock read
        def plain(seq: int, value: Any) -> Any:
            try:
                return body(value)
            except CancelledError:
                raise
            except BaseException as exc:
                _record(ledger, lock, seq, exc, 1)
                raise

        return plain

    # resolve the hot-path series once per loop, not once per element:
    # the common outcome (delivered, no retries) then pays one lock+add
    delivered = (
        metrics.counter("elements_delivered", stage=stage)
        if metrics is not None
        else None
    )

    def element(seq: int, value: Any) -> Any:
        if policy is None:
            started = time.monotonic() if trace is not None else 0.0
            try:
                result = body(value)
                if delivered is not None:
                    delivered.inc()
                if trace is not None:
                    trace.add("execute", stage, seq, started, attempt=1)
                return result
            except CancelledError:
                raise
            except BaseException as exc:
                if metrics is not None:
                    count_outcome(metrics, stage, "failed")
                if trace is not None:
                    trace.add(
                        "execute", stage, seq, started,
                        attempt=1, error=repr(exc),
                    )
                _record(ledger, lock, seq, exc, 1)
                raise
        outcome = policy.execute(
            body, value, cancel=cancel, trace=trace, stage=stage, seq=seq,
            metrics=metrics,
        )
        if metrics is not None:
            if outcome.action == "delivered" and not outcome.retried:
                delivered.inc()
            else:
                count_outcome(metrics, stage, outcome.action, outcome.retried)
        if outcome.error is not None:
            _record(ledger, lock, seq, outcome.error, outcome.attempts)
        if outcome.action == "failed":
            raise outcome.error
        # skip in a map context degrades to fallback: the result list
        # keeps its length and order
        return outcome.value

    return element


def _assemble_process_run(
    run,
    chunks: list[tuple[int, int]],
    results: list[Any] | None,
    ledger: list[ErrorRecord] | None,
    chaos: ChaosInjector | None,
    cancel: CancellationToken | None,
    trace: TraceCollector | None = None,
    stage: str = "loop",
    completed: frozenset[int] = frozenset(),
) -> None:
    """Fold a :class:`~repro.runtime.backend.ProcessRun` into caller state.

    Fills ``results`` slots per chunk, reconstructs ledger records and
    chaos counters, and re-raises in the same priority order the thread
    pool uses: first element error, then cancellation, then
    pool-infrastructure failure.  (Worker telemetry was already absorbed
    by the collector, behind its dedup.)
    """
    first_error: BaseException | None = None
    first_error_chunk: int | None = None
    for k in sorted(run.chunks):
        chunk = run.chunks[k]
        lo, _hi = chunks[k]
        if results is not None:
            for offset, value in enumerate(chunk.values):
                results[lo + offset] = value
        for seq, error, attempts, _action in chunk.records:
            if ledger is not None:
                ledger.append(ErrorRecord("loop", seq, error, attempts))
        if chunk.failed and first_error is None:
            for _seq, error, _attempts, action in chunk.records:
                if action == "failed":
                    first_error = error
                    first_error_chunk = k
                    break
        if chaos is not None and chunk.chaos:
            chaos.absorb(chunk.chaos)
    raise_if_stopped(
        [first_error] if first_error is not None else [],
        cancel, trace=trace, stage=stage,
    )
    if run.fatal:
        raise RuntimeError(f"worker process failed to start: {run.fatal[0]}")
    missing = run.missing(len(chunks), completed)
    if missing:
        raise RuntimeError(
            f"worker pool lost {len(missing)} chunk(s) "
            f"(first: {missing[0]}, chunk {first_error_chunk}); "
            f"leaked={run.leaked}"
        )


def _adaptive_for(
    vals: list[Any],
    raw_body: Callable[[Any], Any],
    *,
    workers: int,
    chunk_size: int,
    cancel: CancellationToken | None,
    policy: FaultPolicy | None,
    effective: str,
    chaos: ChaosInjector | None,
    ledger: list[ErrorRecord] | None,
    events: list[BackendEvent] | None,
    trace: TraceCollector | None,
    restarts: int,
    hedge: float,
    recovery: list[RecoveryEvent] | None,
    checkpoint: ChunkJournal | None,
    journal_done: dict[int, tuple[int, int, list[Any]]],
    plane: str,
    reuse: bool,
    metrics: MetricsRegistry | None,
    profiler: SamplingProfiler | None = None,
) -> list[Any]:
    """The ``Schedule=adaptive`` road: wave dispatch with in-run re-tuning.

    The :class:`~repro.runtime.adaptive.AdaptiveController` plans the
    iteration space wave by wave; each wave is one pool call (process
    backend: the existing chunk collector with a caller-owned warm
    :class:`~repro.runtime.backend.PoolSession`, resized between waves;
    thread backend: a shared-counter wave executor), and the wave's
    per-chunk claim-to-delivery latencies feed the controller before
    the next wave is planned.  Chunk indices are global and journaled
    plan-ahead, so checkpoint/resume replays planned-but-unfinished
    descriptors under their original identity.  Recovery budgets
    (``restarts``, ``hedge``) apply per wave — each wave is one pool
    call, and that is the granularity the collector's ledger supervises.
    """
    n = len(vals)
    results: list[Any] = [None] * n
    for _k, (lo, _hi, done_vals) in journal_done.items():
        for offset, value in enumerate(done_vals):
            results[lo + offset] = value
    planned = checkpoint.planned() if checkpoint is not None else {}
    replay = {k: b for k, b in planned.items() if k not in journal_done}
    base = (max(planned) + 1) if planned else 0
    start = max((hi for _lo, hi in planned.values()), default=0)
    controller = AdaptiveController(
        n, chunk_size, workers, start=start,
        trace=trace, metrics=metrics, label="loop",
    )
    if controller.done and not replay:
        return results

    if effective == "process":
        shm_in = None
        input_spec = None
        if plane == "shm":
            shm_in, why = ShmInput.build(vals)
            if shm_in is None:
                downgrade_transport(why, events, trace=trace)
            else:
                input_spec = ("shm", shm_in.spec())
        try:
            payload, reason = build_process_payload(
                raw_body, vals, [], policy=policy, chaos=chaos,
                label="loop", trace=trace, metrics=metrics,
                profiler=profiler, input_spec=input_spec, out_spec=None,
            )
            if payload is None:
                effective = downgrade(
                    "process", "thread", reason, events, trace=trace
                )
            else:
                if input_spec is None:
                    input_spec = ("inline", list(vals))
                session = None
                if reuse:
                    candidate = get_session(workers)
                    if candidate.lock.acquire(blocking=False):
                        session = candidate
                    if metrics is not None:
                        metrics.inc(
                            "pool_warm_hits" if session is not None
                            else "pool_warm_misses",
                            stage="loop",
                        )
                original_width = (
                    session.nworkers if session is not None else None
                )

                def dispatch_process(
                    bounds: list[tuple[int, int]],
                    indices: list[int],
                    width: int,
                ) -> WaveResult:
                    # one pool call per wave: same kernel blob (shipped
                    # once per warm worker), fresh per-wave call blob
                    # carrying this wave's descriptors
                    if session is not None:
                        session.resize(width)
                    wave_payload = ProcessPayload(
                        payload.kernel_blob,
                        pickle.dumps(
                            (input_spec, None, list(bounds)),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                        payload.digest,
                    )
                    started = time.monotonic()
                    run = run_process_chunks(
                        wave_payload,
                        bounds,
                        workers=width,
                        schedule="adaptive",
                        cancel=cancel,
                        max_restarts=restarts,
                        hedge=hedge,
                        trace=trace,
                        label="loop",
                        checkpoint=(
                            WaveJournal(checkpoint, indices)
                            if checkpoint is not None else None
                        ),
                        reuse=False,
                        session=session,
                        metrics=metrics,
                        profiler=profiler,
                    )
                    if recovery is not None:
                        recovery.extend(run.recovery)
                    _assemble_process_run(
                        run, list(bounds), results, ledger, chaos, cancel,
                        trace=trace,
                    )
                    return WaveResult(
                        latencies=dict(run.latencies),
                        elapsed=time.monotonic() - started,
                    )

                try:
                    run_adaptive(
                        controller, dispatch_process,
                        journal=checkpoint, replay=replay, base=base,
                    )
                finally:
                    if session is not None:
                        # the registry keys sessions by width: restore
                        # it before releasing so the key stays truthful
                        session.resize(original_width)
                        session.lock.release()
                return results
        finally:
            if shm_in is not None:
                shm_in.dispose()

    # thread substrate (or the recorded downgrade road from above)
    body = raw_body
    if chaos is not None:
        if trace is not None:
            chaos.trace = trace
        if metrics is not None:
            chaos.metrics = metrics
        body = chaos.wrap(raw_body, name="loop")
    ledger_lock = threading.Lock() if ledger is not None else None
    element = _make_element(
        body, policy, cancel, ledger, ledger_lock, trace, metrics=metrics
    )

    def dispatch_threads(
        bounds: list[tuple[int, int]], indices: list[int], width: int
    ) -> WaveResult:
        errors: list[BaseException] = []
        latencies: dict[int, float] = {}
        wave_lock = threading.Lock()
        claim = [0]
        wave_started = time.monotonic()

        def wave_worker() -> None:
            try:
                while True:
                    if _stopped(errors, cancel):
                        return
                    with wave_lock:
                        j = claim[0]
                        if j >= len(bounds):
                            return
                        claim[0] += 1
                    lo, hi = bounds[j]
                    if metrics is not None:
                        metrics.inc("chunks_dispatched", stage="loop")
                    t0 = time.monotonic()
                    if profiler is not None:
                        with profiler.work("loop", indices[j]):
                            for i in range(lo, hi):
                                results[i] = element(i, vals[i])
                    else:
                        for i in range(lo, hi):
                            results[i] = element(i, vals[i])
                    dur = time.monotonic() - t0
                    with wave_lock:
                        latencies[j] = dur
                    if metrics is not None:
                        metrics.inc("chunks_completed", stage="loop")
                        metrics.histogram(
                            "chunk_latency_seconds", stage="loop"
                        ).observe(dur)
                    if checkpoint is not None:
                        k = indices[j]
                        checkpoint.record(k, lo, hi, results[lo:hi])
                        if trace is not None:
                            trace.instant("checkpoint", "loop", lo, chunk=k)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=wave_worker, daemon=True)
            for _ in range(max(1, min(width, len(bounds))))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raise_if_stopped(errors, cancel, trace=trace)
        return WaveResult(
            latencies=latencies, elapsed=time.monotonic() - wave_started
        )

    run_adaptive(
        controller, dispatch_threads,
        journal=checkpoint, replay=replay, base=base,
    )
    return results


def parallel_for(
    values: Iterable[Any],
    body: Callable[[Any], Any],
    workers: int = 4,
    chunk_size: int = 1,
    schedule: str = "dynamic",
    sequential: bool = False,
    sequential_threshold: int = 0,
    cancel: CancellationToken | None = None,
    policy: FaultPolicy | None = None,
    backend: str = "thread",
    chaos: ChaosInjector | None = None,
    ledger: list[ErrorRecord] | None = None,
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    shared_writes: Sequence[str] = (),
    restarts: int | None = None,
    hedge: float = 0.0,
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    transport: str = "pickle",
    reuse: bool = False,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> list[Any]:
    """Apply ``body`` to every value; return results in input order.

    ``schedule="static"`` pre-assigns chunks round-robin to workers;
    ``"dynamic"`` lets workers pull the next chunk from a shared
    counter.  ``"guided"`` plans geometrically shrinking descriptors
    (``ChunkSize`` becomes the minimum chunk) claimed from the same
    counter; ``"adaptive"`` dispatches in waves and re-tunes chunk size
    and pool width mid-run from per-chunk latency feedback (see
    :mod:`repro.runtime.adaptive`; on the serial path it degrades to
    the guided plan).  ``sequential=True`` (the SequentialExecution
    parameter), a
    ``backend="serial"``, or a stream shorter than
    ``sequential_threshold`` falls back to a plain loop so the
    transformed program is never slower than the original.

    ``chaos`` injects seeded faults (worker-side under the process
    backend); ``ledger`` collects every element-level
    :class:`~repro.runtime.faults.ErrorRecord`; ``events`` collects
    backend downgrade decisions.  ``trace`` records per-element spans
    (defaults to the active :func:`~repro.runtime.trace.trace_session`,
    if any).  ``shared_writes`` names containers the body mutates in
    place; a non-empty value pins execution off the process backend —
    worker-side mutations of a pickled copy would be silently lost — via
    a recorded downgrade.

    Resilience (see :mod:`repro.runtime.backend`): ``restarts`` bounds
    process-pool worker respawns after a crash (``PoolRestarts@loop``;
    defaults to ``policy.pool_restarts``), ``hedge`` in ``(0, 1]``
    speculatively re-dispatches chunks above that latency quantile
    (``Hedge@loop``), ``recovery`` collects the run's
    :class:`~repro.runtime.backend.RecoveryEvent` history, and
    ``checkpoint`` is a :class:`~repro.runtime.checkpoint.ChunkJournal`:
    completed chunks are journaled as they are delivered (every backend)
    and a journal opened with ``ChunkJournal.resume`` skips its
    already-completed chunks.

    Data plane (process backend only): ``transport="shm"``
    (``Transport@loop``) places flat numeric inputs in a
    :mod:`multiprocessing.shared_memory` block and collects fixed-width
    results from a preallocated region instead of pickling data through
    the result queue; non-qualifying data downgrades to the pickle
    transport with a recorded :class:`BackendEvent`.  ``reuse=True``
    (``PoolReuse@loop``) runs the call on a warm
    :class:`~repro.runtime.backend.PoolSession` that keeps workers alive
    across calls and ships each distinct kernel once.

    ``metrics`` is a :class:`~repro.runtime.metrics.MetricsRegistry`
    (``Metrics@loop``; defaults to the active
    :func:`~repro.runtime.metrics.metrics_session`, if any): chunk and
    element counters land in it on every backend — worker-side registries
    merge back over the chunk result road — so counter totals are
    backend-independent.  ``None`` (the default) keeps the hot paths to
    one ``is None`` check.

    ``profiler`` is a :class:`~repro.runtime.profiler.SamplingProfiler`
    (``Profile@loop``; defaults to the active
    :func:`~repro.runtime.profiler.profile_session`, if any): workers
    register per-chunk work markers, folded stacks travel the chunk
    result road, and sample accounting inherits the same exactly-once
    dedup as metrics.  Chunk-granular on every backend, so the
    per-element hot path never sees it.
    """
    _validate(workers, chunk_size, schedule)
    plane = normalize_transport(transport)
    if not 0.0 <= hedge <= 1.0:
        raise TuningError(f"Hedge must be a quantile in [0, 1], got {hedge}")
    if restarts is None:
        restarts = policy.pool_restarts if policy is not None else 0
    if restarts < 0:
        raise TuningError(f"PoolRestarts must be >= 0, got {restarts}")
    effective = normalize_backend(backend)
    trace = resolve_collector(trace)
    metrics = resolve_registry(metrics)
    profiler = resolve_profiler(profiler)
    raw_body = body

    vals = list(values)
    n = len(vals)
    go_serial = (
        effective == "serial"
        or sequential
        or n <= sequential_threshold
        or workers <= 1
        or n == 0
    )

    if effective == "process" and shared_writes:
        effective = downgrade(
            "process",
            "thread",
            "body mutates shared container(s) in place: "
            + ", ".join(sorted(set(shared_writes))),
            events,
            trace=trace,
        )

    # A resumed journal's completed chunks are prefilled and never
    # re-executed; chunks completed by *this* run are journaled as they
    # are delivered, on every backend.  Prefill uses the *journaled*
    # bounds, not ``index * chunk_size`` — variable-size schedules make
    # the latter a lie.
    journal_done: dict[int, tuple[int, int, list[Any]]] = {}
    if checkpoint is not None and n:
        if metrics is not None:
            checkpoint.metrics = metrics
        checkpoint.bind(n, chunk_size, "loop", schedule=schedule)
        journal_done = checkpoint.completed_ranges()
        if trace is not None and journal_done:
            trace.instant(
                "checkpoint", "loop", -1,
                resumed=len(journal_done), path=str(checkpoint.path),
            )
    journal_skip = frozenset(journal_done)

    if not go_serial and schedule == "adaptive":
        return _adaptive_for(
            vals, raw_body,
            workers=workers, chunk_size=chunk_size, cancel=cancel,
            policy=policy, effective=effective, chaos=chaos,
            ledger=ledger, events=events, trace=trace, restarts=restarts,
            hedge=hedge, recovery=recovery, checkpoint=checkpoint,
            journal_done=journal_done, plane=plane, reuse=reuse,
            metrics=metrics, profiler=profiler,
        )

    # every non-adaptive road — process, thread, serial-with-checkpoint
    # — executes this one plan, so the descriptor count is known up
    # front; ``chunks_planned`` counts the descriptors *this* run will
    # execute (a resumed journal's completed chunks are not re-planned),
    # the right-hand side of the generalized conservation invariant
    # chunks_completed - chunks_deduped = chunks_planned
    chunks = (
        _resolve_plan(n, chunk_size, schedule, workers, checkpoint)
        if n else []
    )
    if metrics is not None and n:
        metrics.inc(
            "chunks_planned",
            max(0, len(chunks) - len(journal_skip)),
            stage="loop",
        )

    if not go_serial and effective == "process":
        shm_in = shm_out = None
        input_spec = out_spec = None
        if plane == "shm":
            shm_in, why = ShmInput.build(vals)
            if shm_in is None:
                plane = downgrade_transport(why, events, trace=trace)
            else:
                shm_out = ShmOutput.build(n, len(chunks))
                input_spec = ("shm", shm_in.spec())
                out_spec = shm_out.spec()
        try:
            blob, reason = build_process_payload(
                raw_body, vals, chunks, policy=policy, chaos=chaos,
                label="loop", trace=trace, metrics=metrics,
                profiler=profiler, input_spec=input_spec, out_spec=out_spec,
            )
            if blob is None:
                effective = downgrade(
                    "process", "thread", reason, events, trace=trace
                )
            else:
                results: list[Any] = [None] * n
                for _k, (lo, _hi, done_vals) in journal_done.items():
                    for offset, value in enumerate(done_vals):
                        results[lo + offset] = value
                if len(journal_skip) >= len(chunks):
                    return results
                run = run_process_chunks(
                    blob,
                    chunks,
                    workers=workers,
                    schedule=schedule,
                    cancel=cancel,
                    max_restarts=restarts,
                    hedge=hedge,
                    completed=journal_skip,
                    trace=trace,
                    label="loop",
                    checkpoint=checkpoint,
                    reuse=reuse,
                    out_values=shm_out,
                    metrics=metrics,
                    profiler=profiler,
                )
                if recovery is not None:
                    recovery.extend(run.recovery)
                _assemble_process_run(
                    run, chunks, results, ledger, chaos, cancel,
                    trace=trace, completed=journal_skip,
                )
                return results
        finally:
            # stragglers retired by the warm pool may still hold the
            # mapped segments; POSIX keeps unlinked blocks alive until
            # the last close, so disposing here is always safe
            if shm_in is not None:
                shm_in.dispose()
            if shm_out is not None:
                shm_out.dispose()

    if chaos is not None:
        if trace is not None:
            chaos.trace = trace
        if metrics is not None:
            chaos.metrics = metrics
        body = chaos.wrap(raw_body, name="loop")

    if go_serial:
        element = _make_element(
            body, policy, cancel, ledger, None, trace, metrics=metrics
        )
        if n and (checkpoint is not None or profiler is not None):
            # chunk-wise only when a chunk consumer exists: journal
            # records and profile work windows then match the pooled
            # backends one per chunk; the element-wise hot loop below
            # stays untouched otherwise
            out: list[Any] = [None] * n
            # resolve the chunk counters once: a bump is then one lock+add,
            # not a series lookup per (possibly one-element) chunk
            dispatched = completed = None
            if metrics is not None:
                dispatched = metrics.counter("chunks_dispatched", stage="loop")
                completed = metrics.counter("chunks_completed", stage="loop")
            for k, (lo, hi) in enumerate(chunks):
                if k in journal_done:
                    done_lo, _done_hi, done_vals = journal_done[k]
                    out[done_lo:done_lo + len(done_vals)] = done_vals
                    continue
                if dispatched is not None:
                    dispatched.inc()
                work = (
                    profiler.work("loop", k)
                    if profiler is not None
                    else contextlib.nullcontext()
                )
                with work:
                    for i in range(lo, hi):
                        if cancel is not None:
                            raise_if_stopped((), cancel, trace)
                        out[i] = element(i, vals[i])
                if completed is not None:
                    completed.inc()
                if checkpoint is not None:
                    checkpoint.record(k, lo, hi, out[lo:hi])
                    if trace is not None:
                        trace.instant("checkpoint", "loop", lo, chunk=k)
            return out
        out = []
        for i, v in enumerate(vals):
            if cancel is not None:
                raise_if_stopped((), cancel, trace)
            out.append(element(i, v))
        if metrics is not None and n:
            # the element-wise hot loop has no chunk structure; account
            # the logical chunking wholesale so chunk-counter totals
            # match the pooled backends exactly
            nchunks = len(chunks)
            metrics.inc("chunks_dispatched", nchunks, stage="loop")
            metrics.inc("chunks_completed", nchunks, stage="loop")
        return out

    results = [None] * n
    errors: list[BaseException] = []
    ledger_lock = threading.Lock() if ledger is not None else None
    element = _make_element(
        body, policy, cancel, ledger, ledger_lock, trace, metrics=metrics
    )
    for _k, (lo, _hi, done_vals) in journal_done.items():
        for offset, value in enumerate(done_vals):
            results[lo + offset] = value
    nworkers = min(workers, max(1, len(chunks) - len(journal_skip)))

    def run_chunk(k: int, lo: int, hi: int) -> None:
        if metrics is not None:
            metrics.inc("chunks_dispatched", stage="loop")
        started = time.monotonic() if metrics is not None else 0.0
        if profiler is not None:
            with profiler.work("loop", k):
                for i in range(lo, hi):
                    results[i] = element(i, vals[i])
        else:
            for i in range(lo, hi):
                results[i] = element(i, vals[i])
        if metrics is not None:
            metrics.inc("chunks_completed", stage="loop")
            metrics.histogram("chunk_latency_seconds", stage="loop").observe(
                time.monotonic() - started
            )
        if checkpoint is not None:
            checkpoint.record(k, lo, hi, results[lo:hi])
            if trace is not None:
                trace.instant("checkpoint", "loop", lo, chunk=k)

    if schedule == "static":
        assignments: list[list[tuple[int, int, int]]] = [
            [] for _ in range(nworkers)
        ]
        for i, (lo, hi) in enumerate(chunks):
            if i not in journal_skip:
                assignments[i % nworkers].append((i, lo, hi))

        def static_worker(mine: list[tuple[int, int, int]]) -> None:
            try:
                for k, lo, hi in mine:
                    if _stopped(errors, cancel):
                        return
                    run_chunk(k, lo, hi)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(
                target=static_worker, args=(assignments[k],), daemon=True
            )
            for k in range(nworkers)
        ]
    else:
        lock = threading.Lock()
        next_chunk = [0]

        def dynamic_worker() -> None:
            try:
                while True:
                    if _stopped(errors, cancel):
                        return
                    with lock:
                        k = next_chunk[0]
                        if k >= len(chunks):
                            return
                        next_chunk[0] += 1
                    if k in journal_skip:
                        continue
                    lo, hi = chunks[k]
                    run_chunk(k, lo, hi)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=dynamic_worker, daemon=True)
            for _ in range(nworkers)
        ]

    for t in threads:
        t.start()
    for t in threads:
        t.join()
    raise_if_stopped(errors, cancel, trace=trace)
    return results


def _process_reduce(
    blob,
    chunks: list[tuple[int, int]],
    op: Callable[[Any, Any], Any],
    init: Any,
    workers: int,
    cancel: CancellationToken | None,
    restarts: int,
    hedge: float,
    journal_done: dict[int, list[Any]],
    journal_skip: frozenset[int],
    trace: TraceCollector | None,
    checkpoint: ChunkJournal | None,
    recovery: list[RecoveryEvent] | None,
    reuse: bool,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> Any:
    """The process-backend road of :func:`parallel_reduce`."""
    partials: list[Any] = [None] * len(chunks)
    for k in journal_done:
        partials[k] = journal_done[k][0]
    if len(journal_skip) < len(chunks):
        run = run_process_chunks(
            blob,
            chunks,
            workers=workers,
            schedule="dynamic",
            cancel=cancel,
            max_restarts=restarts,
            hedge=hedge,
            completed=journal_skip,
            trace=trace,
            label="reduce",
            checkpoint=checkpoint,
            reuse=reuse,
            metrics=metrics,
            profiler=profiler,
        )
        if recovery is not None:
            recovery.extend(run.recovery)
        for k in sorted(run.chunks):
            chunk = run.chunks[k]
            if chunk.failed:
                raise chunk.records[0][1]
            partials[k] = chunk.values[0]
        raise_if_stopped([], cancel, trace=trace, stage="reduce")
        if run.fatal or run.missing(len(chunks), journal_skip):
            raise RuntimeError(
                "worker pool lost reduce partials: "
                f"fatal={run.fatal} "
                f"missing={run.missing(len(chunks), journal_skip)}"
            )
    acc = init
    for p in partials:
        acc = op(acc, p)
    return acc


def parallel_reduce(
    values: Iterable[Any],
    body: Callable[[Any], Any],
    op: Callable[[Any, Any], Any],
    init: Any,
    workers: int = 4,
    chunk_size: int = 16,
    sequential: bool = False,
    cancel: CancellationToken | None = None,
    backend: str = "thread",
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    restarts: int = 0,
    hedge: float = 0.0,
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    transport: str = "pickle",
    reuse: bool = False,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> Any:
    """Map ``body`` over values and fold with the associative ``op``.

    Each worker folds its chunk from the chunk's first element — ``init``
    enters the fold exactly once, when the partials are combined — so a
    non-neutral ``init`` (e.g. ``10`` for a sum) is counted once, as in
    the sequential loop.  Partials are combined in chunk order, so even a
    merely-associative (non-commutative) ``op`` is safe — on every
    backend: the process pool ships partials back tagged by chunk index.

    Traced at chunk granularity (one ``execute`` span per folded chunk):
    per-element hooks would distort the tight fold loop.

    ``restarts`` / ``hedge`` / ``recovery`` mirror :func:`parallel_for`
    (process backend).  ``checkpoint`` journals each chunk's folded
    partial, so a resumed reduction re-folds only unfinished chunks — on
    the pooled backends; the sequential path has no chunk structure and
    ignores the journal.

    ``transport`` / ``reuse`` mirror :func:`parallel_for` too, with one
    asymmetry: a reduction's shared-memory road covers the *input* block
    only.  Partials are single folded values shipped through the control
    queue regardless — there is exactly one per chunk, so a fixed-width
    output region would save nothing.
    """
    _validate(workers, chunk_size, "dynamic")
    plane = normalize_transport(transport)
    if not 0.0 <= hedge <= 1.0:
        raise TuningError(f"Hedge must be a quantile in [0, 1], got {hedge}")
    if restarts < 0:
        raise TuningError(f"PoolRestarts must be >= 0, got {restarts}")
    effective = normalize_backend(backend)
    trace = resolve_collector(trace)
    metrics = resolve_registry(metrics)
    profiler = resolve_profiler(profiler)
    vals = list(values)
    n = len(vals)
    if effective == "serial" or sequential or workers <= 1 or n == 0:
        started = time.monotonic()
        work = (
            profiler.work("reduce", 0)
            if profiler is not None and n
            else contextlib.nullcontext()
        )
        with work:
            acc = init
            for v in vals:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                acc = op(acc, body(v))
        if trace is not None and n:
            trace.add("execute", "reduce", 0, started, chunk=0, elements=n)
        return acc

    chunks = _chunks(n, chunk_size)
    journal_done: dict[int, list[Any]] = {}
    if checkpoint is not None:
        if metrics is not None:
            checkpoint.metrics = metrics
        checkpoint.bind(n, chunk_size, "reduce")
        journal_done = checkpoint.completed()
        if trace is not None and journal_done:
            trace.instant(
                "checkpoint", "reduce", -1,
                resumed=len(journal_done), path=str(checkpoint.path),
            )
    journal_skip = frozenset(journal_done)
    if metrics is not None:
        # the generalized conservation denominator, mirrored from the
        # loop stage: completed - deduped = planned, per run
        metrics.inc(
            "chunks_planned",
            max(0, len(chunks) - len(journal_skip)),
            stage="reduce",
        )

    if effective == "process":
        shm_in = None
        input_spec = None
        if plane == "shm":
            shm_in, why = ShmInput.build(vals)
            if shm_in is None:
                plane = downgrade_transport(
                    why, events, trace=trace, stage="reduce"
                )
            else:
                input_spec = ("shm", shm_in.spec())
        try:
            blob, reason = build_process_payload(
                body, vals, chunks, reduce_op=op, label="reduce",
                trace=trace, metrics=metrics, profiler=profiler,
                input_spec=input_spec,
            )
            if blob is None:
                effective = downgrade(
                    "process", "thread", reason, events,
                    trace=trace, stage="reduce",
                )
            else:
                return _process_reduce(
                    blob, chunks, op, init, workers, cancel, restarts,
                    hedge, journal_done, journal_skip, trace, checkpoint,
                    recovery, reuse, metrics=metrics, profiler=profiler,
                )
        finally:
            if shm_in is not None:
                shm_in.dispose()

    partials = [None] * len(chunks)
    for k in journal_done:
        partials[k] = journal_done[k][0]
    errors: list[BaseException] = []
    lock = threading.Lock()
    next_chunk = [0]

    def worker() -> None:
        try:
            while True:
                if _stopped(errors, cancel):
                    return
                with lock:
                    k = next_chunk[0]
                    if k >= len(chunks):
                        return
                    next_chunk[0] += 1
                if k in journal_skip:
                    continue
                lo, hi = chunks[k]
                if metrics is not None:
                    metrics.inc("chunks_dispatched", stage="reduce")
                started = time.monotonic()
                work = (
                    profiler.work("reduce", k)
                    if profiler is not None
                    else contextlib.nullcontext()
                )
                with work:
                    acc = body(vals[lo])
                    for i in range(lo + 1, hi):
                        acc = op(acc, body(vals[i]))
                partials[k] = acc
                if metrics is not None:
                    # chunk-granular, matching the worker-side reduce
                    # counters (delivered = chunk width, one fold span)
                    metrics.inc("chunks_completed", stage="reduce")
                    metrics.inc(
                        "elements_delivered", hi - lo, stage="reduce"
                    )
                    metrics.histogram(
                        "chunk_latency_seconds", stage="reduce"
                    ).observe(time.monotonic() - started)
                if checkpoint is not None:
                    checkpoint.record(k, lo, hi, [acc])
                    if trace is not None:
                        trace.instant("checkpoint", "reduce", lo, chunk=k)
                if trace is not None:
                    trace.add(
                        "execute", "reduce", lo, started,
                        chunk=k, elements=hi - lo,
                    )
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(min(workers, max(1, len(chunks) - len(journal_skip))))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    raise_if_stopped(errors, cancel, trace=trace, stage="reduce")

    acc = init
    for p in partials:
        acc = op(acc, p)
    return acc


def configured_parallel_for(
    values: Iterable[Any],
    body: Callable[[Any], Any],
    config: dict[str, Any],
    cancel: CancellationToken | None = None,
    chaos: ChaosInjector | None = None,
    ledger: list[ErrorRecord] | None = None,
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    shared_writes: Sequence[str] = (),
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> list[Any]:
    """``parallel_for`` driven by a tuning configuration mapping.

    Fault-policy keys (``Retries@loop``, ``ItemTimeout@loop``,
    ``OnError@loop``), the execution substrate (``Backend@loop``) and
    observability (``Trace@loop``, ``Metrics@loop``, ``Profile@loop``)
    are honoured alongside the performance knobs, so generated DOALL
    code is supervisable — and movable between threads and processes,
    and traceable — without recompilation.  A ``Trace@loop``-created
    collector is retrievable afterwards via
    :func:`repro.runtime.trace.last_trace`; a ``Metrics@loop``-created
    registry via :func:`repro.runtime.metrics.last_metrics`; a
    ``Profile@loop``-created profiler via
    :func:`repro.runtime.profiler.last_profile`.
    """
    policy = None
    retries = int(config.get("Retries@loop", 0))
    item_timeout = float(config.get("ItemTimeout@loop", 0.0) or 0.0)
    on_error = str(config.get("OnError@loop", "fail_fast"))
    if retries or item_timeout or on_error != "fail_fast":
        policy = FaultPolicy(
            retries=retries,
            item_timeout=item_timeout or None,
            on_error="fallback" if on_error == "skip" else on_error,
        )
    return parallel_for(
        values,
        body,
        workers=int(config.get("NumWorkers@loop", 4)),
        chunk_size=int(config.get("ChunkSize@loop", 1)),
        schedule=str(config.get("Schedule@loop", "dynamic")),
        sequential=bool(config.get("SequentialExecution@loop", False)),
        cancel=cancel,
        policy=policy,
        backend=str(config.get("Backend@loop", "thread")),
        chaos=chaos,
        ledger=ledger,
        events=events,
        trace=resolve_collector(
            trace, enabled=bool(config.get("Trace@loop", False))
        ),
        metrics=resolve_registry(
            metrics, enabled=bool(config.get("Metrics@loop", False))
        ),
        profiler=resolve_profiler(
            profiler, enabled=bool(config.get("Profile@loop", False))
        ),
        shared_writes=shared_writes,
        # passed explicitly (not via a synthetic FaultPolicy) so turning
        # the resilience knobs on cannot perturb the worker-side
        # execution path a policy would add
        restarts=int(config.get("PoolRestarts@loop", 0) or 0),
        hedge=float(config.get("Hedge@loop", 0.0) or 0.0),
        recovery=recovery,
        checkpoint=checkpoint,
        transport=str(config.get("Transport@loop", "pickle")),
        reuse=bool(config.get("PoolReuse@loop", False)),
    )
