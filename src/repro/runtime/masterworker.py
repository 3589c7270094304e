"""The master/worker parallel pattern.

Two usages, matching the paper:

* standalone — a master distributes independent tasks to a worker pool and
  joins the results (:meth:`MasterWorker.run`, :meth:`map`);
* as a pipeline element (Fig. 3d: ``Pipeline(mw, p4, p5)``) — for each
  stream element every member item is applied and the results merged.

Workers are supervised: once any sibling records an error — or a shared
:class:`~repro.runtime.faults.CancellationToken` fires — the pool stops
claiming new tasks instead of running the full remaining input.

The pool substrate is selectable (``Backend@workers`` in a tuning file):
``serial`` runs tasks in the master thread, ``thread`` uses the
supervised thread pool, and ``process`` ships each task thunk to a
``multiprocessing`` pool — closures are shipped by value (see
:mod:`repro.runtime.backend`), and a thunk that cannot cross the process
boundary downgrades the whole run to threads with a recorded
:class:`~repro.runtime.backend.BackendEvent` in :attr:`last_events`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.backend import (
    BackendEvent,
    RecoveryEvent,
    ShipError,
    build_process_payload,
    downgrade,
    invoke_task,
    normalize_backend,
    run_process_chunks,
    ship_callable,
)
from repro.runtime.faults import CancellationToken, raise_if_stopped
from repro.runtime.item import Item
from repro.runtime.metrics import MetricsRegistry, resolve_registry
from repro.runtime.profiler import SamplingProfiler, resolve_profiler
from repro.runtime.trace import TraceCollector, resolve_collector


class MasterWorker:
    """Execute independent work items with a pool of workers."""

    def __init__(
        self,
        *items: Item,
        workers: int | None = None,
        merge: Callable[[Any, Sequence[Any]], Any] | None = None,
        name: str = "masterworker",
        backend: str = "thread",
        restarts: int = 0,
    ) -> None:
        self.items: list[Item] = list(items)
        self.workers = workers or max(len(self.items), 1)
        self.merge = merge or (lambda value, results: tuple(results))
        self.name = name
        self.backend = normalize_backend(backend)
        #: worker respawn budget for the process backend (PoolRestarts)
        self.restarts = restarts
        #: backend decisions (downgrades) from the most recent run
        self.last_events: list[BackendEvent] = []
        #: crash-recovery history from the most recent process run
        self.last_recovery: list[RecoveryEvent] = []
        # pipeline-element tuning state (an MW group is one pipeline stage)
        self.replicable = all(i.replicable for i in self.items) if items else False
        self.replication = 1
        self.order_preservation = True
        #: group-level fault policy (the enclosing pipeline applies it)
        self.fault_policy = None
        #: cancellation shared with an enclosing pipeline run, if any
        self.cancel: CancellationToken | None = None

    def item(self, index_or_name: int | str) -> Item:
        """Address a member item (the paper's ``mw.Item(p3)``)."""
        if isinstance(index_or_name, int):
            return self.items[index_or_name]
        for it in self.items:
            if it.name == index_or_name:
                return it
        raise KeyError(index_or_name)

    # ------------------------------------------------------------------
    # standalone usage
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        cancel: CancellationToken | None = None,
        trace: TraceCollector | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: SamplingProfiler | None = None,
    ) -> list[Any]:
        """Execute independent thunks; results in task order.

        A sibling failure (or a fired token) stops the pool from claiming
        further tasks; the first error is re-raised after the join.
        Each task becomes one ``execute`` span when tracing is on
        (``trace``, or the active session); with metrics on (``metrics``,
        or the active session) each finished task bumps
        ``tasks_completed`` / ``tasks_failed`` — identically on every
        backend.  With profiling on (``profiler``, or the active
        :func:`~repro.runtime.profiler.profile_session`) each task is one
        work window stamped ``(self.name, task index)``.
        """
        cancel = cancel or self.cancel
        trace = resolve_collector(trace)
        metrics = resolve_registry(metrics)
        profiler = resolve_profiler(profiler)
        tasks = list(tasks)
        self.last_events = []
        self.last_recovery = []
        backend = self.backend
        if not tasks:
            return []

        if backend == "serial" or self.workers <= 1:
            results: list[Any] = []
            for i, task in enumerate(tasks):
                if cancel is not None:
                    cancel.raise_if_cancelled()
                started = time.monotonic()
                work = (
                    profiler.work(self.name, i)
                    if profiler is not None
                    else contextlib.nullcontext()
                )
                try:
                    with work:
                        results.append(task())
                except BaseException as exc:
                    if metrics is not None:
                        metrics.inc("tasks_failed", stage=self.name)
                    if trace is not None:
                        trace.add(
                            "execute", self.name, i, started,
                            attempt=1, error=repr(exc),
                        )
                    raise
                if metrics is not None:
                    metrics.inc("tasks_completed", stage=self.name)
                if trace is not None:
                    trace.add("execute", self.name, i, started, attempt=1)
            return results

        if backend == "process":
            done = self._run_process(tasks, cancel, trace, metrics, profiler)
            if done is not None:
                return done
            # _run_process recorded the downgrade; fall through to threads

        results = [None] * len(tasks)
        errors: list[BaseException] = []
        lock = threading.Lock()
        next_task = [0]

        def worker() -> None:
            while True:
                if errors or (cancel is not None and cancel.cancelled):
                    return
                with lock:
                    i = next_task[0]
                    if i >= len(tasks):
                        return
                    next_task[0] += 1
                started = time.monotonic()
                try:
                    if profiler is not None:
                        with profiler.work(self.name, i):
                            results[i] = tasks[i]()
                    else:
                        results[i] = tasks[i]()
                    if metrics is not None:
                        metrics.inc("tasks_completed", stage=self.name)
                    if trace is not None:
                        trace.add(
                            "execute", self.name, i, started, attempt=1
                        )
                except BaseException as exc:  # propagate to the master
                    if metrics is not None:
                        metrics.inc("tasks_failed", stage=self.name)
                    if trace is not None:
                        trace.add(
                            "execute", self.name, i, started,
                            attempt=1, error=repr(exc),
                        )
                    with lock:
                        errors.append(exc)
                    return

        threads = [
            threading.Thread(
                target=worker, name=f"{self.name}-w{k}", daemon=True
            )
            for k in range(min(self.workers, len(tasks)) or 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raise_if_stopped(errors, cancel, trace, self.name)
        return results

    def _run_process(
        self,
        tasks: list[Callable[[], Any]],
        cancel: CancellationToken | None,
        trace: TraceCollector | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: SamplingProfiler | None = None,
    ) -> list[Any] | None:
        """Run the thunks on a process pool; None means "use threads".

        Each task is one chunk — master/worker tasks are coarse-grained
        by construction, so per-task IPC is the right granularity.
        """
        chunks = [(i, i + 1) for i in range(len(tasks))]
        try:
            shipped = [ship_callable(t) for t in tasks]
        except ShipError as exc:
            downgrade(
                "process", "thread", str(exc), self.last_events,
                trace=trace, stage=self.name,
            )
            return None
        blob, reason = build_process_payload(
            invoke_task, shipped, chunks, label=self.name, trace=trace,
            metrics=metrics, profiler=profiler,
        )
        if blob is None:
            downgrade(
                "process", "thread", reason, self.last_events,
                trace=trace, stage=self.name,
            )
            return None
        run = run_process_chunks(
            blob,
            chunks,
            workers=self.workers,
            schedule="dynamic",
            cancel=cancel,
            max_restarts=self.restarts,
            trace=trace,
            label=self.name,
            metrics=metrics,
            profiler=profiler,
        )
        self.last_recovery = list(run.recovery)
        results: list[Any] = [None] * len(tasks)
        first_error: BaseException | None = None
        for k in sorted(run.chunks):
            chunk = run.chunks[k]
            if chunk.failed:
                if first_error is None:
                    first_error = chunk.records[0][1]
                if metrics is not None:
                    metrics.inc("tasks_failed", stage=self.name)
                continue
            results[k] = chunk.values[0]
            if metrics is not None:
                metrics.inc("tasks_completed", stage=self.name)
        raise_if_stopped(
            [first_error] if first_error is not None else [],
            cancel, trace, self.name,
        )
        missing = run.missing(len(chunks))
        if run.fatal or missing:
            raise RuntimeError(
                f"{self.name}: worker pool lost task(s): "
                f"fatal={run.fatal} missing={missing} leaked={run.leaked}"
            )
        return results

    def map(self, fn: Callable[[Any], Any], values: Iterable[Any]) -> list[Any]:
        """Parallel map preserving input order."""
        vals = list(values)
        return self.run([lambda v=v: fn(v) for v in vals])

    # ------------------------------------------------------------------
    # pipeline-element usage
    # ------------------------------------------------------------------
    def apply(self, value: Any) -> Any:
        """Apply every member to the stream element, merge the results."""
        results = self.run([lambda it=it: it.apply(value) for it in self.items])
        return self.merge(value, results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MasterWorker({', '.join(i.name for i in self.items)})"
