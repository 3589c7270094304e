"""The one road every telemetry sink travels.

The runtime has three telemetry sinks — the span
:class:`~repro.runtime.trace.TraceCollector`, the
:class:`~repro.runtime.metrics.MetricsRegistry` and the
:class:`~repro.runtime.profiler.SamplingProfiler` — and they share one
contract:

* ``spec()`` / ``from_spec(spec)`` rebuild the sink inside a worker
  process (same clock anchor, same bounds);
* ``drain() -> delta | None`` pops what the worker recorded during one
  chunk (``None`` when it recorded nothing);
* ``absorb(delta)`` folds such a delta into the parent's sink.

A chunk result carries one ``telemetry`` dict of deltas keyed by sink
name, and the process collector absorbs it at one site, behind its
first-result-wins dedup — so spans, metric deltas and samples are all
exactly-once under respawn, redispatch and hedging.

:class:`Sessions` is the session machinery the three sinks share: each
sink module keeps one instance and exposes it under its historical names
(``trace_session``/``active_collector``/``last_trace``/
``resolve_collector`` and the metrics/profile siblings).

Kept stdlib-only and import-free within the runtime package so every
sink module can use it without cycles.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Iterator


class Sessions:
    """The process-wide session stack of one sink kind.

    Sessions nest (innermost wins) and are process-wide, not
    thread-local: stage workers spawned by a run must see the sink.
    ``factory`` builds the sink a knob-enabled run records into when no
    session is open; ``on_exit`` runs on a sink when its session closes.
    """

    def __init__(
        self,
        factory: Callable[..., Any],
        on_exit: Callable[[Any], None] | None = None,
    ) -> None:
        self._factory = factory
        self._on_exit = on_exit
        self._lock = threading.Lock()
        self._active: list[Any] = []
        self._last: Any = None

    @contextlib.contextmanager
    def session(self, sink: Any) -> Iterator[Any]:
        """Every supervised run inside the ``with`` block records into
        ``sink``; on exit it becomes the :meth:`last` sink."""
        with self._lock:
            self._active.append(sink)
        try:
            yield sink
        finally:
            with self._lock:
                self._active.remove(sink)
                self._last = sink
            if self._on_exit is not None:
                self._on_exit(sink)

    def active(self) -> Any:
        """The innermost open session's sink, if any."""
        with self._lock:
            return self._active[-1] if self._active else None

    def last(self) -> Any:
        """The most recently closed session's or knob-built sink."""
        with self._lock:
            return self._last

    def resolve(
        self, explicit: Any, enabled: bool = False, **factory_args: Any
    ) -> Any:
        """The sink a run should record into.

        Priority: an explicitly passed sink, then the active session,
        then — only when the component's knob (``Trace@...``,
        ``Metrics@...``, ``Profile@...``) is on — a fresh sink built from
        ``factory_args`` and published as :meth:`last`.  Returns ``None``
        when the sink is off: the disabled path is one ``is None`` check.
        """
        if explicit is not None:
            return explicit
        session = self.active()
        if session is not None or not enabled:
            return session
        sink = self._factory(**factory_args)
        with self._lock:
            self._last = sink
        return sink

