"""Traced runs: spans around each layer's public functions, from outside.

:func:`install` replaces the attribute each caller looks up (a module
global such as ``repro.core.patty.build_semantic_model``, or a method on
a class) with a wrapper that records a span or bumps a count, and returns
the undo.  Nothing under ``src/`` is edited.  Spans hold name, start, end
and parent; they stay in memory and are reduced per round to each
layer's self time (duration minus the part covered by child spans).

Only calls made in this process are seen.  Process-pool workers run the
chunk loop out of sight, so the worker loop shows as ``backend.run_s``
minus plain compute.  Counts must repeat exactly from run to run, except
those listed in :data:`TIMING_DEPENDENT`.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable

#: per-layer counts that do not repeat exactly: the profiler samples on a
#: wall-clock timer, the adaptive controller sizes each wave from the
#: previous wave's measured chunk latencies, and the pipeline detector's profitability test
#: (``PipelinePattern.dominance_threshold``) compares measured
#: per-statement time shares, so borderline loops (eventlog ``post_all``
#: and ``count_kinds``, textproc ``join_numbered``, kmeans ``assign``
#: s0.b2) are matched in some rounds and not in others
TIMING_DEPENDENT = frozenset(
    {
        "profiler.samples",
        "profiler.dropped",
        "adaptive.wave_descriptors",
        "patterns.matches",
        "transform.compiled",
        "transform.declined",
    }
)


class SpanRecorder:
    """Spans with parents (per thread) plus thread-safe counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.reasons: collections.Counter[str] = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def timed(self, name: str, fn: Callable, /, *args: Any, **kwargs: Any):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def take(self) -> tuple[list, collections.Counter]:
        """Hand over and reset the spans and counts of one round."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], collections.Counter()
        return spans, counts


def self_times(spans: list[tuple[int, str, float, float, int]]) -> dict:
    """Per span name: summed duration minus the duration of its children."""
    covered: dict[int, float] = collections.defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent:
            covered[parent] += end - start
    out: dict[str, float] = collections.defaultdict(float)
    for sid, name, start, end, _parent in spans:
        out[name] += (end - start) - covered.get(sid, 0.0)
    return dict(out)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span(rec: SpanRecorder, name: str, fn: Callable, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.timed(name, fn, *args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


def _counted(rec: SpanRecorder, name: str, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _declining(rec: SpanRecorder, name: str, fn: Callable, error: type):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return rec.timed(name, fn, *args, **kwargs)
        except error as exc:
            rec.count("transform.declined")
            with rec._lock:
                rec.reasons[decline_reason(exc)] += 1
            raise

    return wrapper


def decline_reason(exc: Exception) -> str:
    """A codegen refusal without its loop id: "loop s2.b2 is not a
    top-level statement of f; ..." -> "loop is not a top-level statement
    of f"."""
    clause = str(exc).split(";")[0]
    return " ".join(w for w in clause.split() if "." not in w)


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Patch every traced boundary; return the function that undoes it."""
    from repro.core import patty
    from repro.runtime.adaptive import AdaptiveController
    from repro.frontend.source import SourceProgram
    from repro.model import semantic
    from repro.patterns.catalog import PatternCatalog
    from repro.runtime import backend
    from repro.runtime.buffer import BoundedBuffer
    from repro.runtime.faults import FaultPolicy
    from repro.runtime.shm import ShmInput, ShmOutput
    from repro.transform.codegen import CodegenError

    # the package re-exports the function under the submodule's name
    pf = importlib.import_module("repro.runtime.parallel_for")
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def on_program(program) -> None:
        rec.count("frontend.functions", len(list(program)))

    def on_matches(matches) -> None:
        rec.count("patterns.matches", len(matches))

    def on_plan(bounds) -> None:
        rec.count("adaptive.descriptors", len(bounds))

    def on_shm_in(built) -> None:
        shm_in, _why = built
        if shm_in is not None:
            rec.count("shm.bytes", shm_in.length * 8)

    def on_shm_out(out) -> None:
        rec.count("shm.bytes", out.n_chunks + out.n * 8)

    from_source = SourceProgram.__dict__["from_source"].__func__
    patch(
        SourceProgram, "from_source",
        classmethod(_span(rec, "frontend.parse", from_source, on_program)),
    )
    patch(patty, "build_semantic_model",
          _span(rec, "model.semantic", patty.build_semantic_model))
    patch(semantic, "trace_loop",
          _span(rec, "model.dyndep", semantic.trace_loop))
    patch(
        semantic, "refine_dependences",
        _span(rec, "model.dyndep", semantic.refine_dependences,
              lambda _g: rec.count("model.dyndep_calls")),
    )
    patch(PatternCatalog, "detect",
          _span(rec, "patterns.detect", PatternCatalog.detect, on_matches))
    patch(patty, "generate_annotated_source",
          _span(rec, "transform.annotate", patty.generate_annotated_source))
    patch(
        patty, "generate_parallel_source",
        _declining(rec, "transform.codegen", patty.generate_parallel_source,
                   CodegenError),
    )
    patch(
        patty, "compile_parallel",
        _span(rec, "transform.codegen", patty.compile_parallel,
              lambda _fn: rec.count("transform.compiled")),
    )
    patch(patty, "generate_unit_tests",
          _span(rec, "transform.testgen", patty.generate_unit_tests))

    for name in ("plan_fixed", "plan_guided", "plan_chunks"):
        patch(pf, name, _span(rec, "adaptive.plan", getattr(pf, name),
                              on_plan))
    patch(
        AdaptiveController, "next_wave",
        _span(rec, "adaptive.plan", AdaptiveController.next_wave,
              lambda b: rec.count("adaptive.wave_descriptors", len(b))),
    )
    patch(FaultPolicy, "delays",
          _counted(rec, "faults.delays_calls", FaultPolicy.delays))
    patch(FaultPolicy, "execute",
          _counted(rec, "faults.execute_calls", FaultPolicy.execute))

    patch(pf, "run_process_chunks",
          _span(rec, "backend.run", pf.run_process_chunks))
    patch(backend, "ship_blob", _span(rec, "backend.ship", backend.ship_blob))
    patch(backend.PoolSession, "begin_call",
          _span(rec, "backend.begin_call", backend.PoolSession.begin_call))
    patch(backend.PoolSession, "end_call",
          _span(rec, "backend.end_call", backend.PoolSession.end_call))

    build_in = ShmInput.__dict__["build"].__func__
    build_out = ShmOutput.__dict__["build"].__func__
    patch(ShmInput, "build",
          classmethod(_span(rec, "shm.build", build_in, on_shm_in)))
    patch(ShmOutput, "build",
          classmethod(_span(rec, "shm.build", build_out, on_shm_out)))
    patch(ShmOutput, "read", _span(rec, "shm.read", ShmOutput.read))

    patch(BoundedBuffer, "put",
          _counted(rec, "buffer.puts", BoundedBuffer.put))
    patch(BoundedBuffer, "get",
          _counted(rec, "buffer.gets", BoundedBuffer.get))

    def restore() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
        undo.clear()

    return restore
