"""The four benchmark workloads.

Each is a closed loop: one caller in one process issues a fixed mix of
calls per round, and the next round starts when the last call returned.
Inputs come from the run's seed; every reference output is computed at
set-up by plain sequential Python, never by the code under test.

``analyze``   automatic mode (``Patty.parallelize``) over all 17
              ``benchsuite`` programs: the analysis side, no runtime.
``fine``      library mode on a ~1 us body over 1e5 elements: per-element
              runtime overhead (planning, fault policy, dispatch, worker
              loop, transport, buffers) dominates.
``coarse``    ms-per-element kernels with skewed cost on the process
              backend under three schedules, plus thread and serial:
              compute dominates, scheduling and load balance show.
``observed``  the ``fine`` mix inside trace, metrics and profile
              sessions, sized so a round lasts about as long as ``fine``:
              the only workload where the telemetry sinks do work.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import random
import time
from typing import Any, Callable

from repro.benchsuite import get_program, program_names
from repro.benchsuite.ground_truth import Label, label_matches
from repro.core.patty import Patty
from repro.evalq.detection import suppress_nested
from repro.evalq.realexec import Kernel, default_kernels
from repro.runtime import (
    FaultPolicy,
    Item,
    MasterWorker,
    Pipeline,
    metrics_session,
    parallel_for,
    profile_session,
    shutdown_sessions,
    trace_session,
)
from repro.runtime.backend import get_session
from repro.transform.codegen import CodegenError, compile_parallel

from layers import decline_reason

#: every pool in the benchmark is this wide (the reference host has 2 vCPUs)
WORKERS = 2

#: ``observed`` runs the fine mix on inputs this many times smaller, so a
#: round lasts about as long as a ``fine`` round (on 2 vCPUs, full size:
#: fine 1.41 s; observed 1.93 s at 6, 1.30 s at 9, 0.94 s at 12)
OBSERVED_SHRINK = 8


def _sizes(fine: dict, coarse: dict) -> dict:
    observed = {k: n // OBSERVED_SHRINK for k, n in fine.items()}
    return {"fine": fine, "observed": observed, "coarse": coarse}


#: element counts per workload and size; ``tiny`` is the self-test size
SIZES = {
    "full": _sizes(
        {"loop": 100_000, "seq_pipe": 10_000, "thr_pipe": 4_000,
         "tasks": 10_000},
        {"scale": 0.45, "triangle": 48},
    ),
    "tiny": _sizes(
        {"loop": 2_000, "seq_pipe": 200, "thr_pipe": 100, "tasks": 200},
        {"scale": 0.05, "triangle": 8},
    ),
}


# ---------------------------------------------------------------------------
# bodies (module level, so the process backend ships them by reference)
# ---------------------------------------------------------------------------

def mix(x: int) -> int:
    """A ~1 us integer body: four rounds of a linear congruential step."""
    for _ in range(4):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


def fold(x: int) -> int:
    return x ^ 0x5A5A


def triangle(i: int, *, unit: int) -> int:
    """Cost grows linearly with ``i``: a skewed, ms-per-element body."""
    acc = 0
    for k in range(i * unit):
        acc = (acc + k * k) % 1_000_003
    return acc


# ---------------------------------------------------------------------------
# the correctness ledger
# ---------------------------------------------------------------------------

class Calls:
    """Attempted calls, their outcomes and per-call timings.

    Outputs are compared with their references after the round's clock
    stopped (:meth:`verify`), so the comparison is not part of any timing.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: label -> wall seconds of each call (reset before every round)
        self.seconds: dict[str, list[float]] = {}
        #: label -> elements, items or tasks one call processes
        self.units: dict[str, int] = {}
        #: a layers.SpanRecorder while a traced round runs
        self.recorder = None
        self._pending: list[tuple[str, Any, Any]] = []

    def run(self, label: str, units: int, fn: Callable[[], Any],
            reference: Any) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.recorder is not None:
                out = self.recorder.timed("call." + label, fn)
            else:
                out = fn()
        except Exception as exc:  # a failed call counts, the run goes on
            self.fail(label, f"raised {exc!r}")
            return
        self.seconds.setdefault(label, []).append(time.perf_counter() - t0)
        self.units[label] = units
        self._pending.append((label, out, reference))

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.mismatches.append(f"{label}: {why}")

    def verify(self) -> None:
        for label, out, reference in self._pending:
            if out != reference:
                self.fail(label, "result differs from the plain reference")
        self._pending.clear()


# ---------------------------------------------------------------------------
# analysis side
# ---------------------------------------------------------------------------

def same(a: Any, b: Any) -> bool:
    """Structural equality; floats within 1e-9 relative (reordered sums).

    Instances without their own ``__eq__`` compare by their attributes,
    so two runs over deep copies of one input can be compared.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) or a == b
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__") and type(a).__eq__ is object.__eq__:
        return same(vars(a), vars(b))
    return a == b


class Quality:
    """Detection and codegen-coverage tallies over every analysed round.

    Automatic mode is optimistic by design: dynamic dependence tracing
    keeps only the dependences it observed, and validation mode is what
    catches a wrong parallelization.  So a compiled parallel function that
    disagrees with the original is a quality miss: it lowers
    ``codegen_coverage`` and is reported in :attr:`mismatches`, but it is
    not a failed call.
    """

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0
        self.matches = 0
        self.covered = 0
        self.declined: dict[str, int] = {}
        self.mismatches: list[str] = []

    @property
    def f1(self) -> float:
        return 2 * self.tp / (2 * self.tp + self.fp + self.fn)

    @property
    def coverage(self) -> float:
        return self.covered / self.matches

    def score(self, bp, result) -> None:
        """Score one program's matches by :mod:`repro.evalq.detection`'s
        rules (outermost-match granularity)."""
        tops = suppress_nested(result.matches)
        truth = {g.key: g for g in bp.ground_truth}
        keys = {(m.function, m.loop_sid) for m in tops}
        for m in tops:
            g = truth.get((m.function, m.loop_sid))
            if g is not None and label_matches(g.label, m.pattern):
                self.tp += 1
            else:
                self.fp += 1
        for key, g in truth.items():
            if g.label is Label.NEGATIVE or key in keys:
                continue
            if not any(key[0] == f and key[1].startswith(s + ".")
                       for f, s in keys):
                self.fn += 1

    def cover(self, name: str, result) -> None:
        """Run each match's compiled parallel function against the
        original on deep copies of freshly generated inputs."""
        fresh = get_program(name)
        ns = fresh.namespace()
        for m in result.matches:
            self.matches += 1
            try:
                par = compile_parallel(
                    result.program.function(m.function), m, ns
                )
            except CodegenError as exc:
                why = decline_reason(exc)
                self.declined[why] = self.declined.get(why, 0) + 1
                continue
            where = f"{name}.{m.function}@{m.loop_sid}"
            if m.function not in fresh.inputs:
                self.mismatches.append(f"{where}: no inputs to compare on")
                continue
            args, kwargs = fresh.inputs[m.function]
            args = args() if callable(args) else args
            a1 = copy.deepcopy((args, kwargs))
            a2 = copy.deepcopy((args, kwargs))
            want = fresh.resolve(m.function, ns)(*a1[0], **a1[1])
            try:
                got = par(*a2[0], **a2[1])
            except Exception as exc:
                self.mismatches.append(f"{where}: raised {exc!r}")
                continue
            if same(want, got) and same(a1, a2):
                self.covered += 1
            else:
                self.mismatches.append(f"{where}: differs from original")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.size = size
        self.rng = random.Random(seed)
        self.quality = Quality()

    def setup(self) -> None:
        """Build inputs, references and warm pools (timed as ``setup_s``)."""

    def round(self, calls: Calls) -> None:
        raise NotImplementedError

    def between(self, calls: Calls) -> None:
        """Untimed work after a round (checks, next round's inputs)."""

    def plain(self) -> dict[str, float]:
        """Seconds of the plain loop behind each call label (traced runs)."""
        return {}

    def telemetry(self) -> dict[str, float]:
        return {}

    def pids(self) -> list[int]:
        return []

    def teardown(self) -> None:
        shutdown_sessions()


class Analyze(Workload):
    name = "analyze"

    def setup(self) -> None:
        self.order = program_names()
        self.patty = Patty()
        self._next()

    def _next(self) -> None:
        # dynamic tracing runs each function on its inputs and may mutate
        # them, so every round analyses freshly generated programs
        self.rng.shuffle(self.order)
        self.programs = [get_program(n) for n in self.order]
        self.results: list = []

    def round(self, calls: Calls) -> None:
        for bp in self.programs:
            calls.attempted += 1
            try:
                self.results.append((bp, self.patty.parallelize(
                    bp.parse(), runner=bp.make_runner(),
                    compile_env=bp.namespace(),
                )))
            except Exception as exc:
                calls.fail(f"analyze.{bp.name}", f"raised {exc!r}")

    def between(self, calls: Calls) -> None:
        for bp, result in self.results:
            self.quality.score(bp, result)
            self.quality.cover(bp.name, result)
        self._next()


class Fine(Workload):
    name = "fine"

    def setup(self) -> None:
        size = SIZES[self.size][self.name]
        draw = self.rng.randrange
        self.values = [draw(1 << 31) for _ in range(size["loop"])]
        self.ref = [mix(v) for v in self.values]
        self.seq_items = self.values[: size["seq_pipe"]]
        self.thr_items = self.values[: size["thr_pipe"]]
        self.pipe_ref = [fold(mix(v)) for v in self.values[: max(
            size["seq_pipe"], size["thr_pipe"])]]
        self.tasks = [
            functools.partial(mix, v) for v in self.values[: size["tasks"]]
        ]
        self.policy = FaultPolicy(retries=2)
        # spawn the warm pool and ship the kernel before the first round
        warm = self.values[: 4 * WORKERS]
        for transport in ("pickle", "shm"):
            parallel_for(warm, mix, workers=WORKERS, chunk_size=2,
                         backend="process", reuse=True, transport=transport)
        self.session = get_session(WORKERS)

    def pids(self) -> list[int]:
        return self.session.pids

    def _pipeline(self, sequential: bool) -> Pipeline:
        a, b = Item(mix, name="mix"), Item(fold, name="fold")
        a.fault_policy = b.fault_policy = self.policy
        return Pipeline(a, b, sequential=sequential)

    def round(self, calls: Calls) -> None:
        vals, ref, n = self.values, self.ref, len(self.values)
        calls.run("parallel_for.serial", n, lambda: parallel_for(
            vals, mix, backend="serial"), ref)
        calls.run("parallel_for.thread", n, lambda: parallel_for(
            vals, mix, workers=WORKERS, chunk_size=1000, schedule="dynamic",
            backend="thread"), ref)
        calls.run("parallel_for.process", n, lambda: parallel_for(
            vals, mix, workers=WORKERS, chunk_size=1000, backend="process",
            reuse=True), ref)
        calls.run("parallel_for.shm", n, lambda: parallel_for(
            vals, mix, workers=WORKERS, chunk_size=1000, backend="process",
            reuse=True, transport="shm"), ref)
        seq, thr = self.seq_items, self.thr_items
        calls.run("pipeline.seq", len(seq),
                  lambda: self._pipeline(True).run(seq),
                  self.pipe_ref[: len(seq)])
        calls.run("pipeline.thread", len(thr),
                  lambda: self._pipeline(False).run(thr),
                  self.pipe_ref[: len(thr)])
        tasks = self.tasks
        calls.run("masterworker", len(tasks),
                  lambda: MasterWorker(workers=WORKERS).run(tasks),
                  ref[: len(tasks)])

    def plain(self) -> dict[str, float]:
        def clock(fn: Callable[[], Any]) -> float:
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        loop = clock(lambda: [mix(v) for v in self.values])
        return {
            "parallel_for.serial": loop,
            "parallel_for.thread": loop,
            "parallel_for.process": loop,
            "parallel_for.shm": loop,
            "pipeline.seq": clock(
                lambda: [fold(mix(v)) for v in self.seq_items]),
            "pipeline.thread": clock(
                lambda: [fold(mix(v)) for v in self.thr_items]),
            "masterworker": clock(lambda: [t() for t in self.tasks]),
        }


class Observed(Fine):
    name = "observed"

    def round(self, calls: Calls) -> None:
        stack = contextlib.ExitStack()
        self.tracer = stack.enter_context(trace_session())
        self.registry = stack.enter_context(metrics_session())
        self.profiler = stack.enter_context(profile_session())
        with stack:
            super().round(calls)
            if calls.recorder is not None:
                calls.recorder.timed("telemetry.session", stack.close)

    def telemetry(self) -> dict[str, float]:
        return {
            "trace.spans": len(self.tracer),
            "trace.dropped": self.tracer.dropped,
            "metrics.series": len(self.registry),
            "profiler.samples": self.profiler.samples,
            "profiler.dropped": self.profiler.dropped,
        }


#: (label, backend, schedule) per coarse configuration
COARSE_CONFIGS = (
    ("static", "process", "static"),
    ("guided", "process", "guided"),
    ("adaptive", "process", "adaptive"),
    ("thread", "thread", "dynamic"),
    ("serial", "serial", "dynamic"),
)


class Coarse(Workload):
    name = "coarse"

    def setup(self) -> None:
        size = SIZES[self.size][self.name]
        kernels = default_kernels(size["scale"])
        kernels.append(Kernel(
            "triangle", functools.partial(triangle, unit=400),
            range(size["triangle"]), 1, sum,
        ))
        self.kernels = []
        for k in kernels:
            values = list(k.values)
            self.rng.shuffle(values)  # the seed decides where cost sits
            self.kernels.append((k, values, [k.body(v) for v in values]))
        warm = [0] * (2 * WORKERS)
        for k, _values, _ref in self.kernels:
            parallel_for(warm, k.body, workers=WORKERS, chunk_size=1,
                         backend="process", reuse=True)
        self.session = get_session(WORKERS)

    def pids(self) -> list[int]:
        return self.session.pids

    def round(self, calls: Calls) -> None:
        for k, values, ref in self.kernels:
            for label, backend, schedule in COARSE_CONFIGS:
                calls.run(
                    f"coarse.{label}.{k.name}", len(values),
                    lambda: parallel_for(
                        values, k.body, workers=WORKERS,
                        chunk_size=k.chunk_size, schedule=schedule,
                        backend=backend, reuse=True,
                    ),
                    ref,
                )

    def plain(self) -> dict[str, float]:
        out = {}
        for k, values, _ref in self.kernels:
            t0 = time.perf_counter()
            [k.body(v) for v in values]
            elapsed = time.perf_counter() - t0
            for label, _backend, _schedule in COARSE_CONFIGS:
                out[f"coarse.{label}.{k.name}"] = elapsed
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Analyze, Fine, Coarse, Observed)
}


def quality_pass(seed: int) -> tuple[Quality, Calls]:
    """One untimed analysis of the suite, for the quality pair on
    workloads whose rounds do not analyse."""
    calls = Calls()
    wl = Analyze(seed, "full")
    wl.setup()
    wl.round(calls)
    wl.between(calls)
    return wl.quality, calls
