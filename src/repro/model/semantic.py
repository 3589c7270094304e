"""The semantic model: Patty's phase-1 artifact.

``build_semantic_model`` is the entry point of the process model's *Model
Creation* phase (Fig. 1): it combines the CFG, the dependence analysis, the
call graph and — when inputs are supplied — dynamic runtime information
(statement profile + dependence trace) into one queryable object.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.frontend.ir import IRFunction, IRLoop
from repro.frontend.parser import loop_info
from repro.frontend.source import SourceProgram
from repro.model.callgraph import CallGraph, build_callgraph
from repro.model.cfg import CFG, build_cfg
from repro.model.defuse import DefUseChains, ReachingDefinitions, compute_defuse
from repro.model.dependence import (
    DependenceGraph,
    build_body_dependences,
    find_collectors,
    find_reductions,
)
from repro.model.dyndep import DynamicTrace, refine_dependences, trace_loop
from repro.model.profile import LineProfile, StatementProfile, profile_function


@dataclass
class LoopModel:
    """Everything the pattern detectors need to know about one loop."""

    loop: IRLoop
    static_deps: DependenceGraph
    deps: DependenceGraph  # refined when a trace exists, else == static
    reductions: list = field(default_factory=list)
    collectors: list = field(default_factory=list)
    profile: StatementProfile | None = None
    trace: DynamicTrace | None = None

    @property
    def sid(self) -> str:
        return self.loop.sid

    @property
    def has_runtime_info(self) -> bool:
        return self.profile is not None


@dataclass
class SemanticModel:
    """The cross product of static and dynamic program facts for a function."""

    function: IRFunction
    cfg: CFG
    reaching: ReachingDefinitions
    defuse: DefUseChains
    loops: dict[str, LoopModel] = field(default_factory=dict)
    callgraph: CallGraph | None = None
    line_profile: LineProfile | None = None

    def loop(self, sid: str) -> LoopModel:
        return self.loops[sid]

    def loop_models(self) -> list[LoopModel]:
        return list(self.loops.values())

    @property
    def optimistic(self) -> bool:
        """Was any loop refined with dynamic information?"""
        return any(lm.trace is not None for lm in self.loops.values())


def live_after(func_ir: IRFunction, loop_stmt) -> set:
    """Symbols whose value is consumed after the loop finishes.

    Includes reads of every statement following the loop in pre-order, and —
    when the loop is nested inside another loop — reads anywhere in the
    enclosing loop's subtree (its next iteration re-reads them).
    """
    inside = {s.sid for s in loop_stmt.walk()}
    syms: set = set()
    seen = False
    for st in func_ir.walk():
        if st.sid == loop_stmt.sid:
            seen = True
            continue
        if st.sid in inside:
            continue
        if seen:
            syms |= st.accesses.reads
    # enclosing loops: everything in their subtree outside this loop escapes
    parts = loop_stmt.sid.split(".")
    for depth in range(1, len(parts)):
        ancestor_sid = ".".join(parts[:depth])
        try:
            anc = func_ir.statement(ancestor_sid)
        except KeyError:  # pragma: no cover - defensive
            continue
        if anc.is_loop:
            for st in anc.walk():
                if st.sid not in inside:
                    syms |= st.accesses.reads
    return syms


def build_semantic_model(
    func_ir: IRFunction,
    fn: Callable | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    env: dict | None = None,
    program: SourceProgram | None = None,
    costs: dict[str, dict[str, float]] | None = None,
) -> SemanticModel:
    """Build the semantic model of one function.

    Parameters
    ----------
    func_ir:
        The parsed function.
    fn, args, kwargs, env:
        When a callable (or an ``env`` to ``exec`` the source in) and inputs
        are given, the dynamic analyses run: the line profiler on ``fn`` and
        the dependence tracer per loop.  Without them the model is purely
        static (the pessimistic baseline the paper contrasts against).
    program:
        Optional surrounding program for the call graph.
    costs:
        Optional externally-modelled per-statement costs keyed by loop sid —
        used by simulator-backed benchmarks instead of wall-clock profiling.
    """
    kwargs = kwargs or {}
    cfg = build_cfg(func_ir)
    reaching, chains = compute_defuse(func_ir, cfg)
    model = SemanticModel(
        function=func_ir, cfg=cfg, reaching=reaching, defuse=chains
    )

    summaries = by_name = None
    if program is not None:
        model.callgraph = build_callgraph(program)
        # interprocedural access summaries: the call graph's contribution
        # to the dependence side of the cross product
        from repro.model.summaries import compute_summaries

        summaries = compute_summaries(program)
        by_name = {}
        for f in program:
            by_name.setdefault(f.name, []).append(f.qualname)

    if fn is not None:
        # every dynamic run gets its own deep copy of the inputs: the
        # analysed function may mutate them, and neither the caller's
        # values nor the next run may see that
        model.line_profile = profile_function(
            fn, *copy.deepcopy((args, kwargs))
        )

    for loop_stmt in (s for s in func_ir.walk() if s.is_loop):
        loop = loop_info(loop_stmt)
        extra = None
        if summaries is not None:
            from repro.model.summaries import call_effects

            extra = {
                st.sid: eff
                for st in loop_stmt.body
                if (eff := call_effects(st.node, summaries, by_name)).touched
            }
        static = build_body_dependences(
            loop, live_after(func_ir, loop_stmt), extra=extra
        )
        deps = static
        trace: DynamicTrace | None = None
        if env is not None or fn is not None:
            run_env = dict(env or {})
            if fn is not None and fn.__globals__ is not None:
                merged = dict(fn.__globals__)
                merged.update(run_env)
                run_env = merged
            try:
                trace = trace_loop(
                    func_ir, loop.sid, *copy.deepcopy((args, kwargs)),
                    run_env,
                )
                deps = refine_dependences(static, trace)
            except Exception:
                trace = None  # fall back to the static graph

        profile: StatementProfile | None = None
        if costs is not None and loop.sid in costs:
            profile = StatementProfile.from_costs(costs[loop.sid])
        elif model.line_profile is not None:
            offset = func_ir.first_line - 1
            profile = StatementProfile.from_line_profile(
                loop_stmt.body, model.line_profile, offset
            )

        model.loops[loop.sid] = LoopModel(
            loop=loop,
            static_deps=static,
            deps=deps,
            reductions=find_reductions(loop),
            collectors=find_collectors(loop),
            profile=profile,
            trace=trace,
        )
    return model
