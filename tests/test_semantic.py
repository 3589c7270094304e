"""The assembled semantic model."""

import textwrap

from repro.frontend import SourceProgram, parse_function
from repro.model import build_semantic_model
from repro.model.semantic import live_after


class TestStaticModel:
    def test_components_present(self, video_model):
        assert video_model.cfg is not None
        assert video_model.reaching is not None
        assert "s1" in video_model.loops

    def test_static_equals_refined_without_trace(self, video_model):
        lm = video_model.loop("s1")
        assert lm.trace is None
        assert lm.deps is lm.static_deps
        assert not video_model.optimistic

    def test_collectors_and_reductions_populated(self, video_model):
        lm = video_model.loop("s1")
        assert [c.method for c in lm.collectors] == ["append"]
        assert lm.reductions == []

    def test_all_loops_modelled(self):
        ir = parse_function(
            "def f(a):\n"
            "    for i in a:\n"
            "        for j in a:\n"
            "            pass\n"
        )
        m = build_semantic_model(ir)
        assert set(m.loops) == {"s0", "s0.b0"}


class TestDynamicModel:
    SRC = (
        "def f(xs):\n"
        "    out = []\n"
        "    for x in xs:\n"
        "        y = x * 2\n"
        "        out.append(y)\n"
        "    return out\n"
    )

    def _model(self):
        ns: dict = {}
        exec(textwrap.dedent(self.SRC), ns)
        ir = parse_function(self.SRC)
        return build_semantic_model(ir, fn=ns["f"], args=([1, 2, 3],))

    def test_trace_attached(self):
        m = self._model()
        lm = m.loop("s1")
        assert lm.trace is not None and lm.trace.iterations == 3
        assert m.optimistic

    def test_profile_attached(self):
        m = self._model()
        assert m.line_profile is not None
        assert m.loop("s1").profile is not None

    def test_refinement_applied(self):
        m = self._model()
        lm = m.loop("s1")
        assert len(lm.deps.edges) <= len(lm.static_deps.edges)

    def test_env_only_dynamic_analysis(self):
        ir = parse_function(self.SRC)
        m = build_semantic_model(ir, env={}, args=([1],))
        # env without fn: no profile, and the tracer cannot run without
        # call arguments wired to a callable -- model falls back to static
        assert m.line_profile is None

    def test_costs_injection(self):
        ir = parse_function(self.SRC)
        m = build_semantic_model(
            ir, costs={"s1": {"s1.b0": 3.0, "s1.b1": 1.0}}
        )
        assert m.loop("s1").profile.hottest() == "s1.b0"

    def test_dynamic_analysis_leaves_caller_inputs_unchanged(self):
        src = (
            "def scale(a):\n"
            "    for i in range(len(a)):\n"
            "        a[i] *= 2\n"
        )
        ns: dict = {}
        exec(src, ns)
        positional, keyword = [1, 2, 3], [1, 2, 3]
        for args, kwargs in (((positional,), {}), ((), {"a": keyword})):
            m = build_semantic_model(
                parse_function(src), fn=ns["scale"], args=args, kwargs=kwargs
            )
            # the profiler and the tracer each ran the body: on shared
            # inputs the values would have been doubled twice
            assert m.line_profile is not None
            assert m.loop("s0").trace is not None
            assert m.loop("s0").trace.iterations == 3
        assert positional == [1, 2, 3]
        assert keyword == [1, 2, 3]

    def test_program_callgraph(self):
        prog = SourceProgram.from_source(self.SRC)
        ir = prog.function("f")
        m = build_semantic_model(ir, program=prog)
        assert m.callgraph is not None
        assert "out.append" in m.callgraph.external


class TestLiveAfter:
    def test_returns_after_loop(self):
        ir = parse_function(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        t += x\n"
            "    return t\n"
        )
        assert any(s.name == "t" for s in live_after(ir, ir.body[1]))

    def test_nothing_after_loop(self):
        ir = parse_function(
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        out.append(x)\n"
        )
        assert live_after(ir, ir.body[0]) == set()
