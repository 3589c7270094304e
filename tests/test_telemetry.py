"""The shared telemetry road: trace, metrics and profile together."""

import collections
import functools
import pathlib
import time

from repro.runtime import (
    ChaosInjector,
    metrics_session,
    parallel_for,
    profile_session,
    trace_session,
)


def straggle(x, marker=""):
    """Element 5 straggles the first time it runs; element 22 always.

    A hedge duplicate of element 5's chunk wins, and the straggling
    original still delivers while element 22 keeps the run open — a
    duplicate arrival the collector must drop whole."""
    if x == 5:
        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("slow")
            time.sleep(0.5)
    elif x == 22:
        time.sleep(1.5)
    return x * x


class TestOneAbsorbSite:
    def test_all_sinks_exactly_once_under_kills_and_hedges(self, tmp_path):
        # seeded SIGKILLs force respawns and re-dispatches, and the
        # straggling chunk is hedged; every sink's deltas travel in one
        # chunk result and are absorbed behind one dedup, so each sink
        # records every element or chunk exactly once
        n, chunk_size = 24, 2
        body = functools.partial(straggle, marker=str(tmp_path / "slow"))
        with trace_session() as trace, metrics_session() as reg, \
                profile_session(hz=200.0) as prof:
            out = parallel_for(
                range(n), body, workers=3, chunk_size=chunk_size,
                backend="process",
                chaos=ChaosInjector(seed=1, kill_rate=0.15),
                restarts=4, hedge=0.9,
            )
        assert out == [x * x for x in range(n)]
        assert reg.total("pool_respawns") > 0
        assert reg.total("chaos_kills") > 0
        assert reg.total("pool_hedges") > 0
        assert reg.total("chunks_deduped") > 0

        executed = collections.Counter(
            s.seq for s in trace.spans() if s.kind == "execute"
        )
        assert executed == collections.Counter(range(n))

        planned = reg.total("chunks_planned")
        assert planned == n // chunk_size
        assert (
            reg.total("chunks_completed") - reg.total("chunks_deduped")
            == planned
        )
        assert reg.total("elements_delivered") == n

        chunks = sorted(r["chunk"] for r in prof.work_records())
        assert chunks == list(range(planned))
