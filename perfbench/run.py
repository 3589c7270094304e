"""Patty's benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload fine --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` spends half the time untraced and half with spans around
each layer's public functions, and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Artifacts (host record,
sample counts, mismatches, span dump, per-layer table) go to
``perfbench/out/``.

``--steadiness`` runs each workload repeatedly in fresh processes and
prints every metric's median, quartiles and spread against its bound
(see ``steady.py``).  The workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up probes per run (see :func:`setup_probe`); setup_s is the fastest.
#: Probe times fall into two host speed modes about 1.5x apart, and the
#: share of slow ones changes from run to run: over 10 runs the median
#: of 12 probes spread up to 28% and their mean up to 20%, the minimum
#: at most 10%.  Eight, not more: a probe costs up to a second of wall
#: time outside the timed window, and every run pays for them.
SETUP_PROBES = 8

#: per-layer metrics and their units, in report order
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}

#: call labels whose per-unit time is a per-layer metric
PER_UNIT = {
    "parallel_for.serial": "parallel_for.serial.ns_elem",
    "parallel_for.thread": "parallel_for.thread.ns_elem",
    "parallel_for.process": "parallel_for.process.ns_elem",
    "parallel_for.shm": "parallel_for.shm.ns_elem",
    "pipeline.seq": "pipeline.seq.ns_item",
    "pipeline.thread": "pipeline.thread.ns_item",
    "masterworker": "masterworker.ns_task",
}

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs are for the self-tests only")
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat each workload and report spreads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    help="comma-separated subset for --steadiness")
    args = ap.parse_args(argv)
    if not args.steadiness and not args.workload:
        ap.error("--workload is required")
    return args


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_round(values: list[float]) -> float:
    """Seconds per round over the whole measured window (total / rounds).

    Not the median of rounds: host speed alternates between two modes
    about 1.5x apart within seconds, and a median jumps between them.
    """
    return sum(values) / len(values)


def round_layers(spans, counts, calls, plain, telemetry) -> dict:
    """One traced round reduced to the per-layer metrics."""
    from layers import self_times

    out = {name: 0.0 for name in PER_LAYER}
    for name, seconds in self_times(spans).items():
        if name + "_s" in out:
            out[name + "_s"] = seconds
    for name, n in counts.items():
        out[name] = float(n)
    for label, times in calls.seconds.items():
        seconds = sum(times)
        if label in PER_UNIT:
            out[PER_UNIT[label]] = seconds / calls.units[label] * 1e9
        if label.startswith("coarse."):
            out[label.rsplit(".", 1)[0] + ".s"] += seconds
        if label in plain and f"{label}.vs_plain_x" in out:
            out[f"{label}.vs_plain_x"] = seconds / plain[label]
    if plain:
        out["plain.s"] = sum(plain.values())
    for c in ("static", "guided", "adaptive", "thread", "serial"):
        base = sum(v for k, v in plain.items()
                   if k.startswith(f"coarse.{c}."))
        if base:
            out[f"coarse.{c}.vs_plain_x"] = out[f"coarse.{c}.s"] / base
    out.update(telemetry)
    return out


def timed_rounds(wl, calls, seconds: float, pids, walls, cpus,
                 recorder=None, layer_rounds=None, probe=None,
                 probes: int = 0) -> None:
    """Closed loop: rounds back to back until ``seconds`` have passed.

    ``probe`` is called ``probes`` times between rounds, spread evenly
    over the window; the time it takes is not counted in the window.
    """
    from measure import cpu_seconds

    due = [seconds * k / probes for k in range(probes)]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        plain = wl.plain() if recorder is not None else {}
        calls.seconds.clear()
        if recorder is not None:
            recorder.take()  # drop anything recorded between rounds
        c0 = cpu_seconds(pids())
        t0 = time.perf_counter()
        wl.round(calls)
        t1 = time.perf_counter()
        c1 = cpu_seconds(pids())
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if recorder is not None:
            spans, counts = recorder.take()
            layer_rounds.append(
                (spans, round_layers(spans, counts, calls, plain,
                                     wl.telemetry()))
            )
        calls.verify()
        wl.between(calls)
        while due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            t0 = time.perf_counter()
            probe()
            start += time.perf_counter() - t0


#: run in a fresh interpreter: import the program, set one workload up,
#: tear it down, and print the import and set-up seconds
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import children, workloads
workloads.program_names()
t1 = time.perf_counter()
wl = workloads.WORKLOADS[{workload!r}]({seed!r}, {size!r})
wl.setup()
t2 = time.perf_counter()
wl.teardown()
children.finish()
print(t1 - t0, t2 - t1)
"""


def setup_probe(args: argparse.Namespace) -> tuple[float, float]:
    """Import and set-up seconds of the workload in a fresh interpreter.

    A fresh interpreter, not this process: its own import also compiles
    the bytecode cache on a checkout's first run, and a second set-up
    here would find the pools already warm.  Host speed drifts in phases
    lasting seconds, so the probes are spread over the timed window.
    """
    code = SETUP_PROBE.format(src=str(ROOT / "src"), here=str(HERE),
                              workload=args.workload, seed=args.seed,
                              size=args.size)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    imported, set_up = map(float, proc.stdout.split()[-2:])
    return imported, set_up


def bench(args: argparse.Namespace) -> int:
    import layers
    from measure import host_record, peak_rss_mb
    from workloads import WORKLOADS, Calls, Quality, quality_pass

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    host_start = host_record()
    wl = WORKLOADS[args.workload](args.seed, args.size)
    wl.setup()
    setups: list[tuple[float, float]] = []

    def probe() -> None:
        setups.append(setup_probe(args))

    calls = Calls()
    wl.round(calls)  # warm-up round: checked, not timed
    calls.verify()
    wl.between(calls)
    wl.quality = Quality()

    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    layer_rounds: list = []
    try:
        if args.trace:
            timed_rounds(wl, calls, args.seconds / 2, wl.pids, walls, cpus,
                         probe=probe, probes=SETUP_PROBES // 2)
            recorder = layers.SpanRecorder()
            undo = layers.install(recorder)
            calls.recorder = recorder
            try:
                timed_rounds(wl, calls, args.seconds / 2, wl.pids,
                             traced_walls, [], recorder, layer_rounds,
                             probe, SETUP_PROBES - SETUP_PROBES // 2)
            finally:
                undo()
                calls.recorder = None
        else:
            timed_rounds(wl, calls, args.seconds, wl.pids, walls, cpus,
                         probe=probe, probes=SETUP_PROBES)
        peak = peak_rss_mb(wl.pids())
    finally:
        wl.teardown()

    ok_share = (calls.attempted - calls.failed) / calls.attempted
    quality, extra = wl.quality, None
    if not args.trace and not quality.matches:
        quality, extra = quality_pass(args.seed)
    setup_s = min(imported + set_up for imported, set_up in setups)
    failed = calls.failed + (extra.failed if extra else 0)
    attempted = calls.attempted + (extra.attempted if extra else 0)
    mismatches = calls.mismatches + (extra.mismatches if extra else [])

    e2e = {
        "setup_s": (setup_s, "s", len(setups)),
        "wall_s": (per_round(walls), "s", len(walls)),
        "cpu_s": (per_round(cpus), "s", len(cpus)),
        "peak_rss_mb": (peak, "MB", 1),
        "ok_share": (ok_share, "share", calls.attempted),
    }
    if not args.trace:
        e2e["detect_f1"] = (quality.f1, "share", quality.tp + quality.fp
                            + quality.fn)
        e2e["codegen_coverage"] = (quality.coverage, "share",
                                   quality.matches)
    per_layer = {}
    if args.trace:
        for name in PER_LAYER:
            per_layer[name] = median([r[name] for _s, r in layer_rounds])
        per_layer["tracing.overhead_s"] = (
            per_round(traced_walls) - per_round(walls)
        )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host_start": host_start,
        "host_end": host_record(),
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in e2e.items()},
        "setup_probes_s": setups,
        "round_walls_s": walls,
        "traced_round_walls_s": traced_walls,
        "mismatches": mismatches,
        "codegen_mismatches": quality.mismatches,
        "codegen_declined": quality.declined,
    }
    if args.trace:
        record["per_layer"] = {
            k: {"value": v, "unit": PER_LAYER[k],
                "samples": len(layer_rounds)}
            for k, v in per_layer.items()
        }
        record["rounds"] = [r for _s, r in layer_rounds]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for line in mismatches:
        print(f"MISMATCH {line}")
    for line in quality.mismatches:
        print(f"CODEGEN MISMATCH {line}")
    print(f"host: {json.dumps(host_start)}")
    for k, (v, u, n) in e2e.items():
        print(f"{args.workload:9s} {k:18s} {v:14.6f} {u:6s} n={n}")
    if args.trace:
        table = layer_table(args.workload, per_layer, layer_rounds,
                            recorder, walls, traced_walls)
        (OUT / f"{stem}-layers.txt").write_text(table)
        write_spans(OUT / f"{stem}-spans.jsonl", layer_rounds)
        print(table)

    metrics = (
        {k: {"value": v, "unit": PER_LAYER[k]} for k, v in per_layer.items()}
        if args.trace
        else {k: {"value": v, "unit": u} for k, (v, u, _n) in e2e.items()}
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_table(workload, per_layer, layer_rounds, recorder, walls,
                traced_walls) -> str:
    lines = [
        f"per-layer medians over {len(layer_rounds)} traced rounds "
        f"of {workload}",
        f"{'metric':32s} {'value':>14s} {'unit':6s}",
    ]
    for name, value in per_layer.items():
        lines.append(f"{name:32s} {value:14.6g} {PER_LAYER[name]:6s}")
    if recorder.reasons:
        lines.append("codegen declined: " + "; ".join(
            f"{n}x {why}" for why, n in sorted(recorder.reasons.items())))
    lines.append(
        f"tracing overhead: traced wall_s {per_round(traced_walls):.6f} s "
        f"(n={len(traced_walls)}) - untraced wall_s {per_round(walls):.6f} s "
        f"(n={len(walls)}) = {per_layer['tracing.overhead_s']:+.6f} s"
    )
    return "\n".join(lines + ["", layer_map()]) + "\n"


def layer_map() -> str:
    """The layer -> end-to-end map: the per-layer table of README.md."""
    text = (HERE / "README.md").read_text()
    table = text[text.index("| layer (module) |"):]
    return table[: table.index("\n\n")]


def write_spans(path: Path, layer_rounds) -> None:
    with open(path, "w") as f:
        for k, (spans, _metrics) in enumerate(layer_rounds):
            for sid, name, start, end, parent in spans:
                f.write(json.dumps({
                    "round": k, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


def main(argv: list[str] | None = None) -> int:
    children.become_subreaper()
    try:
        return run(parse_args(argv))
    finally:
        children.finish()


def run(args: argparse.Namespace) -> int:
    if args.steadiness:
        from steady import steadiness

        return steadiness(args, ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # imports the program under test

        workloads.program_names()  # and the benchsuite programs
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
