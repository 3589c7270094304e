"""Steadiness report: is each metric's run-to-run spread inside its bound?

Runs every workload ``--runs`` times, each in a fresh process with its
own seed, and prints per end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``.  Verdicts: ``steady`` (spread below a third of the
bound), ``within`` (below the bound) and ``unresolved`` (above it: a
change on this metric cannot be told apart from noise).

    python3 perfbench/run.py --steadiness --runs 10 --workloads fine,coarse
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from measure import quartiles, spread


def verdict(value: float, bound: float) -> str:
    if value <= bound / 3:
        return "steady"
    return "within" if value <= bound else "unresolved"


def steadiness(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    command = [sys.executable if c == "python3" else c
               for c in spec["command"]]
    worst = "steady"
    for workload in names:
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", str(args.trace)],
                cwd=root, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stdout}",
                      file=sys.stderr)
                return 1
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
        print(f"\n{workload} over {len(runs)} runs")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            v = verdict(s, bound) if bound is not None else "-"
            if v == "unresolved" or (v == "within" and worst == "steady"):
                worst = v
            print(f"  {name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:8.2%} {bound if bound is not None else '-':>6}  {v}")
        print(flush=True)
    print(f"worst verdict: {worst}")
    return 0 if worst != "unresolved" else 1
