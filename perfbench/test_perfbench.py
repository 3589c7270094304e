"""Self-tests of the benchmark, at the smallest input size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test drives ``perfbench/run.py`` in a fresh process, exactly as the
benchmark is run, with ``--size tiny`` and a one-second window.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from layers import TIMING_DEPENDENT  # noqa: E402

#: the suite's detection score and codegen coverage at the seed commit:
#: 37 TP / 8 FP / 4 FN, and 42 of 52 matches compile to a parallel
#: function that returns the original's output
SEED_F1 = 2 * 37 / (2 * 37 + 8 + 4)
SEED_COVERAGE = 42 / 52


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_CACHE: dict = {}


def run_once(workload: str, trace: int, attempt: int = 0) -> dict:
    key = (workload, trace, attempt)
    if key not in _CACHE:
        _CACHE[key] = result(bench(workload, trace))
    return _CACHE[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    out = run_once(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_call_matches_its_reference(workload):
    out = run_once(workload, 0)
    assert out["correct"] and out["failed"] == 0
    assert out["metrics"]["ok_share"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_with_units(workload):
    out = run_once(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["correct"]


def test_quality_pair_equals_seed_values():
    metrics = run_once("analyze", 0)["metrics"]
    assert metrics["detect_f1"]["value"] == pytest.approx(SEED_F1, abs=1e-9)
    assert metrics["codegen_coverage"]["value"] == pytest.approx(
        SEED_COVERAGE, abs=1e-9
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first = run_once(workload, 1)["metrics"]
    second = run_once(workload, 1, attempt=1)["metrics"]
    counts = [k for k, u in units.items()
              if u in ("count", "bytes") and k not in TIMING_DEPENDENT]
    assert {k: first[k]["value"] for k in counts} == {
        k: second[k]["value"] for k in counts
    }


def session_members(sid: int) -> list[int]:
    """Pids, zombies included, whose session is ``sid``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            out.append(int(entry.name))
    return out


@pytest.mark.parametrize("workload", ["fine", "coarse"])
def test_leaves_no_process_behind(workload):
    # a session of its own collects every descendant, orphans included
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert session_members(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("fine", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
