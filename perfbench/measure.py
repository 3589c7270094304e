"""Process-level measurement: CPU, peak memory, host conditions, statistics.

Worker CPU is read from ``/proc/<pid>/stat`` for live pool members:
``RUSAGE_CHILDREN`` only covers children that have been waited for, and a
warm pool's workers stay alive across every timed round.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _proc_cpu(pid: int) -> float:
    """utime + stime of a live process in seconds (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process in KiB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(pids: list[int]) -> float:
    """CPU seconds used so far by this process, its reaped children and
    the live processes ``pids``."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(_proc_cpu(p) for p in pids)


def peak_rss_mb(pids: list[int]) -> float:
    """Peak RSS of this process plus the live processes ``pids``, in MiB.

    Reaped children are left out: the only ones a run reaps are its
    set-up probes, which are not part of the workload.
    """
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (me + sum(_proc_hwm_kb(p) for p in pids)) / 1024.0


def reference_loop_s() -> float:
    """Best-of-three time of a fixed pure-Python loop: a host-speed probe.

    Recorded next to every run so a slow host can be told apart from a
    regression; it never normalises a metric.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def host_record() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    from repro.runtime.backend import start_method

    return {
        "nproc": usable,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mp_start_method": start_method(),
        "ref_loop_s": reference_loop_s(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
