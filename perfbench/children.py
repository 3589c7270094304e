"""Leave no process behind: every process a run starts is waited for.

A run starts processes three ways: warm pool workers, the
``multiprocessing`` resource tracker (started by the first shared-memory
block) and set-up probes, which start the same two in turn.  Pools are
shut down by the workloads' teardown.  The resource tracker is not: it
exits only when its parent does, so it outlives the parent and, once
orphaned, is a zombie nobody waits for where the init process does not
reap.  So a run

* makes itself a child subreaper, so that an orphaned descendant (a
  probe's tracker or worker) is re-parented to it rather than to init;
* stops its own resource tracker, and
* waits for every remaining child before it exits, killing one that has
  not ended within a grace period.

Linux only; elsewhere the first step is skipped.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36

#: seconds a child gets to end on its own before it is killed
GRACE_S = 3.0


def become_subreaper() -> None:
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError, TypeError):  # pragma: no cover
        pass


def stop_resource_tracker() -> None:
    """Close this process's end of the tracker's pipe; the tracker then
    unlinks anything left registered and exits (waited for by
    :func:`reap_children`)."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is None:
            return
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def reap_children() -> None:
    """Wait for every child; kill one still running after ``GRACE_S``
    and give up on it one more ``GRACE_S`` later."""
    deadline = time.monotonic() + GRACE_S
    while time.monotonic() < deadline + GRACE_S:
        pids = children()
        if not pids:
            return
        for pid in pids:
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.01)


def finish() -> None:
    """Stop the resource tracker and wait for every child to end."""
    stop_resource_tracker()
    reap_children()
