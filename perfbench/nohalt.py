"""Keep the host's CPUs from halting while the benchmark measures.

On a virtual machine whose kernel has no halt-polling idle driver, an
idle vCPU executes HLT and the hypervisor deschedules it.  When a request
or a timer then wakes a process on that vCPU, the hypervisor has to run
the vCPU again first, and on a busy host that takes milliseconds.  Every
wake-up in the serving path pays it, so latency and the rate ladder end up
measuring the hypervisor: on the 2-vCPU reference host, during a busy
spell, ``serve_direct``'s p50 read 6.1-6.7 ms without spinners and
3.6-3.8 ms with them in alternating runs, while CPU-bound work (the
checkpoint fit's ``epoch_s``) read the same either way.

``spinners()`` runs one spinner per CPU for the duration of a measurement.
Each spins at ``SCHED_IDLE``, so the kernel preempts it the moment any
other task wakes on its CPU: the vCPU never halts, and the program keeps
the CPU time it had.  This is the user-space form of booting the guest with
``idle=poll``.

Run as a script, this file is one spinner:
``python3 nohalt.py <parent pid> <cpu>``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

#: A spinner ends on its own after this long, or as soon as its parent has
#: gone, whatever else happens.
MAX_LIFETIME_S = 600.0
STOP_TIMEOUT_S = 10.0


@contextlib.contextmanager
def spinners() -> Iterator[int]:
    """One ``SCHED_IDLE`` spinner per CPU this process may run on; yields
    how many were started (0 where ``SCHED_IDLE`` does not exist)."""
    if not hasattr(os, "SCHED_IDLE"):
        yield 0
        return
    procs = [subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               str(os.getpid()), str(cpu)],
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL)
             for cpu in sorted(os.sched_getaffinity(0))]
    try:
        yield len(procs)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=STOP_TIMEOUT_S)


def spin(parent: int, cpu: int) -> None:
    """Spin on ``cpu`` at ``SCHED_IDLE`` while ``parent`` lives.  Never
    spins at a normal priority: that would take CPU from the program."""
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        return
    end = time.monotonic() + MAX_LIFETIME_S
    while os.getppid() == parent and time.monotonic() < end:
        for _ in range(100_000):  # a few milliseconds
            pass


if __name__ == "__main__":
    spin(int(sys.argv[1]), int(sys.argv[2]))
