"""Map a function over items in a pool of forked worker processes.

``fan_out`` is how the cells of a ``benchmark`` sweep use the CPUs that a
single-threaded BLAS leaves idle. It forks only where that is safe and
oversubscribes no CPU: on Linux, from a process that runs one OS thread and
is no daemonic ``multiprocessing`` worker, with more than one usable CPU
and more than one item. One thread means no other thread holds a lock the
fork would copy, and a single-threaded BLAS; a multi-threaded BLAS already
keeps the CPUs busy, and forked copies of it would fight over them.

The pool is the standard library's ``ProcessPoolExecutor`` with the fork
start method. In CPython 3.11 it forks every worker before it starts its
own manager thread, so each fork still comes from a one-thread process;
Python 3.10's order has not been checked. Each item runs ``fn`` exactly as
it would in a plain loop, in a copy of the same memory, so results do not
depend on the process count. ``multiprocessing`` and ``concurrent.futures``
are imported only where a pool starts, so no other command loads them.
"""

from __future__ import annotations

import os
import sys
import time


def _processes(items: int) -> int:
    """Processes to map ``items`` items in; 1 maps them here."""
    if items < 2 or not sys.platform.startswith("linux"):
        return 1
    # a multiprocessing worker has the module loaded; reading it from
    # sys.modules keeps every other process from loading it
    mp = sys.modules.get("multiprocessing")
    if (mp is not None and mp.current_process().daemon) or len(os.listdir("/proc/self/task")) != 1:
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def fan_out(fn, items: list, name: str) -> list:
    """``[fn(item) for item in items]``, in forked worker processes where
    that is safe (see the module docstring).

    Either way the exception raised is that of the lowest-index item that
    raised. In one process the items run in order and the first that
    raises stops the rest, as in the plain loop; in the pool every item
    runs, and the exception is raised once all have. A worker that dies
    raises ``OSError`` ("a ``name`` worker process died") once the pool
    has stopped and joined the others.
    """
    processes = _processes(len(items))
    if processes == 1:
        return [fn(item) for item in items]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(fn, items))
    except BrokenProcessPool as e:
        raise OSError(f"a {name} worker process died") from e
    finally:
        # a joined thread can stay in the task list for a few ms after
        # join() returns; wait (at most 1 s) for the pool's threads to
        # leave, so that a fan-out called next finds one thread and forks
        deadline = time.monotonic() + 1.0
        while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
            time.sleep(1e-4)
