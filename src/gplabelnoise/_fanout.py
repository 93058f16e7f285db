"""Map a function over items in this process and forked copies of it.

``fan_out`` is how independent pieces of work (the restarts of a joint fit,
the cells of a ``benchmark`` sweep) use the CPUs that a single-threaded
BLAS leaves idle. It forks only where that is safe and oversubscribes no
CPU: on Linux, from a process that runs one OS thread and is no daemonic
``multiprocessing`` worker, with more than one usable CPU and more than one
item, and never from inside an item of another fan-out. One thread means no
other thread holds a lock the fork would copy, and a single-threaded BLAS; a
multi-threaded BLAS already keeps the CPUs busy, and forked copies of it
would fight over them.

Each item runs ``fn`` exactly as it would in a plain loop, in a copy of the
same memory, so results do not depend on the process count. The caller runs
item 0 and each of up to min(items, usable CPUs) - 1 children starts with
its own item (child k item k); every process then takes the next item
nobody has started, so a slow item does not leave a CPU idle. A child pipes
its pickled results, or the exceptions its items raised, back to the caller
and leaves by ``os._exit``. The caller reaps every child before returning,
also when it raises.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import sys

# true while this process runs the items of a fan-out, so that an item that
# maps again does so in-process
_in_task = False


def _processes(items: int) -> int:
    """Processes to map ``items`` items in; 1 maps them here."""
    if items < 2 or _in_task or not sys.platform.startswith("linux"):
        return 1
    # a multiprocessing worker has the module loaded; reading it from
    # sys.modules keeps every other process from loading it
    mp = sys.modules.get("multiprocessing")
    if (mp is not None and mp.current_process().daemon) or len(os.listdir("/proc/self/task")) != 1:
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _next_item(queue: int) -> int:
    """Take the index of the next item nobody has started from the counter
    in the file ``queue``. The lock is POSIX's, which a process that dies
    releases."""
    fcntl.lockf(queue, fcntl.LOCK_EX)
    try:
        index = int.from_bytes(os.pread(queue, 8, 0), "little")
        os.pwrite(queue, (index + 1).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(queue, fcntl.LOCK_UN)
    return index


def _run_share(fn, items, first: int, queue: int) -> dict:
    """Item index -> (True, result) or (False, exception) for ``first`` and
    every item this process takes after it."""
    outcomes = {}
    index = first
    while index < len(items):
        try:
            outcomes[index] = True, fn(items[index])
        except Exception as e:
            outcomes[index] = False, e
        index = _next_item(queue)
    return outcomes


def _child(fn, items, first: int, queue: int, pipe: int):
    status = 1
    try:
        sent = pickle.dumps(_run_share(fn, items, first, queue))
        with open(pipe, "wb") as out:
            out.write(sent)
        status = 0
    finally:
        os._exit(status)


def fan_out(fn, items: list, name: str) -> list:
    """``[fn(item) for item in items]``, in forked processes where that is
    safe (see the module docstring).

    Either way the exception raised is that of the lowest-index item that
    raised. In one process the items run in order and the first that
    raises stops the rest, as in the plain loop; across processes every
    item runs, and the exception is raised once all have. A child that
    dies (killed, or with a result that does not pickle) raises
    ``OSError`` ("a ``name`` worker process died"), after every other
    child is killed and reaped.
    """
    global _in_task
    processes = _processes(len(items))
    if processes == 1:
        return [fn(item) for item in items]

    queue = os.memfd_create("fan-out-queue")
    os.pwrite(queue, processes.to_bytes(8, "little"), 0)
    children, pipes = [], []  # unreaped child pids, and the read ends of their pipes
    _in_task = True
    try:
        for first in range(1, processes):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items, first, queue, write_end)  # never returns
            finally:
                os.close(write_end)
            children.append(pid)
        outcomes = _run_share(fn, items, 0, queue)
        for pid, read_end in zip(list(children), pipes):
            with open(read_end, "rb", closefd=False) as pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.remove(pid)
            if status != 0 or not sent:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise OSError(f"a {name} worker process died ({how})")
            outcomes.update(pickle.loads(sent))
    finally:
        _in_task = False
        for fd in [queue, *pipes]:
            os.close(fd)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    results = []
    for index in range(len(items)):
        ok, value = outcomes[index]
        if not ok:
            raise value
        results.append(value)
    return results
