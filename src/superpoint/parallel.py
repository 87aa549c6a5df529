"""One thread pool for the work that fans out over indexes: the nodes'
scans, one trace batch at a time, and the stage-3 blocks.

An index's work is a sequence of steps, numpy calls that release the GIL
on data that no other index touches. A thread holds an index for one step
and then lets it go, so any thread may run an index's next step, but no
index is ever inside a step on two threads at once. The calling thread is
one of the threads.
"""

from __future__ import annotations

import collections
import os
import threading
from typing import Callable, Generator


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_batches(
    count: int, batches: Callable[[int], Generator], max_threads: int | None = None
) -> None:
    """Run the steps of batches(i), one `next` each, for each i in
    range(count) on min(count, usable CPUs, max_threads) threads, the
    calling thread among them.

    Each thread takes the next step of whichever index no thread holds,
    round robin, so the indexes end at about the same time; one thread
    runs the steps in that order and starts no other thread.

    Every thread is joined before this returns. Once index k fails, no
    index above k takes another step, while every index below k runs to
    its end, so the error of the lowest failing index, which is raised,
    does not depend on timing."""
    steps = [batches(i) for i in range(count)]
    lock = threading.Lock()
    errors: dict[int, Exception] = {}
    free = collections.deque(range(count))

    def step(i: int) -> bool:
        """Run index i's next step; False once it has no more or has failed."""
        try:
            next(steps[i])
        except StopIteration:
            return False
        except Exception as exc:
            with lock:
                errors[i] = exc
            return False
        return True

    def take() -> int | None:
        with lock:
            while free:
                i = free.popleft()
                if i < min(errors, default=count):
                    return i
        return None

    def help_out() -> None:
        while (i := take()) is not None:
            if step(i):
                with lock:
                    free.append(i)

    started = range(min(count, usable_cpus(), max_threads or count) - 1)
    threads = [threading.Thread(target=help_out) for _ in started]
    for thread in threads:
        thread.start()
    try:
        help_out()
    finally:
        for thread in threads:
            thread.join()
        for gen in steps:
            gen.close()
    if errors:
        raise errors[min(errors)]


def run_indexed(count: int, work: Callable[[int], None], max_threads: int | None = None) -> None:
    """Call work(i) once for each i in range(count): `run_batches` with one
    step per index, so the threads take the indexes in order, and no index
    above a failed one starts."""

    def once(i: int):
        yield work(i)

    run_batches(count, once, max_threads)
