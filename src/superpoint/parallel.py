"""One thread pool for the work that fans out over indexes: the nodes'
scans and the stage-3 blocks.

Both are numpy calls that release the GIL, on data that no other index
touches, so threads that take indexes from one counter share the work
without a queue. The calling thread is one of them.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Callable


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_indexed(count: int, work: Callable[[int], None], max_threads: int | None = None) -> None:
    """Call work(i) for each i in range(count) on min(count, usable CPUs,
    max_threads) threads that take indexes in order from one counter. The
    calling thread is one of them and takes index 0, so a single thread
    starts no other and runs every index in order on the calling thread.

    Every thread is joined before this returns. After the first error no
    thread takes another index, and the error of the lowest failing index
    is raised: indexes go out in order and every index taken is run, so
    every index below a failed one has run, and which error is raised does
    not depend on timing."""
    errors: dict[int, Exception] = {}
    # index 0 is the calling thread's; next() of a count is one step under the GIL
    counter = itertools.count(1)

    def take(i: int) -> None:
        # every index taken is run; none is taken once an index has failed
        while i < count:
            try:
                work(i)
            except Exception as exc:
                errors[i] = exc
                return
            if errors:
                return
            i = next(counter)

    def worker() -> None:
        if not errors:
            take(next(counter))

    started = range(min(count, usable_cpus(), max_threads or count) - 1)
    threads = [threading.Thread(target=worker) for _ in started]
    for thread in threads:
        thread.start()
    try:
        take(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
