import threading
import time

import pytest

from superpoint import parallel
from superpoint.parallel import run_indexed


def test_one_cpu_runs_every_index_in_order_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    ran = []
    run_indexed(5, lambda i: ran.append((i, threading.get_ident())))
    assert ran == [(i, threading.get_ident()) for i in range(5)]
    run_indexed(0, ran.append)
    assert len(ran) == 5


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_index_is_taken_after_an_error(monkeypatch, cpus):
    # index 1 fails while index 0 still runs: on one CPU after it, on two
    # on another thread than index 0's; either way no thread goes on to
    # index 2
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    ran = []

    def work(i):
        ran.append(i)
        if i == 0:
            time.sleep(0.2)
        if i == 1:
            raise ValueError("index 1")

    with pytest.raises(ValueError, match="index 1"):
        run_indexed(6, work)
    assert sorted(ran) == [0, 1]
