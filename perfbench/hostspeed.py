"""Host speed: a fixed reference task timed around the measured work.

The 2-vCPU virtual machine this benchmark was built on changes speed
by itself: a fixed single-threaded task flips between about 2.7 ms and
4.7 ms, for a fraction of a second or for minutes, with no steal time
shown and no process of ours beside it (seemingly a busy sibling
hyperthread on the host).  Over 100 s of back-to-back compiles of the
same 40 programs, the time of a whole pass ranged over 0.85-1.41x of
the first one.  No number of repeats inside a run removes that, so
every time the benchmark reports is divided by the host's speed
factor at that moment: the reference task's time then, over
``REFERENCE_S``.  Divided by the mean of the factors sampled just
before and just after each unit, the same passes ranged over
0.93-1.04x.

The state is per CPU: a second process sampling between the units
tracked them just as well when both were pinned to one CPU, and not at
all when they were not.  So every workload runs pinned to one CPU
(:func:`pin_one_cpu`) and samples in process.

Reported times are therefore seconds of a host on which the reference
task takes ``REFERENCE_S``.  The task lives here, not in ``src/``, so a
change to the compiler cannot move it; it mimics what the compiler does
most: allocating small objects, following references through a graph,
and filling and sorting dicts.
"""

from __future__ import annotations

import gc
import os
import time
from statistics import median

#: The reference task's time in the host's slow state (the more common
#: one under load), so factors stay near 1.
REFERENCE_S = 0.0045
#: Task runs per sample, the fastest of which counts: the first run
#: warms a process that was idle, and one run hit by an interrupt does
#: not skew the sample.
REPEATS = 2


class _Node:
    __slots__ = ("key", "succ", "mark")

    def __init__(self, key: int) -> None:
        self.key = key
        self.succ: list = []
        self.mark = 0


def reference_task(size: int = 1500) -> int:
    """A little graph work: build, walk depth-first, tabulate, sort."""
    nodes = [_Node(index) for index in range(size)]
    for index, node in enumerate(nodes):
        node.succ.append(nodes[(index * 7 + 3) % size])
        node.succ.append(nodes[(index * 13 + 5) % size])
    order, stack, seen = [], [nodes[0]], set()
    while stack:
        node = stack.pop()
        if node.key in seen:
            continue
        seen.add(node.key)
        order.append(node)
        stack.extend(node.succ)
    table: dict = {}
    for rank, node in enumerate(order):
        node.mark = rank
        for succ in node.succ:
            table.setdefault(succ.key, []).append((rank, f"v{node.key}"))
    return len(sorted(table.items(), key=lambda item: -len(item[1])))


def pin_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU (where
    the platform allows it)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """Speed factors sampled along one run.

    Call :meth:`sample` before the first timed unit, and
    :meth:`normalize` or :meth:`bracket` right after each (or
    :meth:`sample` after one that failed), so every unit lies between
    two samples.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def sample(self) -> float:
        """Take a sample now: the fastest of ``REPEATS`` runs of the
        task, with the garbage collector paused so that a collection of
        the compiler's garbage does not land in it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                begin = time.perf_counter()
                reference_task()
                best = min(best, time.perf_counter() - begin)
        finally:
            if enabled:
                gc.enable()
        self.factors.append(best / REFERENCE_S)
        return self.factors[-1]

    def bracket(self) -> float:
        """The factor of a unit that began at the last sample and ended
        now: the mean of that sample's factor and a new one's."""
        before = self.factors[-1]
        return (before + self.sample()) / 2

    def normalize(self, seconds: float) -> float:
        """*seconds* of such a unit over its factor."""
        return seconds / self.bracket()

    def median(self) -> float:
        """The run's median factor."""
        return median(self.factors) if self.factors else 1.0
