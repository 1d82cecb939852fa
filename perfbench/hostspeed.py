"""Host speed, sampled with a fixed reference task between operations.

The virtual machines this benchmark runs on change speed under it: for
stretches of seconds to minutes the same code pinned to one vCPU runs
up to about twice as slow, with the machine otherwise idle, and
memory-bound code slows most.  A latency read in such a stretch says
more about the host than about the program.  So every run also times a
fixed *reference task* that never touches the program: a few SQLite
statements on a private in-memory database, some dictionary work, and a
walk through a shuffled cycle of integer objects larger than the L2
cache, which misses the caches on every step the way the cyclic GC's
traversal of the program's heap does.  It runs at most every
:data:`INTERVAL` seconds, between operations and outside every timed
region, and each operation's latency is reported scaled by
``NOMINAL / reference``, the reference being the median of the samples
taken just before and just after it: what it would have taken on a
host where the
reference task takes :data:`NOMINAL` seconds, about the task's median
over this benchmark's runs on a 2-vCPU virtual machine.

The task runs with the cyclic GC held off, so that it never pays for
the program's garbage.
"""

from __future__ import annotations

import bisect
import gc
import random
import sqlite3
import statistics
import time

#: Reference task seconds on the nominal host.
NOMINAL = 0.0025
#: Least seconds between two reference samples.
INTERVAL = 0.025
#: Samples on each side of a timed call that give its scale.
SIDE = 2

_ROWS = 2000
#: Links of the chain walked (10 MB of integer objects and the tuple
#: holding them, more than the L2 cache), and steps walked per sample.
_CHAIN = 250_000
_STEPS = 2000


class HostSpeed:
    """Reference-task samples and the scale they give."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute(
            "CREATE TABLE ref (id INTEGER PRIMARY KEY, name TEXT, value INT)"
        )
        self._db.execute("CREATE INDEX ref_name ON ref (name)")
        self._db.executemany(
            "INSERT INTO ref VALUES (?, ?, ?)",
            ((i, f"n{i % 113}", i * 7 % 1009) for i in range(_ROWS)),
        )
        self._db.commit()
        # The integer objects are allocated in value order; following
        # a shuffled cycle through them reads memory in random order,
        # two reads a step (the tuple's slot, then the object).
        order = list(range(_CHAIN))
        random.Random(_CHAIN).shuffle(order)
        successor = [0] * _CHAIN
        for here, there in zip(order, order[1:] + order[:1]):
            successor[here] = there
        self._chain = tuple(successor)
        del order, successor
        # A tuple of ints only: a collection untracks it, and the cyclic
        # GC never traverses it again (it would add a cache miss per
        # link to every full collection of the program's heap).
        gc.collect()
        if gc.is_tracked(self._chain):
            raise RuntimeError("the reference chain is still GC-tracked")
        #: Every sample taken: when it ended, and its seconds.
        self.times: list[float] = []
        self.samples: list[float] = []
        for _ in range(SIDE):
            self.sample()

    def _task(self) -> None:
        db = self._db
        for k in range(12):
            db.execute(
                "SELECT count(*), sum(value) FROM ref "
                "WHERE name = ? AND value > ?",
                (f"n{k}", 300),
            ).fetchall()
        db.execute("INSERT INTO ref VALUES (?, 'tmp', 0)", (_ROWS,))
        db.execute("DELETE FROM ref WHERE id = ?", (_ROWS,))
        db.commit()
        words: dict[str, int] = {}
        for i in range(1500):
            key = f"w{i % 97}"
            words[key] = words.get(key, 0) + i
        total = 0
        for value in words.values():
            total += value % 13
        # Four steps a statement: the interpreter's own work per step
        # stays small next to the cache misses.
        chain = self._chain
        link = 0
        for _ in range(_STEPS // 4):
            link = chain[chain[chain[chain[link]]]]

    def sample(self) -> None:
        """Time the reference task once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._task()
            finished = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(finished)
        self.samples.append(finished - started)

    def tick(self) -> None:
        """Take a sample if the last one is at least ``INTERVAL`` old."""
        if time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def scale_at(self, when: float) -> float:
        """``NOMINAL`` over the median of the samples around ``when``.

        Those are the ``SIDE`` last samples before it and the ``SIDE``
        first after it; take a sample after the last timed call.
        """
        index = bisect.bisect(self.times, when)
        around = self.samples[max(0, index - SIDE): index + SIDE]
        return NOMINAL / statistics.median(around)

    def scaled(self, when: float, seconds: float) -> float:
        """``seconds`` of a call made at ``when``, scaled."""
        return seconds * self.scale_at(when)

    def close(self) -> None:
        self._db.close()
