"""Host-speed normalisation for the layer ledger's timings.

On a shared host the same call runs up to twice as slow while a
neighbour is busy, and the busy spells come and go within seconds.
CPU time does not help: the slowdown is in the processor, not in the
scheduler, so CPU time and wall time move together.  So the benchmark
measures the host's speed while it measures the program: a fixed
pure-Python *reference* workload is timed just before and just after
every timed call, and -- while a :class:`HostClock` is sampling --
also every ``SAMPLE_PERIOD`` seconds *during* the call, from a timer
signal.  The call's wall time, less the time those samples took, is
scaled by how slow the reference ran meanwhile::

    normalised = (wall - sampling) * REFERENCE_SECONDS / median(references)

A normalised time is what the call would have taken on a host where
the reference takes ``REFERENCE_SECONDS`` -- its median on the 2-CPU
host the benchmark was built on.  The
reference shares no code with ``repro``, so a change to the program
moves the normalised time as much as the wall time.  The median keeps
a reference that a garbage collection happened to land in from
counting.

The reference does what the pipeline does most: it reads small dicts,
formats strings and sorts by a key.  It reads rows scattered over a
table larger than a core's caches, because the program chases pointers
through a heap of hundreds of MB: a reference over a few hundred KB
tracked replay times only half as well.  A pure arithmetic loop (the
calibration loop of the host fingerprint) does not track them at all.
"""

import random
import signal
import statistics
import time

#: Rows in the reference's table: about 10 MB, more than a core's caches.
REFERENCE_TABLE = 40000
#: Rows the reference reads, scattered over the table; about 2 ms.
REFERENCE_ITEMS = 1000
#: The reference's median time on the build host; normalised times
#: are in seconds on a host where the reference takes this long.
REFERENCE_SECONDS = 0.002
#: Seconds between two references taken during a call.
SAMPLE_PERIOD = 0.05


_TABLE = [{"idx": i, "name": "call%d" % (i % 97), "size": i * 7 % 4096}
          for i in range(REFERENCE_TABLE)]
_ROWS = [_TABLE[i] for i in
         random.Random(0).sample(range(REFERENCE_TABLE), REFERENCE_ITEMS)]


def _name(row):
    return row["name"]


def reference(rows=_ROWS):
    """The fixed workload the host's speed is measured with.

    It allocates strings but almost no containers, so the garbage
    collector's allocation counts -- and with them when the program's
    own collections run -- are the same with and without sampling."""
    total = 0
    for row in rows:
        total += len("%s:%d" % (row["name"], row["size"]))
    for row in sorted(rows, key=_name):
        total += row["idx"]
    return total


def normalise(seconds, references):
    """``seconds`` of wall time, scaled to the reference host by the
    reference times measured around and during the call."""
    return seconds * REFERENCE_SECONDS / statistics.median(references)


class HostClock(object):
    """Times calls in wall seconds and in normalised seconds.

    Consecutive calls share a reference: the one taken after a call is
    the one before the next.  Inside ``with clock.sampling():`` a
    ``SIGALRM`` interval timer adds references during each call too.
    """

    def __init__(self, probe=reference):
        self._probe = probe
        self._busy = False  # a reference is running: skip timer ticks
        self._during = []  # references the timer took
        self._spent = 0.0  # wall seconds the timer's references took
        self._last = self._reference()

    def _reference(self):
        self._busy = True
        try:
            started = time.perf_counter()
            self._probe()
            return time.perf_counter() - started
        finally:
            self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        started = time.perf_counter()
        self._during.append(self._reference())
        self._spent += time.perf_counter() - started

    def sampling(self):
        """Context manager that takes references during calls."""
        return _Sampling(self)

    def call(self, fn):
        """Run ``fn()``; returns ``(outcome, wall_s, normalised_s)``
        where ``outcome`` is ``(result, None)`` or ``(None, exc)`` and
        ``wall_s`` excludes the references taken during the call."""
        before, spent, self._during = self._last, self._spent, []
        started = time.perf_counter()
        try:
            outcome = (fn(), None)
        except Exception as exc:  # the caller counts it
            outcome = (None, exc)
        seconds = time.perf_counter() - started - (self._spent - spent)
        during, self._during = self._during, []
        self._last = after = self._reference()
        return outcome, seconds, normalise(seconds, [before, after] + during)


class _Sampling(object):
    def __init__(self, clock):
        self.clock = clock

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.clock._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self.clock

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False
