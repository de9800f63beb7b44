"""Sample arithmetic and operation accounting for the layer ledger.

Pure functions and small containers with no dependency on ``repro``,
so the metric arithmetic is testable on its own
(``python3 -m pytest layerbench/tests``).
"""

import hashlib
import statistics


def summarize(values):
    """``{n, median, q1, q3}`` of a list of samples.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the
    ``exclusive`` method); with fewer than two samples both quartiles
    equal the single value.  An empty list summarizes to ``n == 0``
    with ``None`` for every statistic, so a metric with no successful
    sample stays visible instead of reading as zero.
    """
    values = [float(v) for v in values]
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


class Samples(object):
    """Named sample lists, one sample appended per timed pass."""

    def __init__(self):
        self._values = {}

    def add(self, name, value):
        self._values.setdefault(name, []).append(value)

    def get(self, name):
        return list(self._values.get(name, ()))

    def names(self):
        return sorted(self._values)

    def summary(self, name):
        return summarize(self._values.get(name, ()))


class Operations(object):
    """Attempted/failed accounting for timed public calls.

    Every timed call on one trace is one operation.  A call that
    raises, or whose output fails a correctness check, is a failed
    operation; the exception (or check) name is tallied so a known
    defect stays visible in every run's output.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}

    def ok(self):
        self.attempted += 1

    def fail(self, phase, kind):
        self.attempted += 1
        self.failed += 1
        key = "%s:%s" % (phase, kind)
        self.failures[key] = self.failures.get(key, 0) + 1

    def as_dict(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": dict(sorted(self.failures.items())),
        }


def outcome_signature(report, digest):
    """Hash of a replay's simulated elapsed time, per-action outcomes
    and final file-system digest: two replays of one benchmark in one
    mode must produce equal signatures."""
    h = hashlib.sha256()
    h.update(repr(report.elapsed).encode())
    for r in report.results:
        h.update(("%d|%s|%s|%d|%d;" % (
            r.idx, r.name, r.err, r.matched, r.skipped)).encode())
    h.update(digest.encode())
    return h.hexdigest()


class DeterminismCheck(object):
    """First signature seen per key is the reference; every later one
    must equal it.  ``observe`` returns ``False`` on a mismatch and
    records it in ``mismatches``."""

    def __init__(self):
        self.reference = {}
        self.mismatches = []

    def observe(self, key, signature):
        expected = self.reference.setdefault(key, signature)
        if signature == expected:
            return True
        self.mismatches.append((key, expected, signature))
        return False

