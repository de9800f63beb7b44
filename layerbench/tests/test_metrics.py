"""Metric arithmetic of the layer-ledger benchmark.

Run from the repository root: ``python3 -m pytest layerbench/tests -q``.
"""

import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from stats import (  # noqa: E402
    DeterminismCheck,
    Operations,
    Samples,
    outcome_signature,
    summarize,
)


class _Result(object):
    def __init__(self, idx, err=None, matched=True):
        self.idx = idx
        self.name = "open"
        self.err = err
        self.matched = matched
        self.skipped = False


class _Report(object):
    def __init__(self, elapsed, results):
        self.elapsed = elapsed
        self.results = results


def test_summarize_median_quartiles_and_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    s = summarize(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert s == {"n": 5, "median": 3.0, "q1": q1, "q3": q3}
    assert s["q1"] < s["median"] < s["q3"]


def test_summarize_single_and_empty():
    assert summarize([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5}
    empty = summarize([])
    assert empty["n"] == 0 and empty["median"] is None


def test_pass_count_depends_only_on_the_arguments():
    from inputs import WORKLOADS

    iphoto = WORKLOADS["iphoto"]
    assert iphoto.passes(25, minimum=3) == 10
    assert iphoto.passes(1, minimum=3) == 3
    assert WORKLOADS["iwork"].passes(25, minimum=3) == 4


def test_normalise_scales_by_the_reference_around_the_call():
    from hostref import REFERENCE_SECONDS, normalise

    nominal, slow = REFERENCE_SECONDS, 2 * REFERENCE_SECONDS
    # A host where the reference runs at its nominal speed: unchanged.
    assert normalise(0.2, [nominal, nominal]) == 0.2
    # Twice as slow all along: half the wall time.
    assert abs(normalise(0.2, [slow, slow, slow]) - 0.1) < 1e-12
    # The median of the references: one outlier does not count.
    assert abs(normalise(0.2, [nominal, nominal, 50 * nominal]) - 0.2) < 1e-12
    # A speed change during the call: the two middle references.
    assert abs(normalise(0.3, [nominal, slow]) - 0.2) < 1e-12


def test_host_clock_subtracts_and_uses_references_taken_during_a_call():
    import time

    from hostref import HostClock

    ticks = []

    def probe():
        ticks.append(1)
        time.sleep(0.001)

    clock = HostClock(probe=probe)

    def work():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass

    with clock.sampling():
        (_result, exc), wall, seconds = clock.call(work)
    assert exc is None
    assert len(ticks) > 3  # references were taken during the call
    assert wall < 0.299  # and their time was not charged to it
    assert seconds > 0


def test_host_clock_shares_references_and_returns_exceptions():
    from hostref import HostClock

    probes = []
    clock = HostClock(probe=lambda: probes.append(1))
    assert len(probes) == 1
    (result, exc), wall, seconds = clock.call(lambda: 7)
    assert (result, exc) == (7, None) and wall >= 0 and seconds >= 0
    (result, exc), _wall, _seconds = clock.call(lambda: 1 / 0)
    assert result is None and isinstance(exc, ZeroDivisionError)
    assert len(probes) == 3  # one reference between consecutive calls


def test_samples_keep_per_metric_lists():
    samples = Samples()
    for value in (3.0, 1.0, 2.0):
        samples.add("parse_s", value)
    samples.add("compile_s", 7.0)
    assert samples.names() == ["compile_s", "parse_s"]
    assert samples.get("parse_s") == [3.0, 1.0, 2.0]
    assert samples.summary("parse_s")["n"] == 3
    assert samples.summary("missing")["n"] == 0


def test_operations_attempted_and_failed():
    ops = Operations()
    ops.ok()
    ops.ok()
    ops.fail("replay.temporal", "ReplayError")
    ops.fail("replay.temporal", "ReplayError")
    ops.fail("stream_compile_s", "check-stream-digest")
    assert ops.as_dict() == {
        "attempted": 5,
        "failed": 3,
        "failures": {"replay.temporal:ReplayError": 2,
                     "stream_compile_s:check-stream-digest": 1},
    }


def test_determinism_check_fires_on_perturbed_digest():
    report = _Report(1.25, [_Result(0), _Result(1, err="ENOENT", matched=False)])
    check = DeterminismCheck()
    assert check.observe("iphoto/artc", outcome_signature(report, "ab" * 32))
    assert check.observe("iphoto/artc", outcome_signature(report, "ab" * 32))
    assert not check.mismatches
    assert not check.observe("iphoto/artc", outcome_signature(report, "ab" * 31 + "ac"))
    assert len(check.mismatches) == 1


def test_signature_covers_elapsed_and_outcomes():
    base = outcome_signature(_Report(1.0, [_Result(0)]), "d")
    assert outcome_signature(_Report(1.0000001, [_Result(0)]), "d") != base
    assert outcome_signature(_Report(1.0, [_Result(0, err="EIO")]), "d") != base
    assert outcome_signature(_Report(1.0, [_Result(0)]), "d") == base


def _ledger():
    from pipeline import Ledger

    return Ledger(seed=0, inputs=[])


def test_pass_counts_exceptions_and_failed_checks():
    from pipeline import _Pass, NullRecorder

    ledger = _ledger()
    run = _Pass(ledger, NullRecorder(), record=True)

    def boom():
        raise KeyError("x")

    assert run.op("parse_s", "t", lambda: 1) == 1
    assert run.op("compile_s", "t", boom) is None
    assert run.op("pack_s", "t", lambda: 2, check=("never", lambda r: False)) is None
    run.skip(["load_s"], "pack_s")
    assert ledger.ops.as_dict() == {
        "attempted": 4,
        "failed": 3,
        "failures": {"compile_s:KeyError": 1, "pack_s:check-never": 1,
                     "load_s:upstream-pack_s": 1},
    }
    assert not ledger.correct  # a failed check makes the run incorrect
    run.finish()
    assert ledger.samples.names() == ["parse_s", "wall.parse_s"]


def test_warm_up_pass_records_nothing():
    from pipeline import _Pass, NullRecorder

    ledger = _ledger()
    run = _Pass(ledger, NullRecorder(), record=False)
    run.op("parse_s", "t", lambda: 1)
    run.op("compile_s", "t", lambda: (_ for _ in ()).throw(ValueError()))
    assert ledger.ops.as_dict()["attempted"] == 0
    assert ledger.correct


def test_aps_uses_successful_replays_only():
    from pipeline import _Pass

    ledger = _ledger()
    run = _Pass(ledger, None, record=True)
    run.sums = {"replay.artc": 2.0}
    run.wall = {"replay.artc": 4.0}
    run.actions = {"artc": 1000}
    run.broken = {"replay.temporal"}
    run.finish()
    assert ledger.samples.get("artc_aps") == [500.0]
    assert ledger.samples.get("wall.artc_aps") == [250.0]
    assert ledger.samples.get("temporal_aps") == []


def test_benchmark_json_matches_the_reported_metrics():
    import json

    from layers import PER_LAYER
    from run import END_TO_END

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
