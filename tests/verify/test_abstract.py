"""Abstract replay: exact predictions on real traces, sound widening
on synthetic ones, and a cross-checker that catches fabricated
predictions (so the never-contradict property is itself tested)."""

import pytest

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.core.modes import ReplayMode
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify import (
    UNKNOWN,
    cross_check,
    fs_digest,
    predict,
    verify_benchmark,
)

_benchmarks = {}


def benchmark_for(sample):
    if sample not in _benchmarks:
        from repro.workloads.magritte import build_suite

        app = build_suite([sample])[sample]
        traced = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
        _benchmarks[sample] = compile_trace(traced.trace, traced.snapshot)
    return _benchmarks[sample]


def rec(idx, tid, name, args, ret=0, err=None):
    t = float(idx) / 10
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.001)


def synthetic(records, dirs=("/d",)):
    snap = Snapshot()
    for path in dirs:
        snap.add(path, "dir")
    return compile_trace(Trace(records, platform="linux"), snap)


class TestExactPredictions(object):
    @pytest.mark.parametrize("mode", [ReplayMode.ARTC, ReplayMode.SINGLE])
    def test_prediction_matches_dynamic_replay(self, mode):
        bench = benchmark_for("pages_pdf15")
        platform = PLATFORMS["ssd"]
        fs = platform.make_fs(seed=3)
        initialize(fs, bench.snapshot)
        report = replay(bench, fs, ReplayConfig(mode=mode))
        pred = predict(bench, mode, target=fs.platform)
        assert pred.status == "exact"
        assert pred.widened_at is None
        for result in report.results:
            if result.skipped:
                continue
            assert pred.outcomes[result.idx] == result.err, (
                "action #%d (%s): predicted %r, dynamic %r"
                % (result.idx, result.name,
                   pred.outcomes[result.idx], result.err)
            )
        assert pred.digest == fs_digest(fs)

    def test_racy_modes_widen_to_unknown(self):
        bench = benchmark_for("pages_pdf15")
        for mode in (ReplayMode.TEMPORAL, ReplayMode.UNCONSTRAINED):
            pred = predict(bench, mode)
            assert pred.status == "unknown"
            assert pred.digest is None
            assert set(pred.outcomes) == {UNKNOWN}
            assert pred.reason.startswith("unordered-races")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            predict(benchmark_for("pages_pdf15"), "chaotic")

    def test_to_dict_shape(self):
        pred = predict(benchmark_for("pages_pdf15"), ReplayMode.SINGLE)
        payload = pred.to_dict()
        assert payload["format"] == "artc-abstract-v1"
        assert payload["status"] == "exact"
        assert payload["actions"] == len(payload["outcomes"])
        assert payload["unknown"] == 0
        assert payload["digest"]


class TestWidening(object):
    def test_shared_cwd_widens_concurrent_modes(self):
        bench = synthetic([
            rec(0, "T1", "chdir", {"path": "/d"}),
            rec(1, "T2", "mkdir", {"path": "/e/x", "mode": 0o755}),
        ], dirs=("/d", "/e"))
        for mode in (ReplayMode.ARTC, ReplayMode.UNCONSTRAINED):
            pred = predict(bench, mode)
            assert pred.status == "unknown"
            assert pred.reason == "shared-cwd"
            assert set(pred.outcomes) == {UNKNOWN}
        # Sequential replay pins the interleaving: cwd is fine.
        assert predict(bench, ReplayMode.SINGLE).status == "exact"

    def test_raw_fd_aliasing_widens_globally(self):
        bench = synthetic([
            rec(0, "T1", "open",
                {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "close", {"fd": 3}),
            rec(2, "T2", "fsync", {"fd": 9}, ret=-1, err="EBADF"),
        ])
        pred = predict(bench, ReplayMode.UNCONSTRAINED)
        assert pred.status == "unknown"
        assert pred.reason == "raw-fd-aliasing"
        assert pred.widened_at == 2
        # Global scope: even actions before the widening point are
        # suspect (aliasing side effects reach backwards).
        assert pred.outcomes == [UNKNOWN, UNKNOWN, UNKNOWN]

    def test_raw_fd_exact_when_sequential(self):
        bench = synthetic([
            rec(0, "T1", "open",
                {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "close", {"fd": 3}),
            rec(2, "T2", "fsync", {"fd": 9}, ret=-1, err="EBADF"),
        ])
        pred = predict(bench, ReplayMode.SINGLE)
        assert pred.status == "exact"
        assert pred.outcomes == [None, None, "EBADF"]

    def test_inflight_aio_write_widens_suffix(self):
        bench = synthetic([
            rec(0, "T1", "open",
                {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "aio_write",
                {"aiocb": "cb1", "fd": 3, "nbytes": 100, "offset": 0}),
            rec(2, "T1", "truncate", {"path": "/d/f", "length": 0}),
            rec(3, "T1", "stat", {"path": "/d/f"}),
        ])
        pred = predict(bench, ReplayMode.SINGLE)
        assert pred.status == "unknown"
        assert pred.reason == "aio-write-in-flight"
        assert pred.widened_at == 2
        # Suffix scope: the prefix stays bound, the rest is UNKNOWN.
        assert pred.outcomes == [None, None, UNKNOWN, UNKNOWN]


class TestCrossCheck(object):
    def test_verify_benchmark_dynamic_clean(self):
        bench = benchmark_for("itunes_startsmall1")
        result = verify_benchmark(
            bench, cores=("scoreboard",), dynamic=True,
            platform=PLATFORMS["ssd"], seed=1,
        )
        assert result.ok
        abstract = [p for p in result.report.passes
                    if p.name == "abstract"][0]
        assert abstract.stats["cross_checked"] == 1
        assert abstract.stats["exact"] >= 2  # artc + single-threaded

    def test_dynamic_requires_platform(self):
        with pytest.raises(ValueError):
            verify_benchmark(benchmark_for("itunes_startsmall1"),
                             dynamic=True)

    def test_fabricated_digest_contradicted(self):
        bench = benchmark_for("itunes_startsmall1")
        platform = PLATFORMS["ssd"]
        target = platform.make_fs(seed=0).platform
        pred = predict(bench, ReplayMode.SINGLE, target=target)
        assert pred.status == "exact"
        pred.digest = "0" * 64
        findings = cross_check(bench, pred, platform, seed=0)
        assert "abstract-digest-contradiction" in [
            f.check for f in findings
        ]

    def test_fabricated_errno_contradicted(self):
        bench = benchmark_for("itunes_startsmall1")
        platform = PLATFORMS["ssd"]
        target = platform.make_fs(seed=0).platform
        pred = predict(bench, ReplayMode.SINGLE, target=target)
        assert pred.status == "exact"
        lie_at = pred.outcomes.index(None)
        pred.outcomes[lie_at] = "EIO"
        findings = cross_check(bench, pred, platform, seed=0)
        hits = [f for f in findings
                if f.check == "abstract-errno-contradiction"]
        assert hits and lie_at in hits[0].actions


class TestRaceScanSharing(object):
    def test_thread_order_modes_share_one_race_scan(self, monkeypatch):
        from repro.verify import abstract
        from repro.workloads.magritte import build_suite

        app = build_suite(["numbers_start5"])["numbers_start5"]
        traced = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
        modes = (ReplayMode.TEMPORAL, ReplayMode.UNCONSTRAINED)

        fresh = compile_trace(traced.trace, traced.snapshot)
        assert len(fresh.threads) > 1
        expected = {}
        for mode in modes:
            fresh._abstract_races = None
            expected[mode] = predict(fresh, mode).to_dict()

        bench = compile_trace(traced.trace, traced.snapshot)
        scans = []
        original = abstract.find_races

        def counting_find_races(*args, **kwargs):
            scans.append(kwargs.get("table"))
            return original(*args, **kwargs)

        monkeypatch.setattr(abstract, "find_races", counting_find_races)
        for mode in modes:
            assert predict(bench, mode).to_dict() == expected[mode]
        assert len(scans) == 1
        # The ARTC scan reuses the same touch table.
        predict(bench, ReplayMode.ARTC)
        assert len(scans) == 2
        assert scans[0] is not None and scans[1] is scans[0]
