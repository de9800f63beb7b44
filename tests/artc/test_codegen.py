"""Tests for the trace-specializing JIT core (:mod:`repro.artc.codegen`)."""

import json

import pytest

from repro.artc import artifact, codegen, planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.core.modes import ReplayMode
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS
from tests.conftest import make_fs


def build_benchmark(seed=7):
    fs = make_fs(seed=seed)
    fs.makedirs_now("/w")
    fs.create_file_now("/w/a", size=32768)
    snapshot = Snapshot.capture(fs, roots=("/w",), label="codegen-test")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="codegen-test", platform="linux")

    def body(tid):
        fd, err = yield from osapi.call(tid, "open", path="/w/a", flags="O_RDWR")
        yield from osapi.call(tid, "read", fd=fd, nbytes=4096)
        yield from osapi.call(tid, "write", fd=fd, nbytes=2048)
        yield from osapi.call(tid, "stat", path="/w/a")
        yield from osapi.call(
            tid, "open", path="/w/t%s" % tid, flags="O_CREAT|O_WRONLY"
        )
        yield from osapi.call(tid, "fsync", fd=fd)
        yield from osapi.call(tid, "close", fd=fd)

    for tid in (1, 2, 3):
        fs.engine.spawn(body(tid))
    fs.engine.run()
    return compile_trace(trace, snapshot)


@pytest.fixture(scope="module")
def bench():
    return build_benchmark()


def fingerprint(bench, mode, core, seed=0):
    fs = make_fs(seed=seed)
    initialize(fs, bench.snapshot)
    fs.stack.drop_caches()
    report = replay(bench, fs, ReplayConfig(mode=mode, core=core))
    payload = json.dumps(
        [
            report.summary(),
            [
                (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err,
                 r.matched, r.skipped)
                for r in report.results
            ],
        ],
        sort_keys=True,
    )
    final = Snapshot.capture(fs, roots=("/",), label="final")
    return payload + final.dumps()


class TestIdentity(object):
    """Cheap per-mode spot checks; the hypothesis suite in
    tests/property/test_scoreboard_property.py is the real oracle."""

    @pytest.mark.parametrize(
        "mode",
        [ReplayMode.ARTC, ReplayMode.UNCONSTRAINED, ReplayMode.SINGLE],
    )
    def test_jit_matches_event_core(self, bench, mode):
        assert fingerprint(bench, mode, "jit") == fingerprint(
            bench, mode, "events"
        )


class TestProgramShape(object):
    def test_artc_variant_has_one_function_per_thread(self, bench):
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "artc")
        assert sorted(program.threads) == sorted(bench.threads)
        assert program.main is None
        assert program.n_functions == len(bench.threads)
        for source in program.sources.values():
            assert source.startswith("def _t")

    def test_seq_variant_is_one_function(self, bench):
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "seq")
        assert program.threads is None
        assert program.main is not None
        assert program.n_functions == 1

    def test_unknown_variant_rejected(self, bench):
        plan = planir.default_plan(bench)
        with pytest.raises(ValueError, match="variant"):
            codegen.program_for(bench, plan, "vectorized")


class TestCaches(object):
    def test_benchmark_cache_hit(self, bench):
        plan = planir.default_plan(bench)
        before = codegen.COUNTERS["cache_hits_benchmark"]
        first = codegen.program_for(bench, plan, "artc")
        second = codegen.program_for(bench, plan, "artc")
        assert first is second
        assert codegen.COUNTERS["cache_hits_benchmark"] > before

    def test_variants_cached_separately(self, bench):
        plan = planir.default_plan(bench)
        artc = codegen.program_for(bench, plan, "artc")
        free = codegen.program_for(bench, plan, "free")
        assert artc is not free

    def test_content_cache_shares_across_reloads(self, bench):
        data = artifact.pack_bytes(bench)
        one = artifact.unpack_bytes(data)
        two = artifact.unpack_bytes(data)
        assert one is not two
        assert one.content_key == two.content_key is not None
        before = codegen.COUNTERS["cache_hits_content"]
        p1 = codegen.program_for(one, planir.default_plan(one), "artc")
        p2 = codegen.program_for(two, planir.default_plan(two), "artc")
        assert p1 is p2
        assert codegen.COUNTERS["cache_hits_content"] > before

    def test_content_cache_bounded(self):
        assert len(codegen._CONTENT_CACHE) <= codegen._CONTENT_CACHE_MAX


class TestObservability(object):
    def test_jit_replay_exports_gauges(self, bench):
        from repro.obs import Observability

        # Ensure at least one program has been compiled process-wide.
        fingerprint(bench, ReplayMode.ARTC, "jit")
        obs = Observability()
        fs = make_fs(seed=0, obs=obs)
        initialize(fs, bench.snapshot)
        replay(bench, fs, ReplayConfig(mode=ReplayMode.ARTC, core="jit"))
        assert obs.metrics.value("replay.jit.codegen_modules") >= 1
        assert obs.metrics.value("replay.jit.codegen_functions") >= 1
        assert obs.metrics.value("replay.jit.source_bytes") > 0
        assert obs.metrics.value("replay.jit.compile_seconds") > 0
        assert obs.metrics.value("replay.jit.links") >= 1
        link_seconds = obs.metrics.value("replay.jit.link_seconds")
        assert 0 < link_seconds <= obs.metrics.value(
            "replay.jit.compile_seconds"
        )
