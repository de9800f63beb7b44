"""The measured pipeline: trace file -> parse -> compile -> pack ->
load -> replay (four modes) -> stream compile -> verify.

Each public call on one trace is one *operation*.  A call that raises,
or whose output fails a correctness check, is a failed operation; the
run goes on.  Samples are per *pass*: one pass runs every trace of the
workload once, and a workload-level sample sums the pass's traces.
Each call is timed by the ledger's :class:`hostref.HostClock`, in
wall seconds and in host-normalised seconds.
"""

import gc

from repro.artc import planir
from repro.artc.artifact import pack_bytes, unpack_bytes
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode
from repro.stream.compile import StreamCompiler
from repro.stream.digest import benchmark_digest
from repro.tracing import ibench, strace
from repro.tracing.snapshot import Snapshot
from repro.verify import CORES, certify, fs_digest, predict, verify_benchmark

from hostref import HostClock
from stats import DeterminismCheck, Operations, Samples, outcome_signature

#: Short metric names for the paper's four replay modes.
MODES = (
    ("artc", ReplayMode.ARTC),
    ("single", ReplayMode.SINGLE),
    ("unconstrained", ReplayMode.UNCONSTRAINED),
    ("temporal", ReplayMode.TEMPORAL),
)

#: Per-pass sums that become ``<name>`` samples; ``pipeline_s`` is
#: trace file to first ARTC result.
PHASE_METRICS = ("parse_s", "compile_s", "pack_s", "load_s",
                 "stream_compile_s", "verify_s")
PIPELINE_PHASES = ("parse_s", "compile_s", "pack_s", "load_s", "replay.artc")
REPLAY_PHASES = tuple("replay." + short for short, _mode in MODES)
#: The timed calls on one trace in a pass, in order.
TRACE_PHASES = ("parse_s", "compile_s", "pack_s", "load_s") + REPLAY_PHASES + (
    "stream_compile_s",)


class NullRecorder(object):
    """Untraced runs: spans cost one attribute lookup and nothing else."""

    traced = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def counts(self, **values):
        pass

    def replay_counts(self, short, report, fs):
        pass


class _NullSpan(object):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Ledger(object):
    """Everything one benchmark run accumulates."""

    def __init__(self, seed, inputs):
        self.seed = seed
        self.inputs = inputs
        self.samples = Samples()
        self.ops = Operations()
        self.determinism = DeterminismCheck()
        self.clock = HostClock()
        self.check_failures = []
        #: ARTC-mode accuracy per trace, from the reference replay.
        self.accuracy = {}
        #: The latest parsed ``(trace, snapshot)`` per trace, for
        #: ``verify_pass``.
        self.parsed = {}
        #: Digest of the warm-up's batch compile, per trace; every
        #: streamed compile must reproduce it.
        self.batch_digests = {}

    @property
    def correct(self):
        return not self.check_failures


def _read_inputs(inp):
    with open(inp.trace_path) as handle:
        text = handle.read()
    if inp.fmt == "strace":
        trace = strace.loads(text)
    else:
        trace = ibench.loads(text, label=inp.name)
    return trace, Snapshot.load(inp.snapshot_path)


def _stream_compile(trace, snapshot):
    compiler = StreamCompiler(
        snapshot=snapshot, platform=trace.platform, label=trace.label,
        retain=True,
    )
    for record in trace.records:
        compiler.feed(record)
    return compiler.finish_benchmark()


def _replay_on_fresh_target(benchmark, inp, short, mode, seed, rec):
    """What one replay cell costs a user: build the target, restore
    the snapshot, replay.  Returns ``(report, fs)``."""
    fs = PLATFORMS[inp.target].make_fs(seed=seed)
    with rec.span("init.initialize", trace=inp.name):
        initialize(fs, benchmark.snapshot)
    with rec.span("replayer.replay." + short, trace=inp.name):
        report = replay(benchmark, fs, ReplayConfig(mode=mode))
    return report, fs


def _replay_signature(result):
    report, fs = result
    return outcome_signature(report, fs_digest(fs))


def _verify_ok(result):
    return result.ok and all(cert.ok for cert in result.certificates)


def _traced_verify(benchmark, rec):
    """The body of ``verify_benchmark`` with defaults, split into one
    span per certified core and per predicted mode (traced runs only)."""
    certificates = []
    for core in CORES:
        with rec.span("verify.certify.%s" % core):
            cert = certify(benchmark, core)
        certificates.append(cert)
        rec.counts(**{"verify.obligations." + core: cert.n_obligations})
    for short, mode in MODES:
        with rec.span("verify.predict.%s" % short):
            pred = predict(benchmark, mode)
        rec.counts(**{"verify.unknown_actions": pred.n_unknown})
    return _VerifyParts(certificates)


class _VerifyParts(object):
    def __init__(self, certificates):
        self.certificates = certificates
        self.ok = all(cert.ok for cert in certificates)


class _Pass(object):
    """One pass over every trace of the workload."""

    def __init__(self, ledger, rec, record):
        self.ledger = ledger
        self.rec = rec
        self.record = record  # False for the warm-up
        self.sums = {}  # phase -> host-normalised seconds
        self.wall = {}  # phase -> wall seconds
        self.actions = {}  # mode -> actions replayed successfully
        self.broken = set()  # metrics with a failed operation this pass
        self.last_error = None

    def op(self, phase, trace_name, fn, check=None):
        """Run one timed public call; returns its result or ``None``."""
        gc.collect()
        span = self.rec.span(phase, trace=trace_name)

        def call():
            with span:
                return fn()

        (result, exc), wall, seconds = self.ledger.clock.call(call)
        error = None if exc is None else type(exc).__name__
        self.last_error = error
        if error is None and check is not None:
            name, predicate = check
            if not predicate(result):
                error = self.last_error = "check-" + name
                self.ledger.check_failures.append(
                    "%s/%s: %s" % (trace_name, phase, name))
        if self.record:
            if error is None:
                self.ledger.ops.ok()
                self.sums[phase] = self.sums.get(phase, 0.0) + seconds
                self.wall[phase] = self.wall.get(phase, 0.0) + wall
            else:
                self.ledger.ops.fail(phase, error)
                self.broken.add(phase)
        return None if error else result

    def skip(self, phases, cause):
        """Operations a failed upstream call made impossible still count."""
        if self.record:
            for phase in phases:
                self.ledger.ops.fail(phase, "upstream-" + cause)
                self.broken.add(phase)

    def finish(self):
        """Turn this pass's sums into workload-level samples: host-
        normalised ones under each metric's name, and the raw wall
        times under ``wall.<name>``."""
        self._add_samples("", self.sums)
        self._add_samples("wall.", self.wall)

    def _add_samples(self, prefix, sums):
        samples = self.ledger.samples
        ok = [p for p in sums if p not in self.broken]
        for name in PHASE_METRICS:
            if name in ok:
                samples.add(prefix + name, sums[name])
        if all(p in ok for p in PIPELINE_PHASES):
            samples.add(prefix + "pipeline_s", sum(sums[p] for p in PIPELINE_PHASES))
        for short, _mode in MODES:
            seconds = sums.get("replay." + short, 0.0)
            if seconds > 0:
                samples.add(prefix + short + "_aps", self.actions[short] / seconds)


def run_pass(ledger, rec=None, record=True):
    """Run every trace once.  ``record=False`` is the warm-up: it
    replays the in-memory compiled benchmark and keeps those outcomes
    as the reference every later (loaded) replay must reproduce."""
    rec = rec or NullRecorder()
    run = _Pass(ledger, rec, record)
    for inp in ledger.inputs:
        with rec.span("trace", trace=inp.name):
            _run_trace(ledger, run, rec, inp)
        gc.collect()
    if record:
        run.finish()


def verify_pass(ledger, rec=None):
    """``artc verify`` on a fresh, untimed compile of each trace.

    Verification runs after the timed passes because its JIT programs
    would slow every later phase's garbage collection.  It verifies a
    compile that was never packed: packing stamps a content address,
    and a second verify of that address in one process reuses the JIT
    programs cached under it and runs 3.5x faster.  So every
    ``verify_pass`` is one comparable sample.  Traced runs split it
    into one span per certified core and per predicted mode."""
    rec = rec or NullRecorder()
    run = _Pass(ledger, rec, True)
    for inp in ledger.inputs:
        parsed = ledger.parsed.get(inp.name)
        if parsed is None:
            run.skip(["verify_s"], "compile_s")
            continue
        bench = compile_trace(*parsed)
        if rec.traced:
            fn = lambda: _traced_verify(bench, rec)  # noqa: E731
        else:
            fn = lambda: verify_benchmark(bench)  # noqa: E731
        run.op("verify_s", inp.name, fn, check=("verify-ok", _verify_ok))
        del bench
        gc.collect()
    run.finish()


def _run_trace(ledger, run, rec, inp):
    parsed = run.op("parse_s", inp.name, lambda: _read_inputs(inp))
    if parsed is None:
        return run.skip(TRACE_PHASES[1:], "parse_s")
    trace, snapshot = parsed
    rec.counts(**{"tracing.records": len(trace)})
    bench = run.op("compile_s", inp.name, lambda: compile_trace(trace, snapshot))
    if bench is None:
        return run.skip(TRACE_PHASES[2:], "compile_s")
    ledger.parsed[inp.name] = parsed
    rec.counts(**{
        "core.edges": bench.stats["n_edges"],
        "core.edges_reduced": bench.stats["n_edges_reduced"],
        "core.model_misses": bench.stats["model_misses"],
    })
    if not run.record:
        ledger.batch_digests[inp.name] = benchmark_digest(bench)
    batch_digest = ledger.batch_digests[inp.name]
    if rec.traced:
        # Traced runs split pack into its plan build and the encoding.
        with rec.span("planir.plan", trace=inp.name):
            planir.default_plan(bench)
    data = run.op("pack_s", inp.name, lambda: pack_bytes(bench))
    loaded = None if data is None else run.op(
        "load_s", inp.name, lambda: unpack_bytes(data))
    if loaded is not None:
        rec.counts(**{"artifact.bytes": len(data)})
    # The warm-up replays the in-memory benchmark; timed passes replay
    # the loaded artifact, as ``artc replay x.artcb`` does.
    subject = bench if not run.record else loaded
    if subject is None:
        run.skip(REPLAY_PHASES, "load_s")
    else:
        for short, mode in MODES:
            _replay_op(ledger, run, rec, inp, subject, short, mode)
    streamed = run.op(
        "stream_compile_s", inp.name, lambda: _stream_compile(trace, snapshot),
        check=("stream-digest", lambda b: benchmark_digest(b) == batch_digest),
    )
    if streamed is not None:
        rec.counts(**{"stream.actions": len(streamed.actions)})


def _replay_op(ledger, run, rec, inp, subject, short, mode):
    """One replay; the first outcome per (trace, mode) -- the warm-up's
    replay of the in-memory benchmark -- is the reference that every
    timed replay of the loaded artifact must reproduce exactly,
    including raising the same exception."""
    key = (inp.name, short)
    identity = ("replay-identity",
                lambda r: ledger.determinism.observe(key, _replay_signature(r)))
    result = run.op("replay." + short, inp.name,
                    lambda: _replay_on_fresh_target(subject, inp, short, mode,
                                                    ledger.seed, rec),
                    check=identity)
    if result is None:
        error = run.last_error
        if not error.startswith("check-") and not ledger.determinism.observe(
                key, "raised:" + error):
            ledger.check_failures.append(
                "%s/replay.%s: replay-identity" % (inp.name, short))
        return
    report, fs = result
    if not run.record and short == "artc":
        ledger.accuracy[inp.name] = (report.elapsed, report.failures)
    run.actions[short] = run.actions.get(short, 0) + len(report.results)
    rec.replay_counts(short, report, fs)
