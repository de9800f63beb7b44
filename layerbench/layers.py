"""Tracing for the layer ledger: phase spans, a profiler roll-up of
self time by ``repro/<package>/<module>``, and per-layer counts.

Spans are recorded by the benchmark's own code around each public
call (nothing inside ``src/`` is instrumented).  Replay's inner layers
run as interleaved generators under one ``replay()`` call, so their
self time comes from a deterministic profiler (``cProfile``) enabled
for the span of a profiled phase and rolled up per module.  Time spent
in builtins and the standard library is charged to the ``repro``
module that called it, so a layer's self time includes the C calls it
makes.
"""

import cProfile
import pstats
import time
from contextlib import contextmanager

from repro.verify import CORES

from pipeline import MODES as _MODE_PAIRS
from pipeline import REPLAY_PHASES

MODES = tuple(short for short, _mode in _MODE_PAIRS)

#: Phases whose inner layers only a profiler can separate.
PROFILED = frozenset(("parse_s", "compile_s") + REPLAY_PHASES)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = [
    ("tracing.parse.self_s", "s"),
    ("tracing.records", "count"),
    ("core.model_s", "s"),
    ("core.fsstate.self_s", "s"),
    ("core.deps_s", "s"),
    ("core.reduce_s", "s"),
    ("core.edges", "count"),
    ("core.edges_reduced", "count"),
    ("core.model_misses", "count"),
    ("planir.plan_s", "s"),
    ("planir.self_s", "s"),
    ("artifact.encode_s", "s"),
    ("artifact.decode_s", "s"),
    ("artifact.bytes", "bytes"),
    ("init.initialize_s", "s"),
] + [("replayer.replay_s." + m, "s") for m in MODES] + [
    ("replayer.self_s." + m, "s") for m in MODES] + [
    ("replayer.skipped", "count"),
    ("syscalls.execute.self_s", "s"),
    ("syscalls.emulation.self_s", "s"),
    ("vfs.filesystem.self_s", "s"),
    ("vfs.nodes.self_s", "s"),
    ("vfs.fdtable.self_s", "s"),
    ("vfs.ops", "count"),
    ("storage.stack.self_s", "s"),
    ("storage.cache.self_s", "s"),
    ("storage.scheduler.self_s", "s"),
    ("storage.device.self_s", "s"),
    ("storage.alloc.self_s", "s"),
    ("storage.cache.hits", "count"),
    ("storage.cache.misses", "count"),
    ("storage.reads_submitted", "count"),
    ("storage.writes_submitted", "count"),
    ("storage.blocks_read", "count"),
    ("storage.blocks_written", "count"),
    ("storage.fsyncs", "count"),
    ("storage.journal_commits", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.events.self_s", "s"),
    ("sim.host_us_per_action", "us"),
] + [("verify.certify_s." + c, "s") for c in CORES] + [
    ("verify.obligations." + c, "count") for c in CORES] + [
    ("verify.predict_s." + m, "s") for m in MODES] + [
    ("verify.unknown_actions", "count"),
    ("stream.feed_s", "s"),
    ("stream.actions", "count"),
    ("accuracy.timing_error_pct", "%"),
    ("accuracy.failed_actions", "count"),
    ("trace.overhead", "ratio"),
]

#: Self-time metric -> the modules it sums (device models included).
SELF_MODULES = {
    "syscalls.execute.self_s": ("syscalls.execute",),
    "syscalls.emulation.self_s": ("syscalls.emulation",),
    "vfs.filesystem.self_s": ("vfs.filesystem",),
    "vfs.nodes.self_s": ("vfs.nodes",),
    "vfs.fdtable.self_s": ("vfs.fdtable",),
    "storage.stack.self_s": ("storage.stack",),
    "storage.cache.self_s": ("storage.cache",),
    "storage.scheduler.self_s": ("storage.scheduler",),
    "storage.device.self_s": ("storage.device", "storage.hdd",
                              "storage.ssd", "storage.raid"),
    "storage.alloc.self_s": ("storage.alloc",),
    "sim.engine.self_s": ("sim.engine",),
    "sim.events.self_s": ("sim.events",),
    "planir.self_s": ("artc.planir",),
}

#: Cumulative-time metric -> (module, function) inside ``compile_s``.
CUMULATIVE = {
    "core.model_s": ("core.model", "__init__"),  # TraceModel(...)
    "core.deps_s": ("core.deps", "build_dependencies"),
    "core.reduce_s": ("core.reduce", "reduce_graph"),
}


def module_of(filename):
    """``.../repro/core/model.py`` -> ``core.model``; ``None`` outside
    the ``repro`` package."""
    path = filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut < 0 or not path.endswith(".py"):
        return None
    return path[cut + len("/repro/"):-3].replace("/", ".")


class Recorder(object):
    """Spans, counts and (when ``profile``) per-phase profiler roll-ups
    for one pass; everything stays in memory until the run ends."""

    traced = True

    def __init__(self, run_id, profile):
        self.run_id = run_id
        self.profile = profile
        self.spans = []
        self.self_s = {}  # phase -> module -> seconds
        self.cum_s = {}  # phase -> (module, function) -> seconds
        self.totals = {}  # count name -> sum over traces
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        record = dict(attrs, id=len(self.spans), name=name, run=self.run_id,
                      parent=self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(record["id"])
        profiler = None
        if self.profile and name in PROFILED:
            profiler = cProfile.Profile()
        record["start"] = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield record
        finally:
            if profiler is not None:
                profiler.disable()
            record["end"] = time.perf_counter()
            self._open.pop()
            if profiler is not None:
                self._absorb(name, profiler)

    def _absorb(self, phase, profiler):
        own = self.self_s.setdefault(phase, {})
        cum = self.cum_s.setdefault(phase, {})
        peak = {}
        for (filename, _line, func), row in pstats.Stats(profiler).stats.items():
            _cc, _nc, tottime, cumtime, callers = row
            module = module_of(filename)
            if module is None:
                # Builtins and stdlib: charge the calling repro module.
                for caller, edge in callers.items():
                    key = module_of(caller[0]) or "other"
                    own[key] = own.get(key, 0.0) + edge[2]
                if not callers:
                    own["other"] = own.get("other", 0.0) + tottime
                continue
            own[module] = own.get(module, 0.0) + tottime
            key = (module, func)
            peak[key] = max(peak.get(key, 0.0), cumtime)
        for key, seconds in peak.items():
            cum[key] = cum.get(key, 0.0) + seconds

    def counts(self, **values):
        """Add per-trace counts into the pass totals."""
        for name, value in values.items():
            self.totals[name] = self.totals.get(name, 0) + value

    def replay_counts(self, short, report, fs):
        self.counts(**{"replayer.skipped": report.skipped,
                       "replayer.actions." + short: len(report.results)})
        if short != "artc":
            return
        stack = fs.stack
        values = {"vfs.ops": fs.op_count,
                  "storage.cache.hits": stack.cache.hits,
                  "storage.cache.misses": stack.cache.misses}
        for name, value in stack.stats.as_dict().items():
            values["storage." + name] = value
        self.counts(**values)

    def span_seconds(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def op_seconds(self, phases):
        return sum(self.span_seconds(p) for p in phases)

    def self_seconds(self, phases, modules):
        return sum(self.self_s.get(p, {}).get(m, 0.0)
                   for p in phases for m in modules)

    def tracing_self_seconds(self):
        own = self.self_s.get("parse_s", {})
        return sum(v for m, v in own.items() if m.startswith("tracing."))


def layer_metrics(spans, profiled, accuracy):
    """Per-layer metrics from a spans-only pass (``spans``: host-time
    brackets and counts) and a profiled pass over the same inputs
    (``profiled``: self time by module, and the overhead ratio)."""
    out = {}
    for name, unit in PER_LAYER:
        if unit in ("count", "bytes") and not name.startswith("accuracy."):
            out[name] = spans.totals.get(name, 0)
    out["tracing.parse.self_s"] = profiled.tracing_self_seconds()
    for name, (module, func) in CUMULATIVE.items():
        out[name] = profiled.cum_s.get("compile_s", {}).get((module, func), 0.0)
    out["core.fsstate.self_s"] = profiled.self_seconds(["compile_s"], ["core.fsstate"])
    for name, modules in SELF_MODULES.items():
        out[name] = profiled.self_seconds(REPLAY_PHASES, modules)
    for mode in MODES:
        out["replayer.replay_s." + mode] = spans.span_seconds("replayer.replay." + mode)
        out["replayer.self_s." + mode] = profiled.self_seconds(
            ["replay." + mode], ["artc.replayer"])
    out["planir.plan_s"] = spans.span_seconds("planir.plan")
    out["artifact.encode_s"] = spans.span_seconds("pack_s")
    out["artifact.decode_s"] = spans.span_seconds("load_s")
    out["init.initialize_s"] = spans.span_seconds("init.initialize")
    artc_actions = spans.totals.get("replayer.actions.artc", 0)
    out["sim.host_us_per_action"] = (
        1e6 * out["replayer.replay_s.artc"] / artc_actions if artc_actions else 0.0)
    for core in CORES:
        out["verify.certify_s." + core] = spans.span_seconds("verify.certify." + core)
    for mode in MODES:
        out["verify.predict_s." + mode] = spans.span_seconds("verify.predict." + mode)
    out["stream.feed_s"] = spans.span_seconds("stream_compile_s")
    out.update(accuracy)
    phases = sorted(PROFILED)
    base = spans.op_seconds(phases)
    out["trace.overhead"] = profiled.op_seconds(phases) / base if base else 0.0
    return out
