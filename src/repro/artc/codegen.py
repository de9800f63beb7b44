"""The trace-specializing JIT: execution-plan IR -> straight-line Python.

The scoreboard core's precompiled fast path still *interprets* the IR:
every action re-tests the entry kind, unpacks a payload tuple, and
re-reads ``record.ok`` / ``record.ret`` to assess the outcome.  None of
that varies between replays of one compiled benchmark -- so this module
specializes it away.  For each thread it generates one straight-line
Python generator function (``def _t0(run): ...``) whose body is the
thread's action tape unrolled: handler callables, argument dicts,
fd-remap keys, and expected return values are bound as constants in the
generated module's namespace; the conformance check is specialized per
action at codegen time (a trace-successful non-read compiles to ``True
if err is None else assess(...)``); the gate check is elided for
actions with no cross-thread predecessors; and the completion broadcast
is a *batched release* -- pending-predecessor counters for a whole run
of same-thread successors decremented in one pass with a single
waiting-table probe per run (:func:`repro.artc.planir.release_runs`).

There is no per-action kind dispatch and no dict lookup in the loop;
the only per-action runtime work left is the handler call itself, the
report append, and the release decrements.

Program source and the claims table (``JitProgram.facts``) are emitted
eagerly, in one pass; the bytecode is *linked* -- ``compile`` + ``exec``
of the generated module -- lazily, on first access to
``JitProgram.threads`` / ``.main``, i.e. on the first replay that runs
the program.  Certification (:mod:`repro.verify.transval`) reads only
the facts, so ``artc verify`` never pays for bytecode, and a later
replay links the very object whose facts were certified: the
certificate covers exactly the linked program.  Programs are cached
twice: on the benchmark object itself, and -- when the benchmark came
out of a ``.artcb`` artifact -- in a process-wide table keyed by the
artifact's content address, so reloading the same artifact makes
codegen free.

Three variants cover the scoreboard core's fast-path modes:

- ``"artc"``: per-thread bodies with gates + batched release (ARTC mode)
- ``"free"``: per-thread bodies, no synchronization (unconstrained mode)
- ``"seq"``: one body over all actions (single-threaded / program_seq)

The generated code is in lockstep with
``_ReplayRun._sb_thread_fast`` / ``_exec_fast`` in
:mod:`repro.artc.replayer` -- same yields, same report entries, same
error messages -- which the byte-identity property suite
(``tests/property/test_scoreboard_property.py``) enforces against the
event-core oracle.
"""

import time

from repro.artc import planir
from repro.artc.report import ActionResult
from repro.errors import ReplayError
from repro.sim.events import Delay
from repro.vfs import flags as F

#: Process-wide codegen statistics, exported as ``replay.jit.*`` gauges
#: when a jit-core replay runs with observability attached.
#: ``compile_seconds`` is emit + link time; ``link_seconds`` is the link
#: share alone and ``links`` counts linked programs, so emitted-but-never-
#: linked programs (certified, not replayed) show as
#: ``codegen_modules - links``.
COUNTERS = {
    "codegen_modules": 0,
    "codegen_functions": 0,
    "cache_hits_benchmark": 0,
    "cache_hits_content": 0,
    "compile_seconds": 0.0,
    "link_seconds": 0.0,
    "links": 0,
    "source_bytes": 0,
}

VARIANTS = ("artc", "free", "seq")

#: Content-addressed program cache: reloading the same ``.artcb``
#: artifact (same content hash) reuses the compiled program even though
#: the benchmark object is new.
_CONTENT_CACHE = {}
_CONTENT_CACHE_MAX = 8


class JitProgram(object):
    """One compiled program: generator functions plus their source.

    ``facts`` is the emitter's claims table -- one dict per action idx
    recording what the generated code *asserts* it did (gate emitted or
    elided, release runs, bound constants, conformance-check form).
    The translation validator (:mod:`repro.verify.transval`) checks
    these claims against independently derived obligations; they are
    never consulted on the replay hot path.

    The generator functions are linked from ``sources`` on first
    access to :attr:`threads` or :attr:`main`, once per program.
    """

    __slots__ = ("variant", "sources", "n_functions", "facts", "_tids",
                 "_namespace", "_filename", "_threads", "_main")

    def __init__(self, variant, sources, facts, namespace, filename, tids):
        self.variant = variant
        self.sources = sources  # function name -> generated source
        self.n_functions = len(sources)
        self.facts = facts
        self._tids = tids  # thread order of the _t<j> functions (artc/free)
        self._namespace = namespace  # bound constants; None once linked
        self._filename = filename
        self._threads = None
        self._main = None

    @property
    def threads(self):
        """tid -> generator function (artc/free variants), else None."""
        if self._namespace is not None:
            self._link()
        return self._threads

    @property
    def main(self):
        """The single generator function (seq variant), else None."""
        if self._namespace is not None:
            self._link()
        return self._main

    def _link(self):
        started = time.perf_counter()
        namespace = self._namespace
        source = "\n".join(self.sources.values())
        exec(compile(source, self._filename, "exec"), namespace)
        if self.variant == "seq":
            self._main = namespace["_seq"]
        else:
            self._threads = {
                tid: namespace["_t%d" % j] for j, tid in enumerate(self._tids)
            }
        self._namespace = None
        elapsed = time.perf_counter() - started
        COUNTERS["links"] += 1
        COUNTERS["link_seconds"] += elapsed
        COUNTERS["compile_seconds"] += elapsed


def program_for(benchmark, plan, variant, reduced=False):
    """The compiled :class:`JitProgram` for one (benchmark, plan,
    variant) -- cached on the benchmark and, for artifact-loaded
    benchmarks, under the artifact content address."""
    if variant not in VARIANTS:
        raise ValueError("unknown jit variant %r" % (variant,))
    key = (plan.key, variant, bool(reduced))
    cache = getattr(benchmark, "_jit_programs", None)
    if cache is None:
        cache = {}
        benchmark._jit_programs = cache
    program = cache.get(key)
    if program is not None:
        COUNTERS["cache_hits_benchmark"] += 1
        return program
    content = getattr(benchmark, "content_key", None)
    ckey = (content,) + key if content is not None else None
    if ckey is not None:
        program = _CONTENT_CACHE.get(ckey)
        if program is not None:
            COUNTERS["cache_hits_content"] += 1
            cache[key] = program
            return program
    program = _compile_program(benchmark, plan, variant, bool(reduced))
    cache[key] = program
    if ckey is not None:
        while len(_CONTENT_CACHE) >= _CONTENT_CACHE_MAX:
            _CONTENT_CACHE.pop(next(iter(_CONTENT_CACHE)))
        _CONTENT_CACHE[ckey] = program
    return program


# -- the emitter ---------------------------------------------------------


def _compile_program(benchmark, plan, variant, reduced):
    started = time.perf_counter()
    namespace = {
        "_AR": ActionResult,
        "_IF": (int, float),
        "_err": _missing_argument,
        "_mkdrv": _make_driver,
    }
    emitter = _Emitter(namespace)
    entries = plan.entries
    actions = benchmark.actions
    tids = None
    if variant == "seq":
        emitter.function("_seq", actions, entries, sync=None)
        sources = {"_seq": emitter.flush()}
    else:
        sync = _Sync(benchmark, reduced) if variant == "artc" else None
        sources = {}
        tids = []
        for j, (tid, thread_actions) in enumerate(benchmark.by_thread().items()):
            name = "_t%d" % j
            emitter.function(name, thread_actions, entries, sync=sync, tid=tid)
            sources[name] = emitter.flush()
            tids.append(tid)
    filename = "<artc-jit:%s:%s>" % (benchmark.label or "benchmark", variant)
    COUNTERS["codegen_modules"] += 1
    COUNTERS["codegen_functions"] += len(sources)
    COUNTERS["source_bytes"] += sum(len(text) for text in sources.values())
    COUNTERS["compile_seconds"] += time.perf_counter() - started
    return JitProgram(variant, sources, emitter.facts, namespace, filename,
                      tids)


def _make_driver(engine):
    """A per-run generator driver with an uncontended-delay fast path.

    The engine charges every ``Delay`` through the heap: push at
    ``now + seconds``, pop, set ``now``, resume.  When nothing else is
    queued at or before the target instant, all of that is equivalent
    to setting ``now`` directly -- no other event can run (the heap
    guard is strict, so equal-time events that must precede the resume
    force the fallback) and none can be inserted (no other code runs
    in the window).  Skipped sequence numbers cannot reorder anything:
    later insertions still get strictly increasing sequence numbers in
    the same chronological order, and ties are broken only among them.

    Anything that is not exactly a ``Delay`` (gates, events, subclass
    delays) is yielded up to the real engine unchanged, with the
    resume value forwarded, so contended or waiting operations keep
    byte-identical scheduling.  Assumes an unbounded ``engine.run()``,
    which is what every replay core uses.
    """
    queue = engine._queue

    def _drive(g, _Delay=Delay):
        send = g.send
        try:
            item = send(None)
            while True:
                if type(item) is _Delay:
                    t = engine.now + item.seconds
                    if not queue or queue[0][0] > t:
                        engine.now = t
                        item = send(None)
                        continue
                item = send((yield item))
        except StopIteration as stop:
            return stop.value

    return _drive


def _missing_argument(step_name, step_kind, exc, args):
    """The eager-binding audit of :func:`repro.syscalls.execute.perform`,
    reproduced with the identical message."""
    return ReplayError(
        "syscall %s (kind %s) is missing argument %s; got %r"
        % (step_name, step_kind, exc, sorted(args))
    )


# -- direct-call specialization ------------------------------------------
#
# The handler layer (repro.syscalls.execute) is a table of shims that
# unpack the argument dict and return the file-system method's
# generator.  All of that unpacking is constant per action, so the JIT
# evaluates it at codegen time and emits a direct bound-method call:
# ``yield from _fs_open(5, '/a/b', 577, 420)`` -- handler call, dict
# lookups, and flag-string parsing all gone, and for fd-remapped
# entries the dict copy is replaced by the remap expression inlined in
# the fd argument slot.  Each table row mirrors one handler in
# ``execute.HANDLERS``; the byte-identity property suite keeps them in
# lockstep.  Argument items: ``("req", key)`` = ``args[key]``,
# ``("opt", key, default)`` = ``args.get(key, default)``, ``("flags",
# default)`` = the handler's ``_flags_of`` fold, ``("fd", default)`` =
# the fd slot (replaced by the remap expression for fd-remapped
# entries), ``("const", value)`` = a literal.  Kinds without a row --
# the closure-building handlers (fchdir, getcwd, lio_listio) -- keep
# the generic handler-call form.

_DIRECT = {
    "open": ("open", [("req", "path"), ("flags", None), ("opt", "mode", 0o644)], {}),
    "creat": ("creat", [("req", "path"), ("opt", "mode", 0o644)], {}),
    "close": ("close", [("fd", None)], {}),
    "read": ("read", [("fd", None), ("req", "nbytes")], {}),
    "pread": ("pread", [("fd", None), ("req", "nbytes"), ("req", "offset")], {}),
    "write": ("write", [("fd", None), ("req", "nbytes")], {}),
    "pwrite": ("pwrite", [("fd", None), ("req", "nbytes"), ("req", "offset")], {}),
    "lseek": ("lseek", [("fd", None), ("req", "offset"), ("opt", "whence", F.SEEK_SET)], {}),
    "fsync": ("fsync", [("fd", None)], {}),
    "fdatasync": ("fdatasync", [("fd", None)], {}),
    "sync": ("sync", [], {}),
    "stat": ("stat", [("req", "path")], {}),
    "lstat": ("lstat", [("req", "path")], {}),
    "fstat": ("fstat", [("fd", None)], {}),
    "access": ("access", [("req", "path"), ("opt", "mode", 0)], {}),
    "readlink": ("readlink", [("req", "path")], {}),
    "statfs": ("statfs", [("req", "path")], {}),
    "fstatfs": ("fstatfs", [("fd", None)], {}),
    "statfs_global": ("statfs", [("const", "/")], {}),
    "mkdir": ("mkdir", [("req", "path"), ("opt", "mode", 0o755)], {}),
    "rmdir": ("rmdir", [("req", "path")], {}),
    "getdents": ("getdents", [("fd", None)], {}),
    "unlink": ("unlink", [("req", "path")], {}),
    "rename": ("rename", [("req", "old"), ("req", "new")], {}),
    "link": ("link", [("req", "target"), ("req", "path")], {}),
    "symlink": ("symlink", [("req", "target"), ("req", "path")], {}),
    "truncate": ("truncate", [("req", "path"), ("req", "length")], {}),
    "ftruncate": ("ftruncate", [("fd", None), ("req", "length")], {}),
    "chmod": ("chmod", [("req", "path"), ("opt", "mode", 0o644)], {}),
    "fchmod": ("fchmod", [("fd", None), ("opt", "mode", 0o644)], {}),
    "chown": ("chown", [("req", "path")], {}),
    "fchown": ("futimes", [("fd", None)], {}),  # mirrors _h_fchown
    "utimes": ("utimes", [("req", "path")], {}),
    "futimes": ("futimes", [("fd", None)], {}),
    "dup": ("dup", [("fd", None)], {}),
    "flock": ("flock", [("fd", None), ("opt", "op", 0)], {}),
    "fadvise": ("fadvise", [("fd", None), ("opt", "offset", 0), ("opt", "length", 0)], {}),
    "fallocate": ("fallocate", [("fd", None), ("opt", "offset", 0), ("req", "length")], {}),
    "mmap": ("mmap", [("fd", -1), ("opt", "offset", 0), ("req", "length")], {}),
    "munmap": ("munmap", [("opt", "addr", 0), ("opt", "length", 0)], {}),
    "msync": ("msync", [("opt", "addr", 0), ("opt", "length", 0)], {}),
    "pipe": ("pipe", [], {}),
    "shm_unlink": ("shm_unlink", [("req", "name")], {}),
    "chdir": ("chdir", [("req", "path")], {}),
    "getattrlist": ("getattrlist", [("req", "path")], {}),
    "setattrlist": ("setattrlist", [("req", "path")], {}),
    "fgetattrlist": ("fstat", [("fd", None)], {}),
    "fsetattrlist": ("futimes", [("fd", None)], {}),
    "getattrlistbulk": ("getdents", [("fd", None)], {}),
    "getdirentriesattr": ("getdents", [("fd", None)], {}),
    "exchangedata": ("exchangedata", [("req", "path1"), ("req", "path2")], {}),
    "stat_extended": ("stat", [("req", "path")], {}),
    "lstat_extended": ("lstat", [("req", "path")], {}),
    "fstat_extended": ("fstat", [("fd", None)], {}),
    "getxattr": ("getxattr", [("req", "path"), ("req", "xname")], {}),
    "lgetxattr": ("getxattr", [("req", "path"), ("req", "xname")], {"follow": False}),
    "fgetxattr": ("fgetxattr", [("fd", None), ("req", "xname")], {}),
    "setxattr": ("setxattr", [("req", "path"), ("req", "xname"), ("opt", "size", 16)], {}),
    "lsetxattr": (
        "setxattr",
        [("req", "path"), ("req", "xname"), ("opt", "size", 16)],
        {"follow": False},
    ),
    "fsetxattr": ("fsetxattr", [("fd", None), ("req", "xname"), ("opt", "size", 16)], {}),
    "listxattr": ("listxattr", [("req", "path")], {}),
    "llistxattr": ("listxattr", [("req", "path")], {"follow": False}),
    "flistxattr": ("flistxattr", [("fd", None)], {}),
    "removexattr": ("removexattr", [("req", "path"), ("req", "xname")], {}),
    "lremovexattr": ("removexattr", [("req", "path"), ("req", "xname")], {"follow": False}),
    "fremovexattr": ("fremovexattr", [("fd", None), ("req", "xname")], {}),
    "aio_read": (
        "aio_submit",
        [("req", "aiocb"), ("fd", None), ("req", "nbytes"), ("opt", "offset", 0),
         ("const", False)],
        {},
    ),
    "aio_write": (
        "aio_submit",
        [("req", "aiocb"), ("fd", None), ("req", "nbytes"), ("opt", "offset", 0),
         ("const", True)],
        {},
    ),
    "aio_error": ("aio_error", [("req", "aiocb")], {}),
    "aio_cancel": ("aio_error", [("req", "aiocb")], {}),
    "aio_return": ("aio_return", [("req", "aiocb")], {}),
    "aio_suspend": ("aio_suspend", [("req", "aiocbs")], {}),
}


def _flags_value(args):
    """Codegen-time mirror of ``execute._flags_of``."""
    value = args.get("flags", 0)
    if isinstance(value, str):
        value = F.parse_flags(value)
    return value


def _fcntl_direct(args):
    """Codegen-time mirror of ``execute._h_fcntl``'s branch: the cmd is
    a trace constant, so the branch resolves at codegen."""
    cmd = args.get("cmd", "F_GETFL")
    if cmd == "F_FULLFSYNC":
        return "full_fsync", [("fd", None)], {}
    if cmd in ("F_DUPFD", "F_DUPFD_CLOEXEC"):
        return "dup", [("fd", None)], {}
    if cmd == "F_PREALLOCATE":
        return "fallocate", [("fd", None), ("const", 0),
                             ("const", args.get("arg", 0) or 0)], {}
    if cmd == "F_RDADVISE":
        return "fadvise", [("fd", None), ("const", args.get("offset", 0)),
                           ("const", args.get("arg", 0) or 0)], {}
    return "flock", [("fd", None)], {}


def _shm_open_direct(args):
    flags = _flags_value(args) or (F.O_RDWR | F.O_CREAT)
    return "shm_open", [("req", "name"), ("const", flags),
                        ("opt", "mode", 0o600)], {}


_DIRECT_SPECIAL = {"fcntl": _fcntl_direct, "shm_open": _shm_open_direct}


class _Sync(object):
    """The scoreboard view the ``artc`` variant specializes against:
    active predecessor lists, successor lists, owner tids, and the
    per-action batched release runs."""

    def __init__(self, benchmark, reduced):
        graph = benchmark.graph
        preds = graph.preds
        if reduced and graph.reduced_preds is not None:
            preds = graph.reduced_preds
        self.preds = preds
        self.tid_of = [action.record.tid for action in benchmark.actions]
        succs = [[] for _ in benchmark.actions]
        for dst, plist in enumerate(preds):
            for src in plist:
                succs[src].append(dst)
        self.succs = succs

    def needs_gate(self, idx):
        """A gate check is required unless every predecessor is an
        earlier action of the same thread (those have always completed
        -- and decremented -- by the time the thread arrives here)."""
        tid = self.tid_of[idx]
        for src in self.preds[idx]:
            if self.tid_of[src] != tid or src >= idx:
                return True
        return False

    def runs(self, idx):
        return planir.release_runs(self.succs[idx], self.tid_of)


class _Emitter(object):
    def __init__(self, namespace):
        self.ns = namespace
        self.lines = []
        self.facts = {}  # action idx -> claims dict (see JitProgram.facts)

    def flush(self):
        source = "\n".join(self.lines) + "\n"
        self.lines = []
        return source

    def lit(self, value, name):
        """A source literal for ``value``; non-trivial values become
        named constants in the module namespace."""
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, (int, float, str)):
            return repr(value)
        self.ns[name] = value
        return name

    def const(self, name, value):
        self.ns[name] = value
        return name

    # -- function layout ----------------------------------------------

    def function(self, name, actions, entries, sync, tid=None):
        out = self.lines
        self._fn = name
        out.append("def %s(run):" % name)
        body = []
        wakers = {}  # owner tid -> bound local name
        methods = set()  # fs methods called directly
        tid_lit = None if tid is None else self.lit(tid, "_tid_%s" % name)
        for action in actions:
            self._action(
                body, action, entries[action.idx], sync, tid, tid_lit,
                wakers, methods,
            )
        # Preamble after the body: which gates get woken and which fs
        # methods get bound are only known once the body is emitted.
        kinds = {entries[action.idx][0] for action in actions}
        out.append("    ctx = run.ctx")
        out.append("    engine = run.engine")
        if planir.FDREMAP in kinds:
            out.append("    fd_map = ctx.fd_map")
        if methods:
            out.append("    fs = ctx.fs")
            for method in sorted(methods):
                out.append("    _fs_%s = fs.%s" % (method, method))
        out.append("    append = run.report.results.append")
        out.append("    assess = run._assess")
        if any(entries[action.idx][3] for action in actions):
            out.append("    update = run._update_maps")
        if planir.DYNAMIC in kinds:
            out.append("    perform = run._perform")
        if kinds - {planir.META}:
            out.append("    _drive = _mkdrv(engine)")
        if planir.META in kinds:
            out.append("    meta = run._meta_delay")
            out.append("    _d = meta.seconds")
            out.append("    _q = engine._queue")
        if sync is not None:
            out.append("    pending = run._sb_pending")
            out.append("    waiting = run._sb_waiting")
            if any(sync.needs_gate(action.idx) for action in actions):
                out.append("    gate = run._sb_gates[%s]" % tid_lit)
            for owner, waker in wakers.items():
                out.append(
                    "    %s = run._sb_gates[%s].open"
                    % (waker, self.lit(owner, "_o%s_%s" % (name, waker)))
                )
        if not actions:
            # An empty tape must still be a generator function.
            out.append("    return")
            out.append("    yield")
            return
        out.extend(body)

    # -- one action ----------------------------------------------------

    def _action(self, out, action, entry, sync, tid, tid_lit, wakers, methods):
        kind, payload, is_read, upd = entry
        idx = action.idx
        record = action.record
        own_tid = record.tid if tid is None else tid
        own_lit = tid_lit if tid_lit is not None else self.lit(
            own_tid, "_rt%d" % idx
        )
        name_lit = repr(record.name)
        p = "    "
        gated = sync is not None and sync.needs_gate(idx)
        fact = self.facts[idx] = {
            "idx": idx,
            "tid": own_tid,
            "kind": kind,
            "gate": gated,
            "releases": [],
            "conformance": None,
            "expected_ret": None,
            "update": bool(upd),
            "fd_key": None,
            "steps": None,
            "args": None,
        }
        if gated:
            out.append(p + "if pending[%d]:" % idx)
            out.append(p + "    waiting[%s] = %d" % (own_lit, idx))
            out.append(p + "    yield gate")
        out.append(p + "issue = engine.now")
        if kind == planir.META:
            # Inline fast-forward: the meta charge lands at
            # ``issue + _d`` -- bitwise the engine's ``now + delay``.
            # With nothing queued at or before that instant, the heap
            # round-trip is pure overhead (see _make_driver); the
            # fallback resume also lands exactly at ``t``.
            out.append(p + "t = issue + _d")
            out.append(p + "if _q and _q[0][0] <= t:")
            out.append(p + "    yield meta")
            out.append(p + "else:")
            out.append(p + "    engine.now = t")
            out.append(
                p + "append(_AR(%d, %s, %s, issue, t, 0, None, True))"
                % (idx, own_lit, name_lit)
            )
            fact["conformance"] = "meta"
        elif kind == planir.DYNAMIC:
            act = self.const("_x%d" % idx, action)
            out.append(
                p + "ret, err, performed = yield from _drive(perform(%s))" % act
            )
            out.append(
                p + "matched = assess(%s, ret, err) if performed else True" % act
            )
            out.append(p + self._append_result(idx, own_lit, name_lit))
            fact["conformance"] = "dynamic"
        else:
            if kind == planir.STATIC:
                handler, args, step_name, step_kind = payload
                fact["steps"] = ((step_name, step_kind),)
                fact["args"] = (args,)
                self._step(out, p, idx, "", handler, args, step_name,
                           step_kind, own_lit, methods)
            elif kind == planir.FDREMAP:
                handler, base, fd_key, step_name, step_kind = payload
                fact["fd_key"] = fd_key
                fact["steps"] = ((step_name, step_kind),)
                fact["args"] = (base,)
                self._step(out, p, idx, "", handler, base, step_name,
                           step_kind, own_lit, methods, fd_key=fd_key)
            else:  # MULTI: unrolled with early exit on error
                fact["steps"] = tuple(
                    (step_name, step_kind)
                    for _, _, step_name, step_kind in payload
                )
                fact["args"] = tuple(args for _, args, _, _ in payload)
                for j, (handler, args, step_name, step_kind) in enumerate(payload):
                    prefix = p + "    " * j
                    if j:
                        out.append(prefix[:-4] + "if err is None:")
                    self._step(out, prefix, idx, "_%d" % j, handler, args,
                               step_name, step_kind, own_lit, methods)
            if upd:
                act = self.const("_x%d" % idx, action)
                out.append(p + "update(%s, ret, err)" % act)
            if not record.ok:
                fact["conformance"] = "assess"
            elif is_read:
                fact["conformance"] = "ok_ret"
                fact["expected_ret"] = record.ret
            else:
                fact["conformance"] = "ok"
            out.append(p + self._matched(idx, action, is_read))
            out.append(p + self._append_result(idx, own_lit, name_lit))
        if sync is not None:
            self._release(out, p, sync, idx, own_tid, wakers)

    def _step(self, out, p, idx, suffix, handler, args, step_name,
              step_kind, tid_lit, methods, fd_key=None):
        """One step invocation.  Preferred form: the handler's argument
        unpacking evaluated at codegen time and a direct bound-method
        call emitted.  Fallback (no direct row, or unpacking fails at
        codegen the way it would at runtime): the handler call under
        the eager-binding KeyError audit, exactly as the interpreter
        performs it."""
        fd_expr = None
        if fd_key is not None:
            fd_expr = "fd_map.get(%s, %s)" % (
                self.const("_k%d%s" % (idx, suffix), fd_key),
                self.lit(args["fd"], "_f%d%s" % (idx, suffix)),
            )
        if self._direct(out, p, idx, suffix, step_kind, args, tid_lit,
                        fd_expr, methods):
            return
        if fd_key is not None:
            out.append(
                p + "args = dict(%s)" % self.const("_a%d%s" % (idx, suffix), args)
            )
            out.append(p + 'args["fd"] = %s' % fd_expr)
            args_expr = "args"
        else:
            args_expr = self.const("_a%d%s" % (idx, suffix), args)
        h = self.const("_h%d%s" % (idx, suffix), handler)
        out.append(p + "try:")
        out.append(p + "    step = %s(ctx, %s, %s)" % (h, tid_lit, args_expr))
        out.append(p + "except KeyError as exc:")
        out.append(
            p + "    raise _err(%r, %r, exc, %s)"
            % (step_name, step_kind, args_expr)
        )
        out.append(p + "ret, err = yield from _drive(step)")

    def _direct(self, out, p, idx, suffix, step_kind, args, tid_lit,
                fd_expr, methods):
        """Emit ``ret, err = yield from _fs_<method>(...)`` when the
        handler's argument unpacking can be fully evaluated now.
        Returns False (emitting nothing) when it cannot -- the generic
        form then reproduces the interpreter's runtime behavior,
        including its error surfacing."""
        special = _DIRECT_SPECIAL.get(step_kind)
        try:
            if special is not None:
                method, argspec, kwspec = special(args)
            else:
                spec = _DIRECT.get(step_kind)
                if spec is None:
                    return False
                method, argspec, kwspec = spec
            parts = []
            for item in argspec:
                tag = item[0]
                if tag == "req":
                    value = args[item[1]]
                elif tag == "opt":
                    value = args.get(item[1], item[2])
                elif tag == "flags":
                    value = _flags_value(args)
                elif tag == "const":
                    value = item[1]
                else:  # the fd slot
                    if fd_expr is not None:
                        parts.append(fd_expr)
                        continue
                    if item[1] is None:
                        value = args["fd"]
                    else:
                        value = args.get("fd", item[1])
                parts.append(
                    self.lit(value, "_c%d%s_%d" % (idx, suffix, len(parts)))
                )
            for name, value in kwspec.items():
                parts.append(
                    "%s=%s"
                    % (name, self.lit(value, "_c%d%s_%s" % (idx, suffix, name)))
                )
        except Exception:
            return False
        methods.add(method)
        out.append(
            p + "ret, err = yield from _drive(_fs_%s(%s))"
            % (method, ", ".join([tid_lit] + parts))
        )
        return True

    def _matched(self, idx, action, is_read):
        record = action.record
        act = lambda: self.const("_x%d" % idx, action)  # noqa: E731
        if not record.ok:
            return "matched = assess(%s, ret, err)" % act()
        if is_read:
            return (
                "matched = True if err is None and ret == %s else assess(%s, ret, err)"
                % (self.lit(record.ret, "_r%d" % idx), act())
            )
        return "matched = True if err is None else assess(%s, ret, err)" % act()

    def _append_result(self, idx, tid_lit, name_lit):
        return (
            "append(_AR(%d, %s, %s, issue, engine.now,"
            " ret if isinstance(ret, _IF) else 0, err, matched))"
            % (idx, tid_lit, name_lit)
        )

    def _release(self, out, p, sync, idx, own_tid, wakers):
        claims = self.facts[idx]["releases"]
        for owner, members in sync.runs(idx):
            claims.append((owner, tuple(members), owner != own_tid))
            for succ in members:
                out.append(p + "pending[%d] -= 1" % succ)
            if owner == own_tid:
                # This thread is running this very release; it cannot
                # be parked, so no wake probe.
                continue
            waker = wakers.get(owner)
            if waker is None:
                waker = wakers[owner] = "_w%d" % len(wakers)
            owner_lit = self.lit(owner, "_ow%s_%s" % (self._fn, waker))
            if len(members) == 1:
                succ = members[0]
                out.append(
                    p + "if waiting.get(%s) == %d and not pending[%d]:"
                    % (owner_lit, succ, succ)
                )
            else:
                out.append(p + "_p = waiting.get(%s)" % owner_lit)
                if len(members) <= 4:
                    test = " or ".join("_p == %d" % s for s in members)
                else:
                    test = "_p in %s" % self.const(
                        "_s%d_%s" % (idx, waker), frozenset(members)
                    )
                out.append(
                    p + "if _p is not None and (%s) and not pending[_p]:" % test
                )
            out.append(p + "    del waiting[%s]" % owner_lit)
            out.append(p + "    %s()" % waker)
