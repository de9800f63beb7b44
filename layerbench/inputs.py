"""Workload definitions and input generation (the benchmark's set-up).

Set-up plays the part of the user's machine: it runs each application
on the *source* platform with tracing on, captures the pre-run
snapshot, runs the application untraced on the *target* platform for
the ground-truth elapsed time, and writes the trace as text.  The
pipeline under measurement receives only the trace file and the
snapshot file; the ground truth stays with the benchmark.
"""

import os
import random

from repro.bench.harness import ground_truth_run, trace_application
from repro.bench.platforms import PLATFORMS
from repro.tracing import ibench, strace
from repro.workloads.base import Application
from repro.workloads.magritte import build_suite

IWORK_APPS = (
    "numbers_start5",
    "numbers_createcol5",
    "numbers_open5",
    "numbers_xls5",
    "keynote_start20",
    "keynote_create20",
    "keynote_createphoto20",
    "keynote_play20",
    "keynote_playphoto20",
    "keynote_ppt20",
    "keynote_pptphoto20",
)


class ChurnApp(Application):
    """Eight threads churning a six-file pool: create, many short
    reads, then an unlink or a rename round trip per cycle.

    The same generator as the compile-speed microbenchmark
    (``benchmarks/bench_compile_speed.py``): every unlink of a hot
    shared file depends on each earlier cross-thread use, so the raw
    dependency graph is dense and the reduction pass removes about
    half of it.
    """

    name = "churn"
    roots = ("/churn",)
    threads = 8
    cycles = 50
    reads_per_cycle = 20
    pool = tuple("/churn/f%d" % i for i in range(6))

    def __init__(self, seed):
        self.seed = seed

    def setup(self, fs):
        fs.makedirs_now("/churn")
        for path in self.pool:
            fs.create_file_now(path, size=64 << 10)

    def main(self, osapi):
        bodies = [
            self._thread(osapi, tid, self.seed * 1000 + tid)
            for tid in range(1, self.threads + 1)
        ]
        elapsed = yield from self.spawn_threads(osapi, bodies)
        return elapsed

    def _thread(self, osapi, tid, rng_seed):
        rng = random.Random(rng_seed)
        for _cycle in range(self.cycles):
            path = rng.choice(self.pool)
            fd, err = yield from osapi.call(
                tid, "open", path=path, flags="O_WRONLY|O_CREAT"
            )
            if err is None:
                yield from osapi.call(tid, "write", fd=fd, nbytes=4096)
                yield from osapi.call(tid, "close", fd=fd)
            for _read in range(self.reads_per_cycle):
                target = rng.choice(self.pool)
                fd, err = yield from osapi.call(
                    tid, "open", path=target, flags="O_RDONLY"
                )
                if err is None:
                    yield from osapi.call(tid, "read", fd=fd, nbytes=1024)
                    yield from osapi.call(tid, "close", fd=fd)
            victim = rng.choice(self.pool)
            if rng.random() < 0.5:
                yield from osapi.call(tid, "unlink", path=victim)
            else:
                yield from osapi.call(
                    tid, "rename", old=victim, new=victim + ".tmp"
                )
                yield from osapi.call(
                    tid, "rename", old=victim + ".tmp", new=victim
                )


class Workload(object):
    """Which applications to trace, where, and in which text format.

    ``pass_seconds`` is how long one timed pass takes on the 2-CPU
    host the benchmark was built on; it turns ``--seconds`` into a
    fixed pass count (see :meth:`passes`).
    """

    def __init__(self, name, apps, source, target, fmt, pass_seconds):
        self.name = name
        self.apps = tuple(apps)
        self.source = source
        self.target = target
        self.fmt = fmt
        self.pass_seconds = pass_seconds

    def passes(self, seconds, minimum):
        """Timed passes for a ``seconds``-long run.  The count depends
        only on the arguments, never on the host's speed, so the
        operations attempted and failed repeat exactly per seed."""
        return max(minimum, int(round(seconds / self.pass_seconds)))

    def make_app(self, app_name, seed):
        if app_name == "churn":
            return ChurnApp(seed)
        return build_suite([app_name])[app_name]


WORKLOADS = {
    # Largest Magritte trace, fsync-heavy: replay time goes to storage.
    "iphoto": Workload(
        "iphoto", ["iphoto_import400"], "hdd-ext4", "hdd-ext4", "strace", 2.5),
    # 20k-action metadata churn: the dense dependency graph stresses
    # compile, vfs and the replay loop while storage is nearly idle.
    "churn": Workload("churn", ["churn"], "ssd", "ssd", "strace", 8.0),
    # 11 small Darwin traces replayed on Linux: read/stat-heavy, with
    # per-trace fixed costs and syscall emulation.
    "iwork": Workload("iwork", IWORK_APPS, "mac-hdd", "hdd-ext4", "ibench", 6.0),
}


class TraceInput(object):
    """One generated input: the files the pipeline reads, plus the
    ground truth the benchmark scores it against."""

    def __init__(self, name, trace_path, snapshot_path, fmt, target, truth):
        self.name = name
        self.trace_path = trace_path
        self.snapshot_path = snapshot_path
        self.fmt = fmt
        self.target = target
        self.truth = truth


def generate(workload, seed, directory):
    """Trace every application of ``workload`` with ``seed`` and write
    its inputs under ``directory``; returns the :class:`TraceInput` list."""
    source = PLATFORMS[workload.source]
    target = PLATFORMS[workload.target]
    writer = strace if workload.fmt == "strace" else ibench
    inputs = []
    for app_name in workload.apps:
        traced = trace_application(workload.make_app(app_name, seed), source, seed=seed)
        truth = ground_truth_run(workload.make_app(app_name, seed), target, seed=seed)
        trace_path = os.path.join(directory, "%s.%s" % (app_name, workload.fmt))
        snapshot_path = os.path.join(directory, "%s.snapshot.json" % app_name)
        writer.save(traced.trace, trace_path)
        traced.snapshot.save(snapshot_path)
        inputs.append(TraceInput(
            app_name, trace_path, snapshot_path, workload.fmt,
            workload.target, truth,
        ))
    return inputs
