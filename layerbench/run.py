"""Layer-ledger benchmark: trace file -> compile -> .artcb -> replay ->
verify, end to end and layer by layer.

Usage (from the repository root)::

    python3 layerbench/run.py --workload iphoto --seed 1 --seconds 25 --trace 0

``--trace 0`` times the whole pipeline for a fixed number of passes
after a discarded warm-up (``--seconds`` over the workload's nominal
pass time, and at least ``MIN_PASSES``), then runs ``verify``
``VERIFY_PASSES`` times, and prints the end-to-end metrics, which are
host-normalised (``hostref``); ``--trace 1`` makes one spans-only pass
and one profiled pass and prints the per-layer metrics with the
tracing overhead.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result (host fingerprint, sample counts and quartiles, spans) is
written to ``.layerbench/`` at the repository root.  See
``layerbench/METRICS.md`` for what each metric means.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from hostref import HostClock, reference
from stats import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".layerbench")

SETUP_REPS = 3
MIN_PASSES = 3
#: ``verify`` runs this many times per trace after the timed passes.
VERIFY_PASSES = 2

#: (name, unit) in report order; these are BENCHMARK.json's end_to_end.
#: The JSON line carries each one's median over the run; the times are
#: host-normalised (see ``hostref``).
END_TO_END = [
    ("setup_s", "s"),
    ("parse_s", "s"),
    ("compile_s", "s"),
    ("pack_s", "s"),
    ("load_s", "s"),
    ("artc_aps", "actions/s"),
    ("single_aps", "actions/s"),
    ("unconstrained_aps", "actions/s"),
    ("stream_compile_s", "s"),
    ("verify_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Printed with the end-to-end metrics but not gated (see METRICS.md):
#: temporal replay has no successful sample on churn and iwork, and the
#: accuracy figures are fixed per seed but vary across seeds.
REPORT_ONLY = [
    ("temporal_aps", "actions/s"),
    ("timing_error_pct", "%"),
    ("failed_actions", "count"),
]


def _calibration_loop():
    acc = 0
    for i in range(300000):
        acc = (acc * 31 + i) % 1000003
    return acc


def fingerprint(workload, seed):
    """Host facts that make numbers from different machines comparable."""
    timings, references = [], []
    for _ in range(5):
        started = time.perf_counter()
        _calibration_loop()
        timings.append(time.perf_counter() - started)
        started = time.perf_counter()
        reference()
        references.append(time.perf_counter() - started)
    loc = 0
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as handle:
                    loc += sum(1 for _ in handle)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_s": statistics.median(timings),
        "reference_s": statistics.median(references),
        "workload": workload,
        "seed": seed,
        "src_repro_loc": loc,
    }


def _setup(workload, seed, reps):
    """Generate the inputs ``reps`` times; keep the last set.  Returns
    the host-normalised and the wall seconds of each set-up."""
    from inputs import generate

    os.makedirs(OUT, exist_ok=True)
    clock = HostClock()
    seconds, wall, directory, inputs = [], [], None, None
    with clock.sampling():
        for _ in range(reps):
            if directory is not None:
                shutil.rmtree(directory)
            directory = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
            gc.collect()
            (inputs, exc), took, normalised = clock.call(
                lambda: generate(workload, seed, directory))
            if exc is not None:
                raise exc
            seconds.append(normalised)
            wall.append(took)
    return seconds, wall, directory, inputs


def accuracy_metrics(ledger):
    """Paper Fig. 4 timing error (mean over traces) and Table 3
    semantic failures, from the ARTC reference replays."""
    errors, failed = [], 0
    for inp in ledger.inputs:
        if inp.name not in ledger.accuracy:  # the reference replay raised
            continue
        elapsed, failures = ledger.accuracy[inp.name]
        errors.append(100.0 * abs(elapsed - inp.truth) / inp.truth)
        failed += failures
    if not errors:
        return {"timing_error_pct": None, "failed_actions": None}
    return {"timing_error_pct": sum(errors) / len(errors),
            "failed_actions": failed}


def timed_run(ledger, passes):
    from pipeline import run_pass, verify_pass

    run_pass(ledger, record=False)
    with ledger.clock.sampling():
        for _ in range(passes):
            run_pass(ledger)
        for _ in range(VERIFY_PASSES):
            verify_pass(ledger)
    return {name: ledger.samples.summary(name)
            for name in ledger.samples.names()}


def traced_run(ledger):
    from layers import Recorder, layer_metrics
    from pipeline import run_pass, verify_pass

    run_pass(ledger, record=False)
    spans = Recorder("spans", profile=False)
    run_pass(ledger, rec=spans)
    profiled = Recorder("profiled", profile=True)
    run_pass(ledger, rec=profiled)
    verify_pass(ledger, rec=spans)
    accuracy = {"accuracy." + k: v for k, v in accuracy_metrics(ledger).items()}
    return layer_metrics(spans, profiled, accuracy), spans.spans + profiled.spans


def _fmt(value):
    if value is None:
        return "-"
    return "%.6g" % value


def print_end_to_end(summaries):
    """Host-normalised median and quartiles, then the raw wall median."""
    print("%-20s %-10s %4s %12s %12s %12s %12s" % (
        "metric", "unit", "n", "median", "q1", "q3", "wall median"))
    for name, unit in END_TO_END + REPORT_ONLY:
        s = summaries.get(name, summarize([]))
        wall = summaries.get("wall." + name, summarize([]))
        print("%-20s %-10s %4d %12s %12s %12s %12s" % (
            name, unit, s["n"], _fmt(s["median"]), _fmt(s["q1"]),
            _fmt(s["q3"]), _fmt(wall["median"])))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("layerbench: no repro package under %s; run from a repository "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from inputs import WORKLOADS
    from layers import PER_LAYER
    from pipeline import Ledger

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload]
    host = fingerprint(workload.name, args.seed)
    reps = 1 if args.trace else SETUP_REPS
    setup_seconds, setup_wall, directory, inputs = _setup(
        workload, args.seed, reps)
    try:
        ledger = Ledger(args.seed, inputs)
        result = {"host": host, "setup_s": setup_seconds}
        if args.trace:
            per_layer, spans = traced_run(ledger)
            result.update(per_layer=per_layer, spans=spans)
            metrics = {name: {"value": per_layer[name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            passes = workload.passes(args.seconds, MIN_PASSES)
            summaries = timed_run(ledger, passes)
            summaries["setup_s"] = summarize(setup_seconds)
            summaries["wall.setup_s"] = summarize(setup_wall)
            summaries["peak_rss_mb"] = summarize([
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
            for name, value in accuracy_metrics(ledger).items():
                summaries[name] = summarize([] if value is None else [value])
            result.update(passes=passes, end_to_end=summaries,
                          samples={n: ledger.samples.get(n) for n in ledger.samples.names()})
            metrics = {name: {"value": summaries[name]["median"], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result.update(ops=ledger.ops.as_dict(), check_failures=ledger.check_failures)
    correct = ledger.correct and all(
        m["value"] is not None for m in metrics.values())
    _report(args, host, result, correct)
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (workload.name, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.ops.attempted,
        "failed": ledger.ops.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def _report(args, host, result, correct):
    print("layerbench %s seed=%d trace=%d | cpus=%s python=%s calib=%.4fs "
          "reference=%.5fs src/repro=%d lines" % (
              args.workload, args.seed, args.trace, host["cpus"],
              host["python"], host["calibration_s"], host["reference_s"],
              host["src_repro_loc"]))
    if args.trace:
        from layers import PER_LAYER

        for name, unit in PER_LAYER:
            print("%-28s %-7s %s" % (name, unit, _fmt(result["per_layer"][name])))
    else:
        print("passes=%d (after one discarded warm-up), verify passes=%d"
              % (result["passes"], VERIFY_PASSES))
        print_end_to_end(result["end_to_end"])
    ops = result["ops"]
    print("operations: attempted=%d failed=%d %s" % (
        ops["attempted"], ops["failed"],
        " ".join("%s=%d" % kv for kv in ops["failures"].items())))
    for failure in result["check_failures"]:
        print("CHECK FAILED: %s" % failure)
    print("correct=%s" % correct)


if __name__ == "__main__":
    sys.exit(main())
