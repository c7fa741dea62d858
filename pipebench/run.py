#!/usr/bin/env python3
"""Layer-by-layer LLVA pipeline benchmark.

Runs one workload (see ``workloads.py`` and ``README.md``) from the root
of a checkout of the repository:

    python3 pipebench/run.py --workload launch --seed 1 --seconds 10 \\
        --trace 0

After setup, the timed phase runs passes over the workload's ops, each
in an order shuffled by ``--seed`` and in a forked copy of the set-up
process, until ``--seconds`` have gone by.  Every op's result is
checked against the reference oracle (``oracle.json``) or the
verifiers, outside the op's timing.

With ``--trace 0`` nothing is installed and the end-to-end metrics are
reported.  With ``--trace 1`` the timed phase is split in three: the
middle third runs with the span wrappers of ``tracing.py`` installed,
and the per-layer metrics are reported with the tracing overhead
(traced minus untraced ``wall_s``).  The spans are written to
``.pipebench/trace-<workload>-seed<n>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Passes a timed phase runs at least, however long they take.
MIN_PASSES = 3

#: Counters that must repeat exactly from pass to pass.
EXACT = ("steps", "cycles", "object_bytes", "llva_insts", "x86_insts",
         "sparc_insts")

_clock = time.perf_counter


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Phase:
    """What one timed phase measured."""

    def __init__(self):
        #: Per completed pass: summed op latency (the pass wall-clock).
        self.walls: List[float] = []
        #: Per pass: the exact counters.
        self.exact: List[Dict[str, float]] = []
        #: Per op kind: every latency.
        self.latencies: Dict[str, List[float]] = {}
        #: Per op (kind, program): its latency in each pass.
        self.by_op: Dict[Tuple[str, str], List[float]] = {}
        #: Counts summed over every op of the phase.
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        #: One line per failed op.
        self.failures: List[str] = []
        #: Checks on the phase as a whole that did not hold.
        self.problems: List[str] = []

    def add_pass(self, record: dict, tracer=None) -> None:
        """Take in what :func:`run_pass` recorded."""
        exact: Dict[str, float] = {}
        for kind, program, elapsed, counts, error in record["ops"]:
            self.attempted += 1
            self.latencies.setdefault(kind, []).append(elapsed)
            self.by_op.setdefault((kind, program), []).append(elapsed)
            if error is not None:
                self.failures.append("{0} {1}: {2}".format(
                    kind, program, error))
                continue
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
                if key in EXACT:
                    exact[key] = exact.get(key, 0) + value
        self.walls.append(record["wall"])
        self.exact.append(exact)
        if tracer is not None:
            tracer.extend(record["spans"])

    def smoothed_latencies(self) -> List[float]:
        """Every op latency of the phase, each replaced by the median of
        that op (kind and program) over the passes that ran it."""
        out: List[float] = []
        for values in self.by_op.values():
            out.extend([statistics.median(values)] * len(values))
        return out

    def check_exact(self) -> None:
        for key in EXACT:
            seen = {counts.get(key, 0) for counts in self.exact}
            if len(seen) > 1:
                self.problems.append(
                    "{0} differs between passes: {1}".format(
                        key, sorted(seen)))


def run_pass(ops: List, tracer=None) -> dict:
    """Run one pass of *ops*; the record :meth:`Phase.add_pass` takes."""
    record = {"wall": 0.0, "ops": [], "spans": None}
    if tracer is not None:
        tracer.clear()
    for op in ops:
        if tracer is not None:
            root = tracer.open("op." + op.kind)
        began = _clock()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op failure, counted below
            error = exc
        elapsed = _clock() - began
        if tracer is not None:
            tracer.close(root)
        record["wall"] += elapsed
        counts = None
        if error is None:
            try:
                counts = op.check(result)
            except Exception as exc:  # a wrong or unverifiable result
                error = exc
        record["ops"].append((
            op.kind, op.program, elapsed, counts,
            None if error is None
            else "{0}: {1}".format(type(error).__name__, error)))
    if tracer is not None:
        record["spans"] = tracer.columns()
    return record


def in_child(fn: Callable[[], object]) -> object:
    """Call *fn* in a forked copy of this process and return its
    (pickled) result once the child has exited.

    The collector is frozen first, as the ``gc.freeze`` documentation
    advises before a fork: the child's collections then leave the
    inherited heap alone instead of copying its pages."""
    gc.collect()
    gc.freeze()
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(fn(), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("pass process failed (wait status {0})".format(
            status))
    return pickle.loads(data)


def run_phase(workload, rng: random.Random, seconds: float,
              tracer=None) -> Phase:
    """Run passes over the workload's ops until *seconds* have gone by,
    and at least :data:`MIN_PASSES`.

    Each pass runs in its own forked copy of the set-up process, so
    every pass starts from the same heap: in one process each module
    built lengthens the use lists of the interned constants every module
    shares (see ``README.md``), and each pass would cost more than the
    one before.  The op order is drawn here, in the parent, so it
    follows the seed from pass to pass."""
    workload.begin_phase()
    phase = Phase()
    end = _clock() + seconds
    while len(phase.walls) < MIN_PASSES or _clock() < end:
        ops = workload.ops(rng)
        phase.add_pass(in_child(lambda: run_pass(ops, tracer)), tracer)
    phase.check_exact()
    return phase


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def peak_rss_mb() -> float:
    """The largest resident set of this process and of any pass's."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def start_latencies(phase: Phase) -> Dict[str, float]:
    out = {}
    for kind in ("cold", "warm"):
        values = phase.latencies.get(kind)
        out[kind + "_start_p50_ms"] = \
            statistics.median(values) * 1000 if values else 0.0
    return out


def untraced_run(workload_cls, oracle, scratch, rng, seconds):
    setup_times = []
    for index in range(SETUPS):
        workload = workload_cls(scratch, oracle)
        began = _clock()
        workload.setup()
        setup_times.append(_clock() - began)
        if index < SETUPS - 1:
            workload.close()
            del workload
            gc.collect()
    try:
        phase = run_phase(workload, rng, seconds)
    finally:
        workload.close()
    latencies = phase.smoothed_latencies()
    attempted = phase.attempted
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(phase.walls),
        "op_p50_ms": percentile(latencies, 50) * 1000,
        "op_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1 - len(phase.failures) / attempted,
    }
    report = dict(metrics)
    report["error_rate"] = len(phase.failures) / attempted
    report.update(start_latencies(phase))
    report.update(phase.exact[0])
    notes = ["{0} passes, {1} ops; setup_s is the median of {2} setups"
             .format(len(phase.walls), attempted, SETUPS),
             "op_p50_ms, op_p90_ms: {0} latencies of {1} ops, each "
             "replaced by its op's median".format(
                 len(latencies), len(phase.by_op))]
    notes += ["{0}: {1} ops".format(kind, len(values))
              for kind, values in sorted(phase.latencies.items())]
    return (metrics, report, attempted, phase.failures,
            phase.problems, notes)


def traced_run(workload_cls, oracle, scratch, rng, seconds, name, seed):
    """Untraced, traced, untraced again: a third of the time each, so
    that a change in the machine's speed over the run cancels out of the
    tracing overhead."""
    import tracing

    workload = workload_cls(scratch, oracle)
    workload.setup()
    try:
        before = run_phase(workload, rng, seconds / 3)
        tracer = tracing.Tracer()
        replaced = tracing.install(tracer)
        try:
            traced = run_phase(workload, rng, seconds / 3, tracer)
        finally:
            tracing.uninstall(replaced)
        after = run_phase(workload, rng, seconds / 3)
    finally:
        workload.close()
    phases = (before, traced, after)
    failures = [line for phase in phases for line in phase.failures]
    problems = [line for phase in phases for line in phase.problems]
    if any(phase.exact[0] != before.exact[0] for phase in phases):
        problems.append("exact counters differ with tracing on")
    passes = len(traced.walls)
    tracer.write(os.path.join(scratch, "trace-{0}-seed{1}.json".format(
        name, seed)), {"workload": name, "seed": seed, "passes": passes})
    metrics = tracing.layer_metrics(tracer.summary(), traced.counts, passes)
    metrics.update(before.exact[0])
    metrics.update(start_latencies(before))
    attempted = sum(phase.attempted for phase in phases)
    metrics["error_rate"] = len(failures) / attempted
    metrics["trace.overhead_s"] = statistics.median(traced.walls) \
        - statistics.median(before.walls + after.walls)
    notes = ["{0} + {1} + {2} passes (untraced, traced, untraced), "
             "{3} spans".format(len(before.walls), passes,
                                len(after.walls), len(tracer.names))]
    return metrics, dict(metrics), attempted, failures, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds like an exception, so a running pass
    # is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    source_root = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source_root, "repro", "__init__.py")):
        print("pipebench: no LLVA sources at {0}; run from the root of a "
              "checkout".format(source_root), file=sys.stderr)
        return 2
    sys.path.insert(0, source_root)
    import oracle as oracle_file
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload {0!r}; choose from {1}".format(
            args.workload, ", ".join(workloads.WORKLOADS)))
    spec = load_spec()
    scratch = workloads.scratch_dir(ROOT)
    rng = random.Random(args.seed)
    workload_cls = workloads.WORKLOADS[args.workload]
    oracle = oracle_file.load_oracle()
    if args.trace:
        metrics, report, attempted, failures, problems, notes = traced_run(
            workload_cls, oracle, scratch, rng, args.seconds,
            args.workload, args.seed)
        listed = spec["per_layer"]
    else:
        metrics, report, attempted, failures, problems, notes = untraced_run(
            workload_cls, oracle, scratch, rng, args.seconds)
        listed = spec["end_to_end"]
        missing = [entry["name"] for entry in listed
                   if entry["name"] not in metrics]
        if missing:
            raise KeyError("end-to-end metrics not measured: {0}".format(
                missing))

    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    print("pipebench {0} seed={1} trace={2}".format(
        args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, value in sorted(report.items()):
        print("  {0:34s} {1:<14.6g} {2}".format(name, value, units[name]))
    for line in problems + ["FAILED " + failure for failure in failures[:20]]:
        print("  " + line)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {entry["name"]: {"value": metrics.get(entry["name"], 0.0),
                                    "unit": entry["unit"]}
                    for entry in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
