"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload as a closed loop with one client:
the next op starts when the previous one returns.  Phases, outside every
timing except the one they report:

1. make the seeded inputs and the op sequence (one pass);
2. compute the oracle's expected output for every op in the pass;
3. set up ``SETUP_REPEATS`` times — data build, ``optimize_program`` and
   one warm-up pass — and report the median as ``setup_s``;
4. repeat whole passes for ``--seconds``, timing each op and comparing its
   output with the oracle's; a mismatch or an exception is a failed op.

Every end-to-end time is reported at a reference host speed (see
``calibration.py``): the run times the calibration op around each set-up
and every ``CAL_INTERVAL_S`` of the timed phase, and scales each set-up
time and each op's latency by the host speed measured around it.  The raw
times and the host speeds are printed on the ``# {...}`` meta line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the timed phase is split: an untraced half, then a half
with the layer wrappers of ``tracer.py`` installed; the last line reports
the per-layer metrics of the traced half, the tracing overhead, and the
spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from calibration import host_speed, time_calibration
from tracer import LAYER_NAMES, LAYERS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median, so one slow set-up (a GC
#: pause, a cold cache) does not move it.
SETUP_REPEATS = 5

#: Timed-phase seconds between two calibrations (~4% of the phase).
CAL_INTERVAL_S = 0.05
#: Calibrations that give the host speed around one timed-phase op.
CAL_WINDOW = 10
#: Calibrations just before and just after each set-up.
CAL_BURST = 5


#: (name, unit) of each end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


#: (name, unit) of each per-layer metric, reported with ``--trace 1``.
PER_LAYER = tuple(
    (f"{layer}.{metric}", unit)
    for layer in LAYER_NAMES
    for metric, unit in (("calls", "count"), ("self_ms", "ms"), ("share", "ratio"))
) + (
    ("db.planner.hit_ratio", "ratio"),
    ("db.connection.queries_per_op", "count"),
    ("db.connection.rows_scanned_per_row", "ratio"),
    ("db.connection.bytes_per_op", "B"),
    ("db.connection.sim_ms_per_op", "ms"),
    ("db.execute.columnar_ratio", "ratio"),
    ("rules.fired_per_op", "count"),
    ("core.success_ratio", "ratio"),
    ("host.calibration_ms", "ms"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


class Failed:
    """Output recorded for an op that raised; equal to no expected value."""

    def __init__(self, error: BaseException):
        self.error = f"{type(error).__name__}: {error}"

    def __repr__(self) -> str:
        return f"Failed({self.error})"


@dataclass
class Phase:
    """What one timed phase observed."""

    latencies_ns: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    failed: int = 0
    #: (position in the pass, output) of the first few failed ops.
    mismatches: list = field(default_factory=list)
    #: Wall time of the phase minus the oracle comparisons and calibrations.
    elapsed_s: float = 0.0
    #: When each op started.
    started_ns: list[int] = field(default_factory=list)
    #: Times of the calibration ops run during the phase, and when each ran.
    calibration_ns: list[int] = field(default_factory=list)
    calibrated_at_ns: list[int] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def op_speeds(self) -> list[float]:
        """The host speed around each op: from the ``CAL_WINDOW``
        calibrations nearest to it in time."""
        speeds = []
        last = len(self.calibration_ns) - CAL_WINDOW
        for began in self.started_ns:
            first = bisect.bisect(self.calibrated_at_ns, began) - CAL_WINDOW // 2
            first = max(0, min(first, last))
            speeds.append(host_speed(self.calibration_ns[first:first + CAL_WINDOW]))
        return speeds

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed_s


def time_setups(workload, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of ``repeats`` set-ups, and the host speed measured by the
    calibrations just before and just after each."""
    times, speeds = [], []
    for _ in range(repeats):
        calibration: list[int] = []
        for _ in range(CAL_BURST):
            time_calibration(calibration)
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        for _ in range(CAL_BURST):
            time_calibration(calibration)
        speeds.append(host_speed(calibration))
    return times, speeds


def run_phase(workload, expected: list, seconds: float, tracer=None) -> Phase:
    """Repeat whole passes of ``workload.sequence`` until ``seconds`` have
    elapsed (at least one pass), checking every output against
    ``expected`` (one entry per op of the pass).

    Each output is compared as soon as its op's latency is taken, and the
    comparison is excluded from ``elapsed_s``: keeping every output until
    the end would grow memory with the run length and move
    ``peak_rss_mb``.  A failed op is counted, never raised.  A calibration
    op runs between two ops every ``CAL_INTERVAL_S``, also excluded.
    """
    phase = Phase()
    clock = time.perf_counter_ns
    checking = 0
    gc.collect()
    start = clock()
    deadline = start + int(seconds * 1e9)
    interval = int(CAL_INTERVAL_S * 1e9)
    next_calibration = start
    op_id = 0
    while True:
        for position, op in enumerate(workload.sequence):
            if tracer is not None:
                tracer.start_op(op_id)
            began = clock()
            try:
                raw = workload.run(op)
            except Exception as error:
                raw = Failed(error)
            finally:
                ended = clock()
                if tracer is not None:
                    tracer.finish_op()
            phase.latencies_ns.append(ended - began)
            phase.started_ns.append(began)
            if isinstance(raw, Failed):
                output, matched = raw, False
            else:
                output, counts = workload.observe(op, raw)
                phase.counts.update(counts)
                matched = output == expected[position]
            if not matched:
                phase.failed += 1
                if len(phase.mismatches) < 5:
                    phase.mismatches.append((position, repr(output)[:300]))
            op_id += 1
            if clock() >= next_calibration:
                phase.calibrated_at_ns.append(clock())
                time_calibration(phase.calibration_ns)
                next_calibration = clock() + interval
            checking += clock() - ended
        if clock() >= deadline:
            break
    phase.elapsed_s = (clock() - start - checking) / 1e9
    return phase


def end_to_end(phase: Phase, setup_times: list[float], setup_speeds: list[float],
               op_speeds: list[float]) -> dict[str, float]:
    """The end-to-end metrics, each time scaled by the host speed measured
    around it (speeds of 1 give the raw times).  The phase's elapsed time
    is scaled by the ops' latency-weighted mean speed."""
    scaled_ns = [ns * speed for ns, speed in zip(phase.latencies_ns, op_speeds)]
    latencies_ms = sorted(ns / 1e6 for ns in scaled_ns)
    elapsed_s = phase.elapsed_s * sum(scaled_ns) / sum(phase.latencies_ns)
    return {
        "setup_s": statistics.median(t * v for t, v in zip(setup_times, setup_speeds)),
        "ops_per_s": phase.ops / elapsed_s,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p99_ms": statistics.quantiles(latencies_ms, n=100, method="inclusive")[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, untraced: Phase, traced: Phase, tracer,
              plan_cache: tuple[int, int]) -> dict[str, float]:
    ops = traced.ops
    counts = traced.counts
    extraction = workload.extraction_counts()
    hits, misses = plan_cache
    metrics = layer_metrics(tracer.spans, ops)
    metrics.update({
        "db.planner.hit_ratio": _ratio(hits, hits + misses),
        "db.connection.queries_per_op": counts["queries"] / ops,
        "db.connection.rows_scanned_per_row": _ratio(
            counts["rows_scanned"], counts["rows_transferred"]),
        "db.connection.bytes_per_op": counts["bytes"] / ops,
        "db.connection.sim_ms_per_op": counts["sim_ms"] / ops,
        "db.execute.columnar_ratio": _ratio(
            tracer.counters["columnar_executions"], tracer.counters["executions"]),
        "rules.fired_per_op": tracer.counters["rules_fired"] / ops,
        "core.success_ratio": _ratio(extraction["extracted"], extraction["variables"]),
        "host.calibration_ms": statistics.median(traced.calibration_ns) / 1e6,
        "trace.ops_per_s_untraced": untraced.ops_per_s,
        "trace.ops_per_s_traced": traced.ops_per_s,
        "trace.overhead_ratio": traced.ops_per_s / untraced.ops_per_s,
    })
    return metrics


def _plan_cache(workload) -> tuple[int, int]:
    databases = workload.databases()
    return (sum(db.plan_cache_hits for db in databases),
            sum(db.plan_cache_misses for db in databases))


def _write_spans(name: str, meta: dict, tracer) -> Path:
    """Write the traced phase's spans; each traced run of a workload
    replaces the previous file."""
    out = ROOT / ".perfbench" / f"spans-{name}.json.gz"
    out.parent.mkdir(exist_ok=True)
    with gzip.open(out, "wt") as stream:
        json.dump({
            "meta": meta,
            "layers": {layer: {"calls": [".".join(t) for t in targets], "moves": moves}
                       for layer, targets, moves in LAYERS},
            "counters": tracer.counters,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": tracer.spans,
        }, stream)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("extract", "as_written", "pushed_down", "refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from suite import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    expected = workload.oracle()
    setup_times, setup_speeds = time_setups(
        workload, 1 if args.trace else SETUP_REPEATS)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "setup_repeats": len(setup_times),
        **workload.describe(),
    }
    if args.trace:
        untraced = run_phase(workload, expected, args.seconds / 2)
        tracer = Tracer()
        before = _plan_cache(workload)
        tracer.install()
        try:
            traced = run_phase(workload, expected, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        after = _plan_cache(workload)
        phases = [untraced, traced]
        metrics = per_layer(workload, untraced, traced, tracer,
                            (after[0] - before[0], after[1] - before[1]))
        units = dict(PER_LAYER)
    else:
        phases = [run_phase(workload, expected, args.seconds)]
        phase = phases[0]
        op_speeds = phase.op_speeds()
        metrics = end_to_end(phase, setup_times, setup_speeds, op_speeds)
        units = dict(END_TO_END)
        meta.update({
            "raw": end_to_end(phase, setup_times, [1.0] * len(setup_times),
                              [1.0] * phase.ops),
            "host_speed": {"setups": setup_speeds,
                           "phase": host_speed(phase.calibration_ns)},
        })

    attempted = sum(phase.ops for phase in phases)
    failed = sum(phase.failed for phase in phases)
    meta.update({"ops": [phase.ops for phase in phases], "attempted": attempted,
                 "failed": failed, "err_ratio": failed / attempted,
                 "mismatches": [m for phase in phases for m in phase.mismatches]})
    if args.trace:
        meta["spans_file"] = str(
            _write_spans(args.workload, meta, tracer).relative_to(ROOT))
    print(f"# {json.dumps(meta)}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
