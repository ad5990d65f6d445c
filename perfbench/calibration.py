"""A fixed calibration op that measures how fast the host runs right now.

A shared host's speed drifts by a third or more over tens of seconds,
far more than one run can average away.  The benchmark therefore times
``calibration_op`` between its own ops and reports its times at the speed
of a reference host: a measured time × ``REFERENCE_MS`` / the calibration
op's median in the same stretch.  The op calls nothing in the package, so
a change to the program moves the scaled times by the same factor as the
raw ones.  It mixes the kinds of work the program does — bytecode
arithmetic, dict and string building, sorting, the JSON codec and the
compiler — so that it slows down with the host much as the program does.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

#: About the median time of ``calibration_op`` on the 2-vCPU VM the
#: benchmark's bounds were set on, so scaled times read close to the raw
#: times there.
REFERENCE_MS = 1.0

_RNG = random.Random(5)
_ROWS = [
    {"id": i, "name": f"n{_RNG.randint(0, 999)}", "kind": _RNG.randint(0, 50),
     "value": _RNG.random()}
    for i in range(500)
]
_DOCUMENT = json.dumps([{"a": i, "b": [str(i)] * 3, "c": {"x": i / 3, "y": None}}
                        for i in range(60)])
_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    return [x * a + b for x in range(a) if x % {i + 2}]"
    for i in range(4)
)


def calibration_op() -> int:
    total = 0
    for i in range(4000):
        total += i * i % 7
    groups: dict = {}
    for row in _ROWS:
        if row["kind"] % 3:
            groups.setdefault(row["kind"], []).append(
                {"id": row["id"], "name": row["name"].upper(), "value": row["value"] * 2})
    total += len(sorted((kind, len(rows), sum(r["value"] for r in rows))
                        for kind, rows in groups.items()))
    total += len(json.dumps(json.loads(_DOCUMENT)))
    compile(_SOURCE, "<calibration>", "exec")
    return total


def time_calibration(samples: list[int]) -> None:
    """Time the calibration op and append the time (ns) to ``samples``.

    The op runs twice and only the second run is timed, with the cyclic
    collector paused: run between two program ops, a single cold run
    would also measure how much of the cache and the collector's heap the
    program op left behind, which a change to the program can move.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        calibration_op()
        began = time.perf_counter_ns()
        calibration_op()
        samples.append(time.perf_counter_ns() - began)
    finally:
        if enabled:
            gc.enable()


def host_speed(samples: list[int]) -> float:
    """How many times faster than the reference host the stretch in which
    ``samples`` were taken ran."""
    return REFERENCE_MS * 1e6 / statistics.median(samples)
