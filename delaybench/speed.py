"""Machine speed, measured beside the workload.

The sandbox this benchmark was designed on runs at speeds that drift by a
fifth or more within seconds.  A short fixed pure-Python calibration loop of
the kind delaydist spends its time on (allocating frozen dataclasses,
hashing nested ones, tuple-keyed dicts) is timed before the first item of
every pass and after each item, and the pass's times are scaled by
``REFERENCE_S / mean(calibrations)``: they read as seconds on a machine
that runs the loop in ``REFERENCE_S``.  Calibrating between items rather
than around the pass follows the drift within it: on canonical-pass the
pass-to-pass spread fell from 0.19 of the mean (unscaled) to 0.05.  The
loop never changes with the program, so a faster program still reads
faster; only the drift of the machine is divided out.  The run prints its
unscaled times as well.
"""

import time
from dataclasses import dataclass

# the loop's time on a quiet run of the machine the benchmark was designed on
REFERENCE_S = 0.009


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _work() -> int:
    nodes = [_Node("v" + str(i % 100), (i, i % 7)) for i in range(3000)]
    index = {}
    for n in nodes:
        index[(n.tag, n.kids)] = n
    pairs = [_Node("pair", (a, b)) for a, b in zip(nodes, nodes[1:])]
    return sum(hash(p) & 7 for p in pairs) + len(index)


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
