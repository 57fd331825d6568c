"""Small statistics and bookkeeping helpers shared by the benchmark's files."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import statistics
import time

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

def percentile(samples, fraction: float):
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie above it."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(fraction * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


#: Seconds one :class:`Calibration` sample took on the machine that defined
#: the benchmark.  Operation timings named in ``run.NORMALIZED`` are reported
#: at that speed: measured seconds x CALIBRATION_REFERENCE_S / the median
#: sample of the same run.  The processors of a small shared machine change
#: speed by 20-40% for minutes at a time (cache and memory contention from
#: neighbours), which no amount of work inside one run averages away.
CALIBRATION_REFERENCE_S = 0.041


class Calibration:
    """A fixed task whose duration tracks the processor speed as the
    program's does.

    It mixes the three kinds of work an explain spends its time on: a HiGHS
    solve through scipy (a fixed 30x30 assignment MILP), building and
    sorting Python tuples, dicts and strings, and cache-missing lookups in a
    fixed 800 KB dict.  It runs no code of the program, so a change to the
    program does not move it, and it is sampled with the program's caches
    cleared and its garbage collected.  The collector is off during a sample,
    so a sample never scans the program's heap.
    """

    def __init__(self, size: int = 30):
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp

        self._milp = milp
        self._bounds = Bounds(0, 1)
        self._cost = np.random.default_rng(0).random(size * size)
        rows = np.zeros((2 * size, size * size))
        for i in range(size):
            rows[i, i * size:(i + 1) * size] = 1
            rows[size + i, i::size] = 1
        self._constraint = LinearConstraint(rows, 1, 1)
        self._integrality = np.ones(size * size)
        keys = list(range(0, 800_000, 16))
        random.Random(0).shuffle(keys)
        self._keys = keys
        self._table = {key: key & 0xFF for key in keys}

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._milp(self._cost, constraints=self._constraint,
                       integrality=self._integrality, bounds=self._bounds)
            rows = [(i % 97, str(i), (i, i * 0.5)) for i in range(15_000)]
            groups: dict = {}
            for group, _, pair in rows:
                groups.setdefault(group, []).append(pair)
            rows.sort(key=lambda row: row[1])
            table, hits = self._table, 0
            for key in self._keys:
                hits += table[key] > 127
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def speed(samples) -> float:
    """How many times slower than the reference machine the processors ran."""
    return statistics.median(samples) / CALIBRATION_REFERENCE_S


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(service: dict) -> str:
    """Class of one served explain from the response's cache flags."""
    if service["cached_report"]:
        return "hit"
    if service["cached_problem"]:
        return "resolve"
    return "miss"


def derive_seed(seed: int, *parts) -> int:
    """A sub-seed for one generated input, stable across processes."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % (2**31)


def digest(items) -> str:
    """Order-independent fingerprint of a multiset of strings."""
    return hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()[:16]

