"""Host-speed probe: a fixed unit of reference work timed during reps.

On a shared VM the host's speed drifts by up to ~40% over seconds to
minutes, so a raw rep time measures the neighbours as much as fracplap.
The probe runs a fixed reference unit at most once every PROBE_EVERY_S
of a rep, from a point the workload calls between steps or evaluations.
The rep's wall time excludes the probe's pauses, and the rep time over
the unit time (run.py: wall_rel) cancels most of the drift.

The unit is a pure-Python loop, big-integer arithmetic, a small numpy
sort, dict building, sorting and a JSON round trip, and a short mpmath
series: a spread of interpreter-bound work, since a tight loop alone
drifts less than fracplap's larger code does.  A workload whose time is
mostly a BLAS matrix-vector product over a large history adds a sweep
of that shape, over 16 MB on the pinned BLAS threads, because memory-
bound and interpreter-bound work drift apart.  The unit calls nothing
of fracplap.
"""
from __future__ import annotations

import json
import time

import mpmath
import numpy as np

PROBE_EVERY_S = 0.15

_RNG = np.random.default_rng(0)
_SORTED = _RNG.random(1 << 14)
_SWEEP = []     # (coefficients, matrix), made on first use


def reference_unit(sweep):
    """About 3.5 ms of interpreter-bound work; with ``sweep``, 1.5 ms
    more of memory-bound matrix-vector products."""
    acc = 0
    for i in range(8000):
        acc += (i * i) % 7
    x = 1
    for i in range(400):
        x = (x * 12345 + i) % (1 << 4000)
    for _ in range(5):
        acc += int(np.sort(_SORTED)[0] >= 0)
    table = {f"k{i}": (i, str(i), [i] * 3) for i in range(800)}
    rows = sorted(table.items(), key=lambda kv: (kv[1][0] % 97, kv[0]))
    acc += len(json.loads(json.dumps(rows[:300])))
    with mpmath.workdps(60):
        z, a = mpmath.mpf("-7.3"), mpmath.mpf("0.7")
        total, zj = mpmath.mpf(0), mpmath.mpf(1)
        for j in range(40):
            total += zj / mpmath.gamma(a * j + 1)
            zj *= z
    acc += int(total > 0)
    if sweep:
        if not _SWEEP:
            _SWEEP.extend([_RNG.random(512), _RNG.random((512, 4096))])
        coeffs, matrix = _SWEEP
        for _ in range(4):
            acc += int((coeffs @ matrix)[0] > 0)
    return acc + x % 2


class HostProbe:
    def __init__(self, sweep):
        self.sweep = sweep
        self.samples = []       # reference-unit times, s
        self.paused = 0.0       # total time spent in the probe, s
        self._next = 0.0

    def __call__(self):
        now = time.perf_counter()
        if now < self._next:
            return
        reference_unit(self.sweep)
        end = time.perf_counter()
        self.samples.append(end - now)
        self.paused += end - now
        self._next = end + PROBE_EVERY_S
