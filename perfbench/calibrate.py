"""Host-speed calibration for timings taken on a noisy shared host.

Wall-clock speed on a shared host drifts by tens of percent from second to
second, and process_time drifts with it. A fixed pure-Python loop slows
down with the program, so each timed unit of work is scaled by the
calibration loop timed just before and just after it:

    calibrated = raw * (CAL_REF_S / mean(loop time before, loop time after)) ** CAL_EXPONENT

A calibrated time therefore reads as the time the unit would take on a host
where the loop takes CAL_REF_S, a fixed reference near the loop's typical
time on a 2-core x86-64 host with CPython 3.11. On such a shared host this
brought the spread of run medians from 13-33% down to 3-8%. Raw times are
always reported next to calibrated ones.
"""

from __future__ import annotations

import time

CAL_REF_S = 0.004
# The program slows by less than the loop does: regressing log unit time on
# log loop time, unit by unit over repeated rounds, gave exponents of 0.71
# (desk), 0.80 (crowd) and 0.82 (wide) on the host named above.
CAL_EXPONENT = 0.75
# Calibrate at most this often; units of work that finish sooner share
# one pair of calibrations.
CAL_GAP_S = 0.05

_KEYS = tuple(f"k{i}" for i in range(32))
_LOOPS = 2500


def _loop(n: int) -> int:
    # dict counting, tuple building, set membership and frozenset
    # comprehensions: the operations refquest's turn loop is made of
    counts: dict[str, int] = {}
    seen = set()
    total = 0
    for i in range(n):
        key = _KEYS[i & 31]
        counts[key] = counts.get(key, 0) + 1
        pair = (key, _KEYS[(i * 7) & 31])
        if pair not in seen:
            seen.add(pair)
        total += len(frozenset(k for k in _KEYS[: (i & 7) + 2] if k != key))
    return total + len(seen) + len(counts)


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    _loop(_LOOPS)
    return time.perf_counter() - t0


def scale(loop_s: float) -> float:
    """Factor for a time measured while the calibration loop took `loop_s`."""
    return (CAL_REF_S / loop_s) ** CAL_EXPONENT


class Unit:
    """One timed unit of work and the scale factor later assigned to it."""

    __slots__ = ("raw_ns", "episodes", "factor")

    def __init__(self, raw_ns: int, episodes: list):
        self.raw_ns = raw_ns
        self.episodes = episodes  # Outcome tuples
        self.factor = 1.0

    @property
    def cal_ns(self) -> float:
        return self.raw_ns * self.factor


class Calibrator:
    """Assigns each finished unit the factor of the calibrations around it."""

    def __init__(self):
        calibration_s()  # first pass warms the interpreter's caches
        self.samples = [calibration_s()]
        self._pending: list[Unit] = []
        self._last = time.perf_counter()

    def add(self, unit: Unit):
        self._pending.append(unit)
        if time.perf_counter() - self._last >= CAL_GAP_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        cal = calibration_s()
        factor = scale((self.samples[-1] + cal) / 2)
        for unit in self._pending:
            unit.factor = factor
        self._pending = []
        self.samples.append(cal)
        self._last = time.perf_counter()
