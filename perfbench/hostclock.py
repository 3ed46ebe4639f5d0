"""Timing corrected for the host's drifting speed.

On a shared machine the same solver run can take up to twice as long from
one minute to the next as neighbours load the CPU.  To take that out, the
benchmark times a fixed reference probe (pure Python, no chromsched code)
before and after every interval it measures, and scales the interval by
``REFERENCE_SECONDS / probe``, the mean of the two probes.  A corrected time
reads as if the host had run at the speed at which the probe takes exactly
``REFERENCE_SECONDS``.  Raw times are reported next to corrected ones.

The probe mixes integer arithmetic with sorted-list inserts, bisection and
dict updates: in repeated runs on a busy host that mix tracked the solver's
slowdowns better than either part alone.
"""

from __future__ import annotations

import bisect
import random
import time

#: Nominal probe time; the probe takes about this long on a quiet 2-CPU
#: Xeon.  Only a unit conversion: it scales every corrected time alike.
REFERENCE_SECONDS = 0.0035

_KEYS = tuple(random.Random(0).randrange(10**6) for _ in range(2000))


def probe() -> float:
    """Seconds one run of the reference probe takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    keys: list[int] = []
    seen: dict[int, tuple[int, int]] = {}
    for k in _KEYS:
        bisect.insort(keys, k)
        seen[k] = (k, len(keys))
        j = bisect.bisect_right(keys, k ^ 1023) - 1
        if j >= 0:
            seen.get(keys[j])
    return time.perf_counter() - start


class LapClock:
    """Times consecutive intervals; the probes between them are excluded."""

    def __init__(self):
        self._probe = probe()
        self._start = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """(raw, corrected) seconds since the previous lap or creation."""
        raw = time.perf_counter() - self._start
        now = probe()
        corrected = raw * REFERENCE_SECONDS / ((self._probe + now) / 2)
        self._probe = now
        self._start = time.perf_counter()
        return raw, corrected
