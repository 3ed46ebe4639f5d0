"""Operator-window and column-availability arithmetic.

All times are integer minutes counted from the plan origin (negative values
are allowed).  Windows and bookings are half-open intervals [a, b) so
back-to-back placements never collide.  Column availability is a
piecewise-constant count of free units of one column type; a placement is
feasible when at least one unit is free over its whole occupation interval.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import NoSlotError

MINUTES_PER_DAY = 1440

#: Longest horizon `weekly_windows` expands, in days.  Generated instances
#: span under 80 days; ten years of daily windows is a few thousand intervals.
MAX_WEEKLY_SPAN_DAYS = 3660

#: Day 0 of the plan is a Monday.
WEEKDAY_NAMES = ("MON", "TUE", "WED", "THU", "FRI", "SAT", "SUN")


def _normalize_windows(windows):
    """Sort, drop empties and merge overlapping or adjacent intervals.
    Each bound must be an integer minute or +-inf."""
    cleaned = []
    for a, b in windows:
        for bound in (a, b):
            if type(bound) is not int and bound not in (math.inf, -math.inf):
                raise ValueError(f"window ({a!r}, {b!r}): bound {bound!r} is "
                                 "not an integer minute or +-inf")
        if b < a:
            raise ValueError(f"window end {b} before start {a}")
        if a != b:
            cleaned.append((a, b))
    cleaned.sort()
    merged: list[tuple] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return tuple(merged)


@dataclass(frozen=True)
class TimeWindowSet:
    """Sorted, disjoint, non-adjacent half-open windows of integer minutes;
    starts may be -inf and ends +inf."""

    windows: tuple[tuple[int, int | float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "windows", _normalize_windows(self.windows))

    @cached_property
    def _starts(self) -> list:
        return [w[0] for w in self.windows]

    @cached_property
    def _ends(self) -> list:
        return [w[1] for w in self.windows]

    def __iter__(self):
        return iter(self.windows)

    def contains(self, t) -> bool:
        i = bisect_right(self._starts, t) - 1
        return i >= 0 and t < self._ends[i]


# ---------------------------------------------------------------------------
# Step-function kernels over a column profile: a (times, levels) list pair
# whose first entry is a -inf sentinel carrying the full capacity, and whose
# level on [times[i], times[i+1]) is levels[i].  The solvers run them
# directly on their own mutable arrays.


def min_level(times: list, levels: list[int], start: int, end: int) -> int:
    """Lowest level over [start, end)."""
    i = bisect_right(times, start) - 1
    lowest = levels[i]
    while i + 1 < len(times) and times[i + 1] < end:
        i += 1
        if levels[i] < lowest:
            lowest = levels[i]
    return lowest


def reserve_step(times: list, levels: list[int], start: int, end: int) -> None:
    """Decrement the level by one over [start, end), in place."""
    _lower(times, levels, bisect_right(times, start) - 1, start, end)


def _lower(times: list, levels: list[int], i: int, start: int,
           end: int) -> None:
    """`reserve_step` from i, the index of the step that holds `start`: add
    the breakpoints `start` and `end` where missing, then lower every level
    between them."""
    if times[i] < start:
        i += 1
        times.insert(i, start)
        levels.insert(i, levels[i - 1])
    j = bisect_left(times, end, i)
    if j == len(times) or times[j] > end:
        times.insert(j, end)
        levels.insert(j, levels[j - 1])
    while i < j:
        levels[i] -= 1
        i += 1


def find_earliest(wstarts, wends, times, levels, t_min: int, duration: int,
                  book: bool = False):
    """Earliest start t >= t_min with a free unit over [t, t + duration),
    and the end of the free run that holds it (the first breakpoint after t
    whose level is below one, or +inf).  With `book`, it also books
    [t, t + duration) as `reserve_step` does, from the step where the search
    stopped; the run end it returns is the one before the booking.

    When `wstarts`/`wends` are given, t itself must additionally fall inside
    one of those windows (the occupation interval need not); NoSlotError is
    raised when no window is left for it.  Times are whole minutes, so a
    one-minute search gives the earliest admissible free point, before
    which no duration can start.

    A start inside a free run that ends before t + duration fails, and so
    does every later start in that run, so the search resumes at the run's
    end.  Each step moves t to a later breakpoint or window start, and there
    are finitely many of both, so the search ends.  Without windows it
    always finds a start: every booking is finite, so the profile's last
    level is its full capacity, at least one.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    t = t_min
    n = len(times)
    while True:
        if wstarts is not None:
            i = bisect_right(wstarts, t) - 1
            if i < 0 or t >= wends[i]:
                i += 1
                if i >= len(wstarts):
                    raise NoSlotError(
                        f"no operator window left at or after minute {t}")
                t = wstarts[i]
        i = bisect_right(times, t) - 1
        if levels[i] < 1:
            # the last level is free, so this stops inside the profile
            i += 1
            while levels[i] < 1:
                i += 1
            t = times[i]
            continue
        j = i + 1
        while j < n and levels[j] >= 1:
            j += 1
        end = times[j] if j < n else math.inf
        if t + duration <= end:
            if book:
                _lower(times, levels, i, t, t + duration)
            return t, end
        t = end


# ---------------------------------------------------------------------------
# Weekly recurring windows.


#: A time of day: one or two ASCII hour digits, a colon, two minute digits.
_HH_MM = re.compile(r"([0-9]{1,2}):([0-9]{2})")


def _parse_minute_of_day(name: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        minute = value
    else:
        match = _HH_MM.fullmatch(value) if isinstance(value, str) else None
        if match is None:
            raise ValueError(f"{name} {value!r} is not HH:MM or a minute count")
        hour, minute = int(match[1]), int(match[2])
        if minute > 59:
            raise ValueError(f"{name} {value!r} has minutes outside 00-59")
        # an hour outside 0-24, or 24 with minutes, lands outside the day
        minute += hour * 60
    if not 0 <= minute <= MINUTES_PER_DAY:
        raise ValueError(f"{name} {value!r} is outside 00:00-24:00")
    return minute


def _parse_weekday(value) -> int:
    if isinstance(value, bool):
        raise ValueError(f"unknown weekday {value!r}")
    if isinstance(value, int):
        day = value
    else:
        name = str(value).upper()[:3]
        if name not in WEEKDAY_NAMES:
            raise ValueError(f"unknown weekday {value!r}")
        day = WEEKDAY_NAMES.index(name)
    if not 0 <= day <= 6:
        raise ValueError(f"weekday {value!r} is outside 0-6")
    return day


def weekly_windows(days: Iterable, start, end, horizon_start: int,
                   horizon_end: int) -> TimeWindowSet:
    """Expand a weekly pattern (e.g. MON-FRI 08:00-18:00) over a horizon.

    Day 0 of the plan is a Monday; any daily window overlapping
    [horizon_start, horizon_end) is included whole.  Horizons longer than
    MAX_WEEKLY_SPAN_DAYS are refused with ValueError.
    """
    span_days = (horizon_end - horizon_start) // MINUTES_PER_DAY
    if span_days > MAX_WEEKLY_SPAN_DAYS:
        raise ValueError(f"span of {span_days} days is over "
                         f"MAX_WEEKLY_SPAN_DAYS = {MAX_WEEKLY_SPAN_DAYS}")
    daily_start = _parse_minute_of_day("start", start)
    daily_end = _parse_minute_of_day("end", end)
    if daily_end <= daily_start:
        raise ValueError("end must be after start")
    weekdays = {_parse_weekday(d) for d in days}
    first_day = horizon_start // MINUTES_PER_DAY - 1
    last_day = -(-horizon_end // MINUTES_PER_DAY) + 1
    out = []
    for day in range(first_day, last_day):
        if day % 7 not in weekdays:
            continue
        a = day * MINUTES_PER_DAY + daily_start
        b = day * MINUTES_PER_DAY + daily_end
        if b > horizon_start and a < horizon_end:
            out.append((a, b))
    return TimeWindowSet(tuple(out))


WORKDAYS = ("MON", "TUE", "WED", "THU", "FRI")
