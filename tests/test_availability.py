import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromsched.availability import (MAX_WEEKLY_SPAN_DAYS, MINUTES_PER_DAY,
                                     TimeWindowSet, WORKDAYS, find_earliest,
                                     min_level, reserve_step, weekly_windows)
from chromsched.errors import NoSlotError

from oracles import (always_open, profile_level_at, scan_earliest,
                     scan_free_run)


def tws(*pairs):
    return TimeWindowSet(tuple(pairs))


def window_arrays(window_set):
    """Window start and end arrays, as `compile_instance` builds them."""
    return [a for a, _ in window_set], [b for _, b in window_set]


def profile(capacity, *bookings):
    """A column profile as the solvers keep it, each booking checked and
    made the way `commit_assignment` books a column."""
    times, levels = [-math.inf], [capacity]
    for a, b in bookings:
        assert min_level(times, levels, a, b) >= 1
        reserve_step(times, levels, a, b)
    return times, levels


def level_at(times, levels, t):
    return min_level(times, levels, t, t + 1)


def probe(wstarts, wends, times, levels, t_min):
    """The list scheduler's one-minute `find_earliest` probe from t_min:
    (start, run end), None for no slot."""
    try:
        return find_earliest(wstarts, wends, times, levels, t_min, 1)
    except NoSlotError:
        return None


class TestTimeWindowSet:
    def test_normalizes_sorted_merged(self):
        s = tws((20, 30), (0, 10), (10, 15))
        assert s.windows == ((0, 15), (20, 30))

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            tws((10, 5))

    @pytest.mark.parametrize("window", [(0.5, 100.5), (0, 100.0),
                                        (math.nan, 10), (0, math.nan),
                                        (True, 10), (0, "10")])
    def test_rejects_a_bound_that_is_not_an_integer_minute(self, window):
        with pytest.raises(ValueError, match=re.escape(f"window {window!r}")):
            tws((200, 300), window)

    def test_unbounded_ends_are_allowed(self):
        assert tws((-math.inf, 10), (20, math.inf)).windows == (
            (-math.inf, 10), (20, math.inf))
        assert tws((-math.inf, math.inf)).contains(-10**12)

    def test_contains_and_next_point(self):
        s = tws((10, 20), (30, 40))
        assert not s.contains(9)
        assert s.contains(10)
        assert not s.contains(20)
        # the next point inside the set is find_earliest's window step
        free = profile(1)
        starts, ends = window_arrays(s)
        assert find_earliest(starts, ends, *free, 0, 1) == (10, math.inf)
        assert find_earliest(starts, ends, *free, 15, 1) == (15, math.inf)
        assert find_earliest(starts, ends, *free, 25, 1) == (30, math.inf)
        with pytest.raises(NoSlotError):
            find_earliest(starts, ends, *free, 40, 1)


class TestCapacityProfile:
    """Column profiles as (times, levels) arrays: booked with `reserve_step`
    and checked with `min_level`, as `commit_assignment` does."""

    def test_reserve_books_one_unit(self):
        times, levels = profile(1, (0, 10))
        assert level_at(times, levels, -1) == 1
        assert level_at(times, levels, 0) == 0
        assert level_at(times, levels, 9) == 0
        assert level_at(times, levels, 10) == 1

    def test_two_reservations_exhaust_two_units(self):
        times, levels = profile(2, (0, 10), (0, 10))
        assert level_at(times, levels, 5) == 0
        assert min_level(times, levels, 5, 6) < 1

    def test_reserve_rejects_when_booked(self):
        times, levels = profile(1, (0, 10))
        assert min_level(times, levels, 5, 15) == 0
        assert min_level(times, levels, 5, 6) == 0
        assert min_level(times, levels, 10, 15) == 1

    def test_adjacent_bookings_keep_a_flat_breakpoint(self):
        # the solvers never merge breakpoints: minute 10 stays one even
        # though the level does not change there
        times, levels = profile(1, (0, 10), (10, 20))
        assert (times[1:], levels) == ([0, 10, 20], [1, 0, 0, 1])
        assert min_level(times, levels, 5, 15) == 0
        assert find_earliest(None, None, times, levels, 0, 5) == (20, math.inf)
        times, levels = profile(2, (0, 10), (10, 20))
        assert find_earliest(None, None, times, levels, 0, 30) == (0, math.inf)
        reserve_step(times, levels, 5, 15)
        assert levels == [2, 1, 0, 0, 1, 2]
        assert find_earliest(None, None, times, levels, 0, 10) == (
            15, math.inf)

    def test_a_booking_that_ends_on_a_breakpoint_adds_none(self):
        times, levels = profile(2, (10, 30), (0, 30))
        assert (times[1:], levels) == ([0, 10, 30], [2, 1, 0, 2])
        reserve_step(times, levels, 30, 40)
        reserve_step(times, levels, 35, 40)
        assert (times[1:], levels) == ([0, 10, 30, 35, 40], [2, 1, 0, 1, 0, 2])

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 30),
                              st.booleans()),
                    min_size=1, max_size=8),
           st.integers(1, 3))
    def test_nested_reserves_match_counting_oracle(self, raw, capacity):
        # book in order where a unit is free throughout: the levels, every
        # interval minimum and every earliest start match a count of the
        # booked intervals.  A flagged booking ends on the first breakpoint
        # after its start, when there is one, so bookings that end on an
        # existing breakpoint are common.
        times, levels = [-math.inf], [capacity]
        booked = []
        for a, d, snap in raw:
            b = a + d
            if snap:
                b = next((t for t in times if t > a), b)
            if min_level(times, levels, a, b) < 1:
                continue
            reserve_step(times, levels, a, b)
            booked.append((a, b))
        assert times == sorted(set(times))
        counted = [profile_level_at(capacity, booked, t) for t in range(0, 115)]
        assert [level_at(times, levels, t) for t in range(0, 115)] == counted
        for a, d, _ in raw:
            assert min_level(times, levels, a, a + d) == min(counted[a:a + d])
            # adjacent bookings leave breakpoints that do not change the
            # level; the earliest-start query must see through them
            assert find_earliest(None, None, times, levels, a, d)[0] == \
                scan_earliest(a, d, [], capacity, booked, 200, False)
            assert probe(None, None, times, levels, a) == \
                scan_free_run(a, [], capacity, booked, 200, False)

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 30)),
                    max_size=8),
           st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                    max_size=4),
           st.integers(1, 3), st.integers(0, 120), st.integers(1, 60),
           st.booleans())
    def test_a_booking_search_equals_a_search_then_reserve_step(
            self, raw, raw_windows, capacity, t_min, duration, windowed):
        # `book` books [t, t + duration) from the step the search stopped
        # at: the result and the profile left behind are those of the same
        # search followed by `reserve_step`, and a search that raises
        # leaves the profile as it was
        times, levels = [-math.inf], [capacity]
        for a, d in raw:
            if min_level(times, levels, a, a + d) >= 1:
                reserve_step(times, levels, a, a + d)
        windows = TimeWindowSet(tuple((a, a + w) for a, w in raw_windows))
        starts, ends = window_arrays(windows) if windowed else (None, None)
        searched = times[:], levels[:]
        booked = times[:], levels[:]
        try:
            expected = find_earliest(starts, ends, *searched, t_min, duration)
        except NoSlotError:
            with pytest.raises(NoSlotError):
                find_earliest(starts, ends, *booked, t_min, duration, True)
            assert booked == (times, levels)
            return
        reserve_step(*searched, expected[0], expected[0] + duration)
        assert find_earliest(starts, ends, *booked, t_min, duration,
                             True) == expected
        assert booked == searched

    @given(st.lists(st.tuples(st.integers(-50, 200), st.integers(1, 60)),
                    max_size=12),
           st.integers(1, 3))
    def test_accepted_bookings_keep_the_last_level_full(self, raw, capacity):
        # Every booking `min_level` accepts is finite, so the profile keeps
        # its -inf sentinel and ends at full capacity: a search without
        # windows always finds a free run, whatever point it starts from.
        times, levels = [-math.inf], [capacity]
        for a, d in raw:
            if min_level(times, levels, a, a + d) >= 1:
                reserve_step(times, levels, a, a + d)
        assert times[0] == -math.inf
        assert levels[-1] == capacity
        for t in range(-52, 263):
            start, end = find_earliest(None, None, times, levels, t, 1)
            assert start >= t and end > start
            assert level_at(times, levels, start) >= 1


class TestEarliestStart:
    def test_unconstrained(self):
        starts, ends = window_arrays(always_open(0))
        assert find_earliest(starts, ends, *profile(1), 0, 10 + 20)[0] == 0

    def test_next_day_window(self):
        # daily 08:00-18:00 windows; too late today -> tomorrow 08:00
        days = tws(*[(480 + d * 1440, 1080 + d * 1440) for d in range(7)])
        starts, ends = window_arrays(days)
        t = find_earliest(starts, ends, *profile(1), 1100, 60 + 60)[0]
        assert t == 1920

    def test_waits_for_column(self):
        starts, ends = window_arrays(always_open(0))
        col = profile(1, (0, 100))
        assert find_earliest(starts, ends, *col, 0, 10 + 20)[0] == 100

    def test_without_setup_unconstrained(self):
        assert find_earliest(None, None, *profile(1), 50, 30)[0] == 50

    def test_without_setup_waits_for_column(self):
        col = profile(1, (40, 90))
        assert find_earliest(None, None, *col, 50, 30)[0] == 90

    def test_one_of_two_units_suffices(self):
        col = profile(2, (60, 70))
        assert find_earliest(None, None, *col, 50, 30)[0] == 50

    def test_start_only_needs_window(self):
        # setup must start in a window; the work may run past its end
        starts, ends = window_arrays(tws((0, 5)))
        assert find_earliest(starts, ends, *profile(1), 0, 60 + 60)[0] == 0

    def test_no_slot_names_the_minute_the_windows_ran_out(self):
        # from 3 the column is booked until 2000, after the last window
        starts, ends = window_arrays(tws((0, 10)))
        booked = profile(1, (0, 2000))
        with pytest.raises(NoSlotError) as err:
            find_earliest(starts, ends, *booked, 3, 10 + 10)
        assert str(err.value) == (
            "no operator window left at or after minute 2000")

    def test_a_window_two_years_away_is_found(self):
        # the search has no horizon: it runs until a window fits or none
        # is left
        far = 2 * 365 * MINUTES_PER_DAY
        starts, ends = window_arrays(tws((far, far + 60)))
        booked = profile(1, (0, 500))
        for duration in (30 + 60, 1):
            assert find_earliest(starts, ends, *booked, 0, duration) == (
                far, math.inf)

    def test_matches_minute_scan_randomized(self):
        rng = random.Random(7)
        for trial in range(300):
            capacity = rng.randint(1, 3)
            bookings = []
            times, levels = [-math.inf], [capacity]
            for _ in range(rng.randint(0, 5)):
                a = rng.randint(0, 400)
                b = a + rng.randint(1, 120)
                if min_level(times, levels, a, b) < 1:
                    continue
                reserve_step(times, levels, a, b)
                bookings.append((a, b))
            windows = []
            cursor = rng.randint(0, 50)
            for _ in range(rng.randint(1, 6)):
                width = rng.randint(5, 90)
                windows.append((cursor, cursor + width))
                cursor += width + rng.randint(1, 60)
            starts, ends = window_arrays(TimeWindowSet(tuple(windows)))
            t_min = rng.randint(0, 300)
            setup = rng.randint(0, 30)
            processing = rng.randint(1, 60)
            # every window ends before minute 1000, so a scan to 1500 sees
            # every start the search can return
            expected = scan_earliest(t_min, setup + processing,
                                     windows, capacity, bookings, 1500, True)
            try:
                got = find_earliest(starts, ends, times, levels, t_min,
                                    setup + processing)[0]
            except NoSlotError:
                got = None
            assert got == expected, (trial, t_min, setup, processing,
                                     windows, bookings)
            assert probe(starts, ends, times, levels, t_min) == scan_free_run(
                t_min, windows, capacity, bookings, 1500, True), (
                trial, t_min, windows, bookings)

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 30)),
                    max_size=8),
           st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                    max_size=4),
           st.integers(1, 3), st.integers(0, 120), st.integers(1, 60),
           st.booleans())
    def test_run_end_is_the_first_minute_without_a_free_unit(
            self, raw, raw_windows, capacity, t_min, duration, windowed):
        # for any duration, the search returns the minute-scan start and
        # the first minute at or after it where no unit is free
        times, levels = [-math.inf], [capacity]
        booked = []
        for a, d in raw:
            if min_level(times, levels, a, a + d) >= 1:
                reserve_step(times, levels, a, a + d)
                booked.append((a, a + d))
        windows = TimeWindowSet(tuple((a, a + w) for a, w in raw_windows))
        starts, ends = window_arrays(windows) if windowed else (None, None)
        # bookings end by 110 and windows by 240: a scan to 400 sees all
        expected = scan_earliest(t_min, duration, windows.windows, capacity,
                                 booked, 400, windowed)
        try:
            start, end = find_earliest(starts, ends, times, levels, t_min,
                                       duration)
        except NoSlotError:
            assert windowed and expected is None
            return
        assert start == expected
        assert (start, end) == scan_free_run(start, [], capacity, booked,
                                             400, False)

    def test_minimality_property(self):
        # returned start is feasible and every earlier minute is not
        times, levels = profile(2, (10, 50), (30, 90))
        win = tws((0, 20), (40, 200))
        t = find_earliest(*window_arrays(win), times, levels, 5, 5 + 25)[0]
        assert win.contains(t)
        assert min_level(times, levels, t, t + 30) >= 1
        for earlier in range(5, t):
            feasible = (win.contains(earlier)
                        and min_level(times, levels, earlier, earlier + 30) >= 1)
            assert not feasible


class TestWeeklyWindows:
    def test_workweek_expansion(self):
        windows = weekly_windows(WORKDAYS, "08:00", "18:00", 0, 7 * 1440)
        # Mon-Fri of week zero
        assert ((480, 1080) in windows.windows)
        assert ((4 * 1440 + 480, 4 * 1440 + 1080) in windows.windows)
        assert not windows.contains(5 * 1440 + 600)  # Saturday
        assert not windows.contains(6 * 1440 + 600)  # Sunday

    def test_negative_horizon_day_alignment(self):
        windows = weekly_windows(WORKDAYS, "08:00", "18:00", -7 * 1440, 0)
        assert windows.contains(-7 * 1440 + 480)      # previous Monday
        assert not windows.contains(-2 * 1440 + 600)  # previous Saturday

    def test_minutes_and_ints_accepted(self):
        a = weekly_windows(("MON",), 480, 1080, 0, 1440)
        b = weekly_windows((0,), "08:00", "18:00", 0, 1440)
        assert a == b
        assert weekly_windows(("MON",), "8:00", "18:00", 0, 1440) == a
        last = weekly_windows(("MON",), "23:59", "24:00", 0, 1440)
        assert last.windows == ((1439, 1440),)

    def test_span_over_the_limit_refused(self):
        span = MAX_WEEKLY_SPAN_DAYS * 1440
        assert weekly_windows(("MON",), "08:00", "18:00", 0, span).contains(480)
        with pytest.raises(ValueError, match="MAX_WEEKLY_SPAN_DAYS"):
            weekly_windows(("MON",), "08:00", "18:00", 0, span + 1440)
