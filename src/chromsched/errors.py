"""Exception types shared across the package."""


class SchedulingError(Exception):
    """Base class for solver and model errors."""


class NoSlotError(SchedulingError):
    """No feasible start time exists within the searched horizon."""

    def __init__(self, t_min: int, horizon: int, detail: str = ""):
        self.t_min = t_min
        self.horizon = horizon
        self.detail = detail
        msg = f"no feasible start in [{t_min}, {horizon}]"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class IncompleteScheduleError(SchedulingError):
    """A schedule is missing a placement required by the computation."""


class InstanceFormatError(SchedulingError):
    """An instance or schedule document has a malformed field."""
