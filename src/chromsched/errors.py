"""Exception types shared across the package."""


class SchedulingError(Exception):
    """Base class for solver and model errors."""


class NoSlotError(SchedulingError):
    """No feasible start exists at or after `t_min`; `detail` says why."""

    def __init__(self, t_min: int, detail: str):
        self.t_min = t_min
        self.detail = detail
        super().__init__(f"no feasible start from {t_min}: {detail}")


class IncompleteScheduleError(SchedulingError):
    """A schedule is missing a placement required by the computation."""


class InstanceFormatError(SchedulingError):
    """An instance or schedule document has a malformed field."""
