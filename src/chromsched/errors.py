"""Exception types shared across the package."""


class SchedulingError(Exception):
    """Base class for solver and model errors."""


class NoSlotError(SchedulingError):
    """No operator window is left for a setup to start in."""


class IncompleteScheduleError(SchedulingError):
    """A schedule is missing a placement required by the computation."""


class InstanceFormatError(SchedulingError):
    """An instance or schedule document has a malformed field."""
