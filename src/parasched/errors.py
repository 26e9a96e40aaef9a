"""Exception types shared by all analysis modules."""


class ParaschedError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(ParaschedError):
    pass


class NonPositiveWcet(ParaschedError):
    pass


class DeadlineExceedsPeriod(ParaschedError):
    pass


class ConstrainedDeadline(ParaschedError):
    """A task with D < T reached an analysis that assumes D = T."""


class MalformedTaskSet(ParaschedError, ValueError):
    """A task set that lacks a required field, or a DAG whose structure is
    malformed."""


class EmptyTaskSet(ParaschedError):
    pass


class UtilizationInfeasible(ParaschedError, RuntimeError):
    """No utilization shares let every task's period exceed its L."""


class InvalidSpeeds(ParaschedError, ValueError):
    """A list of processor speeds or load bounds that is empty or holds a
    value that is not positive."""


class InvalidChoice(ParaschedError, ValueError):
    """A simulator's ``order`` or ``choice`` callback picked a vertex that
    is not eligible."""
