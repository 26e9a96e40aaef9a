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


class MalformedTaskSet(ParaschedError):
    """Task-set JSON that lacks a required field."""


class EmptyTaskSet(ParaschedError):
    pass


class DegenerateWindow(ParaschedError):
    pass


class OracleTooLarge(ParaschedError):
    pass


class CriticalPathExceedsDeadline(ParaschedError):
    pass


class InsufficientDedicated(ParaschedError):
    pass


class PartitionFailure(ParaschedError):
    pass


class PlacementFailure(ParaschedError):
    """Raised by the two-way-splitting partitioner; carries the failing stage."""

    def __init__(self, stage, message=""):
        self.stage = stage
        super().__init__(message or f"placement failed during {stage}")


class NoFit(ParaschedError):
    pass
