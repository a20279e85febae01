"""Exception types shared across the package, and the search-budget check."""

from __future__ import annotations


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range.

    When the failure is "t too small", ``minimal_t`` carries the smallest
    admissible value so callers can retry.
    """

    def __init__(self, message: str, minimal_t: int | None = None):
        super().__init__(message)
        self.minimal_t = minimal_t


class UniformityError(ValueError):
    """An operation defined only for one uniformity was called on another."""


class InstanceError(ValueError):
    """A partitioned instance violates a structural invariant.

    ``location`` names the offending block or edge by its position, when
    the violation has one; the parser passes it on to its ``ParseError``.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{message} (at {location})")
        self.message = message
        self.location = location


class UnknownBlockError(LookupError):
    """A block id does not exist in the instance."""


class ForeignEdgeError(ValueError):
    """An edge does not belong to the instance it was queried against."""


class SequenceError(ValueError):
    """A grade sequence fails validation against its own parameters."""


class CertificateError(ValueError):
    """A certificate step has a field of the wrong shape, or an unknown id."""


class ParseError(ValueError):
    """An instance or certificate file is malformed.

    ``location`` names the offending element (block/edge/vertex index).
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{message} (at {location})")
        self.location = location


class BuildSizeError(RuntimeError):
    """A build would exceed the materialization budget.

    The recursive constructions multiply their block count by roughly n_j at
    every grade, so the full instance can be astronomically large even though
    all of its per-grade numerology is exactly computable.  The predicted
    totals are attached so callers can report precisely what was refused.
    """

    def __init__(
        self, message: str, predicted_blocks: int, predicted_vertices: int, predicted_edges: int
    ):
        super().__init__(message)
        self.predicted_blocks = predicted_blocks
        self.predicted_vertices = predicted_vertices
        self.predicted_edges = predicted_edges


def _refuse_bad_budget(name: str, value: int | None) -> None:
    """Raise ``ParameterError`` for a budget that is neither None (unbounded)
    nor an ``int`` of at least 0; a bool is refused, as ``True`` would run as 1."""
    if value is not None and (type(value) is not int or value < 0):
        raise ParameterError(f"{name} must be None or an int of at least 0, got {value!r}")
