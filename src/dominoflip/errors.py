"""Exception types shared across the package, and the default flip-graph
budget, which the CLI reads without importing the graph code."""

# flip-graph nodes a build may hold unless told otherwise
DEFAULT_NODE_BUDGET = 2_000_000


class DominoError(Exception):
    """Base class for domain errors raised by this package."""


class UntileableError(DominoError):
    """The region admits no domino tiling."""


class UnsupportedRegionError(DominoError):
    """The operation requires a region with no hole."""


class InvalidMoveError(DominoError):
    """The requested flip anchor is not flippable in this tiling."""


class InvalidHeightError(DominoError):
    """A height labeling violates the edge rules."""


class ResourceLimitError(DominoError):
    """A computation exceeded its configured size budget."""
