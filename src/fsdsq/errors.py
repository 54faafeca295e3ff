"""Exception types shared across the package.

``FindingError`` subclasses mark *mathematical* findings: situations the
analysed structure theory says cannot happen.  They must surface to the
caller (the sweep harness records them as findings, the CLI exits with
status 2) and are never silently swallowed.
"""

from __future__ import annotations


class FindingError(Exception):
    """Analysis met a configuration the structural claims rule out."""


class CounterexampleError(FindingError):
    """A double-square position violated a checked invariant."""


class ForbiddenPairError(FindingError):
    """Adjacent double squares matched an infeasible length ordering."""


class UnclassifiablePairError(FindingError):
    """A pair of double squares fits no mate category."""


class NoExtensionError(ValueError):
    """The requested extension does not exist for this seed."""


class FactorizationError(ValueError):
    """The two roots do not admit the canonical double-square factorization."""


class CostCeilingError(ValueError):
    """A sweep request exceeded the cost ceiling."""
