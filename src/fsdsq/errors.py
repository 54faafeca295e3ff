"""Exception types shared across the package.

``CounterexampleError`` is the one finding that stops a computation: a
construction seed with a census-2 position that does not factor, or a
closed-form word whose census disagrees with its formula.  The CLI prints
it as a ``structure`` finding and exits 2.  Other findings are data that
``pairs.check_word`` reports; the other types are ``ValueError``s.
"""

from __future__ import annotations


class CounterexampleError(Exception):
    """A double-square position violated a checked invariant."""


class NoExtensionError(ValueError):
    """The requested extension does not exist for this seed."""


class FactorizationError(ValueError):
    """The two roots do not admit the canonical double-square factorization."""


class CostCeilingError(ValueError):
    """A sweep would check more canonical words than ``sweep.MAX_SWEEP_WORDS``."""
