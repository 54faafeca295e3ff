"""Rightmost distinct squares, FS-double squares and runs of 2's in words."""

from .census import CensusReport, render_census_tsv, s_sequence
from .construct import (BuildStep, RunReport, build_run, extend_equal_run,
                        extend_unequal)
from .double_squares import (FsDoubleSquare, MateClassification, MateLabel,
                             classify_mate_detail, find_fs_double_squares)
from .errors import (CostCeilingError, CounterexampleError, FactorizationError,
                     NoExtensionError)
from .pairs import (ALL_PROPERTIES, Check, PairClassification, PairKind,
                    find_double_square_pairs, ordering_case)
from .sweep import Finding, LengthStats, SweepReport, exhaustive_verify
from .words import Word, are_conjugate, lcp

__version__ = "0.1.0"

__all__ = [
    "ALL_PROPERTIES", "BuildStep", "CensusReport", "Check", "CostCeilingError",
    "CounterexampleError", "FactorizationError", "Finding", "FsDoubleSquare",
    "LengthStats", "MateClassification", "MateLabel", "NoExtensionError",
    "PairClassification", "PairKind", "RunReport", "SweepReport", "Word",
    "are_conjugate", "build_run", "classify_mate_detail", "exhaustive_verify",
    "extend_equal_run", "extend_unequal", "find_double_square_pairs",
    "find_fs_double_squares", "lcp", "ordering_case", "render_census_tsv",
    "s_sequence",
]
