"""Exception hierarchy shared across the toolkit.

Every error carries the process exit code the CLI maps it to:
2 for configuration/validation problems, 3 for I/O and file-format
problems, 4 for degenerate-metric conditions.
"""

from __future__ import annotations


class MissdiagError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class DimensionError(MissdiagError):
    """Mismatched lengths, modality counts, or out-of-range indices."""


class InvalidPatternError(MissdiagError):
    """A mask pattern violates its invariants (e.g. all modalities missing)."""


class EmptyDatasetError(MissdiagError):
    """A sample count of zero was requested."""


class IncompleteTableError(MissdiagError):
    """An ablation table does not cover every required modality combination."""


class InsufficientTraceError(MissdiagError):
    """A gradient trace is too short for the requested computation."""


class InvalidTraceError(MissdiagError):
    """A gradient trace contains negative, non-finite, or missing values."""


class DuplicateSampleError(MissdiagError):
    """Two gradient samples for the same (step, modality, module) disagree."""


class TrainingDivergedError(MissdiagError):
    """Training produced a non-finite loss, gradient norm or parameter."""


class ConfigError(MissdiagError):
    """An experiment configuration is malformed or inconsistent."""


class DegenerateContributionError(MissdiagError):
    """All modality contributions are zero; the equity distribution is undefined."""

    exit_code = 4


class FileFormatError(MissdiagError):
    """An artifact file does not conform to its declared format."""

    exit_code = 3
