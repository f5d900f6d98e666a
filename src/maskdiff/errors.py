"""Semantic exception hierarchy. Public functions never raise bare ValueError."""

from __future__ import annotations


class MaskDiffError(Exception):
    """Base error for this package."""


class InvalidDistributionError(MaskDiffError, ValueError):
    """Array is not a probability distribution (shape, sign, or normalization)."""


class AlphabetMismatchError(MaskDiffError, ValueError):
    """Operands are defined over different alphabets."""


class SupportError(MaskDiffError):
    """Absolute continuity violated: mass found where the reference has none,
    or conditioning evidence has zero probability."""


class PositivityError(MaskDiffError):
    """A strictly positive table is required (consider JointTable.floored())."""


class UnsupportedAlphabetError(MaskDiffError):
    """Odds-ratio machinery is implemented for binary categories only."""


class CapExceededError(MaskDiffError):
    """Requested exact enumeration exceeds the configured cap."""


class ScheduleError(MaskDiffError, ValueError):
    """Noise schedule construction failed (bad family/parameters or non-monotone)."""


class ClampError(MaskDiffError, ValueError):
    """A sequence disagrees with the unmasked evidence it must agree with."""


class DegenerateMarginalError(MaskDiffError):
    """A per-position marginal carries all of its mass on the mask state."""


class ConfigError(MaskDiffError, ValueError):
    """Malformed configuration: unknown section/key or unparsable value."""


class InputFileError(MaskDiffError):
    """An input file is missing or unreadable, or its contents are malformed."""
