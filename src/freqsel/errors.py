"""Exception taxonomy.

Every data- or domain-level failure raised by this package derives from
:class:`FreqselError`, so callers (and the CLI) can distinguish bad input
data (exit code 2) from usage mistakes (exit code 1) and genuine bugs.
Each class carries a human-readable message naming the offending file,
entry, or value where that context is available.
"""


class FreqselError(Exception):
    """Base class for all data and domain errors raised by freqsel."""


# --- tensor container / manifest ---------------------------------------

class MalformedHeader(FreqselError):
    """Tensor file header violates the documented container layout."""


class UnsupportedDtype(FreqselError):
    """Tensor file declares an element type other than '<f4' or '<f8'."""


class NonFiniteValue(FreqselError):
    """A tensor payload contains NaN or Inf."""


class RankError(FreqselError):
    """Tensor rank is not 2 or 3."""


class ShapeMismatch(FreqselError):
    """Operands that must share a shape do not."""


class IoFailure(FreqselError):
    """The operating system refused a read or write."""


class ManifestSchemaError(FreqselError):
    """Dataset manifest JSON does not match the documented schema."""


class MissingFile(FreqselError):
    """A manifest entry points at a file that does not exist."""


class MetaMismatch(FreqselError):
    """Entries at the same timestep disagree on tensor shape."""


# --- filtering ----------------------------------------------------------

class NonPositiveCutoff(FreqselError):
    """High-pass cutoff must be strictly positive."""


class DimMismatch(FreqselError):
    """Filter mask dimensions do not match the feature map."""


class ZeroEnergyFeature(FreqselError):
    """A feature map has zero total energy, so its ratio is undefined."""


# --- synthetic data and schedules ----------------------------------------

class ProfileInvalid(FreqselError):
    """Synthetic detail-amplitude profile violates its invariants."""


class FrequencyTooHigh(FreqselError):
    """Requested detail frequency does not fit the target grid."""


class ScheduleInvalid(FreqselError):
    """Noise schedule violates its invariants or its CSV is malformed."""


# --- statistics -----------------------------------------------------------

class EmptyInput(FreqselError):
    """A statistic was requested over zero samples."""


class InvalidEmbeddingSet(FreqselError):
    """Labeled embedding collection violates its invariants."""


class DegenerateWithinScatter(FreqselError):
    """Within-class scatter is zero, so the Fisher ratio is undefined."""


class ConstantSeries(FreqselError):
    """A correlation input has zero variance."""


class SeriesInvalid(FreqselError):
    """A value series (or its CSV) is malformed or misaligned."""


# --- curves and selection --------------------------------------------------

class EmptyTimestep(FreqselError):
    """No feature maps are available for a requested timestep."""


class EmptyCurve(FreqselError):
    """Selection was attempted over a curve with no points."""
