"""Exception types shared across the package."""


class RpSpectralError(Exception):
    """Base class for all library errors."""


# --- dataset errors ---------------------------------------------------------

class EmptyRequest(RpSpectralError):
    """A generator was asked for zero points."""


class BadSpec(RpSpectralError):
    """A synthetic dataset spec is internally inconsistent."""


class ParseError(RpSpectralError):
    """A CSV cell could not be parsed as a number."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingLabelColumn(RpSpectralError):
    """The requested label column is not present in the file."""


class EmptyFile(RpSpectralError):
    """The CSV file holds no data rows."""


# --- tree errors ------------------------------------------------------------

class DegenerateSplit(RpSpectralError):
    """Every candidate direction projected all points onto one value."""


# --- pairing / clustering errors --------------------------------------------

class KTooLarge(RpSpectralError):
    """Requested neighbor or cluster count exceeds what the data allows."""


class LengthMismatch(RpSpectralError):
    """Two label vectors differ in length."""


class TooFewPoints(RpSpectralError):
    """At least two points are required."""


class TooLarge(RpSpectralError):
    """Input exceeds the dense-solver budget."""


# --- network errors ---------------------------------------------------------

class BadArchitecture(RpSpectralError):
    """Layer size list is unusable."""


class ShapeMismatch(RpSpectralError):
    """Array shapes do not line up."""


class EmptyPairSet(RpSpectralError):
    """Training requested on a pair set with no pairs."""


class MissingPolarity(RpSpectralError):
    """Training requested without both positive and negative pairs."""


class NonFiniteInput(RpSpectralError):
    """Data or distances hold NaN, infinite or float32-overflowing values."""


class IndexOutOfRange(RpSpectralError):
    """A pair index points outside the data matrix."""


class AllZeroDistances(RpSpectralError):
    """Bandwidth selection needs at least one nonzero distance."""


class BadSigma(RpSpectralError):
    """Heat-kernel bandwidth must be positive."""


class SingularGram(RpSpectralError):
    """Batch outputs are rank deficient; whitening is impossible."""


class BatchTooSmall(RpSpectralError):
    """Batch size is smaller than the embedding dimension."""


# --- harness errors ---------------------------------------------------------

class ConfigError(RpSpectralError):
    """Experiment configuration is invalid."""


class BadGrid(RpSpectralError):
    """A parameter sweep was given an empty grid."""


class IoError(RpSpectralError):
    """A data or report file could not be read or written."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class StageError(RpSpectralError):
    """Wraps an error raised inside a pipeline stage with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
