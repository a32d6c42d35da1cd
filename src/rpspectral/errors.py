"""Exception types shared across the package, one per way a caller acts.

- ``RpSpectralError``, the base: ``cli.main`` prints any of them as
  ``error: {message}`` and exits 2, the harness's ``_stage`` wraps one raised
  inside a pipeline stage in ``StageError``, and the benchmark records one
  as a failed operation.
- ``ConfigError``: a setting is bad. A config section raises it naming its
  own field; only ``ExperimentConfig.validate`` adds the section ("method.",
  "dataset: ", ...), and ``sweep`` a bad grid cell with "grid cell {...}: ".
- ``InputError``: the data handed in is unusable, by shape, size, index or
  value (a NaN or an infinity). The caller fixes its data.
- ``NumericalError``: training diverged or a batch could not be whitened.
  Each training loop re-raises it naming the step where it happened.
- ``IoError``: a file could not be read or written; ``path`` names it.
- ``StageError``: a pipeline stage failed; ``run_experiment`` records it as
  a failed run and goes on, and the ``run`` verb exits 1.

The message says what went wrong; no caller tells the failures of one class
apart.
"""


class RpSpectralError(Exception):
    """Base class for all library errors."""


class ConfigError(RpSpectralError):
    """A config field, dataset spec or sweep grid is invalid."""


class InputError(RpSpectralError):
    """Data has an unusable shape, size, index or value."""


class NumericalError(RpSpectralError):
    """Training diverged, or a batch's outputs could not be whitened."""


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
