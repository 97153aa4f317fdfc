"""Exception types shared across the package."""


class SampleRnnError(Exception):
    """Base class for errors raised by this package."""


class AudioFormatError(SampleRnnError):
    """File is not a parseable RIFF/WAVE container."""


class UnsupportedFormatError(SampleRnnError):
    """WAV file parsed but is not 16-bit mono PCM; message names the field."""


class RateMismatchError(SampleRnnError):
    """Source sample rate differs from the configured rate."""


class EmptyCorpusError(SampleRnnError):
    """No usable chunks could be produced from the corpus."""


class InsufficientDataError(SampleRnnError):
    """Too few chunks to populate train/test/validation splits."""


class ShapeError(SampleRnnError):
    """Operand shapes are incompatible; message names both shapes."""


class FramingError(SampleRnnError):
    """Sequence length is not divisible by the frame size."""


class ContractError(SampleRnnError):
    """An operation was called outside its stated contract."""


class NumericError(SampleRnnError):
    """A forward value became NaN or Inf."""


class DegenerateDirectionError(SampleRnnError):
    """Weight normalization hit a zero-norm direction column."""


class ConfigError(SampleRnnError):
    """Bad or unknown configuration key/value."""


class CheckpointError(SampleRnnError):
    """Checkpoint file is unreadable: bad magic, version, checksum,
    truncation, a read error, a header field, or a record that does not fit
    the header's config."""


class DivergenceError(SampleRnnError):
    """Training loss became non-finite."""

    def __init__(self, message, iteration, last_checkpoint=None):
        super().__init__(message)
        self.iteration = iteration
        self.last_checkpoint = last_checkpoint


class GenerationMemoryError(SampleRnnError):
    """Batched generation would exceed the memory budget; reduce n_seq."""
