"""Shared exception types for parsing, validation, enumeration, and transport."""


class ParseFailure(ValueError):
    """Emission text does not match the task's output schema.

    ``position`` carries a token or line index when the failing location is
    known, for diagnostics in logs and CLI output.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ConstraintViolation(ValueError):
    """Parsed hypothesis is structurally outside the instance's space.

    Examples: a cyclic edge list, a floating voxel, an operator outside the
    instance's operator set, an expression deeper than the depth bound.
    """


class EnumerationLimit(RuntimeError):
    """Admissible set is too large to enumerate under the configured cap."""


class TransportFailure(RuntimeError):
    """Remote endpoint kept failing after the retry budget was exhausted."""


class SamplerExhausted(ValueError):
    """A sampler has no further proposal to give, e.g. an oracle asked for
    more proposals than the admissible set holds; the run aborts."""


class LogFormatError(ValueError):
    """A run log that cannot be read back: a line that is not a JSON log
    record, a line without a field that readers use, or no run header.
    ``reason`` is the message without the path."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.reason = reason


class ConfigError(ValueError):
    """Sampler or suite configuration is unusable."""
