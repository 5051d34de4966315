"""Exception types shared across the package."""


class SnaplinkError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SnaplinkError):
    """A dataset line failed to parse. Carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyInputError(SnaplinkError):
    """An operation received an empty input it cannot work with."""


class ConfigError(SnaplinkError):
    """Invalid configuration value. Carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DimensionError(SnaplinkError):
    """Shape mismatch between tensors, naming both shapes."""


class BoundsError(SnaplinkError):
    """An index referenced an element outside its valid range."""


class NumericError(SnaplinkError):
    """A numeric value became non-finite where finiteness is required."""


class TrainingDiverged(SnaplinkError):
    """Training produced a non-finite loss or gradient. Carries epoch and
    learning rate."""

    def __init__(self, epoch: int, learning_rate: float):
        super().__init__(
            f"non-finite loss or gradient at epoch {epoch} "
            f"(learning_rate={learning_rate})"
        )
        self.epoch = epoch
        self.learning_rate = learning_rate
