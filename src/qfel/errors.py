"""Exception types shared across the package."""


class QfelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QfelError, ValueError):
    """An input is outside the physically or numerically supported domain."""


class NumericError(QfelError, ArithmeticError):
    """A numerical routine produced NaN/Inf or otherwise failed to converge."""


class ClosedChannelError(DomainError):
    """The requested emission channel is kinematically or dynamically closed."""


class ConfigError(QfelError, ValueError):
    """A scenario configuration file or override is invalid."""
