"""Exception types shared across the package."""


class TwojcError(Exception):
    """Base class for package errors."""


class ConfigError(TwojcError):
    """Invalid run configuration (bad schema, unknown key, bad value)."""


class NumericalGuardError(TwojcError):
    """A numerical safety guard tripped (truncation, phase-space window,
    integrator drift)."""


class TruncationError(NumericalGuardError):
    """Fock-space truncation too small for the requested state."""
