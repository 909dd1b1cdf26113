"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid or mutually incoherent input parameters."""


class UnsupportedFeatureError(RuntimeError):
    """Requested operation is deliberately outside the supported surface."""


class InternalError(RuntimeError):
    """An internal consistency check failed: a defect in lyapzeros, not in
    the input."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or overflowed.

    Carries a ``diagnostics`` dict describing the failing configuration.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
