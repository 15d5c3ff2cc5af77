"""Exception types shared across the package."""


class KronsolveError(Exception):
    """Base class for all library errors."""


class InvalidInputError(KronsolveError, ValueError):
    """An argument violates an operation's preconditions."""


class SizeGuardError(KronsolveError):
    """A dense materialization would exceed its size guard."""


class NumericalFailureError(KronsolveError, RuntimeError):
    """An iterative numerical kernel failed to converge.

    Carries ``iterations`` (how far the kernel got) and ``diagnostics``
    (kernel-specific data such as a residual history).
    """

    def __init__(self, message, iterations=None, diagnostics=None):
        super().__init__(message)
        self.iterations = iterations
        self.diagnostics = dict(diagnostics or {})


class TensorFormatError(KronsolveError):
    """A tensor file is malformed; ``code`` identifies the defect.

    Codes: ``bad-magic``, ``bad-version``, ``truncated``, ``dim-overflow``.
    """

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code
