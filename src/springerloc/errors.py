"""Exception types shared across the package."""

from __future__ import annotations


class SpringerlocError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(SpringerlocError, ValueError):
    """Input violates a documented precondition (bad partition, size mismatch...)."""


class GuardrailError(SpringerlocError):
    """A configured size limit was exceeded."""

    def __init__(self, what: str, value: int, limit: int):
        self.what = what
        self.value = value
        self.limit = limit
        super().__init__(f"{what}={value} exceeds the configured limit {limit}")


class CertificateError(SpringerlocError):
    """A verification stage failed.

    Carries the failed stage name, the degree where it failed (if any), and any
    partial data useful for diagnosis (e.g. quotient dimensions computed so far).
    """

    def __init__(self, stage: str, message: str, *, degree: int | None = None,
                 partial: object | None = None):
        self.stage = stage
        self.degree = degree
        self.partial = partial
        super().__init__(f"[{stage}" + (f", degree {degree}" if degree is not None else "")
                         + f"] {message}")


class StabilityError(SpringerlocError):
    """A moved generator's rewrite is not an expression over the generators,
    or an action that failed its certificate is used."""


class ConventionError(SpringerlocError):
    """Computed data contradicts a frozen convention (e.g. partition orientation)."""
