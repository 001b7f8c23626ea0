"""Exception types: malformed input, a size guardrail and a failed check."""

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
    """A failed check: the stage that failed ("relations", "completeness",
    "freeness", "stability", "decomposition", "convention" or
    "equivariance"), the degree where it failed (if any), and partial data
    for diagnosis (e.g. the quotient dimensions computed so far).
    """

    def __init__(self, stage: str, message: str, *, degree: int | None = None,
                 partial: object | None = None):
        self.stage = stage
        self.degree = degree
        self.partial = partial
        super().__init__(f"[{stage}" + (f", degree {degree}" if degree is not None else "")
                         + f"] {message}")

