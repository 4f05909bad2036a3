"""Exception hierarchy.

Every error carries a stable ``kind`` string (the class name) that the CLI
emits in its JSON error payloads, and an ``exit_code`` bucketing it into one
of the documented outcome classes: 1 for domain errors, 2 for internal
certificate failures, 3 for usage errors.  ``where`` holds fields naming
where the error happened (a survey row's ``e`` and ``source``); the CLI
adds them to the payload.
"""

from __future__ import annotations


class FermatRCError(Exception):
    exit_code = 1
    where: dict = {}  # rebound per instance, never mutated

    @property
    def kind(self) -> str:
        return type(self).__name__


class DomainError(FermatRCError):
    """Mathematically invalid input (bad field, bad curve, bad twist...)."""


class InvalidField(DomainError):
    pass


class DivisionByZero(DomainError):
    pass


class DegreeMismatch(DomainError):
    pass


class AllZero(DomainError):
    pass


class NotInModule(DomainError):
    pass


class NotOnHypersurface(DomainError):
    pass


class CommonZero(DomainError):
    pass


class ConstantMap(DomainError):
    pass


class BadRoot(DomainError):
    pass


class BadScaling(DomainError):
    pass


class NoRoots(DomainError):
    pass


class DegreeNotDivisible(DomainError):
    pass


class TwistOutOfRange(DomainError):
    pass


class SpaceTooLarge(DomainError):
    pass


class CertificateFailure(FermatRCError):
    """An internal consistency certificate failed.

    Signals either a presentation that is not a vector-bundle kernel or an
    implementation bug; never silently ignored.
    """

    exit_code = 2


class WindowViolation(CertificateFailure):
    """A very-free verdict landed in a forbidden degree window."""


class UsageError(FermatRCError):
    exit_code = 3
