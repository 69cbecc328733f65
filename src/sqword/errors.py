"""Exception types shared by all sqword modules.

Every error raised for a bad *input* derives from :class:`DomainError`, so
callers (in particular the CLI) can distinguish domain failures from bugs.
"""


class DomainError(ValueError):
    """Base class for all input-domain errors raised by this package."""


class InvalidLetterError(DomainError):
    """A word contains a letter outside its alphabet."""


class EmptyWordError(DomainError):
    """An operation that needs a nonempty word got the empty word."""


class TooShortError(DomainError):
    """Exchanging the first two letters needs a word of length at least 2."""


class InvalidParamsError(DomainError):
    """Square-root parameters must satisfy a >= 1 and b >= 0."""


class NotInPiError(DomainError):
    """The word is not a squareful product of minimal squares."""


class EmptyAfterTrimError(DomainError):
    """Trimming to complete squares left nothing to take the root of."""


class EmptyDirectiveError(DomainError):
    """A directive sequence must contain at least one term."""


class InvalidSlopeError(DomainError):
    """Central word construction needs coprime c, d with 1 <= c < d."""


class NotStandardError(DomainError):
    """The word is not a standard word."""


class NotDecomposableError(DomainError):
    """The word does not split into equal-slope blocks and their exchanges."""


class NotCoprimeError(DomainError):
    """Multiplicative order of 2 is only defined modulo odd numbers."""


class NotADivisorError(DomainError):
    """A per-divisor count was requested for a non-divisor."""


class PreconditionFailedError(DomainError):
    """A construction's stated precondition does not hold."""


class ClassificationContradictionError(DomainError):
    """The classifier reached a state the solution trichotomy rules out.

    Raising this is a test-failure signal: it never happens on valid input
    unless the implementation (or the trichotomy itself) is wrong.
    """
