"""Exception hierarchy shared by all modules.

The CLI maps these onto its documented exit codes, so new error types
should subclass one of the three categories below: PreconditionError
(exit 3), NumericError (exit 4; TailError is one) and EvaluationError
(exit 4).  A failed check is a verdict, not an error: the command that
reports it exits 2.
"""


class FracvexpError(Exception):
    """Base class for all package errors."""


class PreconditionError(FracvexpError):
    """An operation was called with inputs violating its contract.

    Covers domain errors (evaluation point outside the grid box),
    hypothesis violations of the checkers, and malformed geometry.
    CLI exit code 3.
    """


class NumericError(FracvexpError):
    """A numerical failure: overflow/NaN in an iteration, singular kernel
    argument, or a missing root bracket.  CLI exit code 4.
    """


class TailError(NumericError):
    """The discarded far-field contribution cannot be certified below the
    configured tolerance; the message states the radius to use instead.
    """


class EvaluationError(FracvexpError):
    """An exponent or user callback returned a non-finite value; carries
    the offending argument in ``args``.  CLI exit code 4.
    """
