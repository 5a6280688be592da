"""Exception hierarchy: every error rrst raises on purpose is one of three
kinds, named by who must act.

* InputError (ParseError, ValidationError)
                - the document or the arguments are wrong: fix them.
                  CLI exit 2.
* TooLarge      - the input is too large for a bound of the route that
                  takes it: the oracle's count of bases, past its pair
                  scan's bound, or the solver's pivots and cut rounds.
                  Shrink it.  CLI exit 2.
* InternalError - an invariant the algorithms guarantee was breached:
                  report a bug.  CLI exit 4.

``cli.failure`` maps a kind to its exit code.  Failed verifications are
returned as messages, not raised; the CLI exits 3.
"""

from __future__ import annotations


class RRSTError(Exception):
    """Base class for all package-specific errors."""


class InputError(RRSTError):
    """The caller's input is wrong; fixing it is the caller's to do."""


class ParseError(InputError):
    """Malformed input document, or a value that cannot be read exactly
    (a binary float, say)."""


class ValidationError(InputError):
    """Well-formed input that violates a semantic requirement, such as an
    edge or element id the graph or matroid does not hold."""


class TooLarge(RRSTError):
    """The input is too large for a bound of the route that takes it."""


class InternalError(RRSTError):
    """An algorithm invariant was breached; indicates a bug, never bad
    input.  So is a linear program the simplex cannot take, since only
    the solver builds programs."""


class InfeasibleModel(InternalError):
    """The relaxation has no feasible point: the simplex session raises it
    on a negative block rhs, or when a batch of cuts leaves no point."""
