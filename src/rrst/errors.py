"""Exception hierarchy.

The classes that matter to callers and to the CLI exit-code mapping:

* InputError        - bad user input (parse or validation); CLI exit 2.
* TooLarge          - the input is too large for a bound: the oracle's
                      count of bases, past its pair scan's bound, or the
                      solver's pivots and cut rounds (IterationLimit);
                      CLI exit 2.
* InternalError, MalformedProgram
                    - an invariant the algorithms guarantee was breached,
                      or the solver built a linear program it cannot take;
                      either signals an implementation bug; CLI exit 4.

Failed verifications are returned as messages, not raised; the CLI exits 3.
"""

from __future__ import annotations


class RRSTError(Exception):
    """Base class for all package-specific errors."""


class InputError(RRSTError):
    pass


class ParseError(InputError):
    """Malformed input document."""


class ValidationError(InputError):
    """Well-formed input that violates a semantic requirement."""


class UnknownEdge(RRSTError):
    """An edge id was referenced that the graph does not contain."""


class ElementNotInGround(RRSTError):
    """A matroid operation referenced an element outside the ground set."""


class TooLarge(RRSTError):
    """The input is too large for a bound of the route that takes it."""


class MalformedProgram(RRSTError):
    """A linear program the simplex cannot take: a cost, rhs or cut
    coefficient that is not an int, a cut column outside the structural
    columns, or an empty block.  Programs are built only by the solver,
    never read from a user, so this signals a bug."""


class InfeasibleModel(RRSTError):
    """The relaxation has no feasible point: the simplex session raises it
    on a negative block rhs, or when a batch of cuts leaves no point."""


class InternalError(RRSTError):
    """An algorithm invariant was breached; indicates a bug, never bad input."""


class IterationLimit(TooLarge):
    """Defensive bound on simplex pivots or cutting-plane rounds: the
    instance is too large to solve within it."""
