"""Exception hierarchy.

The classes that matter to callers and to the CLI exit-code mapping:

* InputError        - bad user input (parse or validation); CLI exit 2.
* TooManyTrees, GroundTooLarge, IterationLimit
                    - the input is too large for the oracle's enumeration or
                      for the solver's pivot and cut-round bounds; CLI exit 2.
* InternalError     - an invariant the algorithms guarantee was breached,
                      which always signals an implementation bug; CLI exit 4.

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


class NoBasis(RRSTError):
    """A basis of the demanded size does not exist."""


class GroundTooLarge(RRSTError):
    """Enumeration guard: the ground set exceeds the exhaustive-scan bound."""


class TooManyTrees(RRSTError):
    """Enumeration guard: the graph has more spanning trees than the scan bound."""


class MalformedProgram(InputError):
    """A linear program references undeclared variables or is otherwise ill-formed."""


class InfeasibleModel(RRSTError):
    """The relaxation has no feasible point."""


class InternalError(RRSTError):
    """An algorithm invariant was breached; indicates a bug, never bad input."""


class IterationLimit(RRSTError):
    """Defensive bound on simplex pivots or cutting-plane rounds: the
    instance is too large to solve within it."""


class NoIntegralCoordinate(InternalError):
    """After zero-removal, a vertex carried no coordinate equal to one even
    though both sides were still active; the relaxation guarantees this
    cannot happen, so seeing it means the implementation is wrong."""
