"""Exception hierarchy shared across the package."""


class AccsensError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(AccsensError, ValueError):
    """A density or problem was constructed with out-of-domain parameters."""


class CapabilityError(AccsensError):
    """A custom model lacks a declared capability: the scale hints that
    default search intervals need."""


class SchemaError(AccsensError, ValueError):
    """A JSON document does not match the expected schema.

    The message names the offending key or field.
    """


class UnresolvedClassifierError(AccsensError):
    """A likelihood-ratio classifier could not be resolved to boundaries."""


class NoRootError(AccsensError):
    """The likelihood-ratio equation has no root in the search interval."""


class EmptyIntervalError(AccsensError, ValueError):
    """A search interval is empty or inverted."""


class InfeasibleTargetError(AccsensError, ValueError):
    """A requested accuracy level is not attainable."""


class InvalidPerturbationError(AccsensError, ValueError):
    """An adversarial shift would produce an invalid distribution."""


class SolverFailureError(AccsensError):
    """A numerical solver failed to produce a usable result."""
