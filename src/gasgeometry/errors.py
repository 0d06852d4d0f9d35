"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PolylogOverflowError(OverflowError):
    """The polylogarithm exceeds the representable range.

    Raised instead of returning ``inf`` so that the physical divergence
    of Li(y, phi) as y -> 1- with phi <= 1 is distinguishable from a
    plain domain violation.
    """


class EnumerationLimitError(ValueError):
    """A Fock-space enumeration would exceed the desk-scale state budget."""


class SingularMetricError(ArithmeticError):
    """Curvature was requested where the metric determinant is not positive."""


class ConditioningWarning(UserWarning):
    """A result is returned but its conditioning is suspect.

    Emitted when a metric determinant is non-positive or vanishes relative
    to the size of its entries, or when ``det_bundle``'s B keeps fewer than
    8 digits after cancellation; curvature values may then carry large error.
    """
