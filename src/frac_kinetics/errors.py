"""Exception types shared across the package.

All input-validation failures derive from :class:`DomainError`, which itself
derives from ``ValueError`` so that callers who do not care about the finer
distinctions can catch the usual builtin.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """A gamma-type function was evaluated at (or forced through) a pole."""


class RangeError(DomainError):
    """An argument lies outside the validated numerical range.

    Raised for the documented series caps (Mittag-Leffler ``|z|``, Struve
    ``x``, also as a solution's forcing argument), for a Struve sum cut at
    ``max_terms`` whose tail bound exceeds ``rel_tol``, for a solution series
    still going after 65,536 entries, and for a Laplace image series outside
    its convergence region or not stopping within ``max_terms`` terms.
    """


class SingularStepError(RuntimeError):
    """The implicit update of the Volterra marching scheme became singular.

    Cannot occur for positive rate constants and positive fractional order;
    guarded against anyway so that a bad parameter combination fails loudly
    instead of dividing by ~0.
    """
