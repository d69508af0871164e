"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error reports.  ``location`` is optional context (character
position in a Newick string, CSV row number, ...).
"""

import operator


class TreeGlsError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class NewickError(TreeGlsError):
    """Malformed Newick text; ``location`` is the 0-based character offset."""

    code = "newick-syntax"


class TreeError(TreeGlsError):
    """Structurally invalid tree or invalid tree operation."""

    code = "tree"


class TraitTableError(TreeGlsError):
    """Malformed or tree-inconsistent trait CSV; ``location`` is the row number."""

    code = "trait-table"


class SingularCovarianceError(TreeGlsError):
    """Covariance matrix is singular (or numerically so at factorization).

    ``min_eigenvalue`` holds an estimate of the smallest eigenvalue when one
    is available.
    """

    code = "singular-covariance"

    def __init__(self, message, min_eigenvalue=None, location=None):
        super().__init__(message, location)
        self.min_eigenvalue = min_eigenvalue


class RankDeficientError(TreeGlsError):
    """Design matrix is rank deficient at the working tolerance."""

    code = "rank-deficient"


class DegenerateFitError(TreeGlsError):
    """A quantity is undefined for this fit (e.g. log-likelihood at RSS = 0)."""

    code = "degenerate-fit"


class BudgetExceededError(TreeGlsError):
    """An enumeration would exceed its configured evaluation budget."""

    code = "budget-exceeded"


class ConfigError(TreeGlsError):
    """Invalid run or experiment configuration."""

    code = "config"


class OutOfMemoryError(TreeGlsError):
    """A computation needed more memory than the process could allocate."""

    code = "out-of-memory"


def _whole(value, what: str) -> int:
    """``value`` as an int, refused with :class:`ConfigError` unless it is
    one: a float count, size or seed would otherwise be truncated, and a bool
    is not taken for 0 or 1.  numpy integers pass."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")
