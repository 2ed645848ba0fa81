"""Exception hierarchy.

Two branches matter for the command line front end: ``DataError`` covers
schema and validation problems (exit code 3), ``EstimationError`` covers
failures that arise while estimating (exit code 4).
"""


class FairsurvError(Exception):
    """Base class for all package errors."""


class DataError(FairsurvError, ValueError):
    """Invalid inputs: schemas, probability tables, grids, curve shapes."""


class EstimationError(FairsurvError, RuntimeError):
    """Estimation cannot proceed or produced an undefined quantity."""


class SpecValidationError(DataError):
    """A simulator specification violates its invariants."""


class CohortSchemaError(DataError):
    """Cohort columns are missing, malformed, or of the wrong type."""


class EmptyCohortError(DataError):
    """An estimator received zero rows."""


class DegenerateGroupError(EstimationError):
    """A requested group or stratum has zero probability or zero rows."""


class FoldAssignmentError(EstimationError):
    """Cross-fitting folds cannot be stratified as requested."""


class RatioUndefinedError(EstimationError):
    """A ratio-scale effect has a denominator at zero."""


class InfeasibleBandsError(EstimationError):
    """Uncertainty bands admit no curve satisfying the shape constraints."""
