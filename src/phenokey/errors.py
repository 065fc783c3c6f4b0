"""Exception and warning types, and the number tests of config fields, shared across the package."""

import math
import numbers


class PhenokeyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PhenokeyError):
    """Annotation document could not be parsed; message carries line/field context."""


class SchemaError(PhenokeyError):
    """Document parsed but violates the keypoint annotation schema."""


class IntegrityError(PhenokeyError):
    """Cross-record inconsistency, e.g. duplicate image ids."""


class DatasetValidationError(PhenokeyError):
    """A dataset failed invariant validation where validity is required."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"dataset failed validation: {lines}{more}")


class DegeneratePoseError(PhenokeyError):
    """Visible keypoints cannot frame the body; carries the id of the image they belong to."""

    def __init__(self, message, image_id=None):
        super().__init__(message)
        self.image_id = image_id


class UndefinedMetricError(PhenokeyError):
    """Metric has an empty denominator (no evaluable terms)."""


class DegenerateFitError(PhenokeyError):
    """Least-squares fit is undefined (constant regressor)."""


class DivergenceError(PhenokeyError):
    """Training diverged; carries the trace recorded up to the failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class PhenokeyWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class DegenerateMeasurementWarning(PhenokeyWarning):
    """A phenotype measured zero length (coincident endpoints)."""


class GradNormFallbackWarning(PhenokeyWarning):
    """GradNorm disabled because an initial task loss is zero."""


class DegenerateFitWarning(PhenokeyWarning):
    """A regression line could not be fitted; output degraded gracefully."""


def positive_number(value, zero=False) -> bool:
    """A positive real number, or with ``zero`` a nonnegative one, that is finite as a float; a bool is none."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:    # an int beyond the float range
        return False
    return (x >= 0 if zero else x > 0) and x < math.inf
