"""Exception and warning types, and the number rule of flags and config fields, shared across the package."""

import math
import numbers
from contextlib import contextmanager


class PhenokeyError(Exception):
    """Base class for all errors raised by this package; a command exits 1 on one, any other exception is a bug."""


class ParseError(PhenokeyError):
    """Annotation document could not be parsed; message carries line/field context."""


class SchemaError(PhenokeyError, ValueError):
    """An input value (a document field, a config value, a flag or an argument) breaks a documented rule."""


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
    """Visible keypoints cannot frame the body; the message names the image they belong to."""


class DivergenceError(PhenokeyError):
    """Training diverged; carries the trace recorded up to the failure."""

    def __init__(self, message, trace):
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


def positive_number(value, zero=False, integer=False) -> bool:
    """A positive real number, or with ``zero`` a nonnegative one, that is finite as a float, or with ``integer`` a
    nonnegative integer of any size; a bool is none."""
    try:
        kind = numbers.Integral if integer else numbers.Real
        x = float(value) if isinstance(value, kind) and not isinstance(value, bool) else math.nan
    except OverflowError:    # an int beyond the float range, which only an integer rule admits
        return integer and value > 0
    return (x >= 0 if zero or integer else x > 0) and x < math.inf


def check_number(name: str, value, zero=False, integer=False):
    """``value`` if it is a :func:`positive_number`, else a :class:`SchemaError` naming ``name`` and the rule."""
    if not positive_number(value, zero, integer):
        rule = "a nonnegative integer" if integer else f"a finite {'nonnegative' if zero else 'positive'} number"
        raise SchemaError(f"{name} must be {rule}, got {value!r}")
    return value


@contextmanager
def named(name: str, *kinds):
    """Raise each error of the classes ``kinds`` again as the same class with ``name: `` in front of its message."""
    try:
        yield
    except kinds as exc:
        raise type(exc)(f"{name}: {exc}") from exc
