"""Exception types shared across the package, and the checks that a config
section is a JSON object and a count an integer."""

import numbers


class DomainError(ValueError):
    """An argument lies outside the interval or range it must belong to."""


class CapabilityError(NotImplementedError):
    """The requested (model, operation) combination is not supported."""


class ResourceGuardError(RuntimeError):
    """An exact search would exceed the configured enumeration budget."""

    def __init__(self, message: str, size_estimate: float | None = None):
        if size_estimate is not None:
            message = f"{message} (estimated search size {size_estimate:g})"
        super().__init__(message)
        self.size_estimate = size_estimate


class ShapeError(ValueError):
    """Tree depths or array dimensions do not line up."""


class ProtocolError(RuntimeError):
    """An interaction prefix is inconsistent with the game being replayed."""


class ConfigError(ValueError):
    """An experiment or model configuration is invalid or incomplete."""


class FamilyLookupError(LookupError):
    """A covariate or predictor handle that a comparator family does not hold."""

    __str__ = LookupError.__str__  # the message unquoted, unlike KeyError's


class UnknownCovariateError(FamilyLookupError, KeyError):
    """A covariate outside a family's covariate set."""


class PredictorIndexError(FamilyLookupError, IndexError):
    """A predictor index outside a finite table's rows."""


def json_object(doc: object, section: str) -> dict:
    """``doc`` when it is a JSON object (a dict); else a :class:`ConfigError`
    that names the ``section``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object, not {type(doc).__name__}")
    return doc


def json_int(value: object, field: str) -> int:
    """``value``, an ``int`` or numpy integer but not a bool, else a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{field} {value!r} is not an integer")
    return int(value)
