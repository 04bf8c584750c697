"""Typed failure modes of the trim / optimization pipeline."""


class LiftwingError(Exception):
    """Base class for every liftwing-specific error."""


class OutOfAeroDomain(LiftwingError):
    """Attack angle outside the validity range of the linear aero fit."""


class OutOfSurrogateDomain(LiftwingError):
    """(V_p, rpm) outside the fitted region of a propeller surrogate."""


class OutOfEscDomain(LiftwingError):
    """Torque outside the fitted region of the ESC current model."""


class Infeasible(LiftwingError):
    """No physical equilibrium exists for the requested condition.

    ``stage`` distinguishes where the pipeline failed: "aero" for the force
    balance itself, "rpm" for thrust-surrogate inversion.
    """

    def __init__(self, message: str, stage: str = "aero"):
        super().__init__(message)
        self.stage = stage


class HoverDegenerate(LiftwingError):
    """theta = 0: the craft hovers, there is no cruise trim speed."""


class NoTrimAtSpeed(LiftwingError):
    """No pitch angle balances the forces at the requested airspeed."""


class EmptyFeasibleSet(LiftwingError):
    """No sweep cell is feasible under the active attack-angle cap."""


class AlphaNotOnGrid(LiftwingError):
    """Requested attack angle is not a grid line of the sweep."""


class DegenerateDesign(LiftwingError):
    """Too few distinct sample points to determine the fit."""


class RankDeficient(LiftwingError):
    """Design matrix does not have full column rank."""


class DegenerateVariance(LiftwingError):
    """Observed values are all equal; R^2 is undefined."""


class UnknownUnit(LiftwingError):
    """A column carries a unit the parser has no conversion for."""


class ParseError(LiftwingError):
    """Malformed content in a performance-table stream."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(LiftwingError):
    """Configuration document failed validation."""


class BadArgument(LiftwingError):
    """A command-line value outside the range the model accepts."""


def describe(err: Exception) -> str:
    """An error as liftwing reports it: "<error type>: <message>"."""
    return f"{type(err).__name__}: {err}"
