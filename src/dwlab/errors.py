"""Exception hierarchy shared by all dwlab modules."""


class DWLabError(Exception):
    """Base class for every error raised by this package."""


class OutOfRegion(DWLabError):
    """A parameter lies outside the stability region or is degenerate."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"parameter out of admissible region: {field}")

    def __reduce__(self):
        # args holds the message alone, so the default would pass it back in as the field
        return type(self), (self.field, str(self))


class InvalidLength(DWLabError):
    """Requested or supplied series length is unusable."""


class TooShort(DWLabError):
    """Series too short for the requested statistic."""


class DegenerateDenominator(DWLabError):
    """A sum of squares in a denominator is exactly zero."""


class DomainError(DWLabError):
    """Argument outside the mathematical domain of the function."""


class EmptySample(DWLabError):
    """A sample statistic was requested on an empty sample."""


class DegenerateStatistic(DWLabError):
    """Plug-in estimate leaves the regime where the test statistic is valid."""


class DegenerateTau(DWLabError):
    """Variance plug-in collapsed; configuration is too close to the critical case."""


class DegenerateTheta(DWLabError):
    """Test undefined because the estimated AR coefficient is (numerically) zero."""


class NegativeDiscriminant(DWLabError):
    """No real parameter pair is compatible with the supplied estimates."""


class ThetaNearZero(DWLabError):
    """Recovery needs to divide by the AR coefficient estimate, which is near zero."""
