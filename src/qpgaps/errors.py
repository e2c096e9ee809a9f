"""Exception types shared across the package."""


class QPGapsError(Exception):
    """Base class for all package errors."""


class RationalAlphaError(QPGapsError):
    """Continued-fraction expansion hit a rational number (quotient overflow)."""


class StripDomainError(QPGapsError):
    """Evaluation requested outside the reliable analytic strip of a map."""

    def __init__(self, message, tail_bound=None):
        super().__init__(message)
        self.tail_bound = tail_bound


class SmallDivisorError(QPGapsError):
    """A needed divisor e^{2 pi i k alpha} - 1 fell below the configured cutoff."""

    def __init__(self, k, divisor, cutoff, entry=None):
        self.k = k
        self.divisor = divisor
        self.cutoff = cutoff
        self.entry = entry
        where = f" in entry {entry}" if entry else ""
        super().__init__(
            f"small-divisor breach at k={k}{where}: |e^(2 pi i k alpha)-1|={divisor:.3e} < {cutoff:.3e}"
        )


class DegreeError(QPGapsError):
    """Projective winding number could not be resolved."""


class FrameError(QPGapsError):
    """Frame construction failed (vector field too close to zero somewhere)."""


class BlochError(QPGapsError):
    """No acceptable dual eigenpair found near the requested energy."""


class SpectrumError(QPGapsError):
    """A consistency check on a computed spectrum failed; carries the check's name."""

    def __init__(self, check, message):
        self.check = check
        super().__init__(f"spectrum check '{check}' failed: {message}")


class StageError(QPGapsError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


class ConfigError(QPGapsError):
    """Bad CLI / config-file input."""


class CacheCorruptionError(QPGapsError):
    """A cache entry failed its integrity check."""
