"""Shared exception types."""


class EmptyFamilyError(ValueError):
    """Raised when an operation needs at least one member set."""


class RefusalError(RuntimeError):
    """The package declines a computation: a work cap would be exceeded or
    a construction's guarantee does not apply to the input."""


class ExactIntractableError(RefusalError):
    """An exact strategy would exceed its cap (``DEFAULT_WORK_CAP_BITS`` or ``ie_limit()``).

    ``work`` names what it counts: inclusion-exclusion terms, conditioning
    outcomes or enumerated rows, for one connected component of the reduced
    masks: the first, in the order of their first masks, that is past both
    caps.  Callers fall back to a Monte-Carlo engine.
    """

    def __init__(self, cost_bits: int, cap_bits: int, work: str):
        self.cost_bits = cost_bits
        self.cap_bits = cap_bits
        super().__init__(
            f"exact coverage needs ~2^{cost_bits} {work}, cap is 2^{cap_bits}"
        )


class EnumerationTooLargeError(RefusalError):
    """A full construction (e.g. all polynomials) exceeds its cap."""


class ThresholdNotMetError(RefusalError):
    """Sunflower search failed on a family below the guarantee threshold."""


class BaseCaseFailedError(RefusalError):
    """Extraction bottomed out on a 1-uniform family that is too small."""


class MonomialBlowupError(RefusalError):
    """Gate-wise expansion of an arithmetic circuit exceeded the monomial cap."""


class NegativeConstantError(ValueError):
    """A monotone arithmetic circuit may only carry positive constants."""


class TooLargeError(RefusalError):
    """Input size exceeds a hard cap of a quadratic/exhaustive scan."""


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, missing seed, ...)."""
