"""The typed numerical errors of every layer, defined in one small module
that every start already loads.

Each layer re-exports the errors it raises, so
``dmchain.features.FlatProfile`` is this module's class.  The command line
maps all of them to exit code 3 without importing the layers that raise
them.
"""

__all__ = [
    "QuadratureFailure",
    "CriticalPoint",
    "PositivityViolation",
    "SingularInformation",
    "InsufficientResolution",
    "FlatProfile",
    "NUMERICAL_ERRORS",
]


class QuadratureFailure(RuntimeError):
    """Requested tolerance not reached within the subdivision budget; the
    quadrature engine returns one per point that stopped unconverged."""


class CriticalPoint(ValueError):
    """Evaluation requested where a coupling derivative integral diverges."""


class PositivityViolation(RuntimeError):
    """Reduced two-spin state fails positivity beyond numerical tolerance."""


class SingularInformation(RuntimeError):
    """Information matrix too ill-conditioned to invert meaningfully."""


class InsufficientResolution(RuntimeError):
    """Classification flips under grid refinement; sample finer."""


class FlatProfile(RuntimeError):
    """The integrated information profile varies too little to rank."""


NUMERICAL_ERRORS = (QuadratureFailure, CriticalPoint, PositivityViolation,
                    SingularInformation, InsufficientResolution, FlatProfile)
