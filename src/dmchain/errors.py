"""The typed numerical errors of every layer, defined in one small module
that every start already loads.

Each layer re-exports the errors it raises, so
``dmchain.features.FlatProfile`` is this module's class.  The command line
maps all of them to exit code 3 without importing the layers that raise
them.  The input checks that the public entries share, :func:`is_count`,
:func:`check_count` and :func:`check_grid`, live here too; they run
inside those entries, so they stay out of ``__all__``.
"""

import math

import numpy as np

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


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an int or numpy integer of at least ``least``;
    a bool is not a count, although ``bool`` subclasses ``int``."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


def check_count(name: str, value, least: int) -> None:
    """ValueError unless ``value`` is a count of at least ``least``."""
    if not is_count(value, least):
        raise ValueError("%s must be an integer >= %d, got %r"
                         % (name, least, value))


def check_grid(name: str, grid) -> None:
    """ValueError unless ``grid`` is (lo, hi, points) with finite lo < hi
    and a count of at least 2 points."""
    lo, hi, points = grid
    check_count(name + " points", points, 2)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("%s must be finite with lo < hi, got %r"
                         % (name, (lo, hi)))
