"""Polyharmonic spline interpolation and random-node nonsingularity experiments."""

from . import _linalg, domains, interpolation, kernels, unisolvence
from ._linalg import *  # noqa: F401,F403
from .domains import *  # noqa: F401,F403
from .interpolation import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .unisolvence import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *_linalg.__all__,
    *domains.__all__,
    *interpolation.__all__,
    *kernels.__all__,
    *unisolvence.__all__,
    "__version__",
]
