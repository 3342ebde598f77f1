"""Dense-matrix diagnostics shared by the interpolation and experiment layers."""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np

from ._serialize import NOT_SERIALIZED, to_dict

__all__ = [
    "MatrixDiagnostics",
    "SingularSystemError",
    "diagnostics",
    "lu_sign_logabs",
]

TAU = 1e-12  # the singularity threshold of diagnostics, so of every fit and bordered system


@dataclass(frozen=True)
class MatrixDiagnostics:
    """Numerical singularity evidence for an exactly symmetric matrix.

    det_sign is -1, 0 or +1 and log_abs_det is the natural log of |det|
    (-inf when the determinant is exactly zero), both read off a pivoted LU
    factorization.  sigma_min and sigma_max are the extreme |lambda| of its
    eigenvalues, except that a matrix containing an exactly zero row reports
    sigma_min = 0.0 exactly.  singular_verdict is true iff sigma_max == 0, or
    sigma_min <= rel_threshold * sigma_max, or det_sign == 0.

    lu_piv is the (lu, piv) pair of that LU factorization, which every solve
    with the matrix reuses; it takes no part in ==, hash, repr or to_dict.
    """

    det_sign: int
    log_abs_det: float
    sigma_min: float
    sigma_max: float
    condition: float
    singular_verdict: bool
    rel_threshold: float
    lu_piv: tuple | None = field(default=None, repr=False, compare=False,
                                 metadata=NOT_SERIALIZED)

    to_dict = to_dict

    def describe(self) -> str:
        return ", ".join(f"{key}={value!r}" for key, value in self.to_dict().items()
                         if key != "singular_verdict")


class SingularSystemError(RuntimeError):
    """Raised when a linear system is numerically singular.

    Carries the MatrixDiagnostics that triggered the verdict.  Every
    interpolation solve's message also names the node indices of the exactly
    zero rows of its kernel matrix, when there are any.
    """

    def __init__(self, message: str, diag: MatrixDiagnostics):
        super().__init__(message)
        self.diagnostics = diag


def _load_flapack():
    """SciPy's LAPACK extension module scipy.linalg._flapack, without the scipy packages.

    Importing scipy.linalg costs about 0.25 s and 19 MiB for modules nothing
    here uses, and the scipy package's own __init__ about 15 ms and 1.3 MiB.
    The extension is found with importlib.util.find_spec("scipy"), which runs
    no SciPy code, and is loaded under its full name, so a later import of
    scipy.linalg reuses this module, and get_lapack_funcs hands out the same
    routine objects; under a short name SciPy would load a second copy.  When
    the bare load raises ImportError (Windows wheels add the directory of
    their DLLs in scipy/__init__.py), the scipy package is imported and the
    extension loaded once more.  A missing SciPy or extension is one ImportError.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError(f"polyharm needs SciPy for {name}, and no scipy package is installed")
    linalg_dirs = [str(Path(d) / "linalg") for d in scipy_spec.submodule_search_locations]
    found = PathFinder.find_spec("_flapack", linalg_dirs)
    if found is None:
        raise ImportError(f"the SciPy in {', '.join(linalg_dirs)} has no LAPACK extension {name}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    try:
        module = importlib.util.module_from_spec(spec)  # the extension's own load
    except ImportError:
        importlib.import_module("scipy")
        module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# every matrix here is float64 (_as_square), so the LAPACK routines are bound once
_flapack = _load_flapack()
_getrf, _getrs = _flapack.dgetrf, _flapack.dgetrs


def _as_square(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError("expected a nonempty square matrix")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def lu_factorize(matrix: np.ndarray):
    """Pivoted LU factorization (lu, piv) of a float64 matrix, piv 0-based, from LAPACK getrf.

    An exactly zero pivot stays on lu's diagonal for _sign_logabs, with no warning
    and no warning filter touched, so worker threads may factorize concurrently.
    """
    lu, piv, info = _getrf(matrix)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
    return lu, piv


def _sign_logabs(lu: np.ndarray, piv: np.ndarray) -> tuple[int, float]:
    diag = lu.diagonal()
    if not diag.all():
        return 0, -math.inf
    # each row swap and each negative pivot flips the sign
    flips = np.count_nonzero(piv != np.arange(lu.shape[0])) + np.count_nonzero(diag < 0.0)
    return -1 if flips % 2 else 1, float(np.log(np.abs(diag)).sum())


def lu_sign_logabs(matrix) -> tuple[int, float]:
    """Determinant of a square matrix as (sign, log|det|) from pivoted LU.

    An exactly zero pivot yields (0, -inf).
    """
    return _sign_logabs(*lu_factorize(_as_square(matrix)))


def lu_solve(lu_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve with lu_piv = lu_factorize(matrix) through one getrs call, as scipy.linalg.lu_solve.

    getrs gets a private copy of the pivots: SciPy's wrapper shifts them to 1-based
    in place while LAPACK runs without the GIL, and threads may share one lu_piv.
    """
    lu, piv = lu_piv
    x, info = _getrs(lu, piv.copy(), rhs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


def lu_solve_refined(lu_piv, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve followed by one step of iterative refinement."""
    x = lu_solve(lu_piv, rhs)
    return x + lu_solve(lu_piv, rhs - matrix @ x)


def _sigma_extremes(arr: np.ndarray) -> tuple[float, float, float]:
    """(sigma_min, sigma_max, condition) of a finite exactly symmetric matrix: sigma = |lambda|."""
    if not np.array_equal(arr, arr.T):
        raise ValueError("expected an exactly symmetric matrix")
    sigma = np.abs(np.linalg.eigvalsh(arr))
    sigma_max = float(sigma.max())
    sigma_min = float(sigma.min())
    # an exactly zero row (and column) makes the matrix exactly rank deficient;
    # report that structurally instead of trusting eigensolver rounding
    if not np.any(arr != 0.0, axis=1).all():
        sigma_min = 0.0
    condition = sigma_max / sigma_min if sigma_min > 0.0 else math.inf
    return sigma_min, sigma_max, condition


def diagnostics(matrix, tau: float = TAU) -> MatrixDiagnostics:
    """Compute MatrixDiagnostics for an exactly symmetric matrix.

    Parameters
    ----------
    matrix : array_like
        Square, exactly symmetric and finite, or ValueError; an eigvalsh that
        fails to converge raises numpy.linalg.LinAlgError, a ValueError too.
    tau : float
        Positive relative threshold (default TAU); the matrix is
        declared numerically singular when sigma_min <= tau * sigma_max.

    Returns
    -------
    MatrixDiagnostics
    """
    arr = _as_square(matrix)
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValueError("relative threshold tau must be a positive finite real")

    sigma_min, sigma_max, condition = _sigma_extremes(arr)
    # factorize after the eigensolve: factors alive during it would raise the peak memory
    lu_piv = lu_factorize(arr)
    det_sign, log_abs_det = _sign_logabs(*lu_piv)
    return MatrixDiagnostics(
        det_sign=det_sign,
        log_abs_det=log_abs_det,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        condition=condition,
        singular_verdict=sigma_max == 0.0 or sigma_min <= tau * sigma_max or det_sign == 0,
        rel_threshold=tau,
        lu_piv=lu_piv,
    )
