"""Polyharmonic radial kernels.

Two families are provided, both functions of the Euclidean distance r >= 0:

* thin-plate splines  r**(2*k) * log(r)  with integer order k >= 1, and
* radial powers       r**nu              with real exponent nu > 0 that is
  not an even integer (even integer powers of r are plain polynomials and
  are rejected at construction).

Both families are conditionally positive definite; the order (a kernel's
cpd_order) is k + 1 for thin-plate splines and ceil(nu / 2) for radial
powers.  The value at r = 0 is hard-coded to 0, which is the analytic
limit; log(0) is never evaluated.

Kernels are immutable value objects and every operation here is a pure
function, except that value_scaled writes into the out array its caller
passes, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ThinPlateSpline",
    "RadialPower",
    "Kernel",
    "parse_kernel",
    "kernel_spec",
]


def _check_radii(r: np.ndarray) -> float:
    """The smallest radius of r (inf when r is empty); ValueError when it is negative or NaN."""
    # one C-level reduction, about half the cost of (r >= 0.0).all() on a short vector; a NaN
    # minimum fails the test, -0.0 passes it, and the initial value lets 0-d and empty r pass
    low = np.minimum.reduce(r, axis=None, initial=math.inf)
    if not low >= 0.0:
        raise ValueError("kernel radius must be nonnegative and not NaN")
    return low


def _check_scale(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError("scale parameter must be a positive finite real")
    return eps


@dataclass(frozen=True)
class ThinPlateSpline:
    """Thin-plate spline kernel r**(2*k) * log(r) of integer order k >= 1.

    The natural logarithm is used.  The value is exactly 0 at r = 0 (the
    analytic limit) and exactly 0 at r = 1, since log(1.0) == 0.0 in IEEE
    arithmetic.  Values are negative for 0 < r < 1.
    """

    k: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError("thin-plate spline order k must be an integer")
        if self.k < 1:
            raise ValueError("thin-plate spline order k must be at least 1")
        object.__setattr__(self, "k", int(self.k))

    def value(self, r):
        """Evaluate the kernel at distance(s) r >= 0.

        Parameters
        ----------
        r : float or array_like
            Nonnegative distances.

        Returns
        -------
        float or numpy.ndarray
            r**(2*k) * log(r), with the value at r = 0 hard-coded to 0.
        """
        return self.value_scaled(1.0, r)  # r * 1.0 is r, bit for bit

    def _apply_in_place(self, arr: np.ndarray, low: float) -> None:
        # log is only evaluated at strictly positive radii; log(1) * 1 is +0.0 at r = 0.
        # low is the smallest radius: the mask changes nothing unless it is 0.0 or -0.0
        if low == 0.0:
            arr[arr == 0.0] = 1.0
        log = np.log(arr)
        arr **= 2 * self.k
        arr *= log

    def value_scaled(self, eps, r, out=None):
        """Evaluate the kernel at the scaled distance eps * r, eps > 0.

        The values are written into out when it is given (out may be r
        itself, which then holds the kernel values); otherwise into one
        fresh array, and r is left untouched.  A float is returned for a
        0-d r.  The bodies (_apply_in_place) use in-place **=, which takes
        NumPy's scalar-power fast paths (x * x for a square, sqrt for the
        power 0.5) exactly as arr**p does, so the values have the bits of
        the copying expressions.  An in-place call at eps = 1.0 skips the
        scaling multiply, since r * 1.0 is r bit for bit.
        """
        eps = _check_scale(eps)
        if out is None:
            out = r = np.array(r, dtype=float)
        if out is not r or eps != 1.0:
            np.multiply(r, eps, out=out)
        self._apply_in_place(out, _check_radii(out))
        return float(out) if out.ndim == 0 else out

    @property
    def cpd_order(self) -> int:
        """Order of conditional positive definiteness, k + 1."""
        return self.k + 1


@dataclass(frozen=True)
class RadialPower:
    """Radial power kernel r**nu with nu > 0 and nu not an even integer.

    The kernel is positively homogeneous: value(eps * r) equals
    eps**nu * value(r) up to rounding, which makes unaugmented radial-power
    interpolants independent of the scale parameter.
    """

    nu: float

    def __post_init__(self) -> None:
        nu = float(self.nu)
        if not math.isfinite(nu) or nu <= 0.0:
            raise ValueError("radial power exponent nu must be a positive finite real")
        if nu == round(nu) and int(round(nu)) % 2 == 0:
            raise ValueError(
                "radial power exponent nu must not be an even integer "
                "(r**nu would be a polynomial)"
            )
        object.__setattr__(self, "nu", nu)

    def value(self, r):
        """Evaluate r**nu at distance(s) r >= 0.  0**nu is exactly 0."""
        return self.value_scaled(1.0, r)

    def _apply_in_place(self, arr: np.ndarray, low: float) -> None:
        arr **= self.nu

    value_scaled = ThinPlateSpline.value_scaled

    @property
    def cpd_order(self) -> int:
        """Order of conditional positive definiteness, ceil(nu / 2)."""
        return math.ceil(self.nu / 2.0)


Kernel = Union[ThinPlateSpline, RadialPower]


def parse_kernel(text: str) -> Kernel:
    """Parse a compact kernel description, case-insensitively.

    Accepted forms are ``tps:k=<int>`` and ``rp:nu=<float>``, for example
    ``tps:k=2`` or ``rp:nu=1.5``.  Raises ValueError on anything else,
    including exponents rejected by the kernel constructors.
    """
    if not isinstance(text, str):
        raise ValueError("kernel description must be a string")
    cleaned = text.strip().lower()
    family, _, params = cleaned.partition(":")
    key, _, value = params.partition("=")
    if family == "tps":
        if key != "k" or not value:
            raise ValueError(f"bad thin-plate spline description {text!r}; expected 'tps:k=<int>'")
        try:
            k = int(value)
        except ValueError:
            raise ValueError(f"bad thin-plate spline order in {text!r}") from None
        return ThinPlateSpline(k=k)
    if family == "rp":
        if key != "nu" or not value:
            raise ValueError(f"bad radial power description {text!r}; expected 'rp:nu=<float>'")
        try:
            nu = float(value)
        except ValueError:
            raise ValueError(f"bad radial power exponent in {text!r}") from None
        return RadialPower(nu=nu)
    raise ValueError(f"unknown kernel family {text!r}; expected 'tps:k=<int>' or 'rp:nu=<float>'")


def kernel_spec(kernel: Kernel) -> str:
    """Canonical compact description of a kernel; inverse of parse_kernel."""
    if isinstance(kernel, ThinPlateSpline):
        return f"tps:k={kernel.k}"
    if isinstance(kernel, RadialPower):
        nu = kernel.nu
        text = str(int(nu)) if nu == int(nu) else repr(nu)
        return f"rp:nu={text}"
    raise TypeError(f"not a kernel: {kernel!r}")
