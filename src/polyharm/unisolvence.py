"""Numerical experiments on the nonsingularity of random kernel matrices.

The central objects are the matrix diagnostics (determinant sign and log
magnitude from pivoted LU, singular values as |eigenvalues|, and a relative
singularity verdict) and the bordered system: the kernel matrix of n nodes
extended by the kernel-value column of a free point x with a zero corner.
Its determinant, as a function of x, evaluates at a fresh point to the
determinant of the grown (n + 1)-node matrix, and vanishes at every
existing node.  Two independent evaluation routes are kept: a Schur
complement route through the factorized base matrix and a direct pivoted
factorization of the bordered matrix; they cross-check each other.

monte_carlo runs independent random trials (one derived substream per
trial) and aggregates singularity verdicts; incremental_growth grows one
random configuration a point at a time and compares the two determinant
routes along the way.  Both are deterministic given their configuration,
regardless of how many worker threads are used.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from ._linalg import TAU, SingularSystemError, diagnostics, lu_sign_logabs, lu_solve
from ._serialize import to_dict
from .domains import _CSV_ROWS, Density, Domain, PointSet, mix_seed, sample
from .interpolation import _EVAL_ROWS, InterpMatrix, _kernel_rows, assemble
from .kernels import Kernel, kernel_spec

__all__ = [
    "det3_null_diag",
    "BorderedSystem",
    "TrialRecord",
    "SizeAggregate",
    "UnisolvenceReport",
    "monte_carlo",
    "GrowthStep",
    "GrowthReport",
    "incremental_growth",
    "CSV_HEADER",
]

CSV_HEADER = ("n", "trial", "det_sign", "log_abs_det", "sigma_min",
              "sigma_max", "condition", "min_dist")


def det3_null_diag(matrix) -> float:
    """Determinant of a 3x3 matrix whose diagonal is exactly zero.

    For such a matrix the determinant reduces to the two triple products
    a12*a23*a31 + a13*a21*a32; the diagonal is checked and a nonzero entry
    raises ValueError.  When all six off-diagonal entries are positive the
    result is positive.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if np.any(np.diag(arr) != 0.0):
        raise ValueError("matrix diagonal must be exactly zero")
    return float(arr[0, 1] * arr[1, 2] * arr[2, 0] + arr[0, 2] * arr[1, 0] * arr[2, 1])


def _signed_exp(sign: int, log_abs: float, matrix: str) -> float:
    """sign * exp(log|det|) of the named matrix: 0.0 for sign 0, ValueError beyond double range."""
    if sign == 0:
        return 0.0
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        raise ValueError(f"bordered determinant exceeds double range: log|det| of the "
                         f"{matrix} matrix is {log_abs!r}") from None


class BorderedSystem:
    """Kernel matrix of n nodes bordered by a free evaluation point.

    The border of a point x is the vector of kernel values between x and
    each node; the bordered matrix appends that vector as a final row and
    column with a zero corner.  determinant(x) is its determinant:

    * route "schur": -det(base) * (border @ base^{-1} @ border), available
      when the base matrix is numerically nonsingular at the threshold of
      diagnostics, TAU (it reuses the LU factorization of base_diagnostics);
    * route "direct": pivoted LU of the full (n + 1) x (n + 1) matrix;
    * route "auto": Schur when available, direct otherwise.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, base: InterpMatrix):
        self.base = base
        self.base_diagnostics = diag = diagnostics(base.entries)
        # the Schur factor -det(base), once per system; a base whose |det| exceeds double
        # range keeps the message, and each Schur call raises it
        self._schur_factor = self._schur_overflow = None
        try:
            self._schur_factor = _signed_exp(-diag.det_sign, diag.log_abs_det, "base")
        except ValueError as exc:
            self._schur_overflow = str(exc)

    def border(self, point) -> np.ndarray:
        """Kernel values between one point (d,) and every node, shape (n,).

        One row of the kernel-row path of evaluate (_kernel_rows), so the
        border has the bits of the kernel values of
        cross_distance_matrix(x[None, :], nodes).
        """
        x = np.asarray(point, dtype=float)
        if x.shape != (self.base.points.dimension,):
            raise ValueError("evaluation point dimension does not match the nodes")
        return _kernel_rows(self.base, x[None, :])[0]

    def determinant(self, point, method: str = "auto", *, border=None) -> float:
        """Determinant of the bordered matrix at the given point.

        At a fresh point this equals the determinant of the kernel matrix
        grown by that point; at an existing node it is zero because the
        bordered matrix repeats a row.  The Schur route solves with the base
        LU through the one stored-LU solve, _linalg.lu_solve.  ValueError
        when the route's |det| (of the base matrix for "schur", of the
        bordered one for "direct") exceeds double range, and when the Schur
        product of |det| of the base matrix and border @ base^-1 @ border
        is not finite.

        border, when given, is taken in place of self.border(point) on
        either route, as a float array checked only for its shape (n,): grid
        passes rows of its block kernel rows, which have the bits of
        border(point).
        """
        if method not in ("auto", "schur", "direct"):
            raise ValueError("method must be 'auto', 'schur' or 'direct'")
        if border is None:
            border = self.border(point)
        else:
            border = np.asarray(border, dtype=float)
            if border.shape != (self.base.n,):
                raise ValueError(f"a border of shape {border.shape} does not match "
                                 f"the {self.base.n} nodes")
        diag = self.base_diagnostics
        if method == "auto":
            method = "direct" if diag.singular_verdict else "schur"
        if method == "schur":
            if diag.singular_verdict:
                raise SingularSystemError(
                    "Schur route unavailable: base matrix is numerically singular: "
                    f"{diag.describe()}",
                    diag,
                )
            if self._schur_overflow is not None:
                raise ValueError(self._schur_overflow)
            # .dot, not @: the same ddot bits at under half the call overhead on a short vector
            quadratic = float(border.dot(lu_solve(diag.lu_piv, border)))
            value = self._schur_factor * quadratic
            if not math.isfinite(value):
                raise ValueError(f"bordered determinant exceeds double range: log|det| of the "
                                 f"base matrix is {diag.log_abs_det!r}, and |det| times "
                                 f"border @ base^-1 @ border = {quadratic!r} is not finite")
            return value
        n = self.base.n
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = self.base.entries
        bordered[:n, n] = border
        bordered[n, :n] = border
        return _signed_exp(*lu_sign_logabs(bordered), "bordered")

    def grid(self, x_coords, y_coords) -> np.ndarray:
        """determinant() over a rectangular lattice; planar nodes only.

        Returns an array of shape (len(x_coords), len(y_coords)) whose
        (i, j) entry is the determinant at (x_coords[i], y_coords[j]), from
        one single-point call on the "auto" route per lattice point.  The
        points are visited x-major, one lattice column at a time, and each
        column's borders are computed _EVAL_ROWS rows at a time by one
        _kernel_rows call into one reused (min(ny, _EVAL_ROWS), n) buffer,
        as evaluate does; the distances and kernel values are element-wise,
        so each row has the bits of border(point).  Memory beyond the result
        is one column of (x_i, y_j) pairs, the buffer and the distance
        temporaries of cross_distance_matrix, at most _CHUNK_ENTRIES
        coordinate differences (or one row's).  A far point's overflow ends
        in determinant's ValueError without a warning.  On a nonsingular
        base whose determinant underflows to 0.0 every value would read
        +-0.0, so grid raises ValueError before its first point, where a
        pointwise determinant call still returns the +-0.0.
        """
        diag = self.base_diagnostics
        if self.base.points.dimension != 2:
            raise ValueError("grid evaluation requires planar (d = 2) nodes")
        if not diag.singular_verdict and self._schur_factor == 0.0:
            raise ValueError(f"bordered determinant below double range: log|det| of the base "
                             f"matrix is {diag.log_abs_det!r}, so its determinant reads 0.0")
        xs = np.asarray(x_coords, dtype=float).ravel()
        ys = np.asarray(y_coords, dtype=float).ravel()
        out = np.empty((xs.size, ys.size))
        column = np.empty((ys.size, 2))
        column[:, 1] = ys
        buffer = np.empty((min(ys.size, _EVAL_ROWS), self.base.n))
        for x, values in zip(xs, out):
            column[:, 0] = x
            for start in range(0, ys.size, _EVAL_ROWS):
                points = column[start:start + _EVAL_ROWS]
                # a far point's distances and kernel values overflow here; the Schur steps
                # below (getrs, ddot, a float multiply) raise no NumPy floating-point warning
                with np.errstate(over="ignore", invalid="ignore"):
                    borders = _kernel_rows(self.base, points, out=buffer[:len(points)])
                values[start:start + len(points)] = [
                    self.determinant(point, border=border)
                    for point, border in zip(points, borders)]
        return out


@dataclass(frozen=True)
class TrialRecord:
    """Diagnostics of one random trial."""

    n: int
    trial: int
    det_sign: int
    log_abs_det: float
    sigma_min: float
    sigma_max: float
    condition: float
    min_pairwise_distance: float

    to_dict = to_dict


_record_values = attrgetter(*(f.name for f in fields(TrialRecord)))


@dataclass(frozen=True)
class SizeAggregate:
    """Per-size summary of a Monte Carlo run."""

    n: int
    failures: int
    failure_rate: float
    min_sigma_ratio: float
    max_condition: float

    to_dict = to_dict


@dataclass(frozen=True, eq=False)
class UnisolvenceReport:
    """Full outcome of a Monte Carlo nonsingularity run."""

    config: dict
    aggregates: tuple
    records: tuple

    to_dict = to_dict

    @property
    def total_failures(self) -> int:
        return sum(a.failures for a in self.aggregates)

    def records_csv_lines(self):
        """The per-trial records CSV: its header line, then one chunk per 4096 records."""
        # CSV_HEADER names the TrialRecord fields in order; each block of records is formatted
        # with one "%r,...,%r" template, so the writer holds one block's values and text
        yield ",".join(CSV_HEADER) + "\n"
        line = ",".join(["%r"] * len(CSV_HEADER)) + "\n"
        for start in range(0, len(self.records), _CSV_ROWS):
            block = self.records[start:start + _CSV_ROWS]
            yield (line * len(block)) % tuple(chain.from_iterable(map(_record_values, block)))


def _run_config(kernel: Kernel, eps: float, domain: Domain, density: Density,
                sizes: dict, seed: int, tau: float) -> dict:
    # the echoed configuration of monte_carlo and incremental_growth
    return {"kernel": kernel_spec(kernel), "epsilon": float(eps), "dimension": domain.dimension,
            "domain": domain.to_dict(), "density": density.to_dict(), **sizes,
            "seed": int(seed), "tau": float(tau)}


def _run_trial(kernel: Kernel, domain: Domain, density: Density, n: int, trial: int,
               master_seed: int, tau: float) -> tuple[TrialRecord, bool]:
    substream = mix_seed(master_seed, n, trial)
    points = sample(domain, density, n, substream)
    matrix = assemble(points, kernel)
    diag = diagnostics(matrix.entries, tau)
    return TrialRecord(
        n=n,
        trial=trial,
        det_sign=diag.det_sign,
        log_abs_det=diag.log_abs_det,
        sigma_min=diag.sigma_min,
        sigma_max=diag.sigma_max,
        condition=diag.condition,
        min_pairwise_distance=matrix.min_dist,
    ), diag.singular_verdict


def monte_carlo(kernel: Kernel, domain: Domain, density: Density,
                n_list: Sequence[int], trials: int, seed: int,
                tau: float = TAU, threads: int = 1) -> UnisolvenceReport:
    """Random-node nonsingularity experiment.

    For every size n in n_list (sizes must be distinct) and trial index t,
    a point set is drawn from the substream mix_seed(seed, n, t), its kernel
    matrix is assembled at scale 1 (the default of assemble, which the
    echoed configuration holds) and diagnosed at relative threshold tau, and
    the singularity verdicts are aggregated per size.  The report is a pure
    function of the configuration; threads only caps the number of
    concurrent workers (so do the task and core counts) and never changes
    the output.
    """
    n_values = [int(n) for n in n_list]
    if not n_values or any(n < 1 for n in n_values):
        raise ValueError("n_list must contain positive sizes")
    if len(set(n_values)) != len(n_values):
        raise ValueError("n_list must not repeat a size")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")

    trials = int(trials)
    tasks = [(n, t) for n in n_values for t in range(trials)]

    def work(task):
        n, t = task
        return _run_trial(kernel, domain, density, n, t, seed, tau)

    # more workers than tasks or than the cores this process may run on only adds OS threads
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(tasks), cores or 1)
    if workers == 1:
        results = [work(task) for task in tasks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it: 0.5 MiB, ~6 ms

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, tasks))

    aggregates = []
    for n, start in zip(n_values, range(0, len(tasks), trials)):
        # tasks run size by size, so the trials of size n are one slice of the results
        subset = results[start:start + trials]
        failures = sum(singular for _, singular in subset)
        aggregates.append(SizeAggregate(
            n=n,
            failures=failures,
            failure_rate=failures / trials,
            min_sigma_ratio=float(min(0.0 if r.sigma_max == 0.0 else r.sigma_min / r.sigma_max
                                      for r, _ in subset)),
            max_condition=float(max(r.condition for r, _ in subset)),
        ))

    config = _run_config(kernel, 1.0, domain, density,
                         {"n_list": n_values, "trials": trials}, seed, tau)
    return UnisolvenceReport(config=config, aggregates=tuple(aggregates),
                             records=tuple(r for r, _ in results))


@dataclass(frozen=True)
class GrowthStep:
    """One growth step: n nodes extended by the next random point."""

    n: int
    f_value: float
    f_abs: float
    det_next: float
    rel_disagreement: float
    cond_base: float
    flagged: bool

    to_dict = to_dict


@dataclass(frozen=True, eq=False)
class GrowthReport:
    """Outcome of growing one random configuration a point at a time."""

    config: dict
    steps: tuple
    det_signs: tuple

    to_dict = to_dict


def incremental_growth(kernel: Kernel, domain: Domain, density: Density,
                       n_max: int, seed: int) -> GrowthReport:
    """Grow a random configuration one point at a time, cross-checking routes.

    At each step the bordered determinant at the incoming point (automatic
    route: Schur when the base is nonsingular, direct otherwise) is compared
    with an independent pivoted factorization of the grown kernel matrix.
    Relative disagreement above 1e-6 is flagged as an ill-conditioning
    event, and so is a step whose det_next reads 0.0 while the sign of the
    grown matrix's LU determinant is nonzero: exp(log|det|) underflowed, so
    the two routes were not compared.  The determinant sign chain covers
    sizes 2 through n_max.  The grown system of one step is the base system
    of the next, so every prefix is assembled and diagnosed once, at the
    defaults of assemble and diagnostics (scale 1, TAU), which the echoed
    configuration holds.  ValueError, as from BorderedSystem.determinant,
    once a determinant exceeds double range.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    pts = sample(domain, density, int(n_max), seed).points

    def prefix_system(n: int) -> BorderedSystem:
        return BorderedSystem(assemble(PointSet(pts[:n]), kernel))

    steps = []
    det_signs = []
    system = prefix_system(1)
    for n in range(1, int(n_max)):
        f_value = system.determinant(pts[n], method="auto")
        grown = prefix_system(n + 1)
        sign = grown.base_diagnostics.det_sign
        det_next = _signed_exp(sign, grown.base_diagnostics.log_abs_det, "grown")
        rel = abs(f_value - det_next) / max(abs(det_next), 1e-300)
        steps.append(GrowthStep(
            n=n,
            f_value=float(f_value),
            f_abs=abs(float(f_value)),
            det_next=float(det_next),
            rel_disagreement=float(rel),
            cond_base=system.base_diagnostics.condition,
            flagged=bool(rel > 1e-6 or (det_next == 0.0 and sign != 0)),
        ))
        det_signs.append(sign)
        system = grown

    config = _run_config(kernel, system.base.epsilon, domain, density, {"n_max": int(n_max)},
                         seed, TAU)
    return GrowthReport(config=config, steps=tuple(steps), det_signs=tuple(det_signs))
