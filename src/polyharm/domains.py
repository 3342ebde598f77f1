"""Sampling domains, densities and point sets.

Randomness contract
-------------------
All randomness flows through numpy's PCG64 generator.  ``make_rng(seed)``
builds the generator for a 64-bit seed, and ``mix_seed(master, *path)``
derives independent substream seeds from a master seed and an integer path
(for example ``mix_seed(master, n, trial)``) using numpy's SeedSequence
entropy-mixing, so per-trial work can run concurrently and still produce
bitwise-identical results in any execution order.

Point sets record their provenance (random sampling parameters, a
deterministic construction label, or a source file) and report their exact
minimum pairwise distance, computed on first read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import Callable, Union

import numpy as np
from scipy.spatial import cKDTree

from ._serialize import NOT_SERIALIZED, to_dict

__all__ = [
    "Box",
    "Ball",
    "Domain",
    "Uniform",
    "TruncatedGaussian",
    "CustomDensity",
    "Density",
    "PointSet",
    "SamplingError",
    "ConstructionError",
    "make_rng",
    "mix_seed",
    "pairwise_distance_matrix",
    "cross_distance_matrix",
    "sample",
    "sphere_counterexample",
    "unit_box",
    "duplicate_pair",
    "read_points_csv",
    "write_points_csv",
]

_MASK64 = (1 << 64) - 1


class SamplingError(RuntimeError):
    """Raised when rejection sampling exhausts its proposal budget."""


class ConstructionError(RuntimeError):
    """Raised when a deterministic point construction cannot be realized."""


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (negative seeds are masked)."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def mix_seed(master_seed: int, *path: int) -> int:
    """Derive a substream seed from a master seed and an integer path.

    The mixing function is numpy's SeedSequence applied to the entropy
    tuple (master_seed, *path); the derived seed is the first uint64 of its
    generated state.  Distinct paths give statistically independent streams.
    """
    entropy = [int(master_seed) & _MASK64] + [int(p) & _MASK64 for p in path]
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, np.uint64)[0])


_CHUNK_ENTRIES = 2**16


def cross_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a (m, d) and b (n, d).

    Each coordinate's squared differences form one (rows, n) slice, and the
    slices are summed in two lanes: the even-indexed coordinates in turn,
    the odd-indexed ones in turn, then the two lanes.  That order is fixed
    for every d and platform; for d <= 7 it is also the order of NumPy's
    einsum reduction on x86-64.  Rows of a are taken in chunks whose
    (d, rows, n) temporary holds at most _CHUNK_ENTRIES entries (and at
    least one row), so memory beyond the (m, n) result stays bounded.
    ValueError unless a and b are 2-d with the same number of columns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"distances need two (rows, d) arrays of one dimension d, "
                         f"got shapes {a.shape} and {b.shape}")
    (m, d), n = a.shape, b.shape[0]
    out = np.empty((m, n))
    coords = np.ascontiguousarray(b.T)[:, None, :]  # (d, 1, n): the inner loops run over n
    step = max(1, _CHUNK_ENTRIES // max(n * d, 1))
    for start in range(0, m, step):
        block = out[start:start + step]
        squares = coords - a[start:start + step].T[:, :, None]
        squares *= squares
        for k in range(2, d):
            squares[k % 2] += squares[k]
        if d > 1:
            np.add(squares[0], squares[1], out=block)
        else:
            squares.sum(axis=0, out=block)  # d = 1 copies its one lane, d = 0 sums to zero
        np.sqrt(block, out=block)
    return out


def pairwise_distance_matrix(points: np.ndarray) -> np.ndarray:
    """Distance matrix of a point set with itself.

    It is exactly symmetric with an exactly zero diagonal, because
    fl(a - b) = -fl(b - a) and x - x = 0.
    """
    return cross_distance_matrix(points, points)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box given by lower and upper corner coordinates."""

    lower: tuple
    upper: tuple

    _json_tag = ("shape", "box")
    to_dict = to_dict

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        hi = tuple(float(v) for v in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if len(lo) != len(hi) or len(lo) < 1:
            raise ValueError("box corners must share a positive dimension")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError("box corners must be finite")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("box must have positive extent on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo = np.asarray(self.lower)
        width = np.asarray(self.upper) - lo
        return lo + width * rng.random((count, self.dimension))

    def contains(self, points: np.ndarray) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"points of shape {pts.shape} are not {self.dimension}-d points")
        return bool(np.all(pts >= self.lower) and np.all(pts <= self.upper))


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball with the given center and radius."""

    center: tuple
    radius: float

    _json_tag = ("shape", "ball")
    to_dict = to_dict

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in np.atleast_1d(np.asarray(self.center, dtype=float)))
        r = float(self.radius)
        if len(c) < 1 or not all(math.isfinite(v) for v in c):
            raise ValueError("ball center must be finite with positive dimension")
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError("ball radius must be a positive finite real")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # normalized gaussian direction times an inverse-transform radius
        d = self.dimension
        out = np.empty((count, d))
        filled = 0
        while filled < count:
            m = count - filled
            g = rng.standard_normal((m, d))
            norms = np.sqrt(np.einsum("ij,ij->i", g, g))
            radii = self.radius * rng.random(m) ** (1.0 / d)
            ok = norms > 0.0
            pts = np.asarray(self.center) + g[ok] / norms[ok, None] * radii[ok, None]
            out[filled : filled + pts.shape[0]] = pts
            filled += pts.shape[0]
        return out

    def contains(self, points: np.ndarray) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dist = cross_distance_matrix(pts, np.asarray(self.center)[None, :])
        return bool(np.all(dist <= self.radius))


Domain = Union[Box, Ball]


def unit_box(dimension: int) -> Box:
    """The unit box [0, 1]**dimension."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    return Box(lower=(0.0,) * dimension, upper=(1.0,) * dimension)


@dataclass(frozen=True)
class Uniform:
    """Uniform density on the sampling domain."""

    _json_tag = ("kind", "uniform")
    to_dict = to_dict


@dataclass(frozen=True, eq=False)
class TruncatedGaussian:
    """Gaussian density restricted to the sampling domain.

    mean and sd are per-axis; the density is the unnormalized
    exp(-0.5 * sum(((x - mean) / sd)**2)), which is bounded by 1.
    """

    mean: tuple
    sd: tuple

    _json_tag = ("kind", "truncated-gaussian")
    to_dict = to_dict

    def __post_init__(self) -> None:
        mu = tuple(float(v) for v in np.atleast_1d(np.asarray(self.mean, dtype=float)))
        sd = tuple(float(v) for v in np.atleast_1d(np.asarray(self.sd, dtype=float)))
        if len(mu) != len(sd) or len(mu) < 1:
            raise ValueError("mean and sd must share a positive dimension")
        if not all(math.isfinite(v) for v in mu + sd) or not all(v > 0.0 for v in sd):
            raise ValueError("mean must be finite and sd positive on every axis")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "sd", sd)

    @property
    def bound(self) -> float:
        return 1.0

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        z = (pts - np.asarray(self.mean)) / np.asarray(self.sd)
        return np.exp(-0.5 * np.einsum("ij,ij->i", z, z))


@dataclass(frozen=True, eq=False)
class CustomDensity:
    """Caller-supplied density with a stated upper bound.

    fn maps an (m, d) array of points to m nonnegative values, and bound
    must dominate fn everywhere on the sampling domain; this is spot-checked
    on every proposal batch during sampling.
    """

    fn: Callable[[np.ndarray], np.ndarray] = field(metadata=NOT_SERIALIZED)
    bound: float

    _json_tag = ("kind", "custom")
    to_dict = to_dict

    def __post_init__(self) -> None:
        if not (float(self.bound) > 0.0 and math.isfinite(float(self.bound))):
            raise ValueError("density bound must be a positive finite real")
        object.__setattr__(self, "bound", float(self.bound))

    def value(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)


Density = Union[Uniform, TruncatedGaussian, CustomDensity]


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered set of points in R**d with provenance.

    min_pairwise_distance is the exact minimum over all pairs (0 when
    duplicates exist, +inf for a single point).  It is not a constructor
    argument: it is computed from the points on first read and cached.
    """

    points: np.ndarray
    provenance: dict

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must form a nonempty 2-d array")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @cached_property
    def min_pairwise_distance(self) -> float:
        if self.n < 2:
            return math.inf
        dist, _ = cKDTree(self.points).query(self.points, k=2)
        return float(dist[:, 1].min())

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_array(cls, points, label: str = "array") -> "PointSet":
        return cls(points=np.asarray(points, dtype=float),
                   provenance={"kind": "deterministic", "label": label})


def sample(domain: Domain, density: Density, n: int, seed: int,
           max_proposals: int | None = None) -> PointSet:
    """Draw n i.i.d. points from density restricted to domain.

    Uniform densities use per-axis (box) or direction-radius (ball) inverse
    transforms directly.  Other densities go through rejection sampling
    against the uniform envelope scaled by the stated bound; exceeding the
    proposal cap (default 10**6 * n) raises SamplingError, which usually
    means the stated bound is far above the density's actual maximum.

    The result is a pure function of the arguments: identical calls return
    bitwise-identical point sets.
    """
    if n < 1:
        raise ValueError("sample size n must be at least 1")
    rng = make_rng(seed)
    if isinstance(density, TruncatedGaussian) and len(density.mean) != domain.dimension:
        raise ValueError("density dimension does not match domain dimension")

    if isinstance(density, Uniform):
        pts = domain.sample_uniform(rng, n)
    else:
        bound = density.bound
        cap = 10**6 * n if max_proposals is None else int(max_proposals)
        if cap < 1:
            raise ValueError("proposal cap must be positive")
        accepted: list[np.ndarray] = []
        have = 0
        proposed = 0
        while have < n:
            if proposed >= cap:
                raise SamplingError(
                    f"rejection sampling used {proposed} proposals without reaching "
                    f"n={n} acceptances; the stated density bound M={bound!r} is suspect"
                )
            batch = min(max(2 * (n - have), 1024), cap - proposed)
            proposals = domain.sample_uniform(rng, batch)
            values = np.asarray(density.value(proposals), dtype=float)
            if values.shape != (batch,):
                raise ValueError("density must return one value per proposal")
            if np.any(values < 0.0) or not np.isfinite(values).all():
                raise ValueError("density values must be finite and nonnegative")
            if np.any(values > bound * (1.0 + 1e-12)):
                raise ValueError(
                    f"density exceeds its stated bound M={bound!r} at a sampled point"
                )
            keep = rng.random(batch) * bound < values
            if np.any(keep):
                accepted.append(proposals[keep])
                have += int(np.count_nonzero(keep))
            proposed += batch
        pts = np.vstack(accepted)[:n]

    provenance = {
        "kind": "random",
        "seed": int(seed),
        "domain": domain.to_dict(),
        "density": density.to_dict(),
    }
    return PointSet(points=pts, provenance=provenance)


_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


def _unit_distance_point(center: np.ndarray, direction: np.ndarray) -> np.ndarray:
    # one renormalization pass; the measured distance must land on 1.0 exactly
    point = center + direction
    for _ in range(2):
        measured = float(cross_distance_matrix(point[None, :], center[None, :])[0, 0])
        if measured == 1.0:
            return point
        if measured == 0.0:
            raise ConstructionError("degenerate direction while placing a unit-distance point")
        point = center + (point - center) / measured
    measured = float(cross_distance_matrix(point[None, :], center[None, :])[0, 0])
    if measured != 1.0:
        raise ConstructionError(
            "could not place a point at floating-point distance exactly 1 from the center"
        )
    return point


def sphere_counterexample(dimension: int, n: int, center=None) -> PointSet:
    """Center plus n - 1 points at floating-point distance exactly 1 from it.

    The first 2 * dimension satellites sit at center +/- unit coordinate
    offsets; further satellites use deterministically rotated directions in
    the plane of the first two axes.  Every satellite's measured distance to
    the center is verified to be exactly 1.0 and all points are verified
    distinct; otherwise ConstructionError is raised.

    With a thin-plate spline kernel the resulting interpolation matrix has
    an exactly zero row, hence is exactly singular.
    """
    if dimension < 2:
        raise ValueError("sphere counterexample requires dimension at least 2")
    if n < 2:
        raise ValueError("sphere counterexample requires at least 2 points")
    if center is None:
        center_arr = np.zeros(dimension)
    else:
        center_arr = np.asarray(center, dtype=float)
        if center_arr.shape != (dimension,) or not np.isfinite(center_arr).all():
            raise ValueError("center must be a finite point of the stated dimension")

    directions: list[np.ndarray] = []
    for sign in (1.0, -1.0):
        for axis in range(dimension):
            e = np.zeros(dimension)
            e[axis] = sign
            directions.append(e)
    extra = n - 1 - len(directions)
    for t in range(1, max(extra, 0) + 1):
        theta = 2.0 * math.pi * ((t * _GOLDEN_FRACTION) % 1.0)
        e = np.zeros(dimension)
        e[0] = math.cos(theta)
        e[1] = math.sin(theta)
        directions.append(e)

    pts = np.empty((n, dimension))
    pts[0] = center_arr
    for i, direction in enumerate(directions[: n - 1]):
        pts[i + 1] = _unit_distance_point(center_arr, direction)

    satellite_dist = cross_distance_matrix(pts[1:], center_arr[None, :])[:, 0]
    if np.any(satellite_dist != 1.0):
        raise ConstructionError("a satellite point missed unit distance from the center")

    ps = PointSet(
        points=pts,
        provenance={
            "kind": "deterministic",
            "label": f"sphere-counterexample(d={dimension}, n={n})",
        },
    )
    if not ps.min_pairwise_distance > 0.0:
        raise ConstructionError("could not place the requested number of distinct points")
    return ps


def duplicate_pair(dimension: int, base_seed: int) -> PointSet:
    """Two identical random points; the interpolation matrix is all zeros."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    point = make_rng(base_seed).random(dimension)
    return PointSet(
        points=np.vstack([point, point]),
        provenance={
            "kind": "deterministic",
            "label": f"duplicate-pair(d={dimension}, seed={int(base_seed)})",
        },
    )


# rows per formatted block: one block's numbers and text take a few hundred KiB
_CSV_ROWS = 4096


def _csv_lines(header, table, newline: str):
    """The header line, then the rows of a 2-d table, one block of rows at a time.

    Each field is the repr of its Python number, which round-trips floats
    exactly and keeps the int columns of an object table as ints.  A block
    of _CSV_ROWS rows is formatted with one "%r,...,%r" template from the
    block's own tolist(), so memory beyond the table is one block's numbers
    and text, whatever the number of rows.
    """
    yield ",".join(header) + newline
    line = ",".join(["%r"] * len(header)) + newline
    for start in range(0, len(table), _CSV_ROWS):
        block = table[start:start + _CSV_ROWS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_points_csv(path, points, values=None) -> None:
    """Write points (and an optional value column) as CSV.

    The header is x1,...,xd optionally followed by value; floats are written
    in full round-trip precision, and lines end in CRLF.
    """
    table = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    if table.ndim != 2:
        raise ValueError("points must form a 2-d array")
    header = [f"x{i + 1}" for i in range(table.shape[1])]
    if values is not None:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (table.shape[0],):
            raise ValueError("values must supply one number per point")
        header.append("value")
        table = np.column_stack([table, vals])
    with open(path, "w", newline="") as handle:
        handle.writelines(_csv_lines(header, table, "\r\n"))


def _float_rejected_space(path: Path) -> bool:
    # whether the file holds one of \x1c-\x1f, which str.strip() and NumPy's tokenizer
    # strip from a field and float() rejects; read 64 KiB at a time
    with open(path, "rb") as raw:
        return any(any(c in chunk for c in (b"\x1c", b"\x1d", b"\x1e", b"\x1f"))
                   for chunk in iter(partial(raw.read, 1 << 16), b""))


def _scan_rows(path: Path, width: int) -> np.ndarray:
    # the rows after the header through csv.reader and float(), naming the first bad row
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row][1:]
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {width}")
    try:
        return np.fromiter(map(float, chain.from_iterable(rows)), float,
                           len(rows) * width).reshape(-1, width)
    except ValueError:
        for i, row in enumerate(rows, start=2):
            try:
                [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}: row {i} contains a non-numeric field") from None
        raise


def read_points_csv(path) -> tuple[PointSet, np.ndarray | None]:
    """Read a points CSV with header x1,...,xd and optional value column.

    The header is read with csv.reader.  The body goes from the same handle
    through NumPy's C tokenizer (np.loadtxt), which takes one line at a time
    and parses each field with PyOS_string_to_double, the correctly rounded
    routine behind float(), so memory beyond the result array stays small.
    The body is scanned again with csv.reader and float() when loadtxt
    raises ValueError, when it finds the wrong number of columns, and when
    the file holds one of the characters \\x1c-\\x1f, which loadtxt strips
    from a field and float() does not.  That scan names the first ragged or
    non-numeric row, and it still reads what only float() accepts, such as
    1_000, so every field is read as float() reads it.  Blank lines are
    skipped; non-finite values are rejected.  Returns the point set (with
    file provenance) and the value column or None when absent.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        header = next((row for row in csv.reader(handle) if row), None)
        if header is None:
            raise ValueError(f"{path}: empty points file")
        header = [h.strip().lower() for h in header]
        has_values = header[-1] == "value"
        coord_names = header[:-1] if has_values else header
        d = len(coord_names)
        if d < 1 or coord_names != [f"x{i + 1}" for i in range(d)]:
            raise ValueError(
                f"{path}: header must be x1,...,xd with an optional trailing value column")
        width = d + 1 if has_values else d
        # loadtxt warns on an empty body, so the first data line is found here
        first = next((line for line in handle if line.strip("\r\n")), None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            data = np.loadtxt(chain([first], handle), delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != width or _float_rejected_space(path):
        data = _scan_rows(path, width)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in data rows")
    pts = PointSet(
        points=data[:, :d],
        provenance={"kind": "file", "path": str(path)},
    )
    return pts, (data[:, d].copy() if has_values else None)
