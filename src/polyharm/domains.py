"""Sampling domains, densities and point sets.

Randomness contract
-------------------
All randomness flows through numpy's PCG64 generator.  ``make_rng(seed)``
builds the generator for a 64-bit seed, and ``mix_seed(master, *path)``
derives independent substream seeds from a master seed and an integer path
(for example ``mix_seed(master, n, trial)``) using numpy's SeedSequence
entropy-mixing, so per-trial work can run concurrently and still produce
bitwise-identical results in any execution order.

A point set is its validated points and caches nothing computed from them;
their minimum distance is InterpMatrix.min_dist, which assemble reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Union

import numpy as np

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


def _sum_squares(diffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of squares over the first axis of diffs (d, ...), in the two-lane order.

    diffs is squared in place; the even-indexed coordinates are summed in
    turn into diffs[0], the odd-indexed ones in turn into diffs[1], then the
    two lanes are added into out (d = 1 copies its one lane, d = 0 sums to
    zero).  Every distance of the package goes through this order, in the
    chunk loop of cross_distance_matrix.
    """
    diffs *= diffs
    for k in range(2, diffs.shape[0]):
        diffs[k % 2] += diffs[k]
    if diffs.shape[0] > 1:
        return np.add(diffs[0], diffs[1], out=out)
    return diffs.sum(axis=0, out=out)


def cross_distance_matrix(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
                          ) -> np.ndarray:
    """Euclidean distances between the rows of a (m, d) and b (n, d).

    The one distance entry point of the package: the kernel matrices of
    assemble, with their minimum node distance, and the kernel rows of
    evaluate, cardinal_values and BorderedSystem (interpolation._kernel_rows)
    all come from here.  Each coordinate's squared differences form one
    (rows, n) slice, and the slices are summed in two lanes (_sum_squares):
    the even-indexed coordinates in turn, the odd-indexed ones in turn, then
    the two lanes.  That order is fixed for every d and platform; for d <= 7
    it is also the order of NumPy's einsum reduction on x86-64.  Rows of a
    are taken in chunks whose (d, rows, n) temporary holds at most
    _CHUNK_ENTRIES entries (and at least one row), so memory beyond the
    (m, n) result stays bounded; each entry is computed from its own pair of
    rows alone, so the chunking never changes a bit.  The result is written
    into out when it is given, else into a new array.
    ValueError unless a and b are 2-d with the same number of columns, and
    unless out, when given, has shape (m, n).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"distances need two (rows, d) arrays of one dimension d, "
                         f"got shapes {a.shape} and {b.shape}")
    (m, d), n = a.shape, b.shape[0]
    if out is None:
        out = np.empty((m, n))
    elif out.shape != (m, n):
        raise ValueError(f"distance buffer of shape {out.shape} does not hold ({m}, {n})")
    coords = np.ascontiguousarray(b.T)[:, None, :]  # (d, 1, n): the inner loops run over n
    step = max(1, _CHUNK_ENTRIES // max(n * d, 1))
    for start in range(0, m, step):
        chunk = _sum_squares(coords - a[start:start + step].T[:, :, None],
                             out=out[start:start + step])
        np.sqrt(chunk, out=chunk)
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
    """An ordered set of points in R**d: a nonempty, finite 2-d float array.

    It holds nothing computed from them: their minimum pairwise distance is
    InterpMatrix.min_dist, read off the distance matrix assemble builds.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must form a nonempty 2-d array")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def sample(domain: Domain, density: Density, n: int, seed: int) -> PointSet:
    """Draw n i.i.d. points from density restricted to domain.

    Uniform densities use per-axis (box) or direction-radius (ball) inverse
    transforms directly.  Other densities go through rejection sampling
    against the uniform envelope scaled by the stated bound; exceeding the
    proposal cap of 10**6 * n raises SamplingError, which usually
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
        cap = 10**6 * n
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
    return PointSet(pts)


_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


def _search_steps(count: int) -> np.ndarray:
    # steps of one round of the exact unit-distance search, nearest first:
    # 0, 1, -1, 2, -2, ..., count, -count
    return np.concatenate([[0], np.arange(1, count + 1).repeat(2) * np.tile([1, -1], count)])


def _unit_distance_point(center: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """A point at measured distance exactly 1.0 from center, along direction.

    Up to two renormalization passes divide the offset by its measured
    distance.  When they miss, an exact search measures candidates near the
    point in up to three rounds of one distance call each.  A round moves
    the coordinate of second-largest offset, the free one, by each of
    0, +-1, ..., +-256 (+-4096 in the third round) times the round's step,
    solves the one of largest offset from the others, and takes that value
    and its two ulp neighbours.  The first candidate that measures 1.0 is
    the point.

    The first round steps one ulp of the free coordinate.  It can miss once
    an ulp of either coordinate moves the squared distance by more than the
    window whose square root rounds to 1.0 (about 3.9e-16 wide), and on an
    axis direction, whose free offset of 0 moves the squared distance by
    almost nothing.  The second round spreads the free offset over
    +/-2 * sqrt(ulp of the solved coordinate), so that its square can make
    up an ulp step of the solved coordinate: up to 8.4e-8 off the direction
    for coordinates below 16 in magnitude.  Far from the origin its steps
    move that square by more than the window, and can step over every hit.
    The third round runs only when both miss.  Its step is
    2**-52 / (2 * sqrt(2 * u)), or one ulp of the free coordinate when that
    is larger, where u is the ulp of the larger of the solved coordinate
    and its center coordinate.  Near a free offset of 0 the offset's square
    then moves by less than the window per step until it has crossed 2 * u,
    a whole ulp step of the solved coordinate's square, for coordinates
    below 2048 in magnitude; elsewhere each of its 8,193 steps is one more
    chance.  Its point lies up to 7.7e-6 off the direction when u is at
    least the ulp of 16 and the free coordinate is below 2**23 in magnitude
    (4096 steps of at most 1.32e-9, and the solved coordinate moves by no
    more than the free one).  A miss in every round, or a degenerate
    direction, raises ConstructionError.
    """
    point = center + direction
    for _ in range(3):
        measured = float(cross_distance_matrix(point[None, :], center[None, :])[0, 0])
        if measured == 1.0:
            return point
        if measured == 0.0:
            raise ConstructionError("degenerate direction while placing a unit-distance point")
        point = center + (point - center) / measured
    offset = point - center
    solved_axis, free_axis = np.argsort(-np.abs(offset), kind="stable")[:2]
    rest = np.delete(offset, [solved_axis, free_axis])
    ulp_free = np.spacing(point[free_axis])  # negative for a negative coordinate
    wide = 2.0 * math.sqrt(np.spacing(abs(point[solved_axis]))) / 256
    grain = np.spacing(max(abs(point[solved_axis]), abs(center[solved_axis])))
    fine = max(abs(ulp_free), math.ulp(1.0) / (2.0 * math.sqrt(2.0 * grain)))
    for count, step in ((256, ulp_free), (256, wide), (4096, fine)):
        steps = _search_steps(count)
        free = point[free_axis] + steps * step
        left = 1.0 - float(rest @ rest) - (free - center[free_axis]) ** 2
        solved = center[solved_axis] + np.copysign(np.sqrt(np.maximum(left, 0.0)),
                                                   offset[solved_axis])
        candidates = np.repeat(point[None, :], 3 * steps.size, axis=0)
        candidates[:, free_axis] = np.repeat(free, 3)
        neighbours = solved[:, None] + np.spacing(solved)[:, None] * steps[:3]
        candidates[:, solved_axis] = neighbours.ravel()
        hits = np.flatnonzero(cross_distance_matrix(candidates, center[None, :])[:, 0] == 1.0)
        if hits.size:
            return candidates[hits[0]]
    raise ConstructionError(
        "could not place a point at floating-point distance exactly 1 from the center")


def sphere_counterexample(dimension: int, n: int, center=None) -> PointSet:
    """Center plus n - 1 points at floating-point distance exactly 1 from it.

    The first 2 * dimension satellites sit at center +/- unit coordinate
    offsets; further satellites use deterministically rotated directions in
    the plane of the first two axes.  Every satellite's measured distance to
    the center is exactly 1.0 (_unit_distance_point: a satellite that
    renormalization cannot place comes from its exact search, at most a few
    hundred ulps off its direction, or 8.4e-8 for coordinates below 16 in
    magnitude when ulp steps miss, or 7.7e-6 for larger coordinates when
    both of those rounds miss) and all rows are verified distinct by
    np.unique, in O(n log n); otherwise ConstructionError is raised.  Here
    that is a nonzero measured distance: satellites differ by far more than
    the ~1e-162 at which a squared difference underflows, and -0.0 == 0.0.

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

    # allocated before any satellite is placed, so an impossible n fails at once
    pts = np.empty((n, dimension))
    pts[0] = center_arr
    for i in range(1, n):
        direction = np.zeros(dimension)
        if i <= 2 * dimension:  # +e_1, ..., +e_d, then -e_1, ..., -e_d
            direction[(i - 1) % dimension] = 1.0 if i <= dimension else -1.0
        else:
            theta = 2.0 * math.pi * (((i - 2 * dimension) * _GOLDEN_FRACTION) % 1.0)
            direction[0] = math.cos(theta)
            direction[1] = math.sin(theta)
        pts[i] = _unit_distance_point(center_arr, direction)

    if len(np.unique(pts, axis=0)) < n:
        raise ConstructionError("could not place the requested number of distinct points")
    return PointSet(pts)


# rows per formatted block: one block's numbers and text take a few hundred KiB
_CSV_ROWS = 4096


def _csv_lines(header, table, newline: str, values=None):
    """The header line, then the rows of a 2-d table, one block of rows at a time.

    Each field is the repr of its Python float, which round-trips exactly.
    A block of _CSV_ROWS rows, with its slice of the optional values as a
    last column, is formatted with one "%r,...,%r" template from the block's
    own tolist(), so memory beyond the table is one block's numbers and
    text, whatever the number of rows.
    """
    yield ",".join(header) + newline
    line = ",".join(["%r"] * len(header)) + newline
    for start in range(0, len(table), _CSV_ROWS):
        block = table[start:start + _CSV_ROWS]
        if values is not None:
            block = np.column_stack([block, values[start:start + _CSV_ROWS]])
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
        values = np.asarray(values, dtype=float)
        if values.shape != (table.shape[0],):
            raise ValueError("values must supply one number per point")
        header.append("value")
    with open(path, "w", newline="") as handle:
        handle.writelines(_csv_lines(header, table, "\r\n", values))


def _float_rejected_space(handle) -> bool:
    # whether the text file holds one of \x1c-\x1f, which str.strip() and NumPy's tokenizer
    # strip from a field and float() rejects; its bytes from the start, 64 KiB at a time
    # (decoded, the scan took 6x as long), so the handle must seek to 0 before it reads again
    handle.seek(0)
    return any(any(c in chunk for c in (b"\x1c", b"\x1d", b"\x1e", b"\x1f"))
               for chunk in iter(partial(handle.buffer.read, 1 << 16), b""))


def _scan_rows(reader, rows, width: int, path) -> np.ndarray:
    # the rows after the header through csv.reader and float() in one streamed pass;
    # the first ragged row is named, else the first row with a non-numeric field, each by
    # the reader's line_num: its (last) line in the file, blank lines counted
    ragged = non_numeric = None

    def fields():
        nonlocal ragged, non_numeric
        for row in rows:
            i = reader.line_num
            if len(row) != width:
                ragged = f"row {i} has {len(row)} fields, expected {width}"
                return
            if non_numeric is None:
                try:
                    yield tuple(map(float, row))
                except ValueError:
                    non_numeric = f"row {i} contains a non-numeric field"

    data = np.fromiter(chain.from_iterable(fields()), float)
    if ragged or non_numeric:
        raise ValueError(f"{path}: {ragged or non_numeric}")
    return data.reshape(-1, width)


def read_points_csv(path) -> tuple[PointSet, np.ndarray | None]:
    """Read a points CSV with header x1,...,xd and optional value column.

    The input is opened once, so it may be a pipe or a FIFO, such as
    /dev/stdin.  The header is read with csv.reader.  From a seekable file
    the body goes from the same handle through NumPy's C tokenizer
    (np.loadtxt), which takes one line at a time and parses each field with
    PyOS_string_to_double, the correctly rounded routine behind float(), so
    memory beyond the result array stays small.  The body is scanned again,
    from the start of the handle, with csv.reader and float() when loadtxt
    raises ValueError, when it finds the wrong number of columns, and when
    the file holds one of the characters \\x1c-\\x1f, which loadtxt strips
    from a field and float() does not.  An input that cannot seek, such as
    a pipe, takes that scan alone, continuing the header's reader.  The
    scan is one streamed pass, so memory beyond the result stays small on
    every path; it names the first ragged row, else the first non-numeric
    one, by its line in the input (blank lines counted, the first line is
    1), and reads what only float() accepts, such as 1_000, so every field
    is read as float() reads it, from a file and from a pipe alike.  Blank
    lines are skipped; non-finite values are rejected.  Returns the point
    set and the value column or None when absent.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = filter(None, reader)
        header = next(rows, None)
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
        if handle.seekable():
            # loadtxt warns on an empty body, so the first data line is found here
            first = next((line for line in handle if line.strip("\r\n")), None)
            if first is None:
                raise ValueError(f"{path}: no data rows")
            try:
                data = np.loadtxt(chain([first], handle), delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)
            except ValueError:
                data = None
            if data is None or data.shape[1] != width or _float_rejected_space(handle):
                handle.seek(0)
                reader = csv.reader(handle)
                rows = filter(None, reader)
                next(rows)  # the header
                data = _scan_rows(reader, rows, width, path)
        else:
            data = _scan_rows(reader, rows, width, path)
            if not len(data):
                raise ValueError(f"{path}: no data rows")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in data rows")
    return PointSet(data[:, :d]), (data[:, d].copy() if has_values else None)
