"""Command-line front end.

Subcommands: interp (fit and evaluate an interpolant), verify (Monte Carlo
nonsingularity experiment), counterexample (unit-sphere singular
configuration), scale-check (re-solve across scale parameters) and field
(bordered-determinant field on a planar lattice).

Exit codes: 0 success, 1 usage or I/O error, 2 mathematically meaningful
failure (numerically singular system, rank-deficient polynomial block,
violated asserted bound, or singular verdicts in an asserted verify run).

Every command prints a JSON document to stdout embedding the fully resolved
configuration, so each artifact is self-describing and reruns from the echo
reproduce the output byte for byte.  The seed comes from --seed alone
(default 0): no command reads an environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, islice

import numpy as np

from ._linalg import TAU, SingularSystemError, diagnostics
from .domains import (
    Ball,
    Box,
    ConstructionError,
    SamplingError,
    TruncatedGaussian,
    Uniform,
    make_rng,
    mix_seed,
    read_points_csv,
    sample,
    sphere_counterexample,
    unit_box,
    write_points_csv,
)
from .interpolation import (
    AugmentationRankError,
    assemble,
    evaluate,
    scale_invariance_check,
    solve_augmented,
    solve_unaugmented,
)
from .kernels import RadialPower, ThinPlateSpline, kernel_spec, parse_kernel
from .unisolvence import BorderedSystem, monte_carlo

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # every option has one spelling: an abbreviation such as --k for --kernel is a usage error
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage errors exit 1; code 2 is reserved for mathematical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# encoder chunks per block of JSON text: a block's strings take a few hundred KiB
_JSON_CHUNKS = 4096


def _json_blocks(doc):
    """The text of json.dumps(doc, indent=2) and a final newline, in blocks.

    A block joins _JSON_CHUNKS of the chunks that the encoder makes (the
    pure-Python one, which indent selects, as in json.dumps), so memory
    beyond doc is one block's strings; json.dumps holds every chunk in one
    list before it joins them.  Written one chunk at a time, an 800-record
    verify report and its stdout took about a third longer than with
    json.dumps.
    """
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while block := list(islice(chunks, _JSON_CHUNKS)):
        yield "".join(block)
    yield "\n"


def _emit(doc: dict) -> None:
    # one write, so that an unbuffered stdout (python -u) costs one system call
    sys.stdout.write("".join(_json_blocks(doc)))


def _write_text(path, chunks, newline=None) -> None:
    with open(path, "w", newline=newline) as handle:
        handle.writelines(chunks)


def _write_outputs(*outputs) -> None:
    """Write a command's outputs in order: write(path) for each (path, write) with a path.

    When one of them fails, the files already written are deleted before the
    error propagates, and so is the failing one if this call created it, so a
    command that exits 1 leaves no output behind.  Only regular files are
    deleted (os.path.isfile): never a device or FIFO such as os.devnull.
    """
    written, created = [], None
    try:
        for path, write in outputs:
            if path:
                created = None if os.path.exists(path) else path
                write(path)
                written.append(path)
    except (OSError, MemoryError):
        for path in written + [created]:
            if path and os.path.isfile(path):
                os.remove(path)
        raise


def _parse_floats(text: str, what: str) -> list[float]:
    try:  # an empty text is no numbers; any other empty field fails, as float("") does
        return [float(part) for part in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected comma-separated numbers") from None


def _integral(value: float, what: str) -> int:
    if not value.is_integer():  # false for 5.7, inf and nan
        raise ValueError(f"bad {what} {value!r}: expected an integer")
    return int(value)


def _parse_domain(text: str | None, dim: int | None):
    if text is None:
        if dim is None:
            raise ValueError("either --domain or --dim is required")
        return unit_box(dim)
    cleaned = text.strip().lower()
    head, _, body = cleaned.partition(":")
    values = _parse_floats(body, "domain description")
    if head == "box":
        if len(values) < 2 or len(values) % 2 != 0:
            raise ValueError(f"bad box {text!r}: expected box:lo1,..,lod,hi1,..,hid")
        d = len(values) // 2
        domain = Box(lower=tuple(values[:d]), upper=tuple(values[d:]))
    elif head == "ball":
        if len(values) < 2:
            raise ValueError(f"bad ball {text!r}: expected ball:c1,..,cd,radius")
        domain = Ball(center=tuple(values[:-1]), radius=values[-1])
    else:
        raise ValueError(f"unknown domain {text!r}: expected box:... or ball:...")
    if dim is not None and domain.dimension != dim:
        raise ValueError(f"domain dimension {domain.dimension} does not match --dim {dim}")
    return domain


def _parse_density(text: str | None, dim: int):
    if text is None or text.strip().lower() == "uniform":
        return Uniform()
    cleaned = text.strip().lower()
    if cleaned.startswith("gauss:"):
        body = cleaned[len("gauss:"):]
        left, sep, right = body.partition("sd=")
        if not sep or not left.startswith("mu="):
            raise ValueError(f"bad density {text!r}: expected gauss:mu=...,sd=...")
        mean = _parse_floats(left[len("mu="):].removesuffix(","), "gaussian mean")
        sd = _parse_floats(right, "gaussian sd")
        mean, sd = (v * dim if len(v) == 1 else v for v in (mean, sd))  # one value for every axis
        if len(mean) != dim or len(sd) != dim:
            raise ValueError(f"density dimension does not match the run dimension {dim}")
        return TruncatedGaussian(mean=tuple(mean), sd=tuple(sd))
    raise ValueError(f"unknown density {text!r}: expected 'uniform' or 'gauss:mu=...,sd=...'")


def _domain_spec(domain) -> str:
    if isinstance(domain, Box):
        return "box:" + ",".join(repr(v) for v in domain.lower + domain.upper)
    return "ball:" + ",".join(repr(v) for v in domain.center + (domain.radius,))


def _density_spec(density) -> str:
    if isinstance(density, Uniform):
        return "uniform"
    return ("gauss:mu=" + ",".join(repr(v) for v in density.mean)
            + ",sd=" + ",".join(repr(v) for v in density.sd))


def _augment_degree(text: str | None, kernel):
    if text is None:
        return None
    cleaned = text.strip().lower()
    head, _, rest = cleaned.partition(":")
    if head != "poly":
        raise ValueError(f"bad augmentation {text!r}: expected poly or poly:<degree>")
    if not rest:
        return kernel.cpd_order - 1
    try:
        return int(rest)
    except ValueError:
        raise ValueError(f"bad augmentation degree in {text!r}") from None


def _node_source(args, dim: int | None, stream: int, missing: str):
    """(points, values, source echo) of field and scale-check: a --points file and its value
    column (None without one), or --n uniform nodes drawn from the stream of --seed on --domain,
    which must have dimension dim unless dim is None, else on the unit box of dim, with values
    None.  ValueError(missing) when neither is complete.
    """
    if args.points:
        points, values = read_points_csv(args.points)
        return points, values, {"points": str(args.points)}
    if args.n is None or (dim is None and args.domain is None):
        raise ValueError(missing)
    domain = _parse_domain(args.domain, dim)
    points = sample(domain, Uniform(), args.n, stream)
    return points, None, {"dim": domain.dimension, "n": int(args.n), "seed": args.seed,
                          "domain_spec": _domain_spec(domain)}


def _is_exploratory(kernel, dimension: int) -> bool:
    if dimension == 1:
        return True
    # a radial power of odd integer exponent nu >= 5
    return isinstance(kernel, RadialPower) and kernel.nu >= 5 and kernel.nu % 2 == 1


# ---------------------------------------------------------------------------
# interp

def cmd_interp(args) -> int:
    if args.pred and not args.eval:
        raise ValueError("--pred needs --eval: there are no predictions to write")
    kernel = parse_kernel(args.kernel)
    points, values = read_points_csv(args.points)
    if values is None:
        raise ValueError(f"{args.points}: interp requires a value column")
    degree = _augment_degree(args.augment, kernel)
    if degree is None:
        model = solve_unaugmented(points, values, kernel, args.eps)
    else:
        model = solve_augmented(points, values, kernel, args.eps, degree)
    config = {
        "command": "interp",
        "kernel": kernel_spec(kernel),
        "epsilon": float(args.eps),
        "points": str(args.points),
        "augment": None if degree is None else f"poly:{degree}",
        "tau": model.diagnostics.rel_threshold,
        "out": args.out,
        "eval": args.eval,
        "pred": args.pred,
    }

    # evaluated before any file is written, so a failed query leaves no output behind
    if args.eval:
        grid_points, _ = read_points_csv(args.eval)
        predictions = evaluate(model, grid_points.points)

    doc = {"command": "interp", "config": config,
           "diagnostics": model.diagnostics.to_dict()}
    model_doc = {**model.to_dict(), "config": config}
    doc["model"] = str(args.out) if args.out else model_doc
    if args.pred:  # only with --eval, checked above
        doc["predictions"] = str(args.pred)
    elif args.eval:
        doc["predictions"] = [float(v) for v in predictions]
    _write_outputs(
        (args.out, lambda path: _write_text(path, _json_blocks(model_doc))),
        (args.pred, lambda path: write_points_csv(path, grid_points.points, predictions)),
    )
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    kernel = parse_kernel(args.kernel)
    domain = _parse_domain(args.domain, args.dim)
    density = _parse_density(args.density, domain.dimension)
    n_list = [_integral(v, "size in --n") for v in _parse_floats(args.n, "size list")]
    report = monte_carlo(kernel, domain, density, n_list, args.trials, args.seed,
                         tau=args.tau, threads=args.threads)
    exploratory = _is_exploratory(kernel, domain.dimension)
    if exploratory:
        print("EXPLORATORY: no nonsingularity assertion for this configuration "
              "(univariate nodes or odd integer exponent >= 5); results are report-only.")

    report_doc = report.to_dict()
    doc = {
        "command": "verify",
        "exploratory": exploratory,
        **report_doc,
        "total_failures": report.total_failures,
        "outputs": {"report": args.out, "csv": args.csv},
    }
    # replacing the value keeps "config" in its place in the key order
    doc["config"] = dict(report.config, domain_spec=_domain_spec(domain),
                         density_spec=_density_spec(density))
    _write_outputs(  # the report is json.dumps(report.to_dict(), indent=2) + a newline
        (args.out, lambda path: _write_text(path, _json_blocks(report_doc))),
        (args.csv, lambda path: _write_text(path, report.records_csv_lines(), "")),
    )
    _emit(doc)
    return 0 if exploratory or report.total_failures == 0 else 2


# ---------------------------------------------------------------------------
# counterexample

def cmd_counterexample(args) -> int:
    kernel = parse_kernel(args.kernel)
    center = None if args.center is None else _parse_floats(args.center, "center")
    if center is not None and len(center) != args.dim:
        raise ValueError(f"center has {len(center)} coordinates, expected {args.dim}")
    points = sphere_counterexample(args.dim, args.n, center)
    # scale 1, so that the unit distances are kernel zeros of the thin-plate kernels
    matrix = assemble(points, kernel)
    diag = diagnostics(matrix.entries)
    config = {
        "command": "counterexample",
        "kernel": kernel_spec(kernel),
        "epsilon": matrix.epsilon,
        "dimension": int(args.dim),
        "n": int(args.n),
        "center": [float(v) for v in (center if center is not None else [0.0] * args.dim)],
        "tau": diag.rel_threshold,
    }
    doc = {
        "command": "counterexample",
        "config": config,
        "points": [[float(v) for v in row] for row in points.points],
        "diagnostics": diag.to_dict(),
    }
    tps = isinstance(kernel, ThinPlateSpline)
    doc["exact_singular"] = tps and diag.det_sign == 0 and diag.sigma_min == 0.0
    doc["note"] = ("unit distances zero out the center row of the thin-plate "
                   "matrix, so the matrix is exactly singular" if tps else
                   "non-thin-plate kernel on the same configuration; reported for "
                   "comparison, no singularity expected")
    _emit(doc)
    return 2 if tps and not doc["exact_singular"] else 0


# ---------------------------------------------------------------------------
# scale-check

def cmd_scale_check(args) -> int:
    kernel = parse_kernel(args.kernel)
    eps_list = _parse_floats(args.eps, "scale list")
    if len(eps_list) < 2:
        raise ValueError("scale-check needs at least two scales in --eps")
    degree = _augment_degree(args.augment, kernel)
    points, values, source = _node_source(
        args, args.dim, mix_seed(args.seed, 0),
        "scale-check needs --points or --n with --dim or --domain")
    if not args.points:
        values = make_rng(mix_seed(args.seed, 1)).standard_normal(points.n)
    elif values is None:
        raise ValueError(f"{args.points}: scale-check requires a value column")
    report = scale_invariance_check(points, values, kernel, eps_list, degree=degree)
    config = {
        "command": "scale-check",
        "kernel": kernel_spec(kernel),
        "eps_list": [float(v) for v in eps_list],
        "augment": None if degree is None else f"poly:{degree}",
        "tau": TAU,  # the threshold of every fit of scale_invariance_check
        "source": source,
    }
    _emit({"command": "scale-check", "config": config, "report": report.to_dict()})
    return 2 if report.passed is False else 0


# ---------------------------------------------------------------------------
# field

_SVG_PALETTE = ("#08306b", "#2171b5", "#6baed6", "#c6dbef", "#f7f7f7",
                "#fcbba1", "#fb6a4a", "#cb181d", "#67000d")
_SVG_ZERO = "#111111"


def _field_bands(values: np.ndarray):
    """Palette indices of the cells of a (nx, ny) field, one column of cells at a time.

    Returns an iterator of nx - 1 lists of ny - 1 indices: list i holds
    the cells between lattice columns i and i + 1.  A cell whose four
    corners change sign or touch zero gets len(_SVG_PALETTE), the index of
    _SVG_ZERO; any other gets the band of its corner mean on a signed log
    scale, t = sign * log1p(|mean| / floor) / log1p(vmax / floor) in
    [-1, 1], band int((t + 1) / 2 * 9) clipped to [0, 8].  vmax and floor
    are taken from the whole field in this call.  A same-sign cell whose
    corner sum overflows has t = +-inf and takes the end band of its sign.
    """
    # two reductions and no |values| temporary: nan and -0.0 give what np.abs(values).max() gives
    vmax = float(np.maximum(abs(values.max()), abs(values.min())))
    floor = vmax * 1e-9 if vmax > 0.0 else 1.0
    scale = math.log1p(vmax / floor)
    return (_band_column(left, right, floor, scale) for left, right in zip(values[:-1], values[1:]))


def _band_column(left: np.ndarray, right: np.ndarray, floor: float, scale: float) -> list:
    # every step is an element-wise operation on the four corner rows, except the logarithm
    a, b, c, d = left[:-1], left[1:], right[:-1], right[1:]
    low = np.minimum(np.minimum(a, b), np.minimum(c, d))
    high = np.maximum(np.maximum(a, b), np.maximum(c, d))
    crosses = ((low < 0.0) & (0.0 < high)) | (low == 0.0) | (high == 0.0)
    # this order of additions has the bits of values[i:i + 2, j:j + 2].mean(); the means
    # of cells that cross zero are never read, so their overflow and nan must not warn either.
    # The logarithm is libm's log1p through math.log1p: np.log1p may take a SIMD routine
    # that differs in the last bit, and with it the band at a band edge, on some CPUs.
    # Every other step is exactly rounded.
    with np.errstate(over="ignore", invalid="ignore"):
        means = (((a + b) + c) + d) / 4.0
        logs = np.fromiter(map(math.log1p, (np.abs(means) / floor).tolist()), float, means.size)
        t = np.copysign(logs / scale, means)
        band = np.clip((t + 1.0) / 2.0 * 9.0, 0.0, 8.0).astype(int)
    band[crosses] = len(_SVG_PALETTE)
    return band.tolist()


def _field_csv_lines(xs: np.ndarray, ys: np.ndarray, values: np.ndarray):
    """The x,y,value header, then the lattice rows x-major, one lattice column at a time.

    Each coordinate is formatted once, not once per row, and each field is
    the repr of its float, so the bytes are those of domains._csv_lines over
    the x-major (x_i, y_j, values[i, j]) table, with LF line ends.  Only
    one column's values are Python floats at a time.
    """
    yield "x,y,value\n"
    y_text = [f",{y!r}," for y in ys.tolist()]
    for x, column in zip(xs.tolist(), values):
        x_text = repr(x)
        yield "".join([f"{x_text}{y}{v!r}\n" for y, v in zip(y_text, column.tolist())])


def _field_svg(xs: np.ndarray, ys: np.ndarray, values: np.ndarray, desc: str):
    """SVG of a (len(xs), len(ys)) field, one rect per lattice cell, as text chunks.

    Each cell is drawn in the colour of its _field_bands index: _SVG_ZERO
    where its corners change sign or touch zero, else its palette band.
    The chunks are the head, one chunk per column of cells and the tail,
    so the text in memory is one column's.  The layout, the head, the tail
    and the field's vmax are computed in this call, before any chunk is
    read.  The rect coordinates are formatted once per lattice column and
    row.
    """
    size, margin = 640, 20
    plot = size - 2 * margin
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])
    px = (margin + (xs - x0) / (x1 - x0) * plot).tolist()
    py = (margin + (y1 - ys) / (y1 - y0) * plot).tolist()
    lefts = [f'<rect x="{a:.2f}' for a in px[:-1]]
    widths = [f"{b - a:.2f}" for a, b in zip(px[:-1], px[1:])]
    top = [f'" y="{y:.2f}" width="' for y in py[1:]]
    height = [f'" height="{b - a:.2f}" fill="' for a, b in zip(py[1:], py[:-1])]
    fills = _SVG_PALETTE + (_SVG_ZERO,)
    # the three replacements of html.escape(desc, quote=False), in its order, without html
    desc = desc.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">\n'
            f"<desc>{desc}</desc>\n"
            f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>\n')
    columns = ("".join([f'{left}{y}{width}{h}{fills[k]}"/>\n'
                        for y, h, k in zip(top, height, bands)])
               for left, width, bands in zip(lefts, widths, _field_bands(values)))
    tail = (f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
            'fill="none" stroke="#333333" stroke-width="1"/>\n</svg>\n')
    return chain((head,), columns, (tail,))


def cmd_field(args) -> int:
    kernel = parse_kernel(args.kernel)
    # nodes are planar: a --domain of another dimension fails the check below
    points, _, source = _node_source(args, None if args.domain else 2, args.seed,
                                     "field needs --points or --n")
    if points.dimension != 2:
        raise ValueError("field rendering requires planar (d = 2) points")

    if args.grid:
        grid = _parse_floats(args.grid, "grid description")
        if len(grid) != 6:
            raise ValueError("bad --grid: expected x0,x1,y0,y1,nx,ny")
        gx0, gx1, gy0, gy1 = grid[:4]
        nx, ny = (_integral(v, "lattice size in --grid") for v in grid[4:])
    else:
        lo = points.points.min(axis=0)
        hi = points.points.max(axis=0)
        pad = np.maximum(0.25 * (hi - lo), 1.25)
        gx0, gx1 = float(lo[0] - pad[0]), float(hi[0] + pad[0])
        gy0, gy1 = float(lo[1] - pad[1]), float(hi[1] + pad[1])
        nx = ny = 64
    if not (gx0 < gx1 and gy0 < gy1 and nx >= 2 and ny >= 2):
        raise ValueError("bad --grid: needs x0 < x1, y0 < y1 and nx, ny >= 2")
    if not (math.isfinite(gx1 - gx0) and math.isfinite(gy1 - gy0)):
        raise ValueError("bad --grid: the spans x1 - x0 and y1 - y0 must be finite")

    system = BorderedSystem(assemble(points, kernel, args.eps))
    base = system.base_diagnostics
    xs = np.linspace(gx0, gx1, nx)
    ys = np.linspace(gy0, gy1, ny)
    field = system.grid(xs, ys)

    config = {
        "command": "field",
        "kernel": kernel_spec(kernel),
        "epsilon": float(args.eps),
        "tau": base.rel_threshold,
        "source": source,
        "grid": [gx0, gx1, gy0, gy1, nx, ny],
        "out": str(args.out),
        "svg": args.svg,
    }
    _write_outputs(
        (args.out, lambda path: _write_text(path, _field_csv_lines(xs, ys, field), "")),
        (args.svg,
         lambda path: _write_text(path, _field_svg(xs, ys, field, json.dumps(config)))),
    )
    doc = {
        "command": "field",
        "config": config,
        "summary": {
            "n_nodes": points.n,
            "min_value": float(field.min()),
            "max_value": float(field.max()),
            "base_diagnostics": base.to_dict(),
        },
        "outputs": {"csv": str(args.out), "svg": args.svg},
    }
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="polyharm",
                     description="Polyharmonic interpolation and nonsingularity experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("interp", help="fit an interpolant from a points CSV")
    p.add_argument("--kernel", required=True, help="tps:k=<int> or rp:nu=<float>")
    p.add_argument("--points", required=True, help="CSV with header x1,..,xd,value")
    p.add_argument("--eps", type=float, default=1.0, help="scale parameter (default 1)")
    p.add_argument("--augment", default=None, help="poly or poly:<degree>")
    p.add_argument("--out", default=None, help="write the model JSON here")
    p.add_argument("--eval", default=None, help="CSV of query points to evaluate")
    p.add_argument("--pred", default=None, help="write predictions CSV here")
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("verify", help="Monte Carlo nonsingularity experiment")
    p.add_argument("--kernel", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--domain", default=None, help="box:lo..,hi.. or ball:c..,r")
    p.add_argument("--density", default=None, help="uniform or gauss:mu=..,sd=..")
    p.add_argument("--n", required=True, help="comma-separated sizes, e.g. 5,20,50")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=TAU)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="write per-trial records CSV here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample", help="unit-sphere singular configuration")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kernel", default="tps:k=1", help="default tps:k=1; e.g. rp:nu=1")
    p.add_argument("--center", default=None, help="comma-separated center coordinates")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("scale-check", help="re-solve across scale parameters")
    p.add_argument("--kernel", required=True)
    p.add_argument("--eps", required=True, help="comma-separated scales, e.g. 0.25,1,4")
    p.add_argument("--points", default=None, help="CSV with value column")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--domain", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", default=None, help="poly or poly:<degree>")
    p.set_defaults(func=cmd_scale_check)

    p = sub.add_parser("field", help="bordered-determinant field on a planar lattice")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", default=None, help="CSV of nodes (values ignored)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--domain", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--grid", default=None, help="x0,x1,y0,y1,nx,ny")
    p.add_argument("--out", required=True, help="write the field CSV here")
    p.add_argument("--svg", default=None, help="write a contour-band SVG here")
    p.set_defaults(func=cmd_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SingularSystemError, AugmentationRankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, SamplingError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
