"""Phase-space discretization: grids, sampled fields, coverage, CSV I/O.

A grid is a pair of strictly increasing edge arrays; cells are sampled at
their centers. Two constructions are provided: equidistant edges, and
edges at equal-probability quantiles of a truncated Gaussian fitted to a
moment set, which concentrates cells where the state lives.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoverageError, DegenerateMoments, DegenerateShift, InvalidBounds, refuse
from .states import StateSpec, evaluate, state_from_description
from .textfmt import csv_row_line, fmt17_column, json_value, read_csv_table, read_text, written

KIND_REGULAR = "regular"
KIND_GAUSSIAN = "gaussian"

# Least share of the state's W^2 (2 pi times its integral is 1 for every
# pure state) a grid must hold, and most that share may move when each cell
# is split 2 x 2, before the command line front end agrees to render from
# the grid (see coverage).
COVERAGE_MIN = 0.99
RESOLUTION_MAX = 3e-3

# Cells per axis and half width of the default grid around a centroid.
DEFAULT_CELLS = 64
DEFAULT_HALF_WIDTH = 5.0

# Most cells a built grid may hold: 1024 x 1024, 8 MB per float64 array of
# its field. `field` on a grid this size peaks at about 180 MB RSS, most of
# it the CSV text; coverage splits its cells 2 x 2 but evaluates the split
# grid a block of rows at a time.
MAX_CELLS = 1024 * 1024

# Rows of the split grid per evaluate call in coverage: 32 rows of a
# default grid's 128 split columns, or of a 1024-cell grid's 2048, 0.5 MB
# per float64 array. The whole 128 x 128 split in one call raised the peak
# RSS of the benchmark's sampled-state commands from 40.1 to 41.0 MB.
_SPLIT_BLOCK_ROWS = 32


def edge_centers(edges):
    """Midpoints of consecutive edges along the last axis."""
    return 0.5 * (edges[..., :-1] + edges[..., 1:])


def edge_areas(r_edges, p_edges):
    """Cell areas (..., n_r, n_p) of grids with these edges along the last axis."""
    return np.diff(r_edges)[..., :, None] * np.diff(p_edges)[..., None, :]


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Cell edges of a rectangular phase-space mesh."""

    kind: str
    r_edges: np.ndarray
    p_edges: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_REGULAR, KIND_GAUSSIAN):
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        for name in ("r_edges", "p_edges"):
            e = np.asarray(getattr(self, name), dtype=float)
            if e.ndim != 1 or e.size < 2:
                raise InvalidBounds(f"{name} needs at least two edge values")
            refuse(e, np.isfinite(e), InvalidBounds, name + " contains non-finite value {!r}")
            refuse(e[1:], e[1:] > e[:-1], InvalidBounds,
                   name + " must increase strictly, got {!r} at or below the edge before it")
            _check_width(e[0], e[-1], name)
            object.__setattr__(self, name, e)
        # every cell is at most as wide as its axis, so these diffs are finite
        widest = (float(np.diff(self.r_edges).max()), float(np.diff(self.p_edges).max()))
        if not math.isfinite(widest[0] * widest[1]):
            raise InvalidBounds(
                f"a cell of {widest[0]:.4g} x {widest[1]:.4g} has an area float64 cannot hold"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.r_edges.size - 1, self.p_edges.size - 1)

    @property
    def r_centers(self) -> np.ndarray:
        return edge_centers(self.r_edges)

    @property
    def p_centers(self) -> np.ndarray:
        return edge_centers(self.p_edges)

    @property
    def cell_areas(self) -> np.ndarray:
        """Cell area matrix, shape (n_r, n_p)."""
        return edge_areas(self.r_edges, self.p_edges)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (
            float(self.r_edges[0]),
            float(self.r_edges[-1]),
            float(self.p_edges[0]),
            float(self.p_edges[-1]),
        )


@dataclass(frozen=True, eq=False)
class WignerField:
    """Wigner values sampled at the cell centers of a grid."""

    grid: GridSpec
    values: np.ndarray
    state: StateSpec | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", v)

    @property
    def signed_mass(self) -> float:
        return float(np.sum(self.values * self.grid.cell_areas))

    @property
    def abs_mass(self) -> float:
        return float(np.sum(np.abs(self.values) * self.grid.cell_areas))


def _check_width(lo, hi, what):
    """InvalidBounds when float64 cannot hold hi - lo; formed in Python
    floats, which overflow to inf without a warning."""
    if not math.isfinite(float(hi) - float(lo)):
        raise InvalidBounds(f"{what} [{float(lo):.4g}, {float(hi):.4g}] is wider than float64 can hold")


def _cell_counts(n_r, n_p) -> tuple[int, int]:
    """(n_r, n_p) as ints: InvalidBounds unless each is a positive integer,
    ValueError naming the count when they make more than MAX_CELLS cells."""
    for n, axis in ((n_r, "r"), (n_p, "p")):
        if int(n) != n or n < 1:
            raise InvalidBounds(f"{axis} cell count must be a positive integer, got {n!r}")
    n_r, n_p = int(n_r), int(n_p)
    if n_r * n_p > MAX_CELLS:
        raise ValueError(f"{n_r} x {n_p} = {n_r * n_p} cells exceed the limit of {MAX_CELLS}")
    return n_r, n_p


def build_regular(r_min, r_max, p_min, p_max, n_r, n_p) -> GridSpec:
    """Equidistant grid with n_r x n_p cells on [r_min,r_max]x[p_min,p_max]."""
    n_r, n_p = _cell_counts(n_r, n_p)
    for lo, hi, axis in ((r_min, r_max, "r"), (p_min, p_max, "p")):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidBounds(f"{axis} bounds must be finite")
        if not hi > lo:
            raise InvalidBounds(f"{axis} bounds reversed or empty: [{lo}, {hi}]")
        _check_width(lo, hi, f"{axis} range")
    return GridSpec(KIND_REGULAR, np.linspace(r_min, r_max, n_r + 1), np.linspace(p_min, p_max, n_p + 1))


def _gaussian_edges(mu, sigma, n, span_sigmas):
    """Equal-probability quantile edges of N(mu, sigma^2) truncated at +-span."""
    lo = 0.5 * math.erfc(span_sigmas / math.sqrt(2.0))
    hi = 0.5 * math.erfc(-span_sigmas / math.sqrt(2.0))
    # interior quantiles only: at wide spans the end ones round to 0 and 1,
    # where the inverse CDF is infinite, and the ends are the truncation
    # points by construction
    q = lo + (hi - lo) * np.arange(1, n) / n
    import statistics  # with fractions and decimal, 0.5 MB that no other grid needs

    inv_cdf = statistics.NormalDist().inv_cdf
    edges = np.empty(n + 1)
    edges[0] = mu - sigma * span_sigmas
    edges[1:-1] = mu + sigma * np.array([inv_cdf(v) for v in q.tolist()])
    edges[-1] = mu + sigma * span_sigmas
    return edges


def build_gaussian(moments, n_r, n_p, span_sigmas=3.0) -> GridSpec:
    """Grid whose cells hold equal Gaussian probability under the moments.

    Edges per axis are inverse-CDF quantiles of a Gaussian with the moment
    set's center and spread, truncated at +-span_sigmas. Cells are
    narrowest at the center and the outer edges land exactly on the
    truncation points.
    """
    n_r, n_p = _cell_counts(n_r, n_p)
    if not (np.isfinite(span_sigmas) and span_sigmas > 0):
        raise InvalidBounds(f"span_sigmas must be positive and finite, got {span_sigmas!r}")
    for name, sigma in (("sigma_r", moments.sigma_r), ("sigma_p", moments.sigma_p)):
        if not (np.isfinite(sigma) and sigma > 0):
            raise DegenerateMoments(f"{name} = {sigma!r} cannot shape a grid")
        half = float(sigma) * float(span_sigmas)
        _check_width(-half, half, f"+-span_sigmas {name} window")
    return GridSpec(
        KIND_GAUSSIAN,
        _gaussian_edges(moments.r0, moments.sigma_r, n_r, span_sigmas),
        _gaussian_edges(moments.p0, moments.sigma_p, n_p, span_sigmas),
    )


def sample_field(state: StateSpec, grid: GridSpec) -> WignerField:
    """Evaluate the state's Wigner function at every cell center; a center
    that evaluate refuses (for a SampledState, a p at or past its
    momentum_limit or an r outside its samples) is refused here, named."""
    values = np.asarray(evaluate(state, grid.r_centers[:, None], grid.p_centers), dtype=float)
    return WignerField(grid, values, state)


def default_edges(r0, p0):
    """Edges (r_edges, p_edges) of the default grid around the centroid
    (r0, p0); for arrays of centroids, one grid each along a last axis of
    DEFAULT_CELLS + 1 edges. ValueError naming the first centroid (a sweep
    frame's is its shift) whose edges float64 cannot space evenly, within a
    relative 1e-9, at 2 DEFAULT_HALF_WIDTH / DEFAULT_CELLS."""
    h, step = DEFAULT_HALF_WIDTH, 2.0 * DEFAULT_HALF_WIDTH / DEFAULT_CELLS
    centroid = np.stack(np.broadcast_arrays(np.asarray(r0, dtype=float), np.asarray(p0, dtype=float)))
    edges = np.linspace(centroid - h, centroid + h, DEFAULT_CELLS + 1, axis=-1)
    bad = np.flatnonzero(~(np.abs(np.diff(edges) - step).max(axis=(0, -1)) <= 1e-9 * step))
    if bad.size:
        r, p = centroid.reshape(2, -1)[:, bad[0]].tolist()
        raise ValueError(
            f"the default grid around centroid ({r!r}, {p!r}) is not resolved in "
            f"float64: its edges are not evenly {step:g} apart"
        )
    return edges[0], edges[1]


def default_grid(state: StateSpec) -> GridSpec:
    """Regular DEFAULT_CELLS-square grid centered on the state's analytic centroid."""
    return GridSpec(KIND_REGULAR, *default_edges(*state.centroid))


class Coverage(NamedTuple):
    """What coverage() measures of a field: share, the state's W^2 that
    the grid's cells split 2 x 2 hold, and resolution, how far the sum on
    the grid's own cells lies from it."""

    share: float
    resolution: float


def _split_edges(edges):
    """The edges with each cell's midpoint added between its own two."""
    split = np.empty(2 * edges.size - 1)
    split[0::2], split[1::2] = edges, edge_centers(edges)
    return split


def _row_sums(values, widths):
    """Sum over each row of W^2 times the column widths, in a new array; a
    square that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        squares = np.square(np.asarray(values, dtype=float))
        squares *= widths
    return squares.sum(axis=1)


# Never called. perfbench/layers.py reads this name's cache_info() around
# every traced coverage call, from when coverage divided by a cached
# reference mass; ROADMAP item 1 drops that read, and with it this name.
@functools.lru_cache(maxsize=1)
def _reference_abs_mass(state):
    raise NotImplementedError("coverage needs no reference")


def coverage(field: WignerField) -> Coverage:
    """The share of the state's W^2 that the field's grid holds, and how
    well the grid resolves it; neither is clamped.

    Every state of this package is pure, so 2 pi Integral W^2 dr dp = 1
    (Hillery, O'Connell, Scully & Wigner, Phys. Rep. 106, 121, 1984) and a
    window's sum of W^2 needs no reference. P = 2 pi sum W^2 dA is the
    midpoint sum on the grid's own cells, from the values the field holds;
    P2 is the same sum with every cell split 2 x 2 at its midpoints,
    evaluated in blocks of rows: each row's total first, then the sum of
    the row totals, so no array of the whole split grid is held and the
    value does not depend on the block size. share is P2 and resolution is
    |P - P2|, about three quarters of P's own error.

    require_coverage asks share >= COVERAGE_MIN = 0.99 and resolution <=
    RESOLUTION_MAX = 3e-3. Where a midpoint sum's error goes as the cell
    area, P2's own error is a third of the resolution, so the share is then
    known to a tenth of the 0.01 that it may miss. On the default grids of
    Fock 0 to 10, of criterion 06's cats, coherent states and sampled
    eigenstate and of the benchmark's sampled eigenstates, resolution is at
    most 2.5e-5 (Fock 10); 16 cells over +-5 read 1.8e-3 for Fock 1, and
    8 cells over Fock 8's rings on [-4, 4] read 0.12.

    The split cells' outer centers lie a quarter cell beyond the grid's
    own; for a SampledState, evaluate refuses them as it refuses any point
    it cannot answer (a p at or past momentum_limit, an r outside the
    samples). A sum that is not finite raises CoverageError naming the
    grid's bounds.
    """
    if field.state is None:
        raise ValueError("field has no state attached; coverage needs the source state")
    grid = field.grid
    r_edges, p_edges = _split_edges(grid.r_edges), _split_edges(grid.p_edges)
    r, p = edge_centers(r_edges), edge_centers(p_edges)
    heights, widths = np.diff(r_edges), np.diff(p_edges)
    totals = np.empty(r.size)
    for lo in range(0, r.size, _SPLIT_BLOCK_ROWS):
        block = slice(lo, lo + _SPLIT_BLOCK_ROWS)
        totals[block] = _row_sums(evaluate(field.state, r[block, None], p), widths)
    own = _row_sums(field.values, np.diff(grid.p_edges))
    with np.errstate(over="ignore"):
        whole = 2.0 * math.pi * float(np.sum(own * np.diff(grid.r_edges)))
        split = 2.0 * math.pi * float(np.sum(totals * heights))
    if not (math.isfinite(whole) and math.isfinite(split)):
        r_lo, r_hi, p_lo, p_hi = grid.bounds
        raise CoverageError(
            f"W^2 sums {whole!r} of the grid on r in [{r_lo:.6g}, {r_hi:.6g}], "
            f"p in [{p_lo:.6g}, {p_hi:.6g}], and {split!r} of its cells split 2 x 2: both must be finite"
        )
    return Coverage(split, abs(whole - split))


def require_coverage(cov: Coverage) -> None:
    """CoverageError naming each measure of a coverage() value that fails:
    a share below COVERAGE_MIN, a resolution above RESOLUTION_MAX."""
    failed = []
    if not cov.share >= COVERAGE_MIN:
        failed.append(f"window share {cov.share:.6f} of the state's W^2 is below {COVERAGE_MIN}")
    if not cov.resolution <= RESOLUTION_MAX:
        failed.append(
            f"resolution {cov.resolution:.6g} (the W^2 sum's change when each cell is split "
            f"2 x 2) exceeds {RESOLUTION_MAX:g}"
        )
    if failed:
        raise CoverageError("grid does not hold the state: " + "; ".join(failed))


# === CSV + sidecar I/O ===


def sidecar_path(path) -> str:
    """The JSON sidecar that write_field writes beside the field CSV at path."""
    return str(path) + ".json"


def _center_columns(grid: GridSpec):
    """The r and p columns of a field CSV: cell centers in row-major order."""
    n_r, n_p = grid.shape
    return np.repeat(grid.r_centers, n_p), np.tile(grid.p_centers, n_r)


def write_field(field: WignerField, path) -> None:
    """Write cell centers and values as CSV plus a JSON sidecar.

    CSV columns are r, p, value in row-major r-then-p order with 17
    significant digits, enough to reproduce the float64 bits exactly. The
    sidecar records the grid kind, both edge arrays, and the source state.
    """
    grid = field.grid
    refuse(field.values, np.isfinite(field.values), ValueError, "non-finite value cannot be serialized: {!r}")
    # one %-format per row of cells, whose r and p centers are text already
    row = "".join(f"\0,{p},%.17g\n" for p in fmt17_column(grid.p_centers))
    rows = zip(fmt17_column(grid.r_centers), field.values.tolist())
    sidecar = {
        "kind": grid.kind,
        "r_edges": [float(e) for e in grid.r_edges],
        "p_edges": [float(e) for e in grid.p_edges],
        "state": field.state.describe() if field.state is not None else None,
    }
    with written(path, sidecar_path(path)) as (csv_tmp, side_tmp):
        # a nested block per file, so that a failed write names its file
        with written(csv_tmp), open(csv_tmp, "w", encoding="utf-8") as fh:
            fh.write("r,p,value\n" + "".join(row.replace("\0", r) % tuple(v) for r, v in rows))
        with written(side_tmp), open(side_tmp, "w", encoding="utf-8") as side:
            side.write(json_value(sidecar) + "\n")


def read_field(path) -> WignerField:
    """Read a field written by write_field; bit-exact round trip.

    A malformed sidecar, header or row, a cell that is not a finite
    number, or a row whose r or p is not its cell center on the sidecar's
    grid, raises ValueError naming the file (and the first such line).
    """
    side = sidecar_path(path)
    table = read_csv_table(path, "r,p,value")
    try:
        sidecar = json.loads(read_text(side))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{side}: not JSON: {exc}") from exc
    try:
        grid = GridSpec(
            sidecar["kind"],
            np.array(sidecar["r_edges"], dtype=float),
            np.array(sidecar["p_edges"], dtype=float),
        )
        state = state_from_description(sidecar.get("state"))
    except (KeyError, TypeError, ValueError, InvalidBounds, DegenerateShift) as exc:
        raise ValueError(f"{side}: malformed sidecar: {exc!r}") from exc
    n_r, n_p = grid.shape
    if len(table) != n_r * n_p:
        raise ValueError(f"{path}: {len(table)} rows for a {n_r}x{n_p} grid")
    r, p = _center_columns(grid)
    off = np.flatnonzero((table[:, 0] != r) | (table[:, 1] != p))
    if off.size:
        i = int(off[0])
        (got_r, got_p), want = table[i, :2].tolist(), (float(r[i]), float(p[i]))
        raise ValueError(
            f"{path}: line {csv_row_line(path, i)}: (r, p) = ({got_r!r}, {got_p!r}) "
            f"is not the cell center {want!r} of the sidecar's grid"
        )
    return WignerField(grid, np.ascontiguousarray(table[:, 2]).reshape(n_r, n_p), state)
