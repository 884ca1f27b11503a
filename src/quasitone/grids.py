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
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DegenerateMoments, DegenerateShift, InvalidBounds
from .states import StateSpec, evaluate, state_centroid
from .textfmt import json_value, read_csv_table

KIND_REGULAR = "regular"
KIND_GAUSSIAN = "gaussian"

# Minimum share of a state's absolute mass a grid must capture before the
# command line front end agrees to render from it.
COVERAGE_MIN = 0.99

# Cells per axis and half width of the default grid around a centroid.
DEFAULT_CELLS = 64
DEFAULT_HALF_WIDTH = 5.0

# Reference window for the coverage denominator: a half-width 10 square
# around the state centroid at 512 cells per axis captures all but a
# negligible sliver of every state this package evaluates.
_REF_HALF = 10.0
_REF_CELLS = 512


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
            if not np.all(np.isfinite(e)):
                raise InvalidBounds(f"{name} contains non-finite values")
            if not np.all(np.diff(e) > 0):
                raise InvalidBounds(f"{name} must increase strictly")
            object.__setattr__(self, name, e)

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


def build_regular(r_min, r_max, p_min, p_max, n_r, n_p) -> GridSpec:
    """Equidistant grid with n_r x n_p cells on [r_min,r_max]x[p_min,p_max]."""
    for lo, hi, n, axis in ((r_min, r_max, n_r, "r"), (p_min, p_max, n_p, "p")):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidBounds(f"{axis} bounds must be finite")
        if not hi > lo:
            raise InvalidBounds(f"{axis} bounds reversed or empty: [{lo}, {hi}]")
        if int(n) != n or n < 1:
            raise InvalidBounds(f"{axis} cell count must be a positive integer, got {n!r}")
    return GridSpec(
        KIND_REGULAR,
        np.linspace(r_min, r_max, int(n_r) + 1),
        np.linspace(p_min, p_max, int(n_p) + 1),
    )


def _gaussian_edges(mu, sigma, n, span_sigmas):
    """Equal-probability quantile edges of N(mu, sigma^2) truncated at +-span."""
    lo = 0.5 * math.erfc(span_sigmas / math.sqrt(2.0))
    hi = 0.5 * math.erfc(-span_sigmas / math.sqrt(2.0))
    # interior quantiles only: at wide spans the end ones round to 0 and 1,
    # where the inverse CDF is infinite, and the ends are the truncation
    # points by construction
    q = lo + (hi - lo) * np.arange(1, n) / n
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
    if int(n_r) != n_r or n_r < 1 or int(n_p) != n_p or n_p < 1:
        raise InvalidBounds("cell counts must be positive integers")
    if not (np.isfinite(span_sigmas) and span_sigmas > 0):
        raise InvalidBounds(f"span_sigmas must be positive and finite, got {span_sigmas!r}")
    for name, sigma in (("sigma_r", moments.sigma_r), ("sigma_p", moments.sigma_p)):
        if not (np.isfinite(sigma) and sigma > 0):
            raise DegenerateMoments(f"{name} = {sigma!r} cannot shape a grid")
    return GridSpec(
        KIND_GAUSSIAN,
        _gaussian_edges(moments.r0, moments.sigma_r, int(n_r), span_sigmas),
        _gaussian_edges(moments.p0, moments.sigma_p, int(n_p), span_sigmas),
    )


def sample_field(state: StateSpec, grid: GridSpec) -> WignerField:
    """Evaluate the state's Wigner function at every cell center."""
    values = np.asarray(evaluate(state, grid.r_centers[:, None], grid.p_centers), dtype=float)
    return WignerField(grid, values, state)


def default_edges(r0, p0):
    """Edges (r_edges, p_edges) of the default grid around the centroid
    (r0, p0); for arrays of centroids, one grid each along a last axis of
    DEFAULT_CELLS + 1 edges."""
    h, n = DEFAULT_HALF_WIDTH, DEFAULT_CELLS
    r0, p0 = np.asarray(r0, dtype=float), np.asarray(p0, dtype=float)
    return np.linspace(r0 - h, r0 + h, n + 1, axis=-1), np.linspace(p0 - h, p0 + h, n + 1, axis=-1)


def default_grid(state: StateSpec) -> GridSpec:
    """Regular DEFAULT_CELLS-square grid centered on the state's analytic centroid."""
    return GridSpec(KIND_REGULAR, *default_edges(*state_centroid(state)))


@functools.lru_cache(maxsize=16)
def _reference_abs_mass(state: StateSpec) -> float:
    r0, p0 = state_centroid(state)
    ref = build_regular(
        r0 - _REF_HALF, r0 + _REF_HALF, p0 - _REF_HALF, p0 + _REF_HALF, _REF_CELLS, _REF_CELLS
    )
    return sample_field(state, ref).abs_mass


def coverage(field: WignerField) -> float:
    """Share of the state's absolute mass captured by the field's grid.

    Both numerator and denominator are cell-center Riemann sums of |W|;
    the denominator comes from a wide fixed reference window around the
    state centroid. Clamped to [0, 1].
    """
    if field.state is None:
        raise ValueError("field has no state attached; coverage needs the source state")
    ref = _reference_abs_mass(field.state)
    if ref <= 0:
        return 0.0
    return float(min(1.0, field.abs_mass / ref))


def require_coverage(field: WignerField) -> float:
    """Return coverage, raising CoverageError below COVERAGE_MIN."""
    cov = coverage(field)
    if cov < COVERAGE_MIN:
        raise CoverageError(f"grid captures {cov:.4f} of the state's absolute mass; need >= {COVERAGE_MIN}")
    return cov


# === CSV + sidecar I/O ===


def _sidecar_path(path) -> str:
    return str(path) + ".json"


def write_field(field: WignerField, path) -> None:
    """Write cell centers and values as CSV plus a JSON sidecar.

    CSV columns are r, p, value in row-major r-then-p order with 17
    significant digits, enough to reproduce the float64 bits exactly. The
    sidecar records the grid kind, both edge arrays, and the source state.
    """
    grid = field.grid
    bad = field.values[~np.isfinite(field.values)]
    if bad.size:
        raise ValueError(f"non-finite value cannot be serialized: {float(bad[0])!r}")
    n_r, n_p = grid.shape
    r, p = np.repeat(grid.r_centers, n_p), np.tile(grid.p_centers, n_r)
    cells = zip(r.tolist(), p.tolist(), field.values.ravel().tolist())
    sidecar = {
        "kind": grid.kind,
        "r_edges": [float(e) for e in grid.r_edges],
        "p_edges": [float(e) for e in grid.p_edges],
        "state": field.state.describe() if field.state is not None else None,
    }
    sidecar_text = json_value(sidecar) + "\n"  # before the CSV, so a failure writes neither
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,p,value\n" + "".join(map("%.17g,%.17g,%.17g\n".__mod__, cells)))
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(sidecar_text)


def _complex_pair(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def _state_from_sidecar(info):
    """The state a sidecar's "state" entry describes, None for null or a
    sampled wavefunction; KeyError, TypeError or ValueError when malformed."""
    from .states import CatState, CoherentState, FockState

    if info is None:
        return None
    kind = info["kind"]
    if kind == "fock":
        return FockState(info["m"])
    if kind == "cat":
        alpha = _complex_pair(info.get("alpha", (0, 0)))
        return CatState(_complex_pair(info["delta_alpha"]), alpha)
    if kind == "coherent":
        return CoherentState(_complex_pair(info["alpha"]))
    if kind == "psi":
        return None  # sampled wavefunctions are not reconstructible from metadata
    raise ValueError(f"unknown state kind {kind!r}")


def read_field(path) -> WignerField:
    """Read a field written by write_field; bit-exact round trip.

    A malformed sidecar, header or row, or a cell that is not a finite
    number, raises ValueError naming the file.
    """
    side = _sidecar_path(path)
    table = read_csv_table(path, "r,p,value")
    with open(side, "r", encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{side}: not JSON: {exc}") from exc
    try:
        grid = GridSpec(
            sidecar["kind"],
            np.array(sidecar["r_edges"], dtype=float),
            np.array(sidecar["p_edges"], dtype=float),
        )
        state = _state_from_sidecar(sidecar.get("state"))
    except (KeyError, TypeError, ValueError, InvalidBounds, DegenerateShift) as exc:
        raise ValueError(f"{side}: malformed sidecar: {exc!r}") from exc
    n_r, n_p = grid.shape
    if len(table) != n_r * n_p:
        raise ValueError(f"{path}: {len(table)} rows for a {n_r}x{n_p} grid")
    return WignerField(grid, np.ascontiguousarray(table[:, 2]).reshape(n_r, n_p), state)
