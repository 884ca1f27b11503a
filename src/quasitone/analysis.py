"""Statistics of sampled Wigner fields.

Weighted moments treat each cell as a point mass value * area at the cell
center and keep the sign, so interference fringes pull on the statistics
exactly as they pull on the distribution. A moment along one axis is a
sum over that axis's marginal, the weights summed over the other axis, in
an order fixed by the grid shape, so every figure repeats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateMoments, DegenerateRange, IoError, MassTooLow
from .grids import WignerField
from .textfmt import json_value

# Signed mass below this is too cancelled to normalize reliably.
MASS_FLOOR = 0.5


@dataclass(frozen=True)
class MomentSet:
    """Signed-weight statistics of one field, both axes."""

    r0: float
    p0: float
    sigma_r: float
    sigma_p: float
    skew_r: float
    skew_p: float
    kurt_r: float
    kurt_p: float
    negativity: float


@dataclass(frozen=True, eq=False)
class ValueSegmentation:
    """Four equal-width value sections between field min and max."""

    boundaries: np.ndarray  # five ascending edges over the value range
    section_abs_mass: np.ndarray  # |value| * area per section, length 4
    section_index: np.ndarray  # per-cell section id, 0..3


def _axis_stats(weights, coords, total):
    """Center, spread, skewness, and kurtosis from one axis's marginal."""
    mean = float(np.sum(weights * coords) / total)
    d = coords - mean
    m2 = float(np.sum(weights * d**2) / total)
    if not np.isfinite(m2) or m2 <= 0:
        raise DegenerateMoments(f"second central moment {m2!r} is not positive")
    m3 = float(np.sum(weights * d**3) / total)
    m4 = float(np.sum(weights * d**4) / total)
    sigma = float(np.sqrt(m2))
    return mean, sigma, m3 / m2**1.5, m4 / m2**2


def compute_moments(field: WignerField) -> MomentSet:
    """Signed-weight moments of the field plus its negativity volume.

    Weights are value * cell_area. The total signed mass must exceed 0.5;
    a well-covered physical state sums to about 1, and anything far below
    that means the grid missed the state or cancellation won.

    Spread is the square root of the second central moment; skewness is
    the standardized third; kurtosis is the raw standardized fourth, so a
    Gaussian scores 3. Negativity is the sum of max(0, -value) * area,
    which is zero for any nonnegative field.
    """
    grid, areas = field.grid, field.grid.cell_areas
    weights = field.values * areas
    total = float(np.sum(weights))
    if not np.isfinite(total) or total <= MASS_FLOOR:
        raise MassTooLow(f"signed mass {total:.4f} is at or below {MASS_FLOOR}")
    r0, sigma_r, skew_r, kurt_r = _axis_stats(weights.sum(axis=1), grid.r_centers, total)
    p0, sigma_p, skew_p, kurt_p = _axis_stats(weights.sum(axis=0), grid.p_centers, total)
    return MomentSet(
        r0=r0,
        p0=p0,
        sigma_r=sigma_r,
        sigma_p=sigma_p,
        skew_r=skew_r,
        skew_p=skew_p,
        kurt_r=kurt_r,
        kurt_p=kurt_p,
        negativity=float(np.sum(np.maximum(0.0, -field.values) * areas)),
    )


def segment_four(field: WignerField) -> ValueSegmentation:
    """Split the value range into four equal-width sections.

    Boundaries sit at min + k (max - min) / 4. Sections are half-open
    below, and only the last one includes its upper edge, so every cell
    lands in exactly one section and the per-section absolute masses add
    up to the field's total absolute mass.
    """
    v = field.values
    vmin = float(np.min(v))
    vmax = float(np.max(v))
    if vmax <= vmin:
        raise DegenerateRange(f"value range collapsed at {vmin!r}")
    boundaries = vmin + (vmax - vmin) * np.arange(5) / 4.0
    index = np.digitize(v, boundaries[1:4], right=False)
    # one row per section, each summed pairwise like a full-array sum;
    # np.bincount would sum sequentially and change the masses' last bits
    one_hot = index.ravel() == np.arange(4)[:, None]
    masses = np.sum((np.abs(v) * field.grid.cell_areas).ravel() * one_hot, axis=1)
    return ValueSegmentation(boundaries=boundaries, section_abs_mass=masses, section_index=index)


# === JSON export ===


def moments_to_json(moments: MomentSet) -> str:
    """Render a moment set as JSON with 17 significant digits per value."""
    payload = {f.name: getattr(moments, f.name) for f in fields(MomentSet)}
    return json_value(payload) + "\n"


def write_moments(moments: MomentSet, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(moments_to_json(moments))
    except OSError as exc:
        raise IoError(f"cannot write moments: {exc}") from exc
