"""Wigner quasi-distributions of single-mode optical states.

Natural units throughout: hbar = 1 and the phase-space coordinates (r, p)
are dimensionless. Closed forms are evaluated directly; generic sampled
wavefunctions go through the integral transform

    W(r, p) = (1/2 pi) Integral dy psi(r + y/2) conj(psi)(r - y/2) e^{-i p y}

computed with composite Simpson quadrature on a not-a-knot cubic spline
of the samples. Points sharing r share one Simpson node vector; a row of
them whose p values form a uniform lattice is summed by a chirp-z
transform (Rabiner, Schafer & Rader 1969) on numpy's FFT, rows of equal
length batched into one 2-d FFT, and any other point by the dense product
with e^{-i p y}. Both sum over the same nodes and weights. Only numpy and
the standard library are imported.

Every distribution here is normalized to unit signed mass and bounded by
|W| <= 1/pi, the extremal value reached by minimum-uncertainty states;
the vacuum is (1/pi) exp(-(r^2 + p^2)) whichever closed form draws it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShift, QuadratureSpanTooSmall

# |W| can never exceed this bound in the units used here.
PEAK_BOUND = 1.0 / math.pi

# Below this |delta_alpha| the superposition formula is a 0/0; callers
# should evaluate the m=1 number state instead.
EPS_SHIFT = 1e-3

# Fraction of the sample span, per side, inspected by the tail-mass guard
# of the integral transform.
_TAIL_FRACTION = 0.05

# Probability allowed to sit in one inspected tail before the span is
# declared too small.
_TAIL_MASS_LIMIT = 1e-6

# Fewest points of one r that the transform sums as a chirp-z row, and how
# far, in units of the last place of the largest |p|, a sorted p value may
# sit from its uniform lattice point; grid cell centers sit within one.
_CZT_MIN_POINTS = 8
_LATTICE_ULPS = 8

# Quadrature nodes per chunk of chirp-z rows: enough rows of a small
# sample grid to spread numpy's per-call overhead over one 2-d FFT, few
# enough rows of a large one that each array of the chunk stays in cache.
_CZT_CHUNK_NODES = 1 << 15


# === state descriptions ===


@dataclass(frozen=True)
class FockState:
    """Number state |m>."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"photon number must be a non-negative integer, got {self.m!r}")

    def describe(self) -> dict:
        return {"kind": "fock", "m": int(self.m)}


@dataclass(frozen=True)
class CatState:
    """Normalised superposition |d> - <0|d> |0> with d = delta_alpha.

    |d> is the coherent state displaced to (Re d, Im d) in phase space;
    removing its vacuum component leaves a lobe at d, a damped lobe at the
    origin and the fringes between them. The optional carrier alpha shifts
    the whole distribution rigidly; the shape depends on delta_alpha alone.
    """

    delta_alpha: complex
    alpha: complex = 0j

    def __post_init__(self):
        for name in ("delta_alpha", "alpha"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if abs(self.delta_alpha) <= EPS_SHIFT:
            raise DegenerateShift(
                f"|delta_alpha| = {abs(self.delta_alpha):.3g} <= {EPS_SHIFT}; "
                "use FockState(1) in this regime"
            )

    def describe(self) -> dict:
        return {
            "kind": "cat",
            "delta_alpha": [self.delta_alpha.real, self.delta_alpha.imag],
            "alpha": [self.alpha.real, self.alpha.imag],
        }


@dataclass(frozen=True)
class CoherentState:
    """Coherent state displaced to (Re alpha, Im alpha) in phase space."""

    alpha: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")

    def describe(self) -> dict:
        return {"kind": "coherent", "alpha": [self.alpha.real, self.alpha.imag]}


@dataclass(frozen=True, eq=False)
class SampledState:
    """Wavefunction sampled on a uniform position grid.

    The samples must be finite and carry unit probability: sum |psi|^2 dx = 1 within 1e-9.
    """

    x: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        psi = np.asarray(self.psi, dtype=complex)
        if x.ndim != 1 or psi.shape != x.shape or x.size < 8:
            raise ValueError("x and psi must be equal-length 1-d arrays of 8+ samples")
        if not (np.isfinite(x).all() and np.isfinite(psi).all()):
            raise ValueError("x and psi must be finite")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("sample grid must be strictly increasing")
        if np.max(np.abs(dx - dx[0])) > 1e-9 * dx[0]:
            raise ValueError("sample grid must be uniform")
        norm = float(np.sum(np.abs(psi) ** 2) * dx[0])
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"wavefunction norm is {norm:.12f}, expected 1 within 1e-9")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "psi", psi)

    def describe(self) -> dict:
        return {
            "kind": "psi",
            "n": int(self.x.size),
            "x_min": float(self.x[0]),
            "x_max": float(self.x[-1]),
        }


StateSpec = FockState | CatState | CoherentState | SampledState


# === closed-form evaluators ===


def laguerre(m, x):
    """Laguerre polynomial L_m(x) by the three-term recurrence.

    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, which is stable upward for
    the orders used here. Accepts scalars or arrays in x.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"order must be a non-negative integer, got {m!r}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - x
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def eval_fock(m, r, p):
    """W_m(r, p) = ((-1)^m / pi) exp(-(r^2 + p^2)) L_m(2 (r^2 + p^2)).

    The origin value alternates between +1/pi and -1/pi with the parity
    of m; odd states are negative at the origin.
    """
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)
    s = r * r + p * p
    w = ((-1.0) ** m / math.pi) * np.exp(-s) * laguerre(m, 2.0 * s)
    return w if np.ndim(w) else float(w)


def eval_coherent(alpha, r, p):
    """W(r, p) = (1/pi) exp(-((r - Re alpha)^2 + (p - Im alpha)^2)).

    A displaced vacuum lobe: alpha moves the peak without reshaping it.
    """
    alpha = complex(alpha)
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)
    w = PEAK_BOUND * np.exp(-((r - alpha.real) ** 2 + (p - alpha.imag) ** 2))
    return w if np.ndim(w) else float(w)


def eval_cat(delta_alpha, r, p, alpha=0j):
    """Wigner function of the superposition |d> - <0|d> |0> (see CatState).

    With z = (r - Re alpha) + i (p - Im alpha), d = delta_alpha and
    h = |d|^2 / 2:

        W = [ e^{-|z - d|^2} + e^{-h - |z|^2}
              - 2 e^{-h - |z|^2 + Re(z conj(d))} cos(Im(z conj(d))) ]
            / (pi (1 - e^{-h}))

    One lobe sits at z = d, a damped lobe at the origin, and the last term
    carries the interference fringes that push W negative. Its exponent
    equals -|z - d/2|^2 - |d|^2/4, so every term is bounded by 1 in
    magnitude.

    delta_alpha may be an array that broadcasts against r and p, one shift
    per evaluation point. Raises DegenerateShift when any |delta_alpha| <=
    1e-3, where the expression degenerates to 0/0 and the m=1 number state
    takes over.
    """
    d = np.asarray(delta_alpha, dtype=complex)
    shifts = d.ravel().tolist()
    small = [z for z in shifts if abs(z) <= EPS_SHIFT]
    if small:
        raise DegenerateShift(
            f"|delta_alpha| = {abs(small[0]):.3g} <= {EPS_SHIFT}; use eval_fock(1, r, p)"
        )
    # the per-shift factors in Python's scalar math, so that a batch of
    # shifts evaluates bit for bit as the same shifts one at a time;
    # expm1 keeps the normalization accurate for small shifts
    h = np.array([0.5 * abs(z) ** 2 for z in shifts]).reshape(d.shape)
    norm = np.array([math.pi * -math.expm1(-x) for x in h.ravel().tolist()]).reshape(d.shape)
    alpha = complex(alpha)
    zr = np.asarray(r, dtype=float) - alpha.real
    zp = np.asarray(p, dtype=float) - alpha.imag
    # the three terms in place, every value rounded as in the formula above,
    # so that a large batch allocates a few arrays rather than a dozen
    damped = np.asarray(-h - (zr * zr + zp * zp))
    w = np.asarray(-((zr - d.real) ** 2) - (zp - d.imag) ** 2)
    np.exp(w, out=w)
    w += np.exp(damped)
    fringe = damped
    fringe += zr * d.real
    fringe += zp * d.imag
    np.exp(fringe, out=fringe)
    # Im(z conj(d)) = zp Re d - zr Im d; for real shifts the second term is
    # exactly zero and the cosine varies along p alone, so take it there;
    # e (2 cos) rounds the same exact product as (2 e) cos
    fringe *= 2.0 * np.cos(zp * d.real if not d.imag.any() else zp * d.real - zr * d.imag)
    w -= fringe
    w /= norm
    return w if np.ndim(w) else float(w)


# === sampled wavefunctions ===


def harmonic_eigenstate(n, x):
    """Normalized harmonic-oscillator eigenstate psi_n on the grid x.

    psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(sqrt(pi) 2^n n!) with physicists'
    Hermite polynomials from their own two-term recurrence.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"quantum number must be a non-negative integer, got {n!r}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    h_cur = 2.0 * x
    if n == 0:
        h = h_prev
    elif n == 1:
        h = h_cur
    else:
        for k in range(1, n):
            h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
        h = h_cur
    norm = math.sqrt(math.sqrt(math.pi) * (2.0**n) * math.factorial(n))
    return h * np.exp(-x * x / 2.0) / norm


def default_psi_grid(span=12.0, nodes=2049):
    """Uniform sample grid wide enough for low oscillator states."""
    return np.linspace(-span, span, nodes)


def _tail_mass(x, psi):
    """Probability in the outer fraction of the span, worst side."""
    dx = x[1] - x[0]
    k = max(1, int(round(_TAIL_FRACTION * x.size)))
    prob = np.abs(psi) ** 2 * dx
    return max(float(np.sum(prob[:k])), float(np.sum(prob[-k:])))


def wigner_transform(x, psi, r, p):
    """Wigner function of sampled psi at phase-space points (r, p).

    The y integral runs over the overlap of the shifted copies of the
    sample span and uses composite Simpson weights on roughly twice the
    sample resolution, with psi interpolated by a not-a-knot cubic spline
    (extended beyond the samples by its end cubics). r and p broadcast
    against each other; the result is real. Eight or more points of one r
    whose p values, in any order, lie on a uniform lattice are summed by
    chirp-z in O(n log n), rows of equal length batched through numpy's
    FFT; other points, such as Gaussian-quantile grids or a single point,
    by the dense product. The two agree to rounding, a few 1e-15 on the
    grids this package builds.

    Raises QuadratureSpanTooSmall when more than 1e-6 of the probability
    sits in the outer 5 percent of the span on either side, a proxy for
    mass the grid cannot see at all.
    """
    state = SampledState(np.asarray(x, dtype=float), np.asarray(psi, dtype=complex))
    x, psi = state.x, state.psi
    tail = _tail_mass(x, psi)
    if tail > _TAIL_MASS_LIMIT:
        raise QuadratureSpanTooSmall(
            f"edge probability {tail:.3e} exceeds {_TAIL_MASS_LIMIT:.0e}; widen the sample span"
        )
    r_arr, p_arr = np.broadcast_arrays(np.asarray(r, float), np.asarray(p, float))
    shape = r_arr.shape
    out = _transform_points(x, psi, r_arr.ravel(), p_arr.ravel())
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def _spline_coefficients(x, y):
    """Not-a-knot cubic spline through the samples (x, y), complex y.

    Returns the coefficients of each interval's cubic in powers of
    (t - x_i), highest first, as four arrays of length x.size - 1. The
    knot slopes s solve a tridiagonal system: interior rows make the
    second derivative continuous, the end rows make the third derivative
    continuous across the second and the second-to-last knot. One forward
    and one backward sweep (Thomas algorithm) solve it without pivoting.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    sub = np.zeros(n)
    diag = np.empty(n)
    sup = np.zeros(n)
    rhs = np.empty(n, dtype=complex)
    # dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
    #     = 3 (dx_i slope_{i-1} + dx_{i-1} slope_i)
    sub[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    sup[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], sup[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    sub[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    a, b, c, r = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    cp, rp = [0.0] * n, [0j] * n
    cp[0], rp[0] = c[0] / b[0], r[0] / b[0]
    for i in range(1, n):
        w = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / w
        rp[i] = (r[i] - a[i] * rp[i - 1]) / w
    for i in range(n - 2, -1, -1):
        rp[i] -= cp[i] * rp[i + 1]
    s = np.array(rp)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]


def _spline_at(x, coef, t):
    """Evaluate the spline of _spline_coefficients at t, any shape.

    x is uniform, so the interval of t is found by index arithmetic; points
    outside [x_0, x_-1] take the end intervals' cubics.
    """
    step = (x[-1] - x[0]) / (x.size - 1)
    # truncation rounds toward zero, so t < x_0 lands on 0 after the clip
    i = np.clip(((t - x[0]) / step).astype(np.intp), 0, x.size - 2)
    u = t - x[i]
    c3, c2, c1, c0 = coef
    return ((c3[i] * u + c2[i]) * u + c1[i]) * u + c0[i]


@functools.lru_cache(maxsize=128)
def _fast_len(target):
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target, a length pocketfft does fast."""
    n = target
    while True:
        rest = n
        for f in (2, 3, 5, 7, 11):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def _czt(a, m, theta):
    """Bluestein chirp-z transform of each row of a.

    X_j = sum_k a_k e^{-i theta j k} for j < m, with one theta per row
    (shape (rows, 1)). With jk = (j^2 + k^2 - (j - k)^2) / 2 the sum becomes
    a convolution with the chirp e^{i theta n^2 / 2}, done by FFT along the
    rows at a length of at least n + m - 1 so the circular wrap never
    reaches the kept outputs.
    """
    n = a.shape[-1]
    size = _fast_len(n + m - 1)
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * theta * (k * k))
    kernel = np.zeros((a.shape[0], size), dtype=complex)
    kernel[:, :m] = np.conj(chirp[:, :m])
    kernel[:, size - n + 1 :] = np.conj(chirp[:, n - 1 : 0 : -1])
    spectrum = np.fft.fft(a * chirp[:, :n], size) * np.fft.fft(kernel)
    return chirp[:, :m] * np.fft.ifft(spectrum)[:, :m]


def _p_lattice(ps):
    """(order, p0, dp) when ps sorted by order is p0 + j dp, else None.

    A lattice needs _CZT_MIN_POINTS distinct finite values whose sorted
    offsets from p0 + j dp stay within rounding of the largest |p|.
    """
    if ps.size < _CZT_MIN_POINTS:
        return None
    order = np.argsort(ps, kind="stable")
    q = ps[order]
    dp = (q[-1] - q[0]) / (q.size - 1)
    offset = np.max(np.abs(q - (q[0] + dp * np.arange(q.size))))
    if dp > 0 and offset <= _LATTICE_ULPS * np.spacing(np.max(np.abs(q))):
        return order, q[0], dp
    return None


def _core(x, coef, simpson, r, half_span):
    """Simpson nodes y over [-half_span, half_span] and the weighted
    integrand psi(r + y/2) conj(psi)(r - y/2) at them.

    For a batch of rows, r is a (rows, 1) column and half_span a (rows,)
    vector, and y and the integrand have one row each.
    """
    y = np.linspace(-half_span, half_span, simpson.size, axis=-1)
    h = y[..., 1:2] - y[..., :1]
    core = _spline_at(x, coef, r + y / 2.0) * np.conj(_spline_at(x, coef, r - y / 2.0))
    return y, core * (simpson * (h / 3.0))


def _transform_points(x, psi, rs, ps):
    """Simpson quadrature of the y integral for flat point lists.

    Points sharing r share one Simpson core; see wigner_transform for when
    a group is summed by chirp-z and when by the dense product. Lattice
    rows are collected first, then transformed in chunks of rows of equal
    length.
    """
    coef = _spline_coefficients(x, psi)
    n_nodes = 2 * x.size + 1  # odd count, about half the sample spacing
    simpson = np.ones(n_nodes)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    out = np.empty(rs.size, dtype=float)
    order = np.argsort(rs, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(rs[order])) + 1) if rs.size else []
    lattice_rows = {}  # row length -> [(points in p order, r, half_span, p0, dp)]
    for idx in groups:
        r = rs[idx[0]]
        half_span = min(x[-1] - r, r - x[0])
        if half_span <= 0:
            raise QuadratureSpanTooSmall(
                f"evaluation point r = {r:.4g} lies outside the sample span"
            )
        p = ps[idx]
        lattice = _p_lattice(p)
        if lattice is None:
            y, core = _core(x, coef, simpson, r, half_span)
            out[idx] = (np.exp(-1j * np.outer(p, y)) @ core).real / (2.0 * math.pi)
        else:
            row, p0, dp = lattice
            lattice_rows.setdefault(p.size, []).append((idx[row], r, half_span, p0, dp))
    chunk = max(1, _CZT_CHUNK_NODES // n_nodes)
    for m, rows in lattice_rows.items():
        for start in range(0, len(rows), chunk):
            points, r, half_span, p0, dp = zip(*rows[start : start + chunk])
            y, core = _core(x, coef, simpson, np.array(r)[:, None], np.array(half_span))
            half_span, p0, dp = (np.array(v)[:, None] for v in (half_span, p0, dp))
            # y_k = -H + k step, so e^{-i p_j y_k} with p_j = p0 + j dp is
            # e^{-i p0 y_k} e^{i j dp H} e^{-i dp step j k}
            step = 2.0 * half_span / (n_nodes - 1)
            sums = np.exp(1j * dp * half_span * np.arange(m)) * _czt(
                core * np.exp(-1j * p0 * y), m, dp * step
            )
            out[np.array(points)] = sums.real / (2.0 * math.pi)
    return out


# === dispatch ===


def evaluate(state: StateSpec, r, p):
    """Wigner value of any supported state at (r, p)."""
    if isinstance(state, FockState):
        return eval_fock(state.m, r, p)
    if isinstance(state, CatState):
        return eval_cat(state.delta_alpha, r, p, alpha=state.alpha)
    if isinstance(state, CoherentState):
        return eval_coherent(state.alpha, r, p)
    if isinstance(state, SampledState):
        return wigner_transform(state.x, state.psi, r, p)
    raise TypeError(f"unsupported state: {type(state)!r}")


def state_centroid(state: StateSpec) -> tuple[float, float]:
    """Analytic phase-space centroid (r0, p0) of the state's signed mass."""
    if isinstance(state, FockState):
        return (0.0, 0.0)
    if isinstance(state, CatState):
        c = state.alpha + state.delta_alpha
        return (c.real, c.imag)
    if isinstance(state, CoherentState):
        return (state.alpha.real, state.alpha.imag)
    if isinstance(state, SampledState):
        dx = state.x[1] - state.x[0]
        prob = np.abs(state.psi) ** 2 * dx
        r0 = float(np.sum(state.x * prob))
        dpsi = np.gradient(state.psi, state.x)
        p0 = float(np.imag(np.sum(np.conj(state.psi) * dpsi) * dx))
        return (r0, p0)
    raise TypeError(f"unsupported state: {type(state)!r}")
