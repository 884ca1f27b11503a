"""Wigner quasi-distributions of single-mode optical states.

Natural units throughout: hbar = 1 and the phase-space coordinates (r, p)
are dimensionless. Closed forms are evaluated directly; a sampled
wavefunction (SampledState) goes through the integral transform

    W(r, p) = (1/2 pi) Integral dy psi(r + y/2) conj(psi)(r - y/2) e^{-i p y}

of the not-a-knot cubic spline through its samples, by composite Simpson
quadrature (see SampledState). Only numpy and the standard library are
imported.

Every distribution here is normalized to unit signed mass and bounded by
|W| <= 1/pi, the extremal value reached by minimum-uncertainty states;
the vacuum is (1/pi) exp(-(r^2 + p^2)) whichever closed form draws it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateShift, MomentumUnresolved, QuadratureSpanTooSmall, refuse

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

# Fewest distinct p of one call that the transform sums by chirp-z, and how
# far, in units of the last place of the largest |p|, a sorted p value may
# sit from its uniform lattice point; grid cell centers sit within one.
_CZT_MIN_POINTS = 8
_LATTICE_ULPS = 8

# Quadrature nodes per chunk of chirp-z rows: enough rows of a small
# sample grid to spread numpy's per-call overhead over one 2-d FFT, few
# enough rows of a large one that each array of the chunk stays in cache.
_CZT_CHUNK_NODES = 1 << 15

# Pole of the spline's [1, 4, 1] band, whose two-sided inverse
# pole^|k| / (2 sqrt 3) is cut after 32 taps a side, all below 2e-19.
_POLE = math.sqrt(3.0) - 2.0
_BAND_TAPS = 32

# Distance from a closed form's lobes past which its exponentials are 0
# (exp underflows below -745.14); coordinates are clipped there.
_FAR = 28.0

# Largest photon number whose L_m(2 s) stays finite for every s <= _FAR^2:
# from m = 288 on it overflows near s = _FAR^2, where exp(-s) is already 0,
# and W_m is inf * 0 = NaN; a scan of the r axis to _FAR shows 287 finite.
_FOCK_MAX = 287

# Largest |delta_alpha| of a cat: at the corners of eval_cat's clip box its
# largest intermediate, the lobe's exponent at a quarter of its size, is
# about 1.5625 |d|^2 <= 1.6e308, short of the largest double (1.8e308).
_SHIFT_MAX = 1e154


# === state descriptions ===


@dataclass(frozen=True)
class FockState:
    """Number state |m>."""

    m: int
    centroid = (0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"photon number must be a non-negative integer, got {self.m!r}")
        _refuse_photon_number(self.m)

    def describe(self) -> dict:
        return {"kind": "fock", "m": int(self.m)}

    def wigner(self, r, p):
        return eval_fock(self.m, r, p)


@dataclass(frozen=True)
class CatState:
    """Normalised superposition |d> - <0|d> |0> with d = delta_alpha.

    |d> is the coherent state displaced to (Re d, Im d) in phase space;
    removing its vacuum component leaves a lobe at d, a damped lobe at the
    origin and the fringes between them. The state has no carrier: the
    vacuum lobe sits at the phase-space origin.
    """

    delta_alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "delta_alpha", complex(self.delta_alpha))
        cat_half_square(self.delta_alpha)

    def describe(self) -> dict:
        return {"kind": "cat", "delta_alpha": [self.delta_alpha.real, self.delta_alpha.imag]}

    def wigner(self, r, p):
        return eval_cat(self.delta_alpha, r, p)

    @property
    def centroid(self) -> tuple[float, float]:
        return (self.delta_alpha.real, self.delta_alpha.imag)


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

    def wigner(self, r, p):
        return eval_coherent(self.alpha, r, p)

    @property
    def centroid(self) -> tuple[float, float]:
        return (self.alpha.real, self.alpha.imag)


@dataclass(frozen=True, eq=False)
class SampledState:
    """Wavefunction sampled on a uniform position grid, with the not-a-knot
    cubic spline through its samples, solved once here: read-only x, psi
    and coef (see _spline_coefficients), which wigner reads. The samples
    must be finite and carry unit probability: sum |psi|^2 dx = 1 within
    1e-9.

    Its Wigner function is the transform of the spline, extended beyond the
    samples by its end cubics. Every r shares one y lattice, y_k = k h for
    |k| <= x.size with h = (x[-1] - x[0]) / (2 x.size). The row at r
    integrates |y| <= H_r = min(x[-1] - r, r - x[0]), half the overlap of
    the shifted copies of the sample span, with composite Simpson weights
    1, 4, 2, ..., 4, 1 on its nodes |k| <= K_r = floor(H_r / h) and 0
    beyond; the spline is evaluated once per row, at r + y_k / 2, and at
    r - y_k / 2 is the same row reversed. wigner sums the table whose
    rows are a call's distinct r and whose columns are its distinct p.
    When eight or more distinct p lie on a uniform lattice and the points
    fill the table, as a grid or a block of grid rows does, a chirp-z
    transform (Rabiner, Schafer & Rader 1969) sums every row over the whole
    lattice, its chirp and kernel spectrum formed once per call and rows
    batched through numpy's FFT; otherwise each point gets the dense
    product with e^{-i p y}. The two agree to a few 1e-15 on this
    package's grids. Simpson's 4, 2 weights fold p onto p -+ pi / h, so
    from |p| = pi / (2 h) on (momentum_limit) the sum aliases: wigner,
    which evaluate calls, refuses such p whoever asks, as it refuses an r
    outside the samples (see evaluate).

    The transform integrates the spline, whose norm can fall below the
    samples' sum |psi|^2 dx = 1 (0.9909 for e^{-x^2/2 + 15 i x} on 257
    samples over +-10.5, five a period); W carries that norm, and the
    coverage gate's window share, 2 pi Integral W^2, its square (0.981846).
    """

    x: np.ndarray
    psi: np.ndarray
    coef: tuple = field(init=False, repr=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        psi = np.array(self.psi, dtype=complex)
        if x.ndim != 1 or psi.shape != x.shape or x.size < 8:
            raise ValueError("x and psi must be equal-length 1-d arrays of 8+ samples")
        refuse(x, np.isfinite(x) & np.isfinite(psi), ValueError,
               "x and psi must be finite, but the sample at x = {!r} is not")
        dx = np.diff(x)
        refuse(x[1:], dx > 0, ValueError,
               "sample grid must be strictly increasing, got {!r} at or below the x before it")
        refuse(dx, np.abs(dx - dx[0]) <= 1e-9 * dx[0], ValueError,
               f"sample grid must be uniform, got a step of {{!r}} after a first step of {float(dx[0])!r}")
        norm = float(np.sum(np.abs(psi) ** 2) * dx[0])
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"wavefunction norm is {norm:.12f}, expected 1 within 1e-9")
        coef = _spline_coefficients(x, psi)
        for a in (x, psi, *coef):
            a.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "coef", coef)

    def describe(self) -> dict:
        x = self.x
        return {"kind": "psi", "n": int(x.size), "x_min": float(x[0]), "x_max": float(x[-1])}

    def wigner(self, r, p):
        """The transform at (r, p), after the checks of evaluate."""
        refuse(p, np.abs(p) < self.momentum_limit, MomentumUnresolved, f"p = {{:.6g}} reaches |p| >= "
               f"{self.momentum_limit:.6g} = pi / (2 h), past which the quadrature of the {self.x.size}-sample "
               "wavefunction folds p onto p -+ pi / h; sample psi more finely")
        k = max(1, round(_TAIL_FRACTION * self.x.size))
        prob = np.abs(self.psi) ** 2 * (self.x[1] - self.x[0])
        tail = max(float(np.sum(prob[:k])), float(np.sum(prob[-k:])))
        if tail > _TAIL_MASS_LIMIT:
            raise QuadratureSpanTooSmall(
                f"edge probability {tail:.3e} exceeds {_TAIL_MASS_LIMIT:.0e}; widen the sample span"
            )
        out = _transform(self, np.asarray(r, float), np.asarray(p, float))
        return out if out.ndim else float(out)

    @property
    def centroid(self) -> tuple[float, float]:
        dx = self.x[1] - self.x[0]
        prob = np.abs(self.psi) ** 2 * dx
        r0 = float(np.sum(self.x * prob))
        if not self.psi.imag.any():
            return (r0, 0.0)  # exactly: the spectral sum reads about 1e-17 here
        # <p> of the samples' trigonometric interpolant, sum k |F_k|^2 / sum |F_k|^2;
        # a finite difference reads sin(p dx) / dx for e^{i p x}
        power = np.abs(np.fft.fft(self.psi)) ** 2
        k = 2.0 * np.pi * np.fft.fftfreq(self.x.size, dx)
        return (r0, float(np.sum(k * power) / np.sum(power)))

    @property
    def momentum_limit(self) -> float:
        """pi / (2 h) for the lattice step h = (x[-1] - x[0]) / (2 x.size):
        Simpson's 4, 2 weights repeat every 2 h, so the sum at p also
        carries its images p -+ pi / h, and from |p| = pi / (2 h) on one of
        them lies as near the origin as p or nearer."""
        x = self.x
        return math.pi / (2.0 * ((x[-1] - x[0]) / (2 * x.size)))


# Each answers for its kind: wigner(r, p) (see evaluate) and centroid, the
# phase-space centroid (r0, p0) of its signed mass.
StateSpec = FockState | CatState | CoherentState | SampledState


def _complex_pair(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def state_from_description(info):
    """The state a describe() entry names, None for null or a sampled
    wavefunction, whose samples it does not hold; KeyError, TypeError or
    ValueError when malformed."""
    if info is None:
        return None
    kind = info["kind"]
    if kind == "fock":
        return FockState(info["m"])
    if kind == "cat":
        # sidecars once recorded a carrier, always zero; a cat has none
        if _complex_pair(info.get("alpha", (0, 0))):
            raise ValueError(f"a cat state has no carrier alpha, got {info['alpha']!r}")
        return CatState(_complex_pair(info["delta_alpha"]))
    if kind == "coherent":
        return CoherentState(_complex_pair(info["alpha"]))
    if kind == "psi":
        return None
    raise ValueError(f"unknown state kind {kind!r}")


# === closed-form evaluators ===


def squared_shift(delta_alpha) -> float:
    """|delta_alpha|^2 as eval_cat forms it; ValueError naming the shift
    when that square is not a finite float."""
    try:
        square = abs(delta_alpha) ** 2
    except OverflowError:  # a float ** that overflows raises, never gives inf
        square = math.inf
    if not math.isfinite(square):
        raise ValueError(f"|delta_alpha|^2 of delta_alpha = {delta_alpha!r} is not finite")
    return square


def cat_half_square(delta_alpha) -> float:
    """h = |delta_alpha|^2 / 2 of a cat shift, as eval_cat forms it; as
    squared_shift refuses, ValueError where |delta_alpha| > _SHIFT_MAX, and
    DegenerateShift where |delta_alpha| <= EPS_SHIFT, at which the cat
    formula is 0/0."""
    h = 0.5 * squared_shift(delta_alpha)
    if abs(delta_alpha) > _SHIFT_MAX:
        raise ValueError(
            f"|delta_alpha| = {abs(delta_alpha):.3g} of delta_alpha = {delta_alpha!r} exceeds "
            f"{_SHIFT_MAX:g}, past which the cat's terms overflow"
        )
    if abs(delta_alpha) <= EPS_SHIFT:
        raise DegenerateShift(
            f"|delta_alpha| = {abs(delta_alpha):.3g} <= {EPS_SHIFT} for delta_alpha = "
            f"{delta_alpha!r}; use the m=1 number state, FockState(1)"
        )
    return h


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


def _refuse_photon_number(m):
    """ValueError naming an integer m above _FOCK_MAX."""
    if isinstance(m, (int, np.integer)) and m > _FOCK_MAX:
        raise ValueError(
            f"photon number {m!r} exceeds {_FOCK_MAX}, past which L_m(2 (r^2 + p^2)) "
            f"overflows where exp(-(r^2 + p^2)) is 0"
        )


def eval_fock(m, r, p):
    """W_m(r, p) = ((-1)^m / pi) exp(-(r^2 + p^2)) L_m(2 (r^2 + p^2)).

    The origin value alternates between +1/pi and -1/pi with the parity
    of m; odd states are negative at the origin. m above _FOCK_MAX is
    refused with a ValueError.
    """
    _refuse_photon_number(m)
    # clipped where exp(-s) is 0 and L_m, past its roots, has the sign of
    # (-1)^m, so the product stays +0 and nothing overflows
    r = np.clip(np.asarray(r, dtype=float), -_FAR, _FAR)
    p = np.clip(np.asarray(p, dtype=float), -_FAR, _FAR)
    s = np.minimum(r * r + p * p, _FAR * _FAR)
    w = ((-1.0) ** m / math.pi) * np.exp(-s) * laguerre(m, 2.0 * s)
    return w if np.ndim(w) else float(w)


def eval_coherent(alpha, r, p):
    """W(r, p) = (1/pi) exp(-((r - Re alpha)^2 + (p - Im alpha)^2)).

    A displaced vacuum lobe: alpha moves the peak without reshaping it.
    """
    alpha = complex(alpha)
    # the difference of halves cannot overflow, and doubled it is r - Re alpha
    dr = 2.0 * np.clip(np.asarray(r, dtype=float) / 2.0 - alpha.real / 2.0, -_FAR / 2, _FAR / 2)
    dp = 2.0 * np.clip(np.asarray(p, dtype=float) / 2.0 - alpha.imag / 2.0, -_FAR / 2, _FAR / 2)
    w = PEAK_BOUND * np.exp(-(dr**2 + dp**2))
    return w if np.ndim(w) else float(w)


def _exp_quarter(e):
    """exp(4 e) in place, for an exponent formed at a quarter of its size:
    4 e is exact, and e is first raised to -200, below which exp(4 e) is 0."""
    np.maximum(e, -200.0, out=e)
    e *= 4.0
    return np.exp(e, out=e)


def eval_cat(delta_alpha, r, p):
    """Wigner function of the superposition |d> - <0|d> |0> (see CatState).

    With z = r + i p, d = delta_alpha and h = |d|^2 / 2:

        W = [ e^{-|z - d|^2} + e^{-h - |z|^2}
              - 2 e^{-h - |z|^2 + Re(z conj(d))} cos(Im(z conj(d))) ]
            / (pi (1 - e^{-h}))

    One lobe sits at z = d, a damped lobe at the origin, and the last term
    carries the interference fringes that push W negative. Its exponent
    equals -|z - d/2|^2 - |d|^2/4, so every term is bounded by 1 in
    magnitude.

    delta_alpha may be an array that broadcasts against r and p, one shift
    per evaluation point, each refused as cat_half_square refuses it.
    """
    d = np.asarray(delta_alpha, dtype=complex)
    # the per-shift factors in Python's scalar math, so that a batch of
    # shifts evaluates bit for bit as the same shifts one at a time;
    # expm1 keeps the normalization accurate for small shifts
    h = np.array([cat_half_square(z) for z in d.ravel().tolist()]).reshape(d.shape)
    norm = np.array([math.pi * -math.expm1(-x) for x in h.ravel().tolist()]).reshape(d.shape)
    # a coordinate clipped at 1.5 |d| + _FAR along its axis lies _FAR or
    # more from 0, d and d/2 along it, also where rounding drops the _FAR,
    # so all three terms are 0 there, as they are beyond
    bound_r, bound_p = 1.5 * np.abs(d.real) + _FAR, 1.5 * np.abs(d.imag) + _FAR
    zr = np.clip(np.asarray(r, dtype=float), -bound_r, bound_r)
    zp = np.clip(np.asarray(p, dtype=float), -bound_p, bound_p)
    # the three terms in place, so that a large batch allocates a few arrays
    # rather than a dozen; each exponent is formed at a quarter of its size,
    # every value rounded as in the formula above but finite up to _SHIFT_MAX
    qr, qp = 0.25 * zr, 0.25 * zp
    w = _exp_quarter(np.asarray(-((0.5 * zr - 0.5 * d.real) ** 2) - (0.5 * zp - 0.5 * d.imag) ** 2))
    damped = np.asarray(-0.25 * h - (qr * zr + qp * zp))
    w += _exp_quarter(damped.copy())
    fringe = damped
    fringe += qr * d.real
    fringe += qp * d.imag
    _exp_quarter(fringe)
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


def _spline_coefficients(x, y):
    """Not-a-knot cubic spline through complex samples y at uniform knots x.

    Returns the coefficients of each interval's cubic in powers of
    (t - x_i), highest first, as four arrays of length x.size - 1, for the
    knot step (x[-1] - x[0]) / (x.size - 1) that _spline_at uses. With
    chord slopes d, the knot slopes s meet s[i-1] + 4 s[i] + s[i+1] =
    3 (d[i-1] + d[i]) at interior knots, which makes the second derivative
    continuous, and s[0] + 2 s[1] = (5 d[0] + d[1]) / 2 and its mirror at
    the last knot, which make the third derivative continuous across the
    second and the second-to-last knot. The band's two-sided inverse
    (Unser 1999) solves the interior rows in one convolution; the band's
    decaying solutions pole^i and pole^(n-1-i), fitted by one 2 x 2 solve,
    then meet the two end rows.
    """
    n = x.size
    step = (x[-1] - x[0]) / (n - 1)
    slope = np.diff(y) / step
    rhs = np.zeros(n, dtype=complex)
    rhs[1:-1] = 3.0 * (slope[:-1] + slope[1:])
    # built per call: as a module constant it raised every command's peak
    # RSS by about 0.2 MB, paid at import
    band_inverse = _POLE ** np.abs(np.arange(-_BAND_TAPS, _BAND_TAPS + 1)) / (2.0 * math.sqrt(3.0))
    s = np.convolve(rhs, band_inverse)[_BAND_TAPS : _BAND_TAPS + n]
    # what each end row misses, and what the decaying solutions add to it
    miss0 = 0.5 * (5.0 * slope[0] + slope[1]) - s[0] - 2.0 * s[1]
    miss1 = 0.5 * (slope[-2] + 5.0 * slope[-1]) - 2.0 * s[-2] - s[-1]
    decay = _POLE ** np.arange(n)
    near, far = 1.0 + 2.0 * _POLE, (2.0 + _POLE) * decay[-2]
    det = near * near - far * far
    s += (near * miss0 - far * miss1) / det * decay
    s += (near * miss1 - far * miss0) / det * decay[::-1]
    t = (s[:-1] + s[1:] - 2.0 * slope) / step
    return t / step, (slope - s[:-1]) / step - t, s[:-1], y[:-1]


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


def _czt_factors(pre, post, theta):
    """Factors of the Bluestein chirp-z transform
    X_j = post_j sum_{q<n} a_q pre_q e^{-i theta j q}, j < m, of rows of
    n = pre.size values, m = post.size.

    With jq = (j^2 + q^2 - (j - q)^2) / 2 the sum becomes a convolution with
    the chirp e^{i theta t^2 / 2}, done by FFT at a length of at least
    n + m - 1 so the circular wrap never reaches the kept outputs. Returns
    pre and post times the chirp e^{-i theta t^2 / 2} and the FFT of the
    wrapped kernel, which _czt applies to any number of rows.
    """
    n, m = pre.size, post.size
    size = _fast_len(n + m - 1)
    t = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * theta * (t * t))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    return pre * chirp[:n], np.fft.fft(kernel), post * chirp[:m]


def _czt(a, pre, spectrum, post):
    """X_j of each row of a, by the factors that _czt_factors returns."""
    sums = np.fft.fft(a * pre, spectrum.size)
    sums *= spectrum
    return np.fft.ifft(sums)[:, : post.size] * post


def _p_lattice(ps):
    """(p0, dp) when the sorted distinct values ps are p0 + j dp, else None.

    A lattice needs _CZT_MIN_POINTS finite values whose offsets from
    p0 + j dp stay within rounding of the largest |p|.
    """
    if ps.size < _CZT_MIN_POINTS:
        return None
    dp = (ps[-1] - ps[0]) / (ps.size - 1)
    offset = np.max(np.abs(ps - (ps[0] + dp * np.arange(ps.size))))
    if dp > 0 and offset <= _LATTICE_ULPS * np.spacing(np.max(np.abs(ps))):
        return ps[0], dp
    return None


def _lattice(x, half_span):
    """The y lattice every row of a SampledState shares, nodes y_k = k h for
    |k| <= n = x.size with h = (x[-1] - x[0]) / (2 n), as one array whose
    node -k is exactly minus node k; and K_r of each row's half span H_r,
    the largest k <= n with y_k <= H_r. A few ulps of slack keep the
    central row's outermost node, n h, which rounding can put just past
    its half span (x[-1] - x[0]) / 2.
    """
    n = x.size
    y = ((x[-1] - x[0]) / (2 * n)) * np.arange(-n, n + 1, dtype=float)
    slack = _LATTICE_ULPS * np.spacing(2.0 * np.max(np.abs(x)))
    return y, np.searchsorted(y[n:], half_span + slack, "right") - 1


def _core(x, coef, y, r, reach):
    """Simpson-weighted integrand psi(r + y/2) conj(psi)(r - y/2) of rows r,
    a (rows, 1) column, on the lattice y: weights 1, 4, 2, ..., 4, 1 times
    h/3 on a row's nodes |k| <= K_r (reach, also a column) and 0 beyond, so
    a row of K_r = 0 is 0. The spline is evaluated once, at r + y/2; at
    r - y/2 it is the same row reversed.
    """
    n = y.size // 2
    k = np.abs(np.arange(-n, n + 1))
    weight = np.where(k < reach, 2.0 + 2.0 * ((k + reach) % 2), 0.0)
    weight += (k == reach) & (reach > 0)
    weight *= y[n + 1] / 3.0
    psi = _spline_at(x, coef, r + y / 2.0)
    core = np.conj(psi[:, ::-1])
    core *= psi
    core *= weight
    return core


def _transform(state, r, p):
    """Simpson quadrature of the y integral at the points (r, p), which
    broadcast, summed as the table of their distinct r by their distinct p
    (see SampledState) in chunks of rows, each row's core formed once, that
    count the lattice's 2 x.size + 1 nodes toward _CZT_CHUNK_NODES per
    chirp-z row or dense cell."""
    x, coef = state.x, state.coef
    (rs, row), (ps, col) = (np.unique(v, return_inverse=True) for v in (r, p))
    row, col = np.broadcast_arrays(row.reshape(r.shape), col.reshape(p.shape))  # flat in numpy 1.x
    half_span = np.minimum(x[-1] - rs, rs - x[0])
    refuse(rs, half_span > 0, QuadratureSpanTooSmall,
           "evaluation point r = {:.4g} lies outside the sample span")
    y, reach = _lattice(x, half_span[:, None])
    lattice = _p_lattice(ps) if rs.size * ps.size <= row.size else None
    if lattice:  # first[i]: the chunk units, rows or dense cells, before row i
        out, first = np.empty((rs.size, ps.size)), np.arange(rs.size + 1)
        # e^{-i p_j y_k} with p_j = p0 + j dp and y_k = (q - n) h, q = k + n,
        # is e^{-i p0 y_k} e^{i j dp n h} e^{-i dp h j q}
        (p0, dp), n = lattice, y.size // 2
        theta = dp * y[n + 1]
        pre, spectrum, post = _czt_factors(
            np.exp(-1j * p0 * y), np.exp(1j * (theta * n) * np.arange(ps.size)), theta
        )
    else:
        cells, at = np.unique(row * ps.size + col, return_inverse=True)
        cell_row, cell_col = np.divmod(cells, ps.size)
        out, first = np.empty(cells.size), np.searchsorted(cell_row, np.arange(rs.size + 1))
    chunk = max(1, _CZT_CHUNK_NODES // y.size)
    start = 0
    while start < rs.size:
        stop = max(start + 1, np.searchsorted(first, first[start] + chunk, "right") - 1)
        core = _core(x, coef, y, rs[start:stop, None], reach[start:stop])
        if lattice:
            out[start:stop] = _czt(core, pre, spectrum, post).real
        else:  # Re(e^{-i p y} core) on one row of nodes per cell
            cell = slice(first[start], first[stop])
            local = cell_row[cell] - start
            theta = ps[cell_col[cell], None] * y
            sums = np.einsum("ij,ij->i", np.cos(theta), core.real[local])
            out[cell] = sums + np.einsum("ij,ij->i", np.sin(theta), core.imag[local])
        start = stop
    out /= 2.0 * math.pi
    return out[row, col] if lattice else out[at].reshape(row.shape)


# === dispatch ===


def evaluate(state: StateSpec, r, p):
    """Wigner value of any supported state at (r, p), which broadcast; a
    closed form answers every point. For a SampledState this is the one
    entry to the transform and the one check of what it can answer:
    MomentumUnresolved names the first p with |p| >= momentum_limit, from
    which the sum aliases, and QuadratureSpanTooSmall an r outside the
    span, or more than 1e-6 of the probability in the outer 5 percent of
    the span on either side (mass the samples cannot see)."""
    return state.wigner(r, p)
