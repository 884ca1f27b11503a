"""Independent reference implementations used to check the package.

Everything here is deliberately slow and simple: exact rational arithmetic,
bisection, brute-force search. None of it imports quasitone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def laguerre_exact(m: int, x: Fraction) -> Fraction:
    """Laguerre polynomial L_m(x) summed term by term in exact rationals.

    L_m(x) = sum_k C(m, k) (-x)^k / k!
    """
    total = Fraction(0)
    for k in range(m + 1):
        total += Fraction(math.comb(m, k), math.factorial(k)) * (-x) ** k
    return total


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_quantile(q: float, lo=-40.0, hi=40.0, iters=200) -> float:
    """Inverse standard normal CDF by plain bisection on erf."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be strictly inside (0, 1)")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def truncated_gaussian_edges(mu: float, sigma: float, n: int, span: float):
    """Cell edges at equal-probability quantiles of a Gaussian truncated to
    mu +/- span*sigma, ends clamped to the truncation bounds exactly.
    """
    lo_q = normal_cdf(-span)
    hi_q = normal_cdf(span)
    edges = [mu - span * sigma]
    for k in range(1, n):
        q = lo_q + (hi_q - lo_q) * k / n
        edges.append(mu + sigma * normal_quantile(q))
    edges.append(mu + span * sigma)
    return edges


def quantize_brute(freq: float, ref: float = 440.0) -> float:
    """Nearest 24-EDO lattice point by scanning indices, ties upward."""
    guess = int(math.floor(24.0 * math.log2(freq / ref)))
    best_k = None
    best_err = None
    for k in range(guess - 3, guess + 4):
        err = abs(math.log2(freq / (ref * 2.0 ** (k / 24.0))))
        if best_err is None or err < best_err - 1e-15 or (
            abs(err - best_err) <= 1e-15 and k > best_k
        ):
            best_err = err
            best_k = k
    return ref * 2.0 ** (best_k / 24.0)


def count_regions(mask) -> int:
    """4-connected components of a 2D boolean mask, plain BFS."""
    n_r = len(mask)
    n_p = len(mask[0]) if n_r else 0
    seen = [[False] * n_p for _ in range(n_r)]
    regions = 0
    for i0 in range(n_r):
        for j0 in range(n_p):
            if not mask[i0][j0] or seen[i0][j0]:
                continue
            regions += 1
            queue = [(i0, j0)]
            seen[i0][j0] = True
            while queue:
                i, j = queue.pop()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b = i + di, j + dj
                    if 0 <= a < n_r and 0 <= b < n_p and mask[a][b] and not seen[a][b]:
                        seen[a][b] = True
                        queue.append((a, b))
    return regions


def simpson_mass(values, r_edges, p_edges) -> float:
    """Signed cell-sum mass, written independently of the package internals."""
    total = 0.0
    for i in range(len(values)):
        dr = r_edges[i + 1] - r_edges[i]
        for j in range(len(values[0])):
            dp = p_edges[j + 1] - p_edges[j]
            total += values[i][j] * dr * dp
    return total


def psi_grid():
    """Sample points of the tests' wavefunctions: 2049 uniform nodes over
    +-12, wide enough for low oscillator states."""
    return np.linspace(-12.0, 12.0, 2049)


def transform_bound(x, coef, r):
    """Upper bound on |W(r, p)| over every p, for each r inside the span
    of the uniform samples x, of the transform that SampledState takes of
    the spline with coefficients coef (highest power first), exact up to
    rounding.

    The transform's row at r sums Simpson weights times the spline at
    r + y/2 times its conjugate at r - y/2. On the closed sample interval i
    the spline's modulus is at most M_i = |c0| + |c1| dx + |c2| dx^2 +
    |c3| dx^3. The nodes r + y/2 are h/2 apart, the lattice step being
    h = (x[-1] - x[0]) / (2 N) = dx (N - 1) / (2 N) <= dx/2 for N samples,
    so one interval holds at most 2 dx/h + 1 of them, whose weights (1, 4
    or 2 times h/3, and 0 past the row's last node) sum to at most
    2 dx + 4h/3 <= 8 dx/3. Their partners r - y/2 then lie in intervals
    K - i - 1 and K - i, K = floor((2r - 2 x_0)/dx), so |W(r, p)| <=
    (4 dx / (3 pi)) sum_i M_i G_{K-i} with G_j = max(M_{j-1}, M_j): one
    convolution for all r. The spline rings past its last nonzero sample,
    and M follows it there.
    """
    step = (x[-1] - x[0]) / (x.size - 1)
    c3, c2, c1, c0 = coef
    interval = ((np.abs(c3) * step + np.abs(c2)) * step + np.abs(c1)) * step + np.abs(c0)
    edge = np.zeros(1)
    knot = np.maximum(np.concatenate([edge, interval]), np.concatenate([interval, edge]))
    pairs = np.convolve(interval, knot)  # at K: sum_i M_i G_{K-i}
    k = np.floor(2.0 * (np.asarray(r, dtype=float) - x[0]) / step)
    return (4.0 * step / (3.0 * math.pi)) * pairs[np.clip(k, 0, pairs.size - 1).astype(np.intp)]
