import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_regions, laguerre_exact
from quasitone import (
    EPS_SHIFT,
    PEAK_BOUND,
    CatState,
    CoherentState,
    DegenerateShift,
    FockState,
    QuadratureSpanTooSmall,
    SampledState,
    build_gaussian,
    build_regular,
    compute_moments,
    default_grid,
    default_psi_grid,
    eval_cat,
    eval_coherent,
    eval_fock,
    evaluate,
    harmonic_eigenstate,
    laguerre,
    sample_field,
    state_centroid,
    wigner_transform,
)
from quasitone.states import (
    _CZT_MIN_POINTS,
    _fast_len,
    _p_lattice,
    _spline_at,
    _spline_coefficients,
)


class TestLaguerre:
    def test_matches_exact_rational_series(self):
        for m in range(0, 9):
            for num, den in [(0, 1), (1, 2), (3, 1), (7, 3), (-5, 4)]:
                x = Fraction(num, den)
                want = float(laguerre_exact(m, x))
                got = laguerre(m, float(x))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_vectorized(self):
        x = np.linspace(-2, 6, 17)
        got = laguerre(3, x)
        want = np.array([float(laguerre_exact(3, Fraction(v).limit_denominator(10**12))) for v in x])
        assert np.allclose(got, want, rtol=1e-10)


class TestFock:
    def test_origin_alternating_sign(self):
        for m in range(6):
            assert eval_fock(m, 0.0, 0.0) == pytest.approx((-1) ** m / math.pi, abs=1e-15)

    def test_ground_state_is_gaussian(self):
        r = np.linspace(-3, 3, 7)
        p = np.linspace(-3, 3, 7)
        for rv in r:
            for pv in p:
                s = rv * rv + pv * pv
                assert eval_fock(0, rv, pv) == pytest.approx(math.exp(-s) / math.pi, rel=1e-14)

    def test_first_excited_zero_circle(self):
        # W_1 vanishes where 2s = 1
        s = 0.5
        rv = math.sqrt(s)
        assert abs(eval_fock(1, rv, 0.0)) < 1e-15

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            eval_fock(-1, 0.0, 0.0)


class TestCoherent:
    def test_peak_at_displacement(self):
        alpha = 1.5 - 0.5j
        assert eval_coherent(alpha, 1.5, -0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_displaced_gaussian_values(self):
        alpha = 0.7 + 0.2j
        for rv, pv in [(0.0, 0.0), (1.0, 1.0), (-2.0, 0.5)]:
            d2 = (rv - 0.7) ** 2 + (pv - 0.2) ** 2
            assert eval_coherent(alpha, rv, pv) == pytest.approx(
                1.0 / math.pi * math.exp(-d2), rel=1e-13
            )


class TestCat:
    def test_pinned_value(self):
        # at the lobe z = d = -1, h = 1/2 and z conj(d) = 1:
        # (1 + e^{-3/2} - 2 e^{-1/2}) / (pi (1 - e^{-1/2})); the transform of
        # the wavefunction gives 0.0081455178590
        want = (1.0 + math.exp(-1.5) - 2.0 * math.exp(-0.5)) / (math.pi * -math.expm1(-0.5))
        assert want == pytest.approx(0.008145517875044592, abs=1e-15)
        assert eval_cat(-1.0, -1.0, 0.0) == pytest.approx(want, abs=1e-12)

    def test_values_are_real_arrays(self):
        r = np.linspace(-4, 2, 21)
        p = np.linspace(-3, 3, 21)
        R, P = np.meshgrid(r, p, indexing="ij")
        w = eval_cat(-1.0, R, P)
        assert w.dtype == np.float64
        assert np.all(np.isfinite(w))

    def test_large_shift_approaches_displaced_gaussian(self):
        r = np.linspace(-10, -6, 41)
        p = np.linspace(-2, 2, 41)
        R, P = np.meshgrid(r, p, indexing="ij")
        diff = eval_cat(-8.0, R, P) - eval_coherent(-8.0 + 0j, R, P)
        assert np.max(np.abs(diff)) < 1e-3

    def test_degenerate_shift_raises(self):
        with pytest.raises(DegenerateShift):
            CatState(0.0)
        with pytest.raises(DegenerateShift):
            CatState(EPS_SHIFT * 0.5)
        # just above the floor is fine
        CatState(EPS_SHIFT * 2.0)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: CatState(complex(math.nan, 0.0)), "delta_alpha"),
            (lambda: CatState(-1.0, complex(0.0, math.inf)), "alpha"),
            (lambda: CoherentState(complex(math.inf, 0.0)), "alpha"),
        ],
        ids=["cat-shift", "cat-carrier", "coherent"],
    )
    def test_nonfinite_displacement_raises(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()

    def test_array_of_shifts_is_one_shift_at_a_time(self):
        # bit for bit, real and complex shifts mixed, and every shift checked
        shifts = np.array([-1.0, -2.5 + 0.5j, 0.3j, -0.002, 1.5 - 2.0j])
        r, p = np.linspace(-4, 2, 7)[:, None], np.linspace(-3, 3, 5)
        batch = eval_cat(shifts[:, None, None], r, p)
        assert batch.shape == (5, 7, 5)
        for d, w in zip(shifts, batch):
            assert np.array_equal(w, eval_cat(d, r, p))
        with pytest.raises(DegenerateShift):
            eval_cat(np.array([-1.0, EPS_SHIFT * 0.5]), r, p)

    def test_carrier_shifts_rigidly(self):
        base = eval_cat(-1.0, -1.3, 0.4)
        moved = eval_cat(-1.0, -1.3 + 2.0, 0.4 - 1.0, alpha=2.0 - 1.0j)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_interference_fringe_negative(self):
        # midpoint between the lobes carries the oscillatory term; at
        # shift -3 the fringe measures cos(3p), deepest where it hits 1
        w = eval_cat(-3.0, -1.5, 2.0 * math.pi / 3.0)
        assert w < 0.0

    def test_single_negative_fringe_region_for_unit_shift(self):
        # at shift -1 the visible negative fringe is one connected band;
        # threshold at a relative floor to ignore 1e-9-scale roundoff pockets
        r = np.linspace(-4, 2, 121)
        p = np.linspace(-3, 3, 121)
        R, P = np.meshgrid(r, p, indexing="ij")
        w = eval_cat(-1.0, R, P)
        mask = (w < -1e-6 * np.max(np.abs(w))).tolist()
        assert count_regions(mask) == 1


class TestSampledState:
    def test_requires_enough_samples(self):
        x = np.linspace(-1, 1, 4)
        psi = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            SampledState(x, psi)

    def test_requires_uniform_grid(self):
        x = np.array([0.0, 1.0, 2.0, 3.1, 4.0, 5.0, 6.0, 7.0])
        psi = np.full(8, 0.35 + 0j)
        with pytest.raises(ValueError):
            SampledState(x, psi)

    def test_requires_unit_norm(self):
        x = np.linspace(-6, 6, 101)
        psi = harmonic_eigenstate(0, x) * 1.01
        with pytest.raises(ValueError):
            SampledState(x, psi)

    def test_accepts_eigenstate(self):
        x = default_psi_grid()
        st_ = SampledState(x, harmonic_eigenstate(2, x))
        assert st_.describe()["kind"] == "psi"


class TestHarmonicEigenstate:
    def test_orthonormal(self):
        x = default_psi_grid()
        dx = x[1] - x[0]
        states = [harmonic_eigenstate(n, x) for n in range(4)]
        for a in range(4):
            for b in range(4):
                inner = np.sum(np.conj(states[a]) * states[b]) * dx
                want = 1.0 if a == b else 0.0
                assert abs(inner - want) < 1e-9


class TestWignerTransform:
    def test_matches_closed_form_first_excited(self):
        x = default_psi_grid()
        psi = harmonic_eigenstate(1, x)
        r = np.linspace(-3, 3, 11)
        p = np.linspace(-3, 3, 11)
        R, P = np.meshgrid(r, p, indexing="ij")
        w = wigner_transform(x, psi, R, P)
        assert np.max(np.abs(w - eval_fock(1, R, P))) < 1e-6

    def test_matches_closed_form_ground(self):
        x = default_psi_grid()
        psi = harmonic_eigenstate(0, x)
        assert wigner_transform(x, psi, 0.7, -0.3) == pytest.approx(
            eval_fock(0, 0.7, -0.3), abs=1e-9
        )

    def test_narrow_span_rejected(self):
        x = np.linspace(-1.5, 1.5, 301)
        psi = harmonic_eigenstate(0, x)
        norm = np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        with pytest.raises(QuadratureSpanTooSmall):
            wigner_transform(x, psi / norm, 0.0, 0.0)

    def test_scalar_and_array_agree(self):
        x = default_psi_grid()
        psi = harmonic_eigenstate(1, x)
        arr = wigner_transform(x, psi, np.array([0.5, 1.0]), np.array([0.0, 0.0]))
        one = wigner_transform(x, psi, 1.0, 0.0)
        assert arr[1] == pytest.approx(one, rel=1e-12)


def _displaced_ground(x, alpha):
    """pi^{-1/4} exp(-(x - q)^2 / 2 + i p x) for alpha = q + i p."""
    alpha = complex(alpha)
    return math.pi**-0.25 * np.exp(-((x - alpha.real) ** 2) / 2.0 + 1j * alpha.imag * x)


def _normalized(x, psi):
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))


class TestClosedFormsMatchTransform:
    """Each closed form against the transform of its own wavefunction.

    The wavefunctions are built in position space with no reference to a
    phase-space scale, so agreement pins the convention of the closed form
    to the one the transform defines.
    """

    X = default_psi_grid()
    R, P = np.meshgrid(np.linspace(-4.0, 4.0, 17), np.linspace(-4.0, 4.0, 17), indexing="ij")

    def _max_error(self, state, psi):
        w = wigner_transform(self.X, _normalized(self.X, psi), self.R, self.P)
        return np.max(np.abs(evaluate(state, self.R, self.P) - w))

    @pytest.mark.parametrize("alpha", [0.7 + 0.2j, -1.0 + 0j, 1.5 - 0.5j])
    def test_coherent(self, alpha):
        psi = _displaced_ground(self.X, alpha)
        assert self._max_error(CoherentState(alpha), psi) < 1e-6

    @pytest.mark.parametrize("delta", [-1.0 + 0j, -2.0 + 0j, -1.0 + 0.5j])
    def test_cat(self, delta):
        # |d> - <0|d> |0>, with the overlap taken numerically
        ground = _displaced_ground(self.X, 0j)
        lobe = _displaced_ground(self.X, delta)
        overlap = np.sum(np.conj(ground) * lobe) * (self.X[1] - self.X[0])
        psi = lobe - overlap * ground
        assert self._max_error(CatState(delta), psi) < 1e-6

    def test_vacuum_is_one_state(self):
        for rv, pv in [(0.0, 0.0), (0.5, -0.3), (-1.2, 0.8), (2.0, 1.5)]:
            assert evaluate(FockState(0), rv, pv) == pytest.approx(
                evaluate(CoherentState(0j), rv, pv), rel=0, abs=1e-15
            )


def _dense(x, psi, r, p):
    """Transform by the dense product alone: rows too short for chirp-z."""
    r, p = np.broadcast_arrays(np.ravel(r), np.ravel(p))
    k = _CZT_MIN_POINTS - 1
    chunks = [wigner_transform(x, psi, r[i : i + k], p[i : i + k]) for i in range(0, r.size, k)]
    return np.concatenate([np.atleast_1d(c) for c in chunks])


class TestChirpZRows:
    """Uniform p rows are summed by chirp-z; the dense product is the reference."""

    @staticmethod
    def _state(nodes, span):
        # complex and off-center, so every row has real and imaginary parts
        x = np.linspace(-span, span, nodes)
        psi = harmonic_eigenstate(1, x) + 0.6j * _displaced_ground(x, 1.0 + 0.8j)
        return SampledState(x, _normalized(x, psi))

    @pytest.mark.parametrize("nodes, span", [(193, 10.5), (2049, 12.0)])
    @pytest.mark.parametrize("cells, half_width, rows", [(64, 5.0, 64), (512, 10.0, 6)])
    def test_rows_match_dense_product(self, nodes, span, cells, half_width, rows):
        state = self._state(nodes, span)
        r0, p0 = state_centroid(state)
        grid = build_regular(
            r0 - half_width, r0 + half_width, p0 - half_width, p0 + half_width, cells, cells
        )
        assert _p_lattice(grid.p_centers) is not None
        w = sample_field(state, grid).values
        # every row of the small grid; six of the large one, both edge rows included
        picks = np.unique(np.linspace(0, cells - 1, rows).round().astype(int))
        for i in picks:
            want = _dense(state.x, state.psi, grid.r_centers[i], grid.p_centers)
            assert np.max(np.abs(w[i] - want)) < 1e-12

    def test_row_order_does_not_matter(self):
        state = self._state(193, 10.5)
        r = np.linspace(-3.0, 3.0, 9)
        p = np.linspace(-4.0, 4.0, 33)
        R, P = np.meshgrid(r, p, indexing="ij")
        ordered = wigner_transform(state.x, state.psi, R, P)
        descending = wigner_transform(state.x, state.psi, R[:, ::-1], P[:, ::-1])
        np.testing.assert_array_equal(descending[:, ::-1], ordered)
        perm = np.random.default_rng(7).permutation(R.size)
        shuffled = wigner_transform(state.x, state.psi, R.ravel()[perm], P.ravel()[perm])
        np.testing.assert_array_equal(shuffled, ordered.ravel()[perm])

    def test_gaussian_grid_takes_dense_path(self):
        x = default_psi_grid()
        state = SampledState(x, harmonic_eigenstate(1, x))
        moments = compute_moments(sample_field(state, default_grid(state)))
        grid = build_gaussian(moments, 24, 24)
        assert _p_lattice(grid.p_centers) is None
        R, P = np.meshgrid(grid.r_centers, grid.p_centers, indexing="ij")
        w = sample_field(state, grid).values
        assert np.max(np.abs(w - eval_fock(1, R, P))) < 1e-6


class TestSpline:
    """The not-a-knot spline the transform interpolates the samples with."""

    @staticmethod
    def _points(x):
        # every knot, scattered interior points and a little beyond each end
        h = x[1] - x[0]
        inside = np.random.default_rng(3).uniform(x[0], x[-1], 5000)
        return np.concatenate([x, inside, [x[0] - 0.7 * h, x[-1] + 0.7 * h]])

    @pytest.mark.parametrize("nodes, span", [(257, 10.5), (2049, 12.0)])
    def test_matches_scipy_cubic_spline(self, nodes, span):
        interpolate = pytest.importorskip("scipy.interpolate")
        x = np.linspace(-span, span, nodes)
        # a wavefunction plus a wave that does not decay, so the end
        # conditions show in the end intervals
        psi = harmonic_eigenstate(1, x) + 0.6j * _displaced_ground(x, 1.0 + 0.8j)
        psi = psi + 0.3 * np.exp(0.7j * x) * np.cos(0.9 * x)
        t = self._points(x)
        want = interpolate.CubicSpline(x, psi)(t)
        got = _spline_at(x, _spline_coefficients(x, psi), t)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_reproduces_a_cubic(self):
        # a cubic meets the not-a-knot conditions, so it is its own spline,
        # and the end cubics extend it beyond the knots
        def cubic(t):
            return (0.5 - 2j) * t**3 + (1 + 1j) * t**2 - 3.0 * t + 0.25j

        x = np.linspace(-3.0, 2.0, 11)
        t = self._points(x)
        got = _spline_at(x, _spline_coefficients(x, cubic(x)), t)
        assert np.max(np.abs(got - cubic(t))) < 1e-12

    def test_fft_lengths_match_scipy(self):
        fft = pytest.importorskip("scipy.fft")
        sizes = range(1, 5000)
        assert [_fast_len(n) for n in sizes] == [fft.next_fast_len(n) for n in sizes]


class TestEvaluateAndCentroid:
    def test_dispatch_matches_direct(self):
        assert evaluate(FockState(2), 0.3, -0.4) == pytest.approx(
            eval_fock(2, 0.3, -0.4), rel=1e-14
        )
        assert evaluate(CoherentState(1j), 0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert evaluate(CatState(-2.0), -2.0, 0.0) == pytest.approx(
            eval_cat(-2.0, -2.0, 0.0), rel=1e-14
        )

    def test_centroids(self):
        assert state_centroid(FockState(3)) == (0.0, 0.0)
        assert state_centroid(CoherentState(1.0 + 2.0j)) == (1.0, 2.0)
        r0, p0 = state_centroid(CatState(-1.0))
        assert r0 == pytest.approx(-1.0, abs=1e-12)
        assert p0 == pytest.approx(0.0, abs=1e-12)

    def test_sampled_centroid_tracks_displacement(self):
        x = default_psi_grid()
        shifted = harmonic_eigenstate(0, x - 2.0)
        dx = x[1] - x[0]
        shifted = shifted / np.sqrt(np.sum(np.abs(shifted) ** 2) * dx)
        boosted = shifted * np.exp(1.5j * x)
        state = SampledState(x, boosted)
        r0, p0 = state_centroid(state)
        # the momentum read uses a finite-difference derivative, so its
        # accuracy is quadratic in the sample spacing
        assert r0 == pytest.approx(2.0, abs=1e-3)
        assert p0 == pytest.approx(1.5, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=6),
    rv=st.floats(min_value=-4, max_value=4),
    pv=st.floats(min_value=-4, max_value=4),
)
def test_fock_peak_bound(m, rv, pv):
    assert abs(eval_fock(m, rv, pv)) <= PEAK_BOUND + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    dre=st.floats(min_value=-4, max_value=-0.1),
    rv=st.floats(min_value=-6, max_value=6),
    pv=st.floats(min_value=-6, max_value=6),
)
def test_cat_peak_bound(dre, rv, pv):
    assert abs(eval_cat(dre, rv, pv)) <= PEAK_BOUND + 1e-9
