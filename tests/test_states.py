import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_regions, laguerre_exact, psi_grid, transform_bound
from quasitone import (
    EPS_SHIFT,
    PEAK_BOUND,
    CatState,
    CoherentState,
    DegenerateShift,
    FockState,
    MomentumUnresolved,
    QuadratureSpanTooSmall,
    SampledState,
    build_gaussian,
    build_regular,
    compute_moments,
    default_grid,
    eval_cat,
    eval_coherent,
    eval_fock,
    evaluate,
    harmonic_eigenstate,
    laguerre,
    sample_field,
)
from quasitone import grids, states
from quasitone.states import (
    _CZT_MIN_POINTS,
    _FOCK_MAX,
    _SHIFT_MAX,
    _fast_len,
    _lattice,
    _p_lattice,
    _spline_at,
    _spline_coefficients,
    _transform,
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

    def test_state_and_formula_refuse_a_shift_alike(self):
        # one check behind both, naming the shift
        for shift in (0.0, 4e-4j, complex(math.nan, 1.0), 1e200):
            with pytest.raises((ValueError, DegenerateShift)) as state_error:
                CatState(shift)
            with pytest.raises((ValueError, DegenerateShift)) as formula_error:
                eval_cat(np.array([-1.0, shift]), 0.0, 0.0)
            assert type(state_error.value) is type(formula_error.value)
            assert str(state_error.value) == str(formula_error.value)
            assert repr(complex(shift)) in str(state_error.value)
        with pytest.raises(DegenerateShift, match=r"^\|delta_alpha\| = 0.0004 <= 0.001 for delta_alpha = 0.0004j;"):
            CatState(4e-4j)

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: CatState(complex(math.nan, 0.0)),
                r"^\|delta_alpha\|\^2 of delta_alpha = \(nan\+0j\) is not finite",
            ),
            (lambda: CoherentState(complex(math.inf, 0.0)), "^alpha must be finite"),
        ],
        ids=["cat-shift", "coherent"],
    )
    def test_nonfinite_displacement_raises(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "shift", [1e200, complex(-3.0, 1e160), complex(1.5e308, 1.5e308)],
        ids=["real", "imaginary", "abs-overflows"],
    )
    def test_shift_whose_square_overflows_raises(self, shift):
        # |d|^2 is not a float: refused naming the shift, never an
        # OverflowError from abs(d) ** 2, and with no RuntimeWarning
        with pytest.raises(ValueError, match=r"\|delta_alpha\|\^2 of delta_alpha = .* is not finite"):
            CatState(shift)
        with pytest.raises(ValueError, match="is not finite"):
            eval_cat(np.array([-1.0, shift]), 0.0, 0.0)
        # the largest squares that still fit evaluate as before
        assert eval_cat(1e154, 0.0, 0.0) == 0.0

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
        x = psi_grid()
        st_ = SampledState(x, harmonic_eigenstate(2, x))
        assert st_.describe()["kind"] == "psi"

    def test_holds_read_only_copies_and_its_spline(self):
        x = psi_grid()
        psi = harmonic_eigenstate(2, x).astype(complex)
        state = SampledState(x, psi)
        assert len(state.coef) == 4
        for a in (state.x, state.psi, *state.coef):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        with pytest.raises(AttributeError):
            state.coef = ()
        # the caller's arrays stay the caller's
        assert x.flags.writeable and psi.flags.writeable
        first = state.psi[0]
        psi[0] = 1.0
        assert state.psi[0] == first != 1.0
        t = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_array_equal(
            _spline_at(state.x, state.coef, t), _spline_at(x, _spline_coefficients(x, state.psi), t)
        )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestFarPoints:
    """Far from a closed form's lobes, where its exponentials underflow,
    the value is +0: never NaN from 0 * inf, and never an overflow, which
    this suite turns into an error. Every value the formula as written
    gives finite keeps its bits."""

    # every scale from the lobes out to the largest float, both signs
    T = np.concatenate([np.linspace(-40.0, 40.0, 161), np.geomspace(1.0, 1.7e308, 160)])
    T = np.concatenate([T, -T[161:]])

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 20])
    def test_fock(self, m):
        r, p = self.T[:, None], self.T[None, :]
        with np.errstate(all="ignore"):
            s = r * r + p * p
            want = ((-1.0) ** m / math.pi) * np.exp(-s) * laguerre(m, 2.0 * s)
        got = eval_fock(m, r, p)
        kept = np.isfinite(want)
        assert kept.all() == (m == 0)  # L_0 = 1 never overflows
        np.testing.assert_array_equal(_bits(got[kept]), _bits(want[kept]))
        np.testing.assert_array_equal(_bits(got[~kept]), _bits(0.0))

    @pytest.mark.parametrize(
        "alpha", [0j, 1.5 - 2.0j, 1e200 + 0j, -3e150j, -1e308 + 0j, complex(1.7e308, -1.7e308)]
    )
    def test_coherent(self, alpha):
        r, p = self.T[:, None], self.T[None, :]
        with np.errstate(all="ignore"):
            want = PEAK_BOUND * np.exp(-((r - alpha.real) ** 2 + (p - alpha.imag) ** 2))
        got = eval_coherent(alpha, r, p)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("shift", [3.0, -1.0 + 2.0j, 1e150, -2e100j])
    def test_cat_is_zero_outside_its_lobes(self, shift):
        r, p = self.T[:, None], self.T[None, :]
        d = complex(shift)
        far = (np.abs(r) > 2.0 * abs(d.real) + 28.0) | (np.abs(p) > 2.0 * abs(d.imag) + 28.0)
        got = eval_cat(shift, r, p)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(_bits(got[far]), _bits(0.0))

    @pytest.mark.parametrize("shift", [3.0, -1.0 + 2.0j, 0.5j, 54.0 + 1.0j, 1e150, -2e100j])
    def test_cat_keeps_the_bits_of_its_formula(self, shift):
        # every value the formula as written forms finite, at full size and
        # unclipped, keeps its bits
        r, p = self.T[:, None], self.T[None, :]
        d = complex(shift)
        h = abs(d) ** 2 / 2.0
        with np.errstate(all="ignore"):
            damped = -h - (r * r + p * p)
            want = np.exp(-((r - d.real) ** 2) - (p - d.imag) ** 2) + np.exp(damped)
            fringe = np.exp(damped + r * d.real + p * d.imag) * (2.0 * np.cos(p * d.real - r * d.imag))
            want = (want - fringe) / (math.pi * -math.expm1(-h))
        got = eval_cat(shift, r, p)
        kept = np.isfinite(want)
        np.testing.assert_array_equal(_bits(got[kept]), _bits(want[kept]))

    @pytest.mark.parametrize("angle", np.linspace(0.0, 2.0 * math.pi, 13))
    def test_cat_at_the_largest_shift_is_finite(self, angle):
        # out to the largest double, and at the multiples of the shift where
        # its lobes and fringes sit; an overflow is an error under this suite
        d = cmath.rect(_SHIFT_MAX * (1.0 - 2.0**-52), angle)
        assert abs(d) <= _SHIFT_MAX
        t = np.concatenate([self.T, np.linspace(-2.0, 2.0, 81) * _SHIFT_MAX])
        assert np.all(np.isfinite(eval_cat(d, t[:, None], t[None, :])))

    def test_shift_past_the_largest_is_refused(self):
        shift = 1.0000000000000002e154
        message = r"^\|delta_alpha\| = 1e\+154 of delta_alpha = \(1\.0000000000000002e\+154\+0j\) exceeds 1e\+154"
        with pytest.raises(ValueError, match=message):
            CatState(shift)
        with pytest.raises(ValueError, match=message):
            eval_cat(np.array([-1.0, shift]), 0.0, 0.0)
        assert CatState(_SHIFT_MAX).delta_alpha == _SHIFT_MAX


class TestLargestPhotonNumber:
    """Above _FOCK_MAX, L_m(2 s) overflows inside the clip box while
    exp(-s) is 0, so W_m would be NaN there; such m are refused."""

    def test_largest_is_finite_on_the_whole_axis(self):
        # W_m depends on s = min(r^2 + p^2, 28^2) alone, so the r axis to 28
        # covers the clip box; a RuntimeWarning is an error under this suite
        r = np.concatenate([np.arange(28001) * 0.001, [1e9]])
        assert np.all(np.isfinite(eval_fock(_FOCK_MAX, r, 0.0)))
        assert FockState(_FOCK_MAX).m == 287

    @pytest.mark.parametrize("m", [_FOCK_MAX + 1, 400])
    def test_larger_is_refused_naming_it(self, m):
        message = f"^photon number {m} exceeds 287"
        with pytest.raises(ValueError, match=message):
            FockState(m)
        with pytest.raises(ValueError, match=message):
            eval_fock(m, 0.0, 0.0)


class TestHarmonicEigenstate:
    def test_orthonormal(self):
        x = psi_grid()
        dx = x[1] - x[0]
        states = [harmonic_eigenstate(n, x) for n in range(4)]
        for a in range(4):
            for b in range(4):
                inner = np.sum(np.conj(states[a]) * states[b]) * dx
                want = 1.0 if a == b else 0.0
                assert abs(inner - want) < 1e-9


class TestWignerTransform:
    def test_matches_closed_form_first_excited(self):
        x = psi_grid()
        psi = harmonic_eigenstate(1, x)
        r = np.linspace(-3, 3, 11)
        p = np.linspace(-3, 3, 11)
        R, P = np.meshgrid(r, p, indexing="ij")
        w = evaluate(SampledState(x, psi), R, P)
        assert np.max(np.abs(w - eval_fock(1, R, P))) < 1e-6

    def test_matches_closed_form_ground(self):
        x = psi_grid()
        psi = harmonic_eigenstate(0, x)
        assert evaluate(SampledState(x, psi), 0.7, -0.3) == pytest.approx(
            eval_fock(0, 0.7, -0.3), abs=1e-9
        )

    def test_narrow_span_rejected(self):
        x = np.linspace(-1.5, 1.5, 301)
        psi = harmonic_eigenstate(0, x)
        norm = np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        with pytest.raises(QuadratureSpanTooSmall):
            evaluate(SampledState(x, psi / norm), 0.0, 0.0)

    def test_nan_r_refused_as_outside_the_span(self):
        # its half span was NaN, and the lattice cast it to an int with a
        # RuntimeWarning
        state = SampledState(psi_grid(), harmonic_eigenstate(0, psi_grid()))
        with pytest.raises(QuadratureSpanTooSmall, match="^evaluation point r = nan lies outside the sample span$"):
            evaluate(state, np.array([0.0, np.nan]), 0.0)

    def test_scalar_and_array_agree(self):
        x = psi_grid()
        psi = harmonic_eigenstate(1, x)
        state = SampledState(x, psi)
        arr = evaluate(state, np.array([0.5, 1.0]), np.array([0.0, 0.0]))
        one = evaluate(state, 1.0, 0.0)
        assert arr[1] == pytest.approx(one, rel=1e-12)


def _displaced_ground(x, alpha):
    """pi^{-1/4} exp(-(x - q)^2 / 2 + i p x) for alpha = q + i p."""
    alpha = complex(alpha)
    return math.pi**-0.25 * np.exp(-((x - alpha.real) ** 2) / 2.0 + 1j * alpha.imag * x)


def _normalized(x, psi):
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))


def _sampled_ground(alpha):
    """The displaced ground state on the benchmark's 257 samples over +-10.5."""
    x = np.linspace(-10.5, 10.5, 257)
    return SampledState(x, _normalized(x, _displaced_ground(x, alpha)))


class TestClosedFormsMatchTransform:
    """Each closed form against the transform of its own wavefunction.

    The wavefunctions are built in position space with no reference to a
    phase-space scale, so agreement pins the convention of the closed form
    to the one the transform defines.
    """

    X = psi_grid()
    R, P = np.meshgrid(np.linspace(-4.0, 4.0, 17), np.linspace(-4.0, 4.0, 17), indexing="ij")

    def _max_error(self, state, psi):
        w = evaluate(SampledState(self.X, _normalized(self.X, psi)), self.R, self.P)
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


def _dense(state, r, p):
    """Transform by the dense product alone: rows too short for chirp-z."""
    r, p = np.broadcast_arrays(np.ravel(r), np.ravel(p))
    k = _CZT_MIN_POINTS - 1
    chunks = [evaluate(state, r[i : i + k], p[i : i + k]) for i in range(0, r.size, k)]
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
        r0, p0 = state.centroid
        grid = build_regular(
            r0 - half_width, r0 + half_width, p0 - half_width, p0 + half_width, cells, cells
        )
        assert _p_lattice(grid.p_centers) is not None
        w = sample_field(state, grid).values
        # every row of the small grid; six of the large one, both edge rows included
        picks = np.unique(np.linspace(0, cells - 1, rows).round().astype(int))
        for i in picks:
            want = _dense(state, grid.r_centers[i], grid.p_centers)
            assert np.max(np.abs(w[i] - want)) < 1e-12

    def test_row_order_does_not_matter(self):
        state = self._state(193, 10.5)
        r = np.linspace(-3.0, 3.0, 9)
        p = np.linspace(-4.0, 4.0, 33)
        R, P = np.meshgrid(r, p, indexing="ij")
        ordered = evaluate(state, R, P)
        descending = evaluate(state, R[:, ::-1], P[:, ::-1])
        np.testing.assert_array_equal(descending[:, ::-1], ordered)
        perm = np.random.default_rng(7).permutation(R.size)
        shuffled = evaluate(state, R.ravel()[perm], P.ravel()[perm])
        np.testing.assert_array_equal(shuffled, ordered.ravel()[perm])

    def test_gaussian_grid_takes_dense_path(self):
        x = psi_grid()
        state = SampledState(x, harmonic_eigenstate(1, x))
        moments = compute_moments(sample_field(state, default_grid(state)))
        grid = build_gaussian(moments, 24, 24)
        assert _p_lattice(grid.p_centers) is None
        R, P = np.meshgrid(grid.r_centers, grid.p_centers, indexing="ij")
        w = sample_field(state, grid).values
        assert np.max(np.abs(w - eval_fock(1, R, P))) < 1e-6


class TestTransformTable:
    """The transform sums the table of a call's distinct r by its distinct
    p: one lattice decision per call, whatever the points' layout."""

    STATE = TestChirpZRows._state(193, 10.5)

    @staticmethod
    def _counted_lattice(monkeypatch):
        calls = []
        lattice = states._p_lattice
        monkeypatch.setattr(states, "_p_lattice", lambda ps: calls.append(ps.size) or lattice(ps))
        return calls

    def test_one_lattice_decision_for_a_field(self, monkeypatch):
        calls = self._counted_lattice(monkeypatch)
        sample_field(self.STATE, default_grid(self.STATE))
        assert calls == [64]

    def test_one_lattice_decision_per_block_of_the_coverage_split(self, monkeypatch):
        # coverage evaluates the default grid's cells split 2 x 2 in blocks
        # of rows, one call each, whose 128 split p centers are a lattice
        field = sample_field(self.STATE, default_grid(self.STATE))
        calls = self._counted_lattice(monkeypatch)
        rows, evaluate = [], grids.evaluate
        monkeypatch.setattr(grids, "evaluate", lambda s, r, p: rows.append(r.size) or evaluate(s, r, p))
        grids.coverage(field)
        assert rows == [grids._SPLIT_BLOCK_ROWS] * 4
        assert calls == [128] * 4

    def test_points_that_do_not_fill_the_table_take_the_dense_product(self, monkeypatch):
        # a diagonal of a 512-value lattice: chirp-z would sum 512^2 cells
        # for 512 points, so each point gets the dense product instead
        t = np.linspace(-4.0, 4.0, 512)
        monkeypatch.setattr(states, "_czt", None)
        w = evaluate(self.STATE, t, t)
        assert w.shape == (512,)
        assert w[100] == evaluate(self.STATE, t[100], t[100])

    @staticmethod
    def _layout(kind, r, p, rng):
        """Points (r, p) on the grid r x p, laid out as `kind`."""
        R, P = np.meshgrid(r, p, indexing="ij")
        if kind == "outer":
            return r[:, None], p
        if kind == "meshgrid":
            return R, P
        if kind == "reversed":
            return R[::-1, ::-1], P[::-1, ::-1]
        if kind == "shuffled":
            perm = rng.permutation(R.size)
            return R.ravel()[perm], P.ravel()[perm]
        if kind == "duplicates":
            pick = rng.integers(0, R.size, 2 * R.size)
            return R.ravel()[pick], P.ravel()[pick]
        if kind == "subset":
            keep = rng.random(R.size) < 0.5
            return R.ravel()[keep], P.ravel()[keep]
        # scattered: every point its own r and p
        return rng.uniform(r[0], r[-1], R.size), rng.uniform(p[0], p[-1], R.size)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(
            ["outer", "meshgrid", "reversed", "shuffled", "duplicates", "subset", "scattered"]
        ),
        n_r=st.integers(1, 6),
        n_p=st.integers(1, 12),
        r0=st.floats(-4.0, 4.0),
        p0=st.floats(-5.0, 5.0),
        width=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_every_layout_matches_each_point_alone(self, kind, n_r, n_p, r0, p0, width, seed):
        r = r0 + width * (np.arange(n_r) + 0.5) / n_r
        p = p0 + 2.0 * width * (np.arange(n_p) + 0.5) / n_p
        R, P = self._layout(kind, r, p, np.random.default_rng(seed))
        got = evaluate(self.STATE, R, P)
        Rb, Pb = np.broadcast_arrays(R, P)
        assert np.shape(got) == Rb.shape
        alone = [evaluate(self.STATE, float(a), float(b)) for a, b in zip(Rb.ravel(), Pb.ravel())]
        assert np.max(np.abs(np.ravel(got) - alone), initial=0.0) < 1e-12

    def test_dense_chunks_keep_the_peak_of_one_row(self):
        # a 64 x 64 Gaussian-quantile grid is dense; at 257 nodes each chunk
        # holds one row of 64 cells, and the peak stays at the 1.22 MB that
        # the per-row dense product took before (chunks of whole rows alone
        # would hold 63 rows at once, tens of MB)
        x = np.linspace(-10.5, 10.5, 257)
        state = SampledState(x, _normalized(x, harmonic_eigenstate(2, x)))
        grid = build_gaussian(compute_moments(sample_field(state, default_grid(state))), 64, 64, 3.0)
        assert _p_lattice(grid.p_centers) is None
        r, p = grid.r_centers[:, None], grid.p_centers
        tracemalloc.start()
        try:
            evaluate(state, r, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.22e6


class TestLattice:
    """Every row of a sampled state sums on the one y lattice y_k = k h,
    |k| <= x.size, over its own nodes |k| <= K_r."""

    @pytest.mark.parametrize("span", [0.37, 1.0, 7.0, 10.5, 12.0, 123.4])
    @pytest.mark.parametrize("left", [-1.0, -1 / 3, 0.0, 1.25])
    def test_central_row_keeps_its_outermost_node(self, span, left):
        # n h, computed, can land just past the half span (x[-1] - x[0]) / 2
        # of the central row; without slack 535 of these 4104 cases drop it
        for nodes in range(8, 1200, 7):
            x = np.linspace(left * span, (left + 2.0) * span, nodes)
            r = 0.5 * (x[0] + x[-1])
            y, reach = _lattice(x, np.array([min(x[-1] - r, r - x[0])]))
            assert reach[0] == nodes
            np.testing.assert_array_equal(y[::-1], -y)

    def test_rows_are_simpson_sums_on_their_nodes(self):
        # each row, one node at a time: Simpson's rule over the lattice
        # nodes k h <= H_r, with the spline at r + y/2 and r - y/2
        state = TestChirpZRows._state(193, 10.5)
        x = state.x
        h = (x[-1] - x[0]) / (2 * x.size)
        p = np.linspace(-4.0, 4.0, 9)
        r = np.array([x[0] + 0.3 * h, x[0] + 2.7 * h, -6.3, 0.0, 0.41, 7.9, x[-1] - 1.2 * h])
        got = evaluate(state, r[:, None], p)
        for i, rv in enumerate(r):
            half = min(x[-1] - rv, rv - x[0])
            reach = max(k for k in range(x.size + 1) if k * h <= half)
            want = np.zeros(p.size)
            for k in range(-reach, reach + 1):
                j = k + reach
                w = 0.0 if reach == 0 else 1.0 if j in (0, 2 * reach) else 4.0 if j % 2 else 2.0
                y = k * h
                core = _spline_at(x, state.coef, rv + y / 2) * np.conj(_spline_at(x, state.coef, rv - y / 2))
                want += w * h / 3.0 * (core * np.exp(-1j * p * y)).real
            assert np.max(np.abs(got[i] - want / (2.0 * math.pi))) < 1e-13

    @pytest.mark.parametrize("steps, zero", [(0.4, True), (0.999, True), (1.5, False), (2.5, False)])
    def test_edge_rows_agree_on_both_paths(self, steps, zero):
        # a row less than one lattice step from the span's edge has one node
        # and no interval (K_r = 0) and sums to 0; the next rows are short
        x = np.linspace(-10.5, 10.5, 257)
        state = SampledState(x, _normalized(x, harmonic_eigenstate(1, x) * np.exp(0.8j * x)))
        h = (x[-1] - x[0]) / (2 * x.size)
        r = np.array([x[0] + steps * h, x[-1] - steps * h])
        p = np.linspace(-3.0, 3.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chirp = evaluate(state, r[:, None], p)
            dense = np.stack([_dense(state, v, p) for v in r])
        assert np.all(np.isfinite(chirp)) and np.max(np.abs(chirp - dense)) < 1e-12
        assert np.all(chirp == 0.0) == zero


class TestMomentumLimit:
    """Simpson's 4, 2 weights fold p onto p -+ pi/h; from pi / (2 h) on
    evaluate refuses the sampled state's p, whoever asks."""

    @staticmethod
    def _fock(n, nodes):
        x = np.linspace(-10.5, 10.5, nodes)
        return SampledState(x, _normalized(x, harmonic_eigenstate(n, x)))

    def test_limit_of_the_benchmark_states(self):
        assert self._fock(0, 257).momentum_limit == pytest.approx(38.4471, abs=1e-4)
        assert self._fock(0, 193).momentum_limit == pytest.approx(28.8727, abs=1e-4)

    @pytest.mark.parametrize("nodes, n", [(257, 0), (257, 1), (257, 2), (257, 3), (193, 0), (193, 1)])
    def test_agrees_with_the_closed_form_just_inside_the_limit(self, nodes, n):
        # the benchmark's states, each within 1e-6 of its closed form
        state = self._fock(n, nodes)
        limit = state.momentum_limit
        r = np.linspace(-3.0, 3.0, 7)[:, None]
        for p in (0.5 * limit, 0.999 * limit, -0.999 * limit):
            assert np.max(np.abs(evaluate(state, r, p) - eval_fock(n, r, p))) < 1e-6

    def test_grid_reaching_the_limit_is_refused_naming_p(self):
        state = self._fock(1, 257)
        inside = build_regular(-3.0, 3.0, 30.0, 38.0, 4, 4)
        assert np.all(np.isfinite(sample_field(state, inside).values))
        grid = build_regular(-3.0, 3.0, 30.0, 40.0, 4, 4)
        with pytest.raises(MomentumUnresolved, match=r"^p = 38\.75 reaches \|p\| >= 38\.4471"):
            sample_field(state, grid)
        # a closed form resolves every p
        assert np.all(np.isfinite(sample_field(FockState(1), grid).values))

    def test_split_cells_reaching_the_limit_are_refused(self):
        # the grid's last p center, 38.05, lies inside 38.4471; the split
        # cells' last, a quarter cell further out at 38.625, does not
        state = self._fock(1, 257)
        field = sample_field(state, build_regular(-3.0, 3.0, 30.0, 39.2, 4, 4))
        with pytest.raises(MomentumUnresolved, match=r"^p = 38\.625 reaches \|p\| >= 38\.4471 "):
            grids.coverage(field)

    @pytest.mark.parametrize(
        "r, p, named",
        [
            (0.3, 77.0, "77"),
            (np.linspace(-3.0, 3.0, 5)[:, None], np.linspace(-40.0, 40.0, 9), "-40"),
            (np.array([0.1, -0.4, 1.2]), np.array([3.0, -38.45, 50.0]), "-38.45"),
        ],
        ids=["scalar", "grid", "scattered"],
    )
    def test_evaluate_refuses_the_first_unresolved_p(self, r, p, named):
        # without the check, the sum at 77 folds onto 77 - 76.894 and reads
        # -0.0765 at r = 0.3, where the closed form is 0
        state = self._fock(1, 257)
        assert float(_transform(state, np.asarray(0.3), np.asarray(77.0))) == pytest.approx(-0.0765, abs=1e-4)
        message = rf"^p = {named} reaches \|p\| >= 38\.4471 = pi / \(2 h\), .* 257-sample wavefunction"
        with pytest.raises(MomentumUnresolved, match=message):
            evaluate(state, r, p)


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

    @pytest.mark.parametrize("nodes", [8, 9, 12, 16, 33, 64])
    def test_matches_scipy_on_random_samples(self, nodes):
        # on few knots the corrections that meet the two end rows reach
        # each other; rough complex samples exercise both at once
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(nodes)
        x = np.linspace(-3.0, 2.0, nodes)
        y = rng.normal(size=nodes) + 1j * rng.normal(size=nodes)
        t = self._points(x)
        want = interpolate.CubicSpline(x, y)(t)
        got = _spline_at(x, _spline_coefficients(x, y), t)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(y))

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


class TestTransformBound:
    """The bound of oracles.transform_bound holds |W| over every p at each
    r, on the spline the transform evaluates, including past a last
    nonzero sample."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda x: harmonic_eigenstate(3, x), id="n3"),
            pytest.param(lambda x: _displaced_ground(x, 1.5 - 2.0j), id="displaced"),
            pytest.param(lambda x: (np.abs(x) <= 2.0) * 1.0, id="box"),
            pytest.param(lambda x: harmonic_eigenstate(1, x) * (np.abs(x) <= 4.0), id="n1-cut"),
            pytest.param(lambda x: (np.arange(x.size) == x.size // 2 + 3) * 1.0, id="one-sample"),
        ],
    )
    @pytest.mark.parametrize("nodes", [33, 257])
    def test_bounds_every_point(self, make, nodes):
        x = np.linspace(-10.5, 10.5, nodes)
        psi = _normalized(x, make(x).astype(complex))
        rng = np.random.default_rng(nodes)
        # knots, midpoints and scattered rows, at p = 0 and scattered p
        r = np.concatenate([x[1:-1], 0.5 * (x[1:] + x[:-1]), rng.uniform(x[0], x[-1], 400)])
        p = np.concatenate([np.zeros(2 * nodes - 3), rng.uniform(-30.0, 30.0, 400)])
        state = SampledState(x, psi)
        # the raw sum: at 33 samples most of these p lie past momentum_limit
        w = np.abs(_transform(state, r, p))
        bound = transform_bound(state.x, state.coef, r)
        assert np.all(w <= bound)
        assert np.all(w[bound == 0.0] == 0.0)


class TestEvaluateAndCentroid:
    def test_dispatch_matches_direct(self):
        assert evaluate(FockState(2), 0.3, -0.4) == pytest.approx(
            eval_fock(2, 0.3, -0.4), rel=1e-14
        )
        assert evaluate(CoherentState(1j), 0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert evaluate(CatState(-2.0), -2.0, 0.0) == pytest.approx(
            eval_cat(-2.0, -2.0, 0.0), rel=1e-14
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FockState(2),
            lambda: CatState(-1.0 + 0.5j),
            lambda: CoherentState(0.8 - 0.6j),
            lambda: _sampled_ground(0.5 + 1j),
        ],
        ids=["fock", "cat", "coherent", "psi"],
    )
    def test_evaluate_is_the_state_wigner(self, make):
        state = make()
        r, p = np.linspace(-3.0, 3.0, 9)[:, None], np.linspace(-2.0, 2.0, 11)
        assert np.array_equal(evaluate(state, r, p), state.wigner(r, p))
        value = evaluate(state, 0.3, -0.4)
        assert type(value) is float and value == state.wigner(0.3, -0.4)
        if isinstance(state, SampledState):
            with pytest.raises(MomentumUnresolved, match=r"^p = 1e\+300 reaches"):
                evaluate(state, 0.3, 1e300)
        else:  # a closed form answers every p
            assert not hasattr(state, "momentum_limit")
            assert evaluate(state, 0.3, 1e300) == 0.0

    def test_centroids(self):
        assert FockState(3).centroid == (0.0, 0.0)
        assert CoherentState(1.0 + 2.0j).centroid == (1.0, 2.0)
        r0, p0 = CatState(-1.0).centroid
        assert r0 == pytest.approx(-1.0, abs=1e-12)
        assert p0 == pytest.approx(0.0, abs=1e-12)

    def test_sampled_centroid_tracks_displacement(self):
        x = psi_grid()
        shifted = harmonic_eigenstate(0, x - 2.0)
        dx = x[1] - x[0]
        shifted = shifted / np.sqrt(np.sum(np.abs(shifted) ** 2) * dx)
        boosted = shifted * np.exp(1.5j * x)
        state = SampledState(x, boosted)
        r0, p0 = state.centroid
        assert r0 == pytest.approx(2.0, abs=1e-3)
        # the momentum is read from the samples' spectrum, not a derivative
        assert p0 == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("p0", [3.0, 10.0, 15.0, 20.0])
    def test_sampled_momentum_is_spectral(self, p0):
        # a central difference reads sin(p dx) / dx: 11.47 for 15, 12.14 for 20
        x = np.linspace(-10.5, 10.5, 257)
        state = SampledState(x, np.exp(-x * x / 2.0 + 1j * p0 * x) / np.pi**0.25)
        assert abs(state.centroid[1] - p0) <= 1e-14

    def test_real_wavefunction_has_momentum_exactly_zero(self):
        # the spectral sum alone reads about 1e-17, which would move grids
        x = np.linspace(-10.5, 10.5, 257)
        p0 = SampledState(x, harmonic_eigenstate(1, x)).centroid[1]
        assert p0 == 0.0 and math.copysign(1.0, p0) == 1.0


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
