import json

import numpy as np
import pytest

from oracles import truncated_gaussian_edges
from quasitone import (
    COVERAGE_MIN,
    CatState,
    CoherentState,
    CoverageError,
    DegenerateMoments,
    FockState,
    GridSpec,
    InvalidBounds,
    KIND_GAUSSIAN,
    KIND_REGULAR,
    SampledState,
    WignerField,
    build_gaussian,
    build_regular,
    compute_moments,
    coverage,
    default_grid,
    default_psi_grid,
    eval_fock,
    harmonic_eigenstate,
    read_field,
    require_coverage,
    sample_field,
    state_centroid,
    write_field,
)


class TestBuildRegular:
    def test_edges_and_centers(self):
        g = build_regular(-2, 2, -1, 3, 4, 8)
        assert g.kind == KIND_REGULAR
        assert np.allclose(g.r_edges, [-2, -1, 0, 1, 2])
        assert g.shape == (4, 8)
        assert np.allclose(g.r_centers, [-1.5, -0.5, 0.5, 1.5])
        assert np.allclose(g.cell_areas, 1.0 * 0.5)
        assert g.bounds == (-2.0, 2.0, -1.0, 3.0)

    def test_single_cell(self):
        g = build_regular(0, 1, 0, 1, 1, 1)
        assert g.shape == (1, 1)
        assert g.cell_areas[0, 0] == pytest.approx(1.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            build_regular(1, 1, 0, 1, 4, 4)
        with pytest.raises(InvalidBounds):
            build_regular(0, 1, 2, 1, 4, 4)
        with pytest.raises(InvalidBounds):
            build_regular(0, 1, 0, 1, 0, 4)

    def test_nonmonotone_edges_rejected(self):
        with pytest.raises(InvalidBounds):
            GridSpec(KIND_REGULAR, np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))


class TestBuildGaussian:
    def test_edges_match_bisection_oracle(self, fock0_field):
        m = compute_moments(fock0_field)
        g = build_gaussian(m, 4, 4, span_sigmas=3.0)
        assert g.kind == KIND_GAUSSIAN
        want_r = truncated_gaussian_edges(m.r0, m.sigma_r, 4, 3.0)
        assert np.allclose(g.r_edges, want_r, atol=1e-9)
        # truncation ends are clamped exactly
        assert g.r_edges[0] == m.r0 - 3.0 * m.sigma_r
        assert g.r_edges[-1] == m.r0 + 3.0 * m.sigma_r

    def test_frozen_unit_case(self):
        # unit-sigma centered case, n=4, span 3: interior edges are the
        # quantile points +/-0.672367295063 and 0
        class M:
            r0 = 0.0
            p0 = 0.0
            sigma_r = 1.0
            sigma_p = 1.0

        g = build_gaussian(M(), 4, 4, span_sigmas=3.0)
        assert g.r_edges[1] == pytest.approx(-0.672367295063, abs=1e-9)
        assert g.r_edges[2] == pytest.approx(0.0, abs=1e-12)
        assert g.r_edges[3] == pytest.approx(0.672367295063, abs=1e-9)

    def test_edges_strictly_increasing(self, fock1_field):
        m = compute_moments(fock1_field)
        g = build_gaussian(m, 33, 17, span_sigmas=4.0)
        assert np.all(np.diff(g.r_edges) > 0)
        assert np.all(np.diff(g.p_edges) > 0)
        assert g.shape == (33, 17)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_wide_span_ends_clamped(self, n):
        # at 40 sigma the end quantiles round to 0 and 1, where the inverse
        # CDF is infinite; only the interior ones may be inverted
        class M:
            r0 = 0.5
            p0 = -1.0
            sigma_r = 2.0
            sigma_p = 0.25

        g = build_gaussian(M(), n, n, span_sigmas=40.0)
        for edges, mu, sigma in ((g.r_edges, M.r0, M.sigma_r), (g.p_edges, M.p0, M.sigma_p)):
            assert np.all(np.isfinite(edges))
            assert np.all(np.diff(edges) > 0)
            assert edges[0] == mu - 40.0 * sigma
            assert edges[-1] == mu + 40.0 * sigma
            want = truncated_gaussian_edges(mu, sigma, n, 40.0)
            assert np.allclose(edges, want, atol=1e-9)

    def test_rejects_bad_sigma(self):
        class M:
            r0 = 0.0
            p0 = 0.0
            sigma_r = 0.0
            sigma_p = 1.0

        with pytest.raises(DegenerateMoments):
            build_gaussian(M(), 8, 8)


class TestSampleField:
    def test_orientation(self):
        g = build_regular(-2, 2, -3, 3, 8, 12)
        f = sample_field(FockState(1), g)
        assert f.values.shape == (8, 12)
        i, j = 3, 7
        assert f.values[i, j] == pytest.approx(
            eval_fock(1, g.r_centers[i], g.p_centers[j]), rel=1e-13
        )

    def test_mass_near_one(self, fock0_field):
        assert fock0_field.signed_mass == pytest.approx(1.0, abs=1e-3)

    def test_state_recorded(self, fock1_field):
        assert isinstance(fock1_field.state, FockState)


class TestDefaultGridAndCoverage:
    def test_default_grid_centered_on_centroid(self):
        st_ = CatState(-3.0)
        g = default_grid(st_)
        r0, p0 = state_centroid(st_)
        assert 0.5 * (g.bounds[0] + g.bounds[1]) == pytest.approx(r0, abs=1e-12)
        assert 0.5 * (g.bounds[2] + g.bounds[3]) == pytest.approx(p0, abs=1e-12)

    def test_default_grids_cover_states(self):
        for st_ in [FockState(0), FockState(2), CatState(-1.0), CoherentState(2.0 + 1.0j)]:
            f = sample_field(st_, default_grid(st_))
            assert coverage(f) >= COVERAGE_MIN

    def test_tiny_window_fails(self):
        st_ = FockState(1)
        f = sample_field(st_, build_regular(-0.1, 0.1, -0.1, 0.1, 8, 8))
        assert coverage(f) < COVERAGE_MIN
        with pytest.raises(CoverageError):
            require_coverage(f)

    def test_coverage_clamped_to_one(self, fock0_field):
        c = coverage(fock0_field)
        assert 0.0 <= c <= 1.0

    def test_coverage_needs_state(self):
        g = build_regular(-1, 1, -1, 1, 4, 4)
        f = sample_field(FockState(0), g)
        object.__setattr__(f, "state", None)
        with pytest.raises(ValueError):
            coverage(f)


class TestFieldIo:
    def test_round_trip_bit_exact(self, tmp_path, fock1_30_field):
        path = tmp_path / "field.csv"
        write_field(fock1_30_field, path)
        back = read_field(path)
        assert np.array_equal(back.values, fock1_30_field.values)
        assert np.array_equal(back.grid.r_edges, fock1_30_field.grid.r_edges)
        assert np.array_equal(back.grid.p_edges, fock1_30_field.grid.p_edges)
        assert back.grid.kind == fock1_30_field.grid.kind
        assert back.state == fock1_30_field.state

    def test_round_trip_cat_state(self, tmp_path):
        f = sample_field(CatState(-1.5 + 0.25j), build_regular(-6, 4, -5, 5, 12, 12))
        path = tmp_path / "cat.csv"
        write_field(f, path)
        back = read_field(path)
        assert back.state == f.state
        assert np.array_equal(back.values, f.values)

    def test_round_trip_gaussian_kind(self, tmp_path, fock0_field):
        m = compute_moments(fock0_field)
        g = build_gaussian(m, 6, 6)
        f = sample_field(FockState(0), g)
        path = tmp_path / "gauss.csv"
        write_field(f, path)
        back = read_field(path)
        assert back.grid.kind == KIND_GAUSSIAN
        assert np.array_equal(back.grid.r_edges, g.r_edges)

    def test_sampled_state_sidecar_drops_to_none(self, tmp_path):
        x = default_psi_grid()
        st_ = SampledState(x, harmonic_eigenstate(0, x))
        f = sample_field(st_, build_regular(-3, 3, -3, 3, 6, 6))
        path = tmp_path / "psi.csv"
        write_field(f, path)
        back = read_field(path)
        assert back.state is None
        assert np.array_equal(back.values, f.values)
        # a field with no state writes "state": null, and reads back the same
        again = tmp_path / "again.csv"
        write_field(back, again)
        assert json.loads((tmp_path / "again.csv.json").read_text())["state"] is None
        twice = read_field(again)
        assert twice.state is None
        assert np.array_equal(twice.values, f.values)

    @pytest.mark.parametrize(
        "state, grid",
        [
            (FockState(1), build_regular(-5, 5, -5, 5, 30, 30)),
            (CatState(-1.5 + 0.25j), build_regular(-6, 4, -5, 5, 12, 20)),
        ],
        ids=["fock1", "cat"],
    )
    def test_rows_match_per_cell_fmt17(self, tmp_path, state, grid):
        # the row format writes what three fmt17 calls per cell wrote
        from quasitone.textfmt import fmt17

        f = sample_field(state, grid)
        path = tmp_path / "f.csv"
        write_field(f, path)
        rc, pc = grid.r_centers, grid.p_centers
        want = ["r,p,value"] + [
            f"{fmt17(rc[i])},{fmt17(pc[j])},{fmt17(f.values[i, j])}"
            for i in range(rc.size)
            for j in range(pc.size)
        ]
        assert path.read_text().split("\n") == want + [""]

    def test_nonfinite_value_refused(self, tmp_path, fock1_30_field):
        values = fock1_30_field.values.copy()
        values[3, 4] = np.nan
        f = WignerField(fock1_30_field.grid, values, fock1_30_field.state)
        with pytest.raises(ValueError, match="non-finite"):
            write_field(f, tmp_path / "f.csv")
        assert not (tmp_path / "f.csv").exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_field(tmp_path / "nope.csv")
