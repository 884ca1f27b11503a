import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import psi_grid, truncated_gaussian_edges
from quasitone import grids
from quasitone.grids import RESOLUTION_MAX, Coverage, default_edges
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
    QuadratureSpanTooSmall,
    SampledState,
    WignerField,
    build_gaussian,
    build_regular,
    compute_moments,
    coverage,
    default_grid,
    eval_fock,
    harmonic_eigenstate,
    read_field,
    require_coverage,
    sample_field,
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

    def test_cell_count_limit(self, monkeypatch):
        side = math.isqrt(grids.MAX_CELLS)
        assert build_regular(0, 1, 0, 1, side, side).shape == (side, side)
        over = f"^{side + 1} x {side} = {(side + 1) * side} cells exceed the limit of {grids.MAX_CELLS}$"
        with pytest.raises(ValueError, match=over):
            build_regular(0, 1, 0, 1, side + 1, side)
        # refused before any edge is computed
        moments = compute_moments(sample_field(FockState(0), default_grid(FockState(0))))
        monkeypatch.setattr(grids, "_gaussian_edges", lambda *a: pytest.fail("edges computed"))
        with pytest.raises(ValueError, match=r"^100000 x 100000 = 10000000000 cells exceed"):
            build_gaussian(moments, 100000, 100000)

    def test_width_float64_cannot_hold_is_refused(self):
        # a RuntimeWarning is an error under this suite, so each refusal
        # comes before numpy forms the width
        with pytest.raises(InvalidBounds, match=r"^p range \[-1e\+308, 1e\+308\] is wider than float64 can hold$"):
            build_regular(-1, 1, -1e308, 1e308, 4, 4)
        with pytest.raises(InvalidBounds, match=r"^r_edges \[-1e\+308, 1e\+308\] is wider"):
            GridSpec(KIND_REGULAR, np.array([-1e308, 0.0, 1e308]), np.array([0.0, 1.0]))

        class M:
            r0, p0, sigma_r, sigma_p = 0.0, 0.0, 1.0, 1e300

        with pytest.raises(InvalidBounds, match=r"^\+-span_sigmas sigma_p window \[-1e\+308, 1e\+308\] is wider"):
            build_gaussian(M(), 4, 4, span_sigmas=1e8)

    def test_cell_area_float64_cannot_hold_is_refused(self):
        with pytest.raises(InvalidBounds, match=r"^a cell of 1e\+160 x 1e\+160 has an area float64 cannot hold$"):
            GridSpec(KIND_REGULAR, np.array([0.0, 1e160]), np.array([-1.0, 0.0, 1e160]))
        with pytest.raises(InvalidBounds, match=r"^a cell of 3.125e\+198 x 3.125e\+198 has an area"):
            build_regular(-1e200, 1e200, -1e200, 1e200, 64, 64)
        assert build_regular(-1e200, 1e200, 0, 1, 64, 4).shape == (64, 4)


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
        r0, p0 = st_.centroid
        assert 0.5 * (g.bounds[0] + g.bounds[1]) == pytest.approx(r0, abs=1e-12)
        assert 0.5 * (g.bounds[2] + g.bounds[3]) == pytest.approx(p0, abs=1e-12)

    def test_centroid_float64_cannot_resolve_is_refused_naming_it(self):
        # at 1e15 the last place is 0.125, so edges 0.15625 apart round
        # unevenly; at 1e14 it is 1/64 and every edge is exact
        with pytest.raises(ValueError, match=r"centroid \(1000000000000000.0, 0.0\) is not resolved"):
            default_grid(CoherentState(1e15))
        r_edges, p_edges = default_edges(1e14, 0.0)
        np.testing.assert_array_equal(r_edges, 1e14 - 5.0 + 0.15625 * np.arange(65))
        assert default_grid(CatState(1e14)).r_edges[0] == 1e14 - 5.0

    def test_first_unresolvable_centroid_of_many_is_named(self):
        r0 = np.array([-3.0, 0.0, 2.5e14, 1e150])
        with pytest.raises(ValueError, match=r"centroid \(0.0, 1000000000000000.0\)"):
            default_edges(r0, np.array([0.0, 1e15, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"centroid \(1e\+150, 0.0\)"):
            default_edges(r0, 0.0)
        r_edges, p_edges = default_edges(r0[:3], 1.0)
        assert r_edges.shape == p_edges.shape == (3, 65)

    def test_default_grids_cover_states(self):
        for st_ in [FockState(0), FockState(2), CatState(-1.0), CoherentState(2.0 + 1.0j)]:
            require_coverage(coverage(sample_field(st_, default_grid(st_))))

    def test_tiny_window_fails(self):
        st_ = FockState(1)
        f = sample_field(st_, build_regular(-0.1, 0.1, -0.1, 0.1, 8, 8))
        cov = coverage(f)
        assert cov.share < COVERAGE_MIN
        with pytest.raises(CoverageError, match=f"^grid does not hold the state: window share {cov.share:.6f} of"):
            require_coverage(cov)
        require_coverage(Coverage(COVERAGE_MIN, RESOLUTION_MAX))

    def test_coverage_is_not_clamped(self):
        # three cells over a cat's fringes: the grid's own sum reads 7.06
        cov = coverage(sample_field(CatState(0.05), build_regular(-5, 5, -5, 5, 3, 3)))
        assert cov.share > 1.0 and cov.resolution > 5.0

    def test_full_window_with_too_few_cells_fails_on_resolution_alone(self):
        # 8 cells over +-4 hold Fock 1's W^2 but do not resolve it
        cov = coverage(sample_field(FockState(1), build_regular(-4, 4, -4, 4, 8, 8)))
        assert cov.share >= COVERAGE_MIN
        with pytest.raises(CoverageError, match=r"^grid does not hold the state: resolution 0\.429115 \(") as exc:
            require_coverage(cov)
        assert "window share" not in str(exc.value)

    def test_fine_grid_over_too_small_a_window_fails_on_window_share_alone(self):
        cov = coverage(sample_field(FockState(1), build_regular(-0.5, 0.5, -0.5, 0.5, 64, 64)))
        assert cov.resolution <= RESOLUTION_MAX
        with pytest.raises(CoverageError, match=r"^grid does not hold the state: window share 0\.252789 of") as exc:
            require_coverage(cov)
        assert "resolution" not in str(exc.value)

    @pytest.mark.parametrize("broken", ["field", "overflow", "split"])
    def test_mass_that_is_not_finite_is_refused_naming_the_grid(self, broken, monkeypatch):
        # min(1.0, nan) is 1.0: a NaN mass once read as full coverage; a
        # square that overflows is refused the same way, without a warning
        f = sample_field(FockState(1), build_regular(-5, 5, -4, 6, 8, 8))
        if broken == "split":
            monkeypatch.setattr(grids, "evaluate", lambda s, r, p: np.full(np.broadcast(r, p).shape, np.inf))
        else:
            f = WignerField(f.grid, np.full(f.grid.shape, np.nan if broken == "field" else 1e200), f.state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoverageError, match=r"of the grid on r in \[-5, 5\], p in \[-4, 6\].*must be finite"):
                coverage(f)

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

    @pytest.mark.parametrize(
        "state", [CatState(-1.5 + 0.25j), CoherentState(0.75 - 1.25j)], ids=["cat", "coherent"]
    )
    def test_round_trip_shifted_state(self, tmp_path, state):
        f = sample_field(state, build_regular(-6, 4, -5, 5, 12, 12))
        path = tmp_path / "state.csv"
        write_field(f, path)
        back = read_field(path)
        assert back.state == f.state
        assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize(
        "line, old, new, named",
        [
            (3, "-3,-1,", "7.25,-1,", "line 3: (r, p) = (7.25, -1.0) is not the cell center (-3.0, -1.0)"),
            (4, "-3,1,", "-3,-0.40000000000000002,", "line 4: (r, p) = (-3.0, -0.4) is not the cell center (-3.0, 1.0)"),
            (17, "3,3,", "3,3.0000000000000004,", "line 17: (r, p) = (3.0, 3.0000000000000004) is not the cell center (3.0, 3.0)"),
        ],
        ids=["r", "p", "last-bit"],
    )
    def test_row_off_its_cell_center_refused(self, tmp_path, line, old, new, named):
        path = tmp_path / "f.csv"
        write_field(sample_field(FockState(1), build_regular(-4, 4, -4, 4, 4, 4)), path)
        lines = path.read_text().split("\n")
        assert lines[line - 1].startswith(old)
        lines[line - 1] = new + lines[line - 1][len(old):]
        # an empty line is skipped, and the line named is still the file's
        path.write_text("\n".join(lines[:1] + [""] + lines[1:]))
        with pytest.raises(ValueError) as refused:
            read_field(path)
        assert str(refused.value).startswith(f"{path}: ")
        assert named.replace(f"line {line}", f"line {line + 1}") in str(refused.value)

    @pytest.mark.parametrize("fail_at", [0, 1], ids=["csv", "sidecar"])
    def test_failed_write_keeps_what_was_there(self, fail_at, tmp_path, failed_write, fock1_30_field):
        # neither file of the pair is left, nor a temporary, and an old pair
        # keeps its bytes, whichever of the two files fails
        path = tmp_path / "field.csv"
        failed_write(grids, lambda: write_field(fock1_30_field, path), fail_at)
        write_field(sample_field(FockState(0), build_regular(-4, 4, -4, 4, 4, 4)), path)
        failed_write(grids, lambda: write_field(fock1_30_field, path), fail_at)

    def test_cat_sidecar_with_zero_carrier_loads(self, tmp_path):
        # sidecars written before the cat lost its carrier record "alpha": [0, 0]
        f = sample_field(CatState(-1.5 + 0.25j), build_regular(-6, 4, -5, 5, 12, 12))
        path, side = tmp_path / "cat.csv", tmp_path / "cat.csv.json"
        write_field(f, path)
        info = json.loads(side.read_text())
        assert "alpha" not in info["state"]
        info["state"]["alpha"] = [0, 0]
        side.write_text(json.dumps(info))
        assert read_field(path).state == CatState(-1.5 + 0.25j)
        info["state"]["alpha"] = [0.0, -0.5]
        side.write_text(json.dumps(info))
        with pytest.raises(ValueError) as refused:
            read_field(path)
        assert str(refused.value).startswith(f"{side}: malformed sidecar: ")
        assert "no carrier alpha, got [0.0, -0.5]" in str(refused.value)

    @pytest.mark.parametrize("kind", ["regular", "gauss"])
    def test_csv_matches_per_row_format(self, tmp_path, fock0_field, kind):
        # the writer formats each center once; the text is what one
        # "%.17g,%.17g,%.17g" format per cell writes
        if kind == "regular":
            g = build_regular(-4, 4, -3, 5, 9, 7)  # odd counts: a center at 0
        else:
            g = build_gaussian(compute_moments(fock0_field), 12, 10)
        f = sample_field(CatState(-0.5 + 0.25j), g)
        path = tmp_path / "f.csv"
        write_field(f, path)
        n_r, n_p = g.shape
        r, p = np.repeat(g.r_centers, n_p), np.tile(g.p_centers, n_r)
        cells = zip(r.tolist(), p.tolist(), f.values.ravel().tolist())
        want = "r,p,value\n" + "".join("%.17g,%.17g,%.17g\n" % cell for cell in cells)
        assert path.read_text(encoding="utf-8") == want

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
        x = psi_grid()
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


def _sampled(psi_of_x, nodes, span=10.5):
    x = np.linspace(-span, span, nodes)
    psi = psi_of_x(x)
    return SampledState(x, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0])))


class TestCoverageSplit:
    """coverage's second sum: the grid's cells split 2 x 2, evaluated a
    block of rows at a time."""

    def test_split_of_a_regular_grid_is_the_grid_of_twice_the_cells(self):
        state = CatState(-1.5 + 0.5j)
        cov = coverage(sample_field(state, build_regular(-6, 4, -5, 5, 40, 40)))
        fine = sample_field(state, build_regular(-6, 4, -5, 5, 80, 80))
        assert cov.share == pytest.approx(2 * math.pi * np.sum(fine.values**2 * fine.grid.cell_areas), abs=1e-14)

    def test_gaussian_edges_are_split_at_their_midpoints(self):
        edges = build_gaussian(compute_moments(sample_field(FockState(1), default_grid(FockState(1)))), 8, 8).r_edges
        split = grids._split_edges(edges)
        assert np.array_equal(split[0::2], edges)
        assert np.array_equal(split[1::2], 0.5 * (edges[:-1] + edges[1:]))

    @pytest.mark.parametrize(
        "state",
        [CatState(-1.5 + 0.5j), _sampled(lambda x: harmonic_eigenstate(1, x), 257)],
        ids=["cat", "sampled-257"],
    )
    def test_value_does_not_depend_on_the_block_size(self, state, monkeypatch):
        field = sample_field(state, build_regular(-5, 5, -5, 5, 40, 40))
        values = set()
        for rows in (1, 7, 32, 512):
            monkeypatch.setattr(grids, "_SPLIT_BLOCK_ROWS", rows)
            values.add(coverage(field))
        assert len(values) == 1

    @pytest.mark.parametrize(
        "state, arrays",
        [(FockState(8), 1), (_sampled(lambda x: harmonic_eigenstate(1, x), 257), 2)],
        ids=["fock8", "sampled-257"],
    )
    def test_split_holds_less_than_whole_split_arrays(self, state, arrays):
        # one float64 array over the 512 x 512 split of a 256 x 256 grid is
        # 2 MB; the grid's own sum takes two arrays of a quarter of that
        field = sample_field(state, build_regular(-5, 5, -5, 5, 256, 256))
        coverage(field)  # numpy's one-time allocations
        tracemalloc.start()
        try:
            coverage(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays * 512**2 * 8

    def test_split_cells_outside_the_span_are_refused(self):
        # psi_1 over +-8: the grid's r centers +-7.2 lie inside the span,
        # the split cells' outer ones, a quarter cell further out at +-8.4,
        # do not
        state = _sampled(lambda x: harmonic_eigenstate(1, x), 257, span=8.0)
        field = sample_field(state, build_regular(-9.6, 9.6, -9.6, 9.6, 4, 4))
        with pytest.raises(QuadratureSpanTooSmall, match=r"^evaluation point r = -8\.4 lies outside the sample span"):
            coverage(field)
