import dataclasses
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from quasitone import (
    CatState,
    CoherentState,
    DegenerateMoments,
    DegenerateRange,
    FockState,
    MassTooLow,
    WignerField,
    build_regular,
    compute_moments,
    default_grid,
    moments_to_json,
    sample_field,
    segment_four,
    write_moments,
)
from quasitone import analysis
from quasitone.analysis import MomentSet, stacked_moments
from quasitone.cli import parse_grid


class TestMoments:
    def test_ground_state(self, fock0_field):
        m = compute_moments(fock0_field)
        assert m.r0 == pytest.approx(0.0, abs=1e-9)
        assert m.p0 == pytest.approx(0.0, abs=1e-9)
        assert m.sigma_r == pytest.approx(math.sqrt(0.5), abs=1e-3)
        assert m.sigma_p == pytest.approx(math.sqrt(0.5), abs=1e-3)
        assert m.skew_r == pytest.approx(0.0, abs=1e-9)
        # raw kurtosis: a Gaussian scores 3
        assert m.kurt_r == pytest.approx(3.0, abs=5e-3)
        assert m.negativity == pytest.approx(0.0, abs=1e-9)

    def test_first_excited(self, fock1_field):
        m = compute_moments(fock1_field)
        assert m.sigma_r == pytest.approx(math.sqrt(1.5), abs=1e-3)
        # closed-form negative volume: 2 e^{-1/2} - 1
        assert m.negativity == pytest.approx(2.0 * math.exp(-0.5) - 1.0, abs=1e-3)

    def test_cat_lobe_centroid_and_width(self, cat1_field):
        m = compute_moments(cat1_field)
        assert m.r0 == pytest.approx(-1.0, abs=1e-6)
        assert m.p0 == pytest.approx(0.0, abs=1e-9)
        # <x^2> - <x>^2 of the normalised |d> - <0|d>|0> wavefunction at
        # d = -1 is 1/2 + h e^{-h} / (1 - e^{-h}) with h = 1/2, which equals
        # 1 / (2 (1 - e^{-1/2}))
        assert m.sigma_r == pytest.approx(math.sqrt(0.5 / -math.expm1(-0.5)), abs=1e-4)

    def test_mass_floor(self):
        g = build_regular(-1, 1, -1, 1, 8, 8)
        f = WignerField(g, np.zeros((8, 8)))
        with pytest.raises(MassTooLow):
            compute_moments(f)

    def test_degenerate_spread(self):
        g = build_regular(-1, 1, -1, 1, 8, 8)
        v = np.zeros((8, 8))
        v[4, 4] = 1.0 / g.cell_areas[4, 4]
        with pytest.raises(DegenerateMoments):
            compute_moments(WignerField(g, v))

    def test_far_cells_refused_without_warning(self):
        # gauss:8:1e150 puts the outer cell centers near +-3.5e149: d**3
        # overflows there, and a zero weight times inf is NaN
        state = FockState(0)
        far = sample_field(state, parse_grid("gauss:8:1e150", state))
        with pytest.raises(DegenerateMoments, match=r"^third central moment nan is not finite$"):
            compute_moments(far)
        # array-wise, as the sweep's stacks are checked: a finite field
        # first in the stack does not hide the far one
        near = sample_field(state, parse_grid("gauss:8:3", state))
        values = np.stack([near.values, far.values])
        r_edges = np.stack([near.grid.r_edges, far.grid.r_edges])
        p_edges = np.stack([near.grid.p_edges, far.grid.p_edges])
        with pytest.raises(DegenerateMoments, match="third central moment nan"):
            stacked_moments(values, r_edges, p_edges)


def _meshgrid_moments(field):
    """The 2-D formula the marginals replaced: weighted power sums against
    (n_r, n_p) coordinate arrays."""
    areas = field.grid.cell_areas
    weights = field.values * areas
    total = np.sum(weights)
    rr, pp = np.meshgrid(field.grid.r_centers, field.grid.p_centers, indexing="ij")
    stats = {"negativity": np.sum(np.maximum(0.0, -field.values) * areas)}
    for axis, coords in (("r", rr), ("p", pp)):
        mean = np.sum(weights * coords) / total
        d = coords - mean
        m2, m3, m4 = (np.sum(weights * d**k) / total for k in (2, 3, 4))
        stats[f"{axis}0"] = mean
        stats[f"sigma_{axis}"] = np.sqrt(m2)
        stats[f"skew_{axis}"] = m3 / m2**1.5
        stats[f"kurt_{axis}"] = m4 / m2**2
    return stats


class TestMarginalMoments:
    @pytest.mark.parametrize(
        "state, grid",
        [
            (FockState(0), None),
            (FockState(1), None),
            (FockState(5), None),
            (CatState(-1.5 + 0.5j), None),
            (CoherentState(0.8 - 0.6j), None),
            (FockState(1), "regular:37:-6.5:3.5"),
            (CatState(-1.0), "gauss:24:3"),
        ],
        ids=["fock0", "fock1", "fock5", "cat", "coherent", "off-centre", "gauss"],
    )
    def test_matches_meshgrid_reference(self, state, grid):
        field = sample_field(state, parse_grid(grid, state) if grid else default_grid(state))
        got, want = compute_moments(field), _meshgrid_moments(field)
        assert set(want) == {f.name for f in fields(MomentSet)}
        # relative to the value, or to 1 where a symmetric state's skew or
        # centroid is zero up to rounding; the moments are O(1) in hbar = 1
        for name, value in want.items():
            assert abs(getattr(got, name) - value) <= 1e-12 * max(1.0, abs(value)), name


class TestStackedMoments:
    def test_stack_matches_one_field_at_a_time(self):
        states = [CatState(-1.2), CatState(-2.5 + 0.7j), FockState(1), CoherentState(0.4 - 1.1j)]
        field_list = [sample_field(s, default_grid(s)) for s in states]
        stack = stacked_moments(
            np.stack([f.values for f in field_list]),
            np.stack([f.grid.r_edges for f in field_list]),
            np.stack([f.grid.p_edges for f in field_list]),
        )
        for k, field in enumerate(field_list):
            want = compute_moments(field)
            for f in fields(MomentSet):
                got, value = getattr(stack, f.name)[k], getattr(want, f.name)
                assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), f.name

    def test_names_the_first_field_at_fault(self):
        g = build_regular(-1, 1, -1, 1, 8, 8)
        values = np.stack([np.full((8, 8), 0.25), np.zeros((8, 8))])
        with pytest.raises(MassTooLow, match="signed mass 0.0000"):
            stacked_moments(values, np.stack([g.r_edges] * 2), np.stack([g.p_edges] * 2))


class TestNegativity:
    def test_positive_field_zero(self, fock0_field):
        assert compute_moments(fock0_field).negativity == pytest.approx(0.0, abs=1e-12)

    def test_matches_moments_field(self, fock1_field):
        # the negative part's mass is half of what |W| adds over W
        m = compute_moments(fock1_field)
        half_gap = 0.5 * (fock1_field.abs_mass - fock1_field.signed_mass)
        assert m.negativity == pytest.approx(half_gap, rel=1e-12)


class TestSegmentation:
    def test_boundaries_affine(self):
        # min -1 and max 7 put the boundaries at -1, 1, 3, 5, 7; each pair
        # of cells straddles one, on unit-area cells
        g = build_regular(0, 8, 0, 1, 8, 1)
        v = np.array([-1.0, 0.99, 1.01, 2.99, 3.01, 4.99, 5.01, 7.0])[:, None]
        masses = segment_four(WignerField(g, v))
        assert masses == pytest.approx([1.99, 4.0, 8.0, 12.01], rel=1e-14)

    def test_section_masses_sum_to_abs_mass(self, fock1_field):
        masses = segment_four(fock1_field)
        assert masses.sum() == pytest.approx(fock1_field.abs_mass, rel=1e-12)

    def test_known_assignment(self):
        g = build_regular(0, 4, 0, 1, 4, 1)
        v = np.array([[0.0], [1.0], [2.0], [4.0]])
        # quartiles of [0,4]: [0,1) [1,2) [2,3) [3,4], one unit-area cell each
        assert segment_four(WignerField(g, v)).tolist() == [0.0, 1.0, 2.0, 4.0]

    def test_constant_field_rejected(self):
        g = build_regular(0, 1, 0, 1, 4, 4)
        with pytest.raises(DegenerateRange):
            segment_four(WignerField(g, np.full((4, 4), 0.7)))


class TestMomentsIo:
    def test_json_round_trip(self, tmp_path, cat1_field):
        m = compute_moments(cat1_field)
        path = tmp_path / "moments.json"
        write_moments(m, path)
        back = MomentSet(**json.loads(path.read_text()))
        assert back == m

    def test_json_has_all_nine_stats(self, fock0_field):
        m = compute_moments(fock0_field)
        data = json.loads(moments_to_json(m))
        assert sorted(data) == sorted(
            ["r0", "p0", "sigma_r", "sigma_p", "skew_r", "skew_p", "kurt_r", "kurt_p", "negativity"]
        )

    def test_unserializable_moment_leaves_no_file(self, tmp_path, fock0_field):
        m = dataclasses.replace(compute_moments(fock0_field), kurt_r=math.nan)
        path = tmp_path / "moments.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_moments(m, path)
        assert not path.exists()

    def test_failed_write_keeps_what_was_there(self, tmp_path, failed_write, fock0_field, cat1_field):
        path, m = tmp_path / "moments.json", compute_moments(cat1_field)
        failed_write(analysis, lambda: write_moments(m, path))
        write_moments(compute_moments(fock0_field), path)
        failed_write(analysis, lambda: write_moments(m, path))

    def test_json_byte_stable(self, fock0_field):
        m = compute_moments(fock0_field)
        assert moments_to_json(m) == moments_to_json(m)
