import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quantize_brute
from quasitone import (
    DegenerateMoments,
    DegenerateRange,
    EmptyField,
    FockState,
    MAX_PARTIALS,
    MapConfig,
    OutOfBounds,
    PEAK_BOUND,
    PartialBank,
    WignerField,
    build_regular,
    compute_moments,
    load_map_config,
    method1_grid,
    method2_extremes,
    method3_sections,
    method4_moments,
    quantize_quarter_tone,
    quarter_tone_index,
    sample_field,
    spatial_gains,
    technique_tag,
)
from quasitone.sonify import envelope


class TestMapConfig:
    def test_defaults(self, cfg):
        assert cfg.f_lo == 55.0
        assert cfg.f_hi == 7040.0
        assert cfg.n_osc == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            MapConfig(f_lo=100.0, f_hi=50.0)
        with pytest.raises(ValueError):
            MapConfig(q_slope=0.0)
        with pytest.raises(ValueError):
            MapConfig(n_osc=2)
        with pytest.raises(ValueError):
            MapConfig(n_osc=0)
        assert MapConfig(n_osc=1).n_osc == 1
        with pytest.raises(ValueError):
            MapConfig(negative_technique="vibrato")
        with pytest.raises(ValueError):
            MapConfig(waveform="square")
        with pytest.raises(ValueError):
            MapConfig(freq_axis="q")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["f_lo", "f_hi", "ref_pitch", "event_duration"])
    def test_nonfinite_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            MapConfig(**{key: value})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text(
            "# comment line\n"
            "f_lo = 110\n"
            "n_osc=33\n"
            "negative_technique = ricochet\n"
            "\n"
        )
        c = load_map_config(path)
        assert c.f_lo == 110.0
        assert c.n_osc == 33
        assert c.negative_technique == "ricochet"
        assert c.f_hi == 7040.0

    def test_load_with_base(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text("f0_base=440\n")
        base = MapConfig(n_osc=11)
        c = load_map_config(path, base=base)
        assert c.f0_base == 440.0
        assert c.n_osc == 11

    @pytest.mark.parametrize("key, value", [("n_osc", "3.5"), ("n_osc", "many"), ("f_lo", "low")])
    def test_non_numeric_value_names_line_key_and_value(self, key, value, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text(f"# constants\n{key} = {value}\n")
        with pytest.raises(ValueError) as info:
            load_map_config(path)
        message = str(info.value)
        assert message.startswith(f"{path}:2: ") and key in message and repr(value) in message

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text("volume=11\n")
        with pytest.raises(ValueError):
            load_map_config(path)


class TestPartialBank:
    @pytest.mark.parametrize(
        "name, values",
        [
            ("freq", [np.nan]),
            ("freq", [0.0]),
            ("freq", [-440.0]),
            ("amp", [-0.1]),
            ("amp", [1.5]),
            ("amp", [np.nan]),
            ("phase", [0.0, 1.0]),
            ("triangle", [False, True]),
            ("source_p", [0.0, 1.0]),
            ("source_value", None),
        ],
    )
    def test_rejects_bad_partials(self, name, values):
        arrays = dict(
            freq=[440.0], amp=[0.5], phase=[0.0], triangle=[False],
            source_r=[0.0], source_p=[0.0], source_value=[0.1],
        )
        PartialBank(**arrays, duration=1.0, method="IV", negative=False)
        arrays[name] = values
        with pytest.raises(ValueError):
            PartialBank(**arrays, duration=1.0, method="IV", negative=False)

    @pytest.mark.parametrize("duration", [0.0, math.nan, math.inf])
    def test_rejects_bad_duration(self, duration):
        arrays = dict(freq=[440.0], amp=[0.5], phase=[0.0], triangle=[False])
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            PartialBank(**arrays, duration=duration, method="IV", negative=False)


class TestMethod1:
    def test_exact_cell_count(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        assert bank.freq.size == 900
        assert bank.method == "I"
        assert bank.negative

    def test_top_selection_on_large_grid(self, cfg):
        f = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 64, 64))
        bank = method1_grid(f, cfg)
        assert bank.freq.size == MAX_PARTIALS
        kept = np.min(np.abs(bank.source_value))
        dropped = sorted(np.abs(f.values).ravel())[::-1][MAX_PARTIALS:]
        assert kept >= max(dropped) - 1e-15

    def test_frequencies_span_band(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        freqs = bank.freq
        assert min(freqs) == pytest.approx(cfg.f_lo, rel=1e-12)
        assert max(freqs) == pytest.approx(cfg.f_hi, rel=1e-12)

    def test_amplitude_normalized(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        amps = bank.amp
        assert max(amps) == pytest.approx(1.0, rel=1e-12)
        assert min(amps) >= 0.0

    def test_negative_cells_phase_flipped(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        flipped = np.flatnonzero((bank.source_value < 0) & (bank.amp > 1e-6))
        if flipped.size == 0:
            pytest.fail("no negative-sourced partial found")
        phase = bank.phase[flipped[0]]
        assert phase - math.pi >= -1e-12 or phase >= math.pi - 1e-12

    def test_axis_swap(self, fock1_30_field):
        c_r = MapConfig(freq_axis="r")
        c_p = MapConfig(freq_axis="p")
        b_r = method1_grid(fock1_30_field, c_r)
        b_p = method1_grid(fock1_30_field, c_p)
        # the field is symmetric so the multisets of frequencies agree,
        # but cell-to-frequency assignment differs
        same = np.all((b_r.freq == b_p.freq) & (b_r.source_r == b_p.source_r))
        assert not same

    def test_zero_field_rejected(self, cfg):
        g = build_regular(-1, 1, -1, 1, 4, 4)
        with pytest.raises(EmptyField):
            method1_grid(WignerField(g, np.zeros((4, 4))), cfg)


class TestMethod2:
    def test_two_partials_affine(self, fock1_field, cfg):
        bank = method2_extremes(fock1_field, cfg)
        assert bank.freq.size == 2
        lo, hi = bank.freq
        span = 2.0 * PEAK_BOUND
        vmin = float(fock1_field.values.min())
        vmax = float(fock1_field.values.max())
        want_lo = cfg.f_lo + (vmin + PEAK_BOUND) / span * (cfg.f_hi - cfg.f_lo)
        want_hi = cfg.f_lo + (vmax + PEAK_BOUND) / span * (cfg.f_hi - cfg.f_lo)
        assert lo == pytest.approx(want_lo, rel=1e-12)
        assert hi == pytest.approx(want_hi, rel=1e-12)

    def test_amps_scaled_by_magnitude(self, fock1_field, cfg):
        bank = method2_extremes(fock1_field, cfg)
        amps = sorted(bank.amp)
        assert amps[1] == pytest.approx(1.0)
        assert 0.0 < amps[0] < 1.0

    def test_constant_field_rejected(self, cfg):
        g = build_regular(-1, 1, -1, 1, 4, 4)
        with pytest.raises(DegenerateRange):
            method2_extremes(WignerField(g, np.full((4, 4), 0.1)), cfg)


class TestMethod3:
    def test_four_geometric_frequencies(self, fock1_field, cfg):
        bank = method3_sections(fock1_field, cfg)
        assert bank.freq.size == 4
        ratio = cfg.f_hi / cfg.f_lo
        for k, freq in enumerate(bank.freq):
            assert freq == pytest.approx(cfg.f_lo * ratio ** (k / 3.0), rel=1e-12)

    def test_amps_are_normalized_section_masses(self, fock1_field, cfg):
        bank = method3_sections(fock1_field, cfg)
        amps = bank.amp
        assert max(amps) == pytest.approx(1.0, rel=1e-12)
        assert all(a >= 0 for a in amps)


class TestMethod4:
    def test_count_and_symmetry(self, fock1_field, cfg):
        m = compute_moments(fock1_field)
        bank = method4_moments(m, cfg, 4.0)
        assert bank.freq.size == cfg.n_osc
        amps = bank.amp
        for k in range(len(amps)):
            assert amps[k] == pytest.approx(amps[-1 - k], abs=1e-12)
        assert int(np.argmax(amps)) == len(amps) // 2

    def test_single_oscillator_bank(self, fock0_field):
        cfg = MapConfig(n_osc=1)
        m = compute_moments(fock0_field)
        bank = method4_moments(m, cfg, 4.0)
        assert bank.freq.size == 1
        assert bank.amp[0] == 1.0
        assert bank.freq[0] == pytest.approx(cfg.f0_base + cfg.f0_slope * m.r0, abs=1e-9)

    def test_frequencies_clipped_to_band(self, fock1_field, cfg):
        m = compute_moments(fock1_field)
        bank = method4_moments(m, cfg, 4.0)
        for freq in bank.freq:
            assert cfg.f_lo <= freq <= cfg.f_hi

    def test_width_scales_with_sigma(self, cfg):
        class M:
            r0 = 0.0
            p0 = 0.0
            sigma_r = 0.5
            sigma_p = 0.5
            negativity = 0.0

        bank = method4_moments(M(), MapConfig(f0_base=3000.0, f0_slope=0.0), 1.0)
        freqs = bank.freq
        # ideal spacing: 6 sigma_f over 20 gaps, sigma_f = q_slope * sigma_r = 40
        assert freqs[1] - freqs[0] == pytest.approx(6.0 * 40.0 / 20.0, rel=1e-9)

    def test_sigma_r_anchor_mode(self, fock1_field):
        m = compute_moments(fock1_field)
        c = MapConfig(f0_mode="sigma_r")
        bank = method4_moments(m, c, 1.0)
        center = bank.freq[bank.freq.size // 2]
        assert center == pytest.approx(c.f0_base + c.f0_slope * m.sigma_r, rel=1e-9)

    def test_matches_per_partial_formula(self):
        # the per-partial scalar formula is the reference, to the bit: a
        # sweep renders thousands of these banks into its WAV bytes
        rng = np.random.default_rng(4)
        c = MapConfig(f0_mode="sigma_r")
        for sigma_r in rng.uniform(0.5, 1.5, 2000).tolist():
            m = SimpleNamespace(r0=0.0, p0=0.0, sigma_r=sigma_r, negativity=0.0)
            bank = method4_moments(m, c, 1.0)
            sigma_f = c.q_slope * sigma_r
            f0 = c.f0_base + c.f0_slope * sigma_r
            spacing = 6.0 * sigma_f / (c.n_osc - 1)
            offsets = [(k - c.n_osc // 2) * spacing for k in range(c.n_osc)]
            freq = [float(np.clip(f0 + o, c.f_lo, c.f_hi)) for o in offsets]
            amp = [float(np.exp(-(o**2) / (2.0 * sigma_f**2))) for o in offsets]
            assert bank.freq.tolist() == freq
            assert bank.amp.tolist() == amp

    def test_envelope_over_frames_is_bank_by_bank(self):
        rng = np.random.default_rng(8)
        r0, sigma_r = rng.uniform(-3.0, 0.5, 50), rng.uniform(0.5, 1.5, 50)
        for c in (MapConfig(), MapConfig(f0_mode="sigma_r"), MapConfig(n_osc=1)):
            freq, amp = envelope(r0, sigma_r, c)
            assert freq.shape == amp.shape == (50, c.n_osc)
            for k in range(50):
                m = SimpleNamespace(r0=r0[k], p0=0.0, sigma_r=sigma_r[k], negativity=0.0)
                bank = method4_moments(m, c, 1.0)
                assert np.array_equal(freq[k], bank.freq) and np.array_equal(amp[k], bank.amp)
        with pytest.raises(DegenerateMoments, match="sigma_r = -0.5"):
            envelope(r0[:3], np.array([1.0, -0.5, 0.0]), MapConfig())

    def test_degenerate_sigma_rejected(self, cfg):
        class M:
            r0 = 0.0
            p0 = 0.0
            sigma_r = 0.0
            sigma_p = 1.0
            negativity = 0.0

        with pytest.raises(DegenerateMoments):
            method4_moments(M(), cfg, 1.0)


class TestQuantization:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        freqs = rng.uniform(55.0, 7040.0, size=2000)
        got = quantize_quarter_tone(freqs)
        for f, g in zip(freqs, got):
            assert g == pytest.approx(quantize_brute(float(f)), rel=1e-12)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(11)
        freqs = rng.uniform(55.0, 7040.0, size=5000)
        once = quantize_quarter_tone(freqs)
        twice = quantize_quarter_tone(once)
        assert np.array_equal(once, twice)

    def test_lattice_points_fixed(self):
        assert quantize_quarter_tone(440.0) == pytest.approx(440.0, rel=1e-15)
        idx = quarter_tone_index(440.0)
        assert idx == 0
        assert quarter_tone_index(880.0) == 24

    def test_midpoint_rounds_up(self):
        f = 440.0 * 2.0 ** (0.5 / 24.0)
        assert quarter_tone_index(f) == 1

    @settings(max_examples=80, deadline=None)
    @given(f=st.floats(min_value=20.0, max_value=20000.0))
    def test_ratio_error_bounded(self, f):
        q = float(quantize_quarter_tone(f))
        assert abs(math.log2(q / f)) <= 1.0 / 48.0 + 1e-12


class TestSpatialGains:
    bounds = (-5.0, 5.0, -5.0, 5.0)

    def test_stereo_endpoints(self):
        left = spatial_gains(-5.0, 0.0, self.bounds, channels=2)
        right = spatial_gains(5.0, 0.0, self.bounds, channels=2)
        assert left == pytest.approx([1.0, 0.0], abs=1e-15)
        assert right == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_center_equal_power(self):
        g = spatial_gains(0.0, 0.0, self.bounds, channels=2)
        assert g[0] == pytest.approx(g[1])
        assert float(np.sum(np.square(g))) == pytest.approx(1.0, abs=1e-15)

    def test_mono(self):
        g = spatial_gains(1.0, 1.0, self.bounds, channels=1)
        assert list(g) == [1.0]

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            spatial_gains(6.0, 0.0, self.bounds)
        # one point outside the box fails a whole array
        with pytest.raises(OutOfBounds):
            spatial_gains(np.array([0.0, 1.0, -2.0]), np.array([0.0, 5.5, 1.0]), self.bounds)

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_array_matches_per_point(self, channels):
        rng = np.random.default_rng(channels)
        r = np.append(rng.uniform(-5.0, 5.0, 30), [-5.0, 5.0])
        p = np.append(rng.uniform(-5.0, 5.0, 30), [5.0, -5.0])
        rows = spatial_gains(r, p, self.bounds, channels=channels)
        assert rows.shape == (32, channels)
        points = zip(r.tolist(), p.tolist())
        want = np.array([spatial_gains(a, b, self.bounds, channels=channels) for a, b in points])
        assert rows.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(min_value=-5.0, max_value=5.0),
        p=st.floats(min_value=-5.0, max_value=5.0),
        channels=st.sampled_from([2, 4]),
    )
    def test_unit_energy(self, r, p, channels):
        g = spatial_gains(r, p, self.bounds, channels=channels)
        assert len(g) == channels
        assert float(np.sum(np.square(g))) == pytest.approx(1.0, abs=1e-12)


class TestTechniqueTag:
    def test_positive_is_ordinario(self, cfg):
        assert technique_tag(False, cfg) == "ordinario"

    def test_negative_uses_config(self, cfg):
        assert technique_tag(True, cfg) == "sul_ponticello"
        assert technique_tag(True, MapConfig(negative_technique="ricochet")) == "ricochet"
