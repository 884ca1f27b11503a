import math
import os
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from quasitone import (
    AudioBuffer,
    BufferTooShort,
    CatState,
    FockState,
    MapConfig,
    NyquistViolation,
    PartialBank,
    SweepTrajectory,
    UnsupportedFormat,
    compute_moments,
    default_grid,
    default_trajectory,
    method1_grid,
    method4_moments,
    partial_gains,
    read_wav,
    render_sweep,
    sample_field,
    spatial_gains,
    stft_sonogram,
    synth,
    write_sonogram_csv,
    write_wav,
)
from quasitone import render
from quasitone.cli import cli_main
from quasitone.render import DB_FLOOR, SonogramStream

TARGET_PEAK = 10.0 ** (-1.0 / 20.0)


def reference_bank(bank, phases, gains, n, sample_rate):
    """One np.sin over the whole note per partial and per triangle harmonic."""
    t = np.arange(n, dtype=float) / sample_rate
    out = np.zeros((n, gains.shape[1]))
    for k, (freq, amp, triangle) in enumerate(zip(bank.freq, bank.amp, bank.triangle)):
        theta = 2.0 * math.pi * freq * t + phases[k]
        if not triangle:
            wave = np.sin(theta)
        else:
            wave = np.zeros(n)
            j, sign = 1, 1.0
            while freq * j < 0.5 * sample_rate:
                wave += sign * np.sin(j * theta) / j**2
                sign, j = -sign, j + 2
            wave *= 8.0 / math.pi**2
        out += amp * wave[:, None] * gains[k][None, :]
    return out


def one_partial_bank(freq=440.0, amp=1.0, phase=0.0, waveform="sine", duration=0.5):
    return PartialBank(
        freq=[freq],
        amp=[amp],
        phase=[phase],
        triangle=[waveform == "triangle"],
        duration=duration,
        negative=False,
    )


class TestSynth:
    def test_shape_and_dtype(self):
        buf = synth(one_partial_bank(duration=0.25), sample_rate=8000)
        assert buf.samples.shape == (2000, 1)
        assert buf.samples.dtype == np.float32
        assert buf.sample_rate == 8000

    def test_peak_normalized(self):
        buf = synth(one_partial_bank(), sample_rate=8000)
        assert float(np.max(np.abs(buf.samples))) == pytest.approx(TARGET_PEAK, abs=1e-6)

    @pytest.mark.parametrize("kind", ["positive", "negative", "stereo", "silent", "empty"])
    def test_normalization_bytes_match_copying_formula(self, kind):
        # the in-place scaling must give the bytes of scaling a copy by the
        # largest |sample|, whichever sign the peak has
        rng = np.random.default_rng(5)
        mix = {
            "positive": rng.normal(size=(4001, 1)) + 0.3,
            "negative": rng.normal(size=(4001, 1)) - 0.3,
            "stereo": rng.normal(size=(3000, 2)) * np.array([1.0, 7.5]),
            "silent": np.zeros((100, 1)),
            "empty": np.zeros((0, 1)),
        }[kind]
        if kind == "negative":
            assert -mix.min() > mix.max()
        peak = float(np.max(np.abs(mix))) if mix.size else 0.0
        want = (mix * (TARGET_PEAK / peak) if peak > 0.0 else mix).astype(np.float32)
        got = render._normalized_f32(mix.copy())
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_silence_stays_silent(self):
        buf = synth(one_partial_bank(amp=0.0), sample_rate=8000)
        assert float(np.max(np.abs(buf.samples))) == 0.0

    def test_fades_at_both_ends(self):
        buf = synth(one_partial_bank(freq=1000.0, duration=0.5), sample_rate=48000)
        x = buf.samples[:, 0]
        assert abs(x[0]) < 1e-6
        assert abs(x[-1]) < 1e-3
        mid = np.max(np.abs(x[12000:36000]))
        head = np.max(np.abs(x[:120]))
        assert head < mid

    def test_sine_frequency_is_right(self):
        sr = 8000
        buf = synth(one_partial_bank(freq=400.0, duration=1.0), sample_rate=sr)
        spec = np.abs(np.fft.rfft(buf.samples[:, 0].astype(float)))
        assert int(np.argmax(spec)) == 400

    def test_triangle_has_odd_harmonics_only(self):
        sr = 16000
        buf = synth(one_partial_bank(freq=250.0, waveform="triangle", duration=1.0), sample_rate=sr)
        spec = np.abs(np.fft.rfft(buf.samples[:, 0].astype(float)))
        f1 = spec[250]
        f2 = spec[500]
        f3 = spec[750]
        assert f3 == pytest.approx(f1 / 9.0, rel=0.05)
        assert f2 < f1 * 1e-3

    def test_triangle_truncated_below_nyquist(self):
        sr = 8000
        # fundamental high enough that only the fundamental fits
        buf = synth(one_partial_bank(freq=3000.0, waveform="triangle", duration=0.5), sample_rate=sr)
        spec = np.abs(np.fft.rfft(buf.samples[:, 0].astype(float)))
        assert int(np.argmax(spec)) == 1500  # 3000 Hz in 0.5 s resolution units

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            synth(one_partial_bank(freq=4000.0), sample_rate=8000)

    def test_stereo_gains(self):
        gains = np.array([[0.6, 0.8]])
        buf = synth(one_partial_bank(), sample_rate=8000, gains=gains)
        assert buf.samples.shape[1] == 2
        left = np.max(np.abs(buf.samples[:, 0]))
        right = np.max(np.abs(buf.samples[:, 1]))
        assert left / right == pytest.approx(0.75, rel=1e-3)

    @pytest.mark.parametrize("rate", [8000.5, True, 0, -8000, math.nan, math.inf, "8000"])
    def test_rate_must_be_a_positive_whole_number(self, rate):
        with pytest.raises(ValueError) as info:
            synth(one_partial_bank(), sample_rate=rate)
        assert "sample rate must be positive" in str(info.value) and repr(rate) in str(info.value)

    def test_whole_float_rate_renders(self):
        a = synth(one_partial_bank(), sample_rate=8000.0)
        b = synth(one_partial_bank(), sample_rate=np.int64(8000))
        assert a.sample_rate == 8000 and type(a.sample_rate) is int
        assert a.samples.tobytes() == synth(one_partial_bank(), sample_rate=8000).samples.tobytes()
        assert b.samples.tobytes() == a.samples.tobytes()

    def test_gain_shape_mismatch(self):
        with pytest.raises(ValueError):
            synth(one_partial_bank(), sample_rate=8000, gains=np.ones((3, 2)))

    @pytest.mark.parametrize("gains", [np.ones((1, 0)), np.float64(1.0), np.ones(1)], ids=["no-channel", "scalar", "1-d"])
    def test_gains_without_a_channel_axis_refused(self, gains):
        # refused with the shape named, before the kernel sees them
        with pytest.raises(ValueError, match=re.escape(f"got {np.shape(gains)}")):
            synth(one_partial_bank(), sample_rate=8000, gains=gains)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_gain_refused(self, bad):
        # one such gain would fill the mix with NaN and inf samples
        with pytest.raises(ValueError, match=f"gains must be finite, got {bad!r}"):
            synth(one_partial_bank(), sample_rate=8000, gains=[[0.5, bad]])

    def test_phase_offset_shifts_waveform(self):
        a = synth(one_partial_bank(freq=100.0, phase=0.0), sample_rate=8000)
        b = synth(one_partial_bank(freq=100.0, phase=math.pi), sample_rate=8000)
        mid = slice(2000, 2100)
        assert np.allclose(a.samples[mid, 0], -b.samples[mid, 0], atol=1e-5)


def random_bank(rng, n_partials, waveform, f_lo, f_hi):
    """Random partials; "mixed" alternates sine and triangle."""
    if waveform == "mixed":
        triangle = np.arange(n_partials) % 2 == 1
    else:
        triangle = np.full(n_partials, waveform == "triangle")
    return PartialBank(
        freq=rng.uniform(f_lo, f_hi, n_partials),
        amp=rng.uniform(0.0, 1.0, n_partials),
        phase=rng.uniform(0.0, 2 * math.pi, n_partials),
        triangle=triangle,
        duration=0.3,
        negative=False,
    )


@pytest.fixture
def sinusoids(monkeypatch):
    """Per _accumulate call, the number of components it was given and the
    (sinusoids, columns) shape of the weights it renders."""
    calls = []
    real = render._sinusoids

    def counted(bank, omega, phi, weights):
        out = real(bank, omega, phi, weights)
        calls.append((bank.size, out[3].shape))
        return out

    monkeypatch.setattr(render, "_sinusoids", counted)
    return calls


class TestOscillatorKernel:
    """_accumulate against one np.sin per partial and harmonic."""

    @pytest.mark.parametrize(
        "waveform, n_partials, f_lo, f_hi, n, channels",
        [
            ("sine", 9, 55.0, 3000.0, 3000, 1),
            ("triangle", 3, 55.0, 300.0, 3000, 2),
            ("mixed", 4, 30.0, 3000.0, 1000, 4),
            ("sine", 300, 55.0, 3000.0, 700, 2),  # more components than one chunk
            ("triangle", 2, 9.0, 12.0, 600, 1),  # 167-222 harmonics each: a chunk ends inside a partial
            ("triangle", 1, 800.0, 800.0, 500, 1),  # harmonic 5 sits on Nyquist: dropped
            ("sine", 5, 55.0, 3000.0, 100, 4),  # shorter than one block
            ("sine", 3, 55.0, 3000.0, 70001, 1),  # more than one span, not a block multiple
        ],
    )
    def test_matches_per_harmonic_sines(self, waveform, n_partials, f_lo, f_hi, n, channels):
        sr = 8000
        rng = np.random.default_rng(n_partials * 1000 + n)
        bank = random_bank(rng, n_partials, waveform, f_lo, f_hi)
        phases = rng.uniform(0.0, 2 * math.pi, n_partials)
        gains = rng.uniform(0.0, 1.0, (n_partials, channels))
        if channels > 1:
            gains[::2, 0] = 0.0
            gains[1::3, -1] = 0.0
        out = np.zeros((n, channels))
        render._accumulate(bank.freq, bank.amp, bank.triangle, phases, gains, out, sr)
        ref = reference_bank(bank, phases, gains, n, sr)
        assert float(np.max(np.abs(out - ref))) <= 1e-9

    @pytest.mark.parametrize(
        "waveform, n_partials, f_lo, f_hi, n",
        [
            ("sine", 4, 55.0, 3000.0, 192000),  # a 4 s note: 750 blocks over three spans
            ("mixed", 6, 30.0, 1000.0, 192000),
            ("sine", 5, 23990.0, 23999.9, 3000),  # just below Nyquist
            ("triangle", 3, 4796.0, 4799.9, 3000),  # harmonic 5 just below Nyquist
        ],
        ids=["sine-4s", "mixed-4s", "sine-near-nyquist", "triangle-near-nyquist"],
    )
    def test_two_level_table_at_48k(self, waveform, n_partials, f_lo, f_hi, n):
        sr = 48000
        rng = np.random.default_rng(n_partials * 1000 + n)
        bank = random_bank(rng, n_partials, waveform, f_lo, f_hi)
        phases = rng.uniform(0.0, 2 * math.pi, n_partials)
        gains = rng.uniform(0.0, 1.0, (n_partials, 2))
        out = np.zeros((n, 2))
        render._accumulate(bank.freq, bank.amp, bank.triangle, phases, gains, out, sr)
        ref = reference_bank(bank, phases, gains, n, sr)
        assert float(np.max(np.abs(out - ref))) <= 1e-9

    def test_two_level_table_matches_direct_table(self):
        w = np.random.default_rng(3).uniform(0.0, math.pi, 900)
        wi = np.outer(w, np.arange(render._BLOCK, dtype=float))
        direct = np.concatenate([np.sin(wi), np.cos(wi)])
        table = render._phasors(w, 1, render._BLOCK).reshape(1800, render._BLOCK)
        assert float(np.max(np.abs(table - direct))) <= 1e-12

    def test_frame_axis_matches_one_bank_at_a_time(self):
        # three banks of different component counts, padded to one width
        rng = np.random.default_rng(11)
        banks = [random_bank(rng, 5, "mixed", 40.0 * (k + 1), 900.0) for k in range(3)]
        freq, amp, triangle = (np.stack([getattr(b, k) for b in banks]) for k in ("freq", "amp", "triangle"))
        phases = rng.uniform(0.0, 2 * math.pi, (3, 5))
        gains = rng.uniform(0.0, 1.0, (3, 5, 2))
        out = np.zeros((3, 1500, 2))
        render._accumulate(freq, amp, triangle, phases, gains, out, 8000)
        for k, bank in enumerate(banks):
            ref = reference_bank(bank, phases[k], gains[k], 1500, 8000)
            assert float(np.max(np.abs(out[k] - ref))) <= 1e-9

    def test_twins_render_as_one_sinusoid(self, sinusoids):
        # 440 Hz three times with other phases and per-channel gains, 700 Hz
        # twice at phase 0 (no quadrature part), and two triangles on one
        # clipped fundamental, whose odd harmonics coincide one for one
        sr = 8000
        rng = np.random.default_rng(21)
        freq = np.array([440.0, 300.0, 440.0, 700.0, 55.0, 440.0, 700.0, 55.0])
        triangle = np.array([0, 0, 0, 0, 1, 0, 0, 1], dtype=bool)
        phases = rng.uniform(0.0, 2 * math.pi, 8)
        phases[[3, 6]] = 0.0
        bank = PartialBank(freq, rng.uniform(0.2, 1.0, 8), phases, triangle, 0.5, False)
        gains = rng.uniform(0.0, 1.0, (8, 3))
        out = np.zeros((3000, 3))
        render._accumulate(bank.freq, bank.amp, bank.triangle, phases, gains, out, sr)
        assert float(np.max(np.abs(out - reference_bank(bank, phases, gains, 3000, sr)))) <= 1e-9
        # 6 sines and 2 x 36 harmonics, on 1 + 1 + 1 + 36 frequencies: 440 Hz
        # as two sinusoids, 700 Hz as one, each harmonic pair as at most two
        ((given, (rendered, columns)),) = sinusoids
        assert (given, columns) == (78, 3)
        assert 1 + 2 + 1 + 36 <= rendered <= 1 + 2 + 1 + 2 * 36

    @pytest.mark.parametrize("channels", [2, 4])
    def test_bank_that_pans_as_one_renders_one_column(self, channels, sinusoids):
        sr = 8000
        rng = np.random.default_rng(channels)
        bank = random_bank(rng, 6, "mixed", 40.0, 1500.0)
        gains = np.tile(rng.uniform(0.1, 1.0, channels), (6, 1))
        out = np.zeros((2500, channels))
        render._accumulate(bank.freq, bank.amp, bank.triangle, bank.phase, gains, out, sr)
        ref = reference_bank(bank, bank.phase, gains, 2500, sr)
        assert float(np.max(np.abs(out - ref))) <= 1e-9
        # one row that differs renders every channel
        gains[3, 0] *= 0.5
        render._accumulate(bank.freq, bank.amp, bank.triangle, bank.phase, gains, out, sr)
        assert [shape[1] for _, shape in sinusoids] == [1, channels]

    def test_frame_axis_with_one_gain_row_per_frame(self, sinusoids):
        # as render_sweep calls it: gains (frames, 1, channels), a pan per frame
        rng = np.random.default_rng(12)
        banks = [random_bank(rng, 5, "mixed", 60.0 * (k + 1), 900.0) for k in range(3)]
        freq, amp, triangle, phases = (
            np.stack([getattr(b, k) for b in banks]) for k in ("freq", "amp", "triangle", "phase")
        )
        gains = spatial_gains(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), (-1, 1, -1, 1), 4)
        out = np.zeros((3, 1500, 4))
        render._accumulate(freq, amp, triangle, phases, gains[:, None, :], out, 8000)
        for k, bank in enumerate(banks):
            ref = reference_bank(bank, phases[k], np.tile(gains[k], (5, 1)), 1500, 8000)
            assert float(np.max(np.abs(out[k] - ref))) <= 1e-9
        assert [shape[1] for _, shape in sinusoids] == [1]

    def test_many_short_banks_render_in_groups(self, monkeypatch):
        # 2000 banks of 48 samples, as a sweep of 1 ms frames at 48 kHz makes
        # them: each bank's in-block table is still a whole block, so the
        # banks render in groups whose working arrays fit _WORKING_SET
        rng = np.random.default_rng(4)
        freq = rng.uniform(100.0, 3000.0, (2000, 5))
        amp, phases = rng.uniform(0.0, 1.0, (2, 2000, 5))
        triangle = np.zeros((2000, 5), dtype=bool)
        gains = rng.uniform(0.0, 1.0, (2000, 1, 2))
        out = np.zeros((2000, 48, 2))
        tracemalloc.start()
        try:
            render._accumulate(freq, amp, triangle, phases, gains, out, 48000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < render._WORKING_SET
        # banks one at a time add the same bytes
        monkeypatch.setattr(render, "_WORKING_SET", 1)
        alone = np.zeros((300, 48, 2))
        render._accumulate(freq[:300], amp[:300], triangle[:300], phases[:300], gains[:300], alone, 48000)
        assert alone.tobytes() == out[:300].tobytes()

    def test_two_level_block_starts_match_direct(self):
        # radians per sample and offsets on a 2**-10 lattice, so that every
        # angle here is exact in float64 and only the two-level product of
        # sines and cosines can differ from those of the angle itself
        rng = np.random.default_rng(5)
        w = rng.integers(1, 3217, (3, 40)) / 1024.0
        offset = rng.integers(0, 6434, (3, 40)) / 1024.0
        for count, start in ((1, 0), (2, 0), (75, 0), (256, 0), (200, 3 * render._SPAN)):
            got = render._phasors(w, render._BLOCK, count, start, offset)
            angle = offset[..., None] + w[..., None] * (start + render._BLOCK * np.arange(count))
            assert got.shape == (3, 2, 40, count)
            assert float(np.max(np.abs(got[:, 0] - np.sin(angle)))) <= 1e-12
            assert float(np.max(np.abs(got[:, 1] - np.cos(angle)))) <= 1e-12

    def test_work_counts_of_mappings_I_and_IV(self, sinusoids):
        sr = 16000
        field = sample_field(FockState(0), default_grid(FockState(0)))
        bank = method1_grid(field, MapConfig())
        out = np.zeros((1200, 1))
        render._accumulate(bank.freq, bank.amp, bank.triangle, bank.phase, np.ones((1, 1)), out, sr)
        ref = reference_bank(bank, bank.phase, np.ones((900, 1)), 1200, sr)
        assert float(np.max(np.abs(out - ref))) <= 1e-9
        # 900 partials on a few dozen distinct frequencies
        distinct = np.unique(bank.freq).size
        ((given, (rendered, columns)),) = sinusoids
        assert given == 900 and distinct < 50 and rendered <= 2 * distinct
        cfg = MapConfig(waveform="triangle")
        bank = method4_moments(compute_moments(field), cfg)
        gains = partial_gains(bank, field, 4)
        out = np.zeros((1200, 4))
        render._accumulate(bank.freq, bank.amp, bank.triangle, bank.phase, gains, out, sr)
        assert float(np.max(np.abs(out - reference_bank(bank, bank.phase, gains, 1200, sr)))) <= 1e-9
        assert sinusoids[1][1][1] == 1

    def test_renders_are_byte_identical(self):
        rng = np.random.default_rng(7)
        bank = random_bank(rng, 40, "mixed", 40.0, 3000.0)
        gains = rng.uniform(0.0, 1.0, (40, 4))
        a = synth(bank, sample_rate=16000, gains=gains)
        b = synth(bank, sample_rate=16000, gains=gains)
        assert a.samples.tobytes() == b.samples.tobytes()
        traj = SweepTrajectory(((0j, -1.0 + 0j, 0.8),))
        c = render_sweep(trajectory=traj, sample_rate=8000, channels=2)
        d = render_sweep(trajectory=traj, sample_rate=8000, channels=2)
        assert c.samples.tobytes() == d.samples.tobytes()

    @pytest.mark.parametrize("waveform", ["sine", "triangle"])
    def test_nyquist_raises_before_any_work(self, waveform):
        # the offending fundamental sits last; nothing may be added first
        freq = np.array([100.0] * 300 + [4000.0])
        triangle = np.full(301, waveform == "triangle")
        out = np.full((1000, 2), 3.0)
        with pytest.raises(NyquistViolation, match="4000.0 Hz"):
            render._accumulate(
                freq, np.ones(301), triangle, np.zeros(301), np.ones((301, 2)), out, 8000
            )
        assert np.all(out == 3.0)


class TestTrajectory:
    def test_default_totals_273_seconds(self):
        t = default_trajectory()
        assert sum(seg[2] for seg in t.segments) == pytest.approx(273.0)

    def test_interpolation(self):
        t = SweepTrajectory(((0j, -2.0 + 0j, 10.0),))
        assert t.delta_alpha_at(0.0) == 0j
        assert t.delta_alpha_at(5.0) == pytest.approx(-1.0 + 0j)
        assert t.delta_alpha_at(10.0) == pytest.approx(-2.0 + 0j)
        # clamped beyond the end
        assert t.delta_alpha_at(11.0) == pytest.approx(-2.0 + 0j)

    def test_multi_segment_continuity(self):
        t = SweepTrajectory(((0j, -1 + 0j, 1.0), (-1 + 0j, -3 + 0j, 2.0)))
        assert t.delta_alpha_at(1.0) == pytest.approx(-1.0 + 0j)
        assert t.delta_alpha_at(2.0) == pytest.approx(-2.0 + 0j)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            SweepTrajectory(((0j, -1 + 0j, 0.0),))

    def test_rejects_endpoint_whose_square_overflows(self):
        with pytest.raises(ValueError, match=r"delta_alpha = \(1e\+200\+0j\) is not finite"):
            SweepTrajectory(((0j, -1 + 0j, 1.0), (-1 + 0j, 1e200 + 0j, 2.0)))


def reference_sweep(trajectory, cfg, sample_rate, frame_seconds, channels):
    """The per-frame loop the batched sweep replaced: one state, field,
    moment set and bank per frame, each frame rendered by reference_bank.
    Returns the normalized float64 mix and each frame's (r0, sigma_r)."""
    n_total = int(round(trajectory.total_seconds * sample_rate))
    n_frame = int(round(frame_seconds * sample_rate))
    hop = n_frame // 2
    hop_seconds = hop / sample_rate
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n_frame) / n_frame)
    out = np.zeros((n_total, channels))
    ends = np.array([(z.real, z.imag) for a, b, _ in trajectory.segments for z in (a, b)])
    lo, hi = ends.min(axis=0) - 5.0, ends.max(axis=0) + 5.0
    phases = np.zeros(cfg.n_osc)
    track = []
    for start in range(0, n_total, hop):
        shift = trajectory.delta_alpha_at(start / sample_rate)
        state = FockState(1) if abs(shift) <= 1e-3 else CatState(shift)
        moments = compute_moments(sample_field(state, default_grid(state)))
        track.append((moments.r0, moments.sigma_r))
        bank = method4_moments(moments, cfg, duration=frame_seconds)
        g = spatial_gains(moments.r0, moments.p0, (lo[0], hi[0], lo[1], hi[1]), channels)
        gains = np.broadcast_to(g, (cfg.n_osc, channels))
        frame = reference_bank(bank, phases, gains, n_frame, sample_rate) * window[:, None]
        stop = min(start + n_frame, n_total)
        out[start:stop] += frame[: stop - start]
        phases = (phases + 2.0 * math.pi * bank.freq * hop_seconds) % (2.0 * math.pi)
    return out * (TARGET_PEAK / np.max(np.abs(out))), np.array(track)


class TestBatchedSweep:
    """render_sweep against the per-frame reference_sweep."""

    @pytest.mark.parametrize(
        "channels, frame_seconds, seconds",
        [
            (1, 0.25, 3.3),
            (2, 0.25, 3.3),
            (4, 0.25, 3.3),
            (1, 0.250125, 3.3),  # 2001-sample frames: frames k and k + 2 share a sample
            (2, 0.250125, 3.1375),  # and a last frame cut short mid-hop
        ],
    )
    def test_matches_per_frame_reference(self, channels, frame_seconds, seconds, monkeypatch):
        # from shift 0, so the first frames are the number state, then a
        # complex leg; 3.3 s holds 26 to 27 frames, here in several chunks of
        # fields and of audio
        monkeypatch.setattr(render, "_FIELD_FRAMES", 10)
        sr = 8000
        traj = SweepTrajectory(((0j, -1.2 + 0j, 1.5), (-1.2 + 0j, -2.0 + 0.6j, seconds - 1.5)))
        cfg = MapConfig(f0_mode="sigma_r")
        buf = render_sweep(traj, cfg, sample_rate=sr, frame_seconds=frame_seconds, channels=channels)
        ref, track = reference_sweep(traj, cfg, sr, frame_seconds, channels)
        assert buf.samples.shape == ref.shape
        # float32 rounding of samples below 0.9 moves them by at most 6e-8;
        # dropping the sample that odd frames k and k + 2 share would move
        # it by about 2.5e-6 times the frame's value there (9e-7 here)
        assert float(np.max(np.abs(buf.samples - ref))) <= 2e-7

        hop = int(round(frame_seconds * sr)) // 2
        shifts = np.array([traj.delta_alpha_at(s / sr) for s in range(0, ref.shape[0], hop)])
        assert abs(shifts[0]) <= 1e-3 < abs(shifts[-1])
        r0, _, sigma_r = render._frame_moments(shifts)
        np.testing.assert_allclose(r0, track[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(sigma_r, track[:, 1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fields_per_chunk, frames_per_chunk", [(1, 1), (5, 5), (7, 8)])
    def test_chunking(self, fields_per_chunk, frames_per_chunk, monkeypatch):
        # 24 frames of 2001 samples: one chunk of fields, and chunks of 23
        # and 1 frames of audio at 8 kHz mono by default. The audio chunks
        # leave the bytes; a stack of fields of another depth sums its
        # moments in another order, which moves samples by rounding only
        traj = SweepTrajectory(((0j, -1.5 + 0j, 3.0),))
        a = render_sweep(traj, sample_rate=8000, frame_seconds=0.250125)
        monkeypatch.setattr(render, "_AUDIO_SAMPLES", frames_per_chunk * 2001)
        b = render_sweep(traj, sample_rate=8000, frame_seconds=0.250125)
        assert a.samples.tobytes() == b.samples.tobytes()
        monkeypatch.setattr(render, "_FIELD_FRAMES", fields_per_chunk)
        c = render_sweep(traj, sample_rate=8000, frame_seconds=0.250125)
        assert float(np.max(np.abs(a.samples - c.samples))) <= 2e-7

    def test_faults_come_before_any_audio(self, monkeypatch):
        # the envelope centre follows r0 = shift down to -3, so only the
        # last frames' partials pass the 4 kHz Nyquist limit at 8 kHz
        def no_audio(*args):
            raise AssertionError("audio rendered before the fault was found")

        monkeypatch.setattr(render, "_accumulate", no_audio)
        cfg = MapConfig(f0_base=1000.0, f0_slope=-1200.0, q_slope=10.0)
        traj = SweepTrajectory(((-0.5 + 0j, -3.0 + 0j, 2.0),))
        with pytest.raises(NyquistViolation, match="needs a rate above"):
            render_sweep(traj, cfg, sample_rate=8000)

    @pytest.mark.parametrize("rate", [8000.5, True, 0])
    def test_rate_must_be_a_positive_whole_number(self, rate):
        traj = SweepTrajectory(((0j, -1.0 + 0j, 0.8),))
        with pytest.raises(ValueError) as info:
            render_sweep(trajectory=traj, sample_rate=rate)
        assert "sample rate must be positive" in str(info.value) and repr(rate) in str(info.value)

    @pytest.mark.parametrize("channels", [True, 3, 2.5])
    def test_channels_must_be_1_2_or_4(self, channels):
        traj = SweepTrajectory(((0j, -1.0 + 0j, 0.8),))
        with pytest.raises(ValueError, match=f"channels must be 1, 2, or 4, got {channels!r}"):
            render_sweep(trajectory=traj, sample_rate=8000, channels=channels)


class TestRenderSweep:
    def test_sample_count_exact(self):
        traj = SweepTrajectory(((0j, -1.0 + 0j, 0.8),))
        buf = render_sweep(trajectory=traj, sample_rate=8000)
        assert buf.samples.shape == (6400, 1)

    def test_peak_master_normalized(self):
        traj = SweepTrajectory(((0j, -1.0 + 0j, 0.8),))
        buf = render_sweep(trajectory=traj, sample_rate=8000)
        assert float(np.max(np.abs(buf.samples))) == pytest.approx(TARGET_PEAK, abs=1e-6)

    def test_constant_trajectory_is_stationary(self):
        # constant shift: every frame sees the same state, so the envelope
        # anchor is frame-invariant and the rendered spectrum static
        traj = SweepTrajectory(((-1.0 + 0j, -1.0 + 0j, 2.0),))
        cfg_sweep = MapConfig(f0_mode="sigma_r")
        f0s = []
        for t in (0.0, 0.5, 1.0, 1.5):
            state = CatState(traj.delta_alpha_at(t))
            m = compute_moments(sample_field(state, default_grid(state)))
            f0s.append(cfg_sweep.f0_base + cfg_sweep.f0_slope * m.sigma_r)
        assert float(np.var(f0s)) < 1e-6

        sr = 8000
        buf = render_sweep(trajectory=traj, cfg=cfg_sweep, sample_rate=sr)
        interior = sonogram_db(stft_sonogram(buf, window=2048, hop=1024))[2:-2]
        peaks = np.argmax(interior, axis=1)
        assert np.all(peaks == peaks[0])

    def test_constant_tail_width_matches_moments(self):
        # hold the shift at -3: the spectral envelope width should track the
        # measured field width through sigma_f = q_slope * sigma_r
        traj = SweepTrajectory(((-3.0 + 0j, -3.0 + 0j, 2.0),))
        sr = 48000
        buf = render_sweep(trajectory=traj, sample_rate=sr)
        window = 8192
        db = sonogram_db(stft_sonogram(buf, window=window, hop=window))
        frame = db[len(db) // 2]

        state = CatState(-3.0)
        m = compute_moments(sample_field(state, default_grid(state)))
        cfg_sweep = MapConfig(f0_mode="sigma_r")
        bank = method4_moments(m, cfg_sweep, 1.0)
        freqs = bank.freq
        idx = np.round(freqs * window / sr).astype(int)
        dbs = frame[idx]
        # parabola fit of dB against frequency recovers the Gaussian width
        coeffs = np.polyfit(freqs - freqs.mean(), dbs, 2)
        sigma_f = math.sqrt(-10.0 * math.log10(math.e) / coeffs[0])
        assert sigma_f == pytest.approx(cfg_sweep.q_slope * m.sigma_r, rel=0.05)


class TestRenderSizeLimits:
    """More samples times channels than MAX_SAMPLES, or more sweep frames
    than MAX_SWEEP_FRAMES, are refused naming the count before any audio
    is rendered; a render at a limit is made. Checked against small
    limits."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_synth_samples(self, channels, monkeypatch):
        monkeypatch.setattr(render, "MAX_SAMPLES", 800 * channels)
        gains = None if channels == 1 else np.full((1, channels), 0.5)
        buf = synth(one_partial_bank(duration=0.1), sample_rate=8000, gains=gains)
        assert buf.samples.shape == (800, channels)
        monkeypatch.setattr(render, "_accumulate", None)
        refused = (
            rf"^note of 0.1001 s at 8000 Hz is {801 * channels} samples over {channels} "
            rf"channel\(s\), above the limit of {800 * channels}$"
        )
        with pytest.raises(ValueError, match=refused):
            synth(one_partial_bank(duration=0.1001), sample_rate=8000, gains=gains)
        with pytest.raises(ValueError, match=r"^note of 1e\+305 s at 8000 Hz is inf samples"):
            synth(one_partial_bank(duration=1e305), sample_rate=8000, gains=gains)

    def test_synth_components(self, monkeypatch):
        # a triangle at f counts floor(4000 / f / 2) + 1 odd harmonics at 8 kHz
        monkeypatch.setattr(render, "MAX_COMPONENTS", 2)
        buf = synth(one_partial_bank(freq=1001.0, waveform="triangle", duration=0.1), sample_rate=8000)
        assert buf.samples.shape == (800, 1)
        refused = r"^partials down to 1000 Hz at 8000 Hz make 3 sine components, above the limit of 2$"
        with pytest.raises(ValueError, match=refused):
            synth(one_partial_bank(freq=1000.0, waveform="triangle", duration=0.1), sample_rate=8000)

    @pytest.mark.parametrize("freq, count", [(1e-300, "2e+303"), (5e-324, "inf")])
    def test_triangle_far_below_the_rate_refused_without_warning(self, freq, count):
        # its harmonic count was cast to int with a RuntimeWarning, or formed
        # millions of components until memory ran out
        bank = one_partial_bank(freq=freq, waveform="triangle", duration=0.1)
        message = f"partials down to {freq:.6g} Hz at 8000 Hz make {count} sine components, above the limit of 1048576"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            synth(bank, sample_rate=8000)

    def test_sweep_samples_and_frames(self, monkeypatch):
        traj = SweepTrajectory(((0j, -1 + 0j, 1.0),))
        # 8000 samples in frames of 400 every 200 samples: 40 frames
        monkeypatch.setattr(render, "MAX_SAMPLES", 16000)
        monkeypatch.setattr(render, "MAX_SWEEP_FRAMES", 40)
        buf = render_sweep(traj, sample_rate=8000, frame_seconds=0.05, channels=2)
        assert buf.samples.shape == (8000, 2)
        monkeypatch.setattr(render, "_frame_moments", None)
        refused = r"^sweep of 1.0 s at 8000 Hz is 32000 samples over 4 channel\(s\), above the limit of 16000$"
        with pytest.raises(ValueError, match=refused):
            render_sweep(traj, sample_rate=8000, frame_seconds=0.05, channels=4)
        # frames of 392 samples every 196: 41 frames
        with pytest.raises(ValueError, match=r"^41 frames of 0.049 s exceed the limit of 40$"):
            render_sweep(traj, sample_rate=8000, frame_seconds=0.049, channels=2)
        with pytest.raises(ValueError, match=r"^frame of 1e\+305 s at 8000 Hz is inf samples"):
            render_sweep(traj, sample_rate=8000, frame_seconds=1e305)

    def test_sweep_partials(self, monkeypatch):
        # 40 frames of 21 partials
        traj = SweepTrajectory(((0j, -1 + 0j, 1.0),))
        monkeypatch.setattr(render, "MAX_SWEEP_PARTIALS", 840)
        assert render_sweep(traj, sample_rate=8000, frame_seconds=0.05).samples.shape == (8000, 1)
        monkeypatch.setattr(render, "_frame_moments", None)
        refused = r"^40 frames of n_osc = 23 partials are 920 partials, above the limit of 840$"
        with pytest.raises(ValueError, match=refused):
            render_sweep(traj, cfg=MapConfig(n_osc=23), sample_rate=8000, frame_seconds=0.05)

    def test_byte_rate_a_wav_header_cannot_hold(self, tmp_path, monkeypatch):
        # 268435455 Hz is the highest rate whose 4-channel byte rate fits
        # the header's 32 bits; one hertz more is refused before any render
        gains = np.full((1, 4), 0.5)
        buf = synth(one_partial_bank(duration=1e-6), sample_rate=268_435_455, gains=gains)
        write_wav(buf, tmp_path / "fast.wav")
        assert read_wav(tmp_path / "fast.wav").sample_rate == 268_435_455
        monkeypatch.setattr(render, "_accumulate", None)
        refused = (
            r"^268435456 Hz over 4 channel\(s\) of 4-byte samples is 4294967296 bytes per second, "
            r"above the WAV header's limit of 4294967295$"
        )
        with pytest.raises(ValueError, match=refused):
            synth(one_partial_bank(duration=1e-6), sample_rate=268_435_456, gains=gains)
        traj = SweepTrajectory(((0j, -1 + 0j, 1e-6),))
        with pytest.raises(ValueError, match=r"^5000000000 Hz over 1 channel\(s\) of 4-byte"):
            render_sweep(traj, sample_rate=5_000_000_000, frame_seconds=1e-8)

    def test_frame_and_trajectory_too_short_are_told_apart(self):
        traj = SweepTrajectory(((0j, -1 + 0j, 1.0),))
        short = r"^frame_seconds 0.000375 gives 3 samples at 8000 Hz; a frame needs at least 4$"
        with pytest.raises(ValueError, match=short):
            render_sweep(traj, sample_rate=8000, frame_seconds=0.000375)
        with pytest.raises(ValueError, match=r"^a trajectory of 0\.1 s gives 800 samples at 8000 Hz, fewer than the 4000 of one frame$"):
            render_sweep(SweepTrajectory(((0j, -1 + 0j, 0.1),)), sample_rate=8000, frame_seconds=0.5)


def sonogram_db(sono):
    """The sonogram's (times, freqs) matrix: its chunks stacked in order."""
    return np.concatenate([db for _, db in sono.chunks()])


def reference_sonogram_db(buffer, window, hop):
    """The per-frame loop the batched FFTs replaced: one rfft per frame."""
    mono = np.mean(np.asarray(buffer.samples, dtype=float), axis=1)
    w = np.hanning(window)
    scale = 2.0 / float(np.sum(w))
    n_frames = 1 + (mono.size - window) // hop
    mags = np.empty((n_frames, window // 2 + 1))
    for k in range(n_frames):
        mags[k] = np.abs(np.fft.rfft(mono[k * hop : k * hop + window] * w)) * scale
    return 20.0 * np.log10(np.maximum(mags, 10.0 ** (render.DB_FLOOR / 20.0)))


class TestSonogram:
    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_matches_per_frame_reference(self, channels):
        # 1300 frames: two full chunks of 512 and a partial one
        window, hop, n_frames = 64, 16, 1300
        n = window + hop * (n_frames - 1) + 7
        x = np.random.default_rng(channels).uniform(-0.9, 0.9, (n, channels)).astype(np.float32)
        x[: n // 3] *= 1e-7  # quiet enough to reach the dB floor
        buf = AudioBuffer(x, 8000)
        sono = stft_sonogram(buf, window=window, hop=hop)
        assert render._STFT_CHUNK_SAMPLES // window == 512 and sono.times.size == n_frames
        assert np.array_equal(sonogram_db(sono), reference_sonogram_db(buf, window, hop))

    def test_pure_tone_peak_bin(self):
        sr = 8000
        t = np.arange(sr) / sr
        x = (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32).reshape(-1, 1)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=512)
        frame = sonogram_db(sono)[5]
        peak = sono.freqs[int(np.argmax(frame))]
        assert peak == pytest.approx(440.0, abs=sr / 1024.0)

    def test_shapes_and_axes(self):
        sr = 8000
        x = np.zeros((4096, 1), dtype=np.float32)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=256)
        assert sonogram_db(sono).shape == (13, 513)
        assert sono.freqs[0] == 0.0
        assert sono.freqs[-1] == sr / 2.0
        assert sono.times[0] == pytest.approx(512.0 / sr)

    def test_db_floor(self):
        sr = 8000
        x = np.zeros((2048, 1), dtype=np.float32)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=512)
        db = sonogram_db(sono)
        assert float(db.min()) == -120.0
        assert float(db.max()) == -120.0

    def test_too_short_rejected(self):
        x = np.zeros((512, 1), dtype=np.float32)
        with pytest.raises(BufferTooShort):
            stft_sonogram(AudioBuffer(x, 8000), window=1024, hop=512)

    def test_csv_written(self, tmp_path):
        sr = 8000
        t = np.arange(2048) / sr
        x = (0.25 * np.sin(2 * np.pi * 500.0 * t)).astype(np.float32).reshape(-1, 1)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=512)
        path = tmp_path / "sono.csv"
        write_sonogram_csv(sono, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith(",")
        assert len(lines) == 1 + len(sono.times)
        assert len(lines[1].split(",")) == 1 + len(sono.freqs)

    def test_csv_matches_per_value_format(self, tmp_path):
        sr = 44100  # times with more than nine digits
        x = np.zeros((4096, 1), dtype=np.float32)
        x[2048:, 0] = 0.3 * np.sin(2 * np.pi * 700.0 * np.arange(2048) / sr)
        stream = stft_sonogram(AudioBuffer(x, sr), window=256, hop=200)
        db = sonogram_db(stream)
        assert float(db.min()) == -120.0
        db[-1, :4] = [-0.0, 1e-300, 1e21, 123456789.123]
        sono = FakeSonogram(stream.times, stream.freqs, db)
        path = tmp_path / "sono.csv"
        write_sonogram_csv(sono, path)
        lines = ["," + ",".join(format(f, ".9g") for f in sono.freqs)]
        for t, row in zip(sono.times, db):
            lines.append(format(t, ".9g") + "," + ",".join(format(v, ".9g") for v in row))
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "row",
        [
            [-3.5, -60.25, 0.0, -150.25, 12.0],  # one cell below the floor
            [DB_FLOOR] * 5,
            [DB_FLOOR, -1.0, -2.0, -3.0, -4.0],
            [-1.0, -2.0, -3.0, -4.0, DB_FLOOR],
            [DB_FLOOR, DB_FLOOR, -7.125, DB_FLOOR, DB_FLOOR],
            [DB_FLOOR, -119.9999999999, DB_FLOOR, DB_FLOOR, -120.0000000001],
        ],
        ids=["no-floor", "all-floor", "floor-first", "floor-last", "live-between-runs", "live-as-floor-text"],
    )
    def test_csv_floor_runs_match_per_value_format(self, row, tmp_path):
        sono = FakeSonogram(
            np.array([0.0232199546, 1.0 / 3.0]),
            np.linspace(0.0, 4000.0, len(row)),
            np.array([row, row[::-1]]),
        )
        path = tmp_path / "sono.csv"
        write_sonogram_csv(sono, path)
        assert path.read_text() == per_value_sonogram_csv(sono.times, sono.freqs, sono.db)

    # window 2048 takes 16 frames a chunk: 15, 16, 17 frames sit around one
    # chunk, 31, 32, 33 around two, and hop 3000 leaves gaps between frames
    @pytest.mark.parametrize("channels", [1, 2, 4])
    @pytest.mark.parametrize(
        "n_frames, hop",
        [(1, 512), (15, 512), (16, 512), (17, 512), (31, 512), (32, 512), (33, 512), (17, 3000)],
    )
    def test_stream_matches_matrix_csv(self, channels, n_frames, hop, tmp_path):
        window = 2048
        n = window + hop * (n_frames - 1) + 5
        x = np.random.default_rng(n_frames).uniform(-0.9, 0.9, (n, channels)).astype(np.float32)
        x[: n // 3] *= 1e-7  # quiet enough to reach the dB floor
        buf = AudioBuffer(x, 44100)
        stream = SonogramStream(buf, window, hop)
        sizes = [t.size for t, _ in stream.chunks()]
        assert sum(sizes) == n_frames and max(sizes) == min(16, n_frames)
        path = tmp_path / "sono.csv"
        write_sonogram_csv(stream, path)
        times = (np.arange(n_frames) * hop + window / 2.0) / 44100
        freqs = np.fft.rfftfreq(window, 1.0 / 44100)
        want = per_value_sonogram_csv(times, freqs, reference_sonogram_db(buf, window, hop))
        assert path.read_text() == want

    def test_failed_write_keeps_what_was_there(self, tmp_path, failed_write):
        x = np.random.default_rng(3).uniform(-0.9, 0.9, (8192, 1)).astype(np.float32)
        path, sono = tmp_path / "sono.csv", SonogramStream(AudioBuffer(x, 8000), 1024, 512)
        failed_write(render, lambda: write_sonogram_csv(sono, path))
        write_sonogram_csv(SonogramStream(AudioBuffer(x[:2048], 8000), 1024, 512), path)
        failed_write(render, lambda: write_sonogram_csv(sono, path))

    def test_stream_memory_does_not_grow_with_frames(self, tmp_path):
        # WAV to CSV through the command: past the WAV's own bytes, the peak
        # is a chunk of frames and its text, however long the audio
        sr = 8000
        peaks = []
        for seconds in (16, 64):
            t = np.arange(seconds * sr) / sr
            wav, csv = tmp_path / f"{seconds}.wav", tmp_path / f"{seconds}.csv"
            write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t), sr), wav)
            tracemalloc.start()
            try:
                assert cli_main(["sonogram", "--audio", str(wav), "--out", str(csv)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - wav.stat().st_size)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0] + (64 << 10)


class TestKernelWorkingSet:
    @pytest.mark.parametrize("seconds", [2.0, 8.0])
    def test_synth_holds_its_output_and_the_working_set(self, seconds):
        # 4-channel notes longer than one span: a bank that pans as one (21
        # triangle partials, one column scaled into the channels) and mapping
        # I's 900 panned partials (one column per channel). Past the float64
        # mix, whose buffer the float32 samples share, synth holds at most
        # the kernel's working set, however long the note
        assert seconds * 48000 > render._SPAN
        field = sample_field(FockState(5), default_grid(FockState(5)))
        banks = (
            method4_moments(compute_moments(field), MapConfig(waveform="triangle"), seconds),
            method1_grid(field, MapConfig(), seconds),
        )
        for bank in banks:
            gains = partial_gains(bank, field, 4)
            tracemalloc.start()
            try:
                synth(bank, 48000, gains)
                peak = tracemalloc.get_traced_memory()[1] - round(seconds * 48000) * 4 * 8
            finally:
                tracemalloc.stop()
            assert peak < render._WORKING_SET, (bank.freq.size, peak)


@dataclass(frozen=True, eq=False)
class FakeSonogram:
    """What write_sonogram_csv reads of a sonogram, from given values: the
    frequency axis and the rows in one chunk."""

    times: np.ndarray
    freqs: np.ndarray
    db: np.ndarray

    def chunks(self):
        yield self.times, self.db


def per_value_sonogram_csv(times, freqs, db):
    """The sonogram CSV text with format(v, ".9g") called on every value."""
    lines = ["," + ",".join(format(f, ".9g") for f in freqs)]
    for t, row in zip(times, db):
        lines.append(format(t, ".9g") + "," + ",".join(format(v, ".9g") for v in row))
    return "\n".join(lines) + "\n"


class TestWavIo:
    def test_round_trip_bit_exact(self, tmp_path):
        buf = synth(one_partial_bank(freq=700.0, duration=0.3), sample_rate=22050)
        path = tmp_path / "tone.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert back.sample_rate == 22050
        assert np.array_equal(back.samples, buf.samples)

    def test_round_trip_multichannel(self, tmp_path):
        gains = np.array([[0.5, 0.5, 0.5, 0.5]])
        buf = synth(one_partial_bank(), sample_rate=8000, gains=gains)
        path = tmp_path / "quad.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert back.samples.shape == buf.samples.shape
        assert np.array_equal(back.samples, buf.samples)

    def test_header_fields(self, tmp_path):
        buf = synth(one_partial_bank(duration=0.1), sample_rate=8000)
        path = tmp_path / "t.wav"
        write_wav(buf, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RIFF"
        assert raw[8:12] == b"WAVE"
        assert int.from_bytes(raw[20:22], "little") == 3  # IEEE float
        assert int.from_bytes(raw[34:36], "little") == 32

    def test_rejects_non_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_rejects_integer_pcm(self, tmp_path):
        # hand-built 16-bit PCM header
        data = (np.zeros(16, dtype="<i2")).tobytes()
        hdr = b"RIFF" + (36 + len(data)).to_bytes(4, "little") + b"WAVE"
        fmt = (
            b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + (8000).to_bytes(4, "little") + (16000).to_bytes(4, "little")
            + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
        )
        chunk = b"data" + len(data).to_bytes(4, "little") + data
        path = tmp_path / "pcm16.wav"
        path.write_bytes(hdr + fmt + chunk)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_rejects_truncated(self, tmp_path):
        buf = synth(one_partial_bank(duration=0.1), sample_rate=8000)
        path = tmp_path / "t.wav"
        write_wav(buf, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.wav"
        cut.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(UnsupportedFormat):
            read_wav(cut)

    def test_skips_foreign_chunks(self, tmp_path):
        buf = synth(one_partial_bank(duration=0.05), sample_rate=8000)
        path = tmp_path / "t.wav"
        write_wav(buf, path)
        raw = bytearray(path.read_bytes())
        # splice a LIST chunk between fmt and data
        extra = b"LIST" + (5).to_bytes(4, "little") + b"INFOx" + b"\x00"
        spliced = raw[:36] + extra + raw[36:]
        spliced[4:8] = (len(spliced) - 8).to_bytes(4, "little")
        p2 = tmp_path / "spliced.wav"
        p2.write_bytes(bytes(spliced))
        back = read_wav(p2)
        assert np.array_equal(back.samples, buf.samples)

    def test_failed_write_keeps_what_was_there(self, tmp_path, failed_write):
        path, buf = tmp_path / "t.wav", synth(one_partial_bank(duration=0.1), sample_rate=8000)
        failed_write(render, lambda: write_wav(buf, path))
        write_wav(synth(one_partial_bank(freq=700.0, duration=0.05), sample_rate=8000), path)
        failed_write(render, lambda: write_wav(buf, path))

    def test_symlinked_path_is_written_through(self, tmp_path):
        # a path that is no regular file is written in place: the link stays,
        # and its target gets the new bytes
        target, link = tmp_path / "target.wav", tmp_path / "link.wav"
        target.write_bytes(b"old")
        link.symlink_to(target)
        buf = synth(one_partial_bank(duration=0.05), sample_rate=8000)
        write_wav(buf, link)
        assert link.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == ["link.wav", "target.wav"]
        assert np.array_equal(read_wav(target).samples, buf.samples)

    def test_reads_a_pipe(self, tmp_path):
        # a pipe has no size to allocate the read buffer from
        buf = synth(one_partial_bank(duration=0.05), sample_rate=8000)
        path = tmp_path / "t.wav"
        write_wav(buf, path)
        r, w = os.pipe()
        with os.fdopen(w, "wb") as fh:
            fh.write(path.read_bytes())  # under 2 kB, inside the pipe buffer
        try:
            back = read_wav(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert np.array_equal(back.samples, buf.samples)

    def test_io_copies_no_samples(self, tmp_path):
        # 960 000 mono samples, a 3.84 MB file: write_wav writes the sample
        # buffer itself, and read_wav's samples view its one read buffer
        buf = AudioBuffer(np.linspace(-0.5, 0.5, 960_000, dtype=np.float32), 48000)
        path = tmp_path / "long.wav"
        size = 44 + buf.samples.nbytes
        tracemalloc.start()
        try:
            write_wav(buf, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            back = read_wav(path)
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == size
        assert write_peak < 0.5 * size
        assert read_peak < 1.1 * size  # the finiteness check makes no mask of the samples
        assert back.samples.flags.writeable
        assert np.array_equal(back.samples, buf.samples)


class TestAudioBuffer:
    def test_coercion(self):
        buf = AudioBuffer(np.zeros((10, 1), dtype=np.float64), 8000)
        assert buf.samples.dtype == np.float32
        mono = AudioBuffer(np.zeros(10, dtype=np.float32), 8000)
        assert mono.samples.shape == (10, 1)
        assert mono.n_channels == 1

    @pytest.mark.parametrize("rate", [8000.7, True, np.bool_(True), 0, -8000, math.nan, None])
    def test_rate_is_never_rounded(self, rate):
        with pytest.raises(ValueError) as info:
            AudioBuffer(np.zeros((10, 1), dtype=np.float32), rate)
        assert repr(rate) in str(info.value)

    def test_whole_rates_are_stored_as_int(self):
        for rate in (48000, 48000.0, np.int32(48000), np.float64(48000.0)):
            buf = AudioBuffer(np.zeros((10, 1), dtype=np.float32), rate)
            assert buf.sample_rate == 48000 and type(buf.sample_rate) is int

    def test_validation(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((0, 1), dtype=np.float32), 8000)
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((10, 1), dtype=np.float32), 0)
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((10, 1), dtype=np.float32), -8000)
