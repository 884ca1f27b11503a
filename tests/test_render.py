import math
import os
import tracemalloc

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
    method4_moments,
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
from quasitone.render import DB_FLOOR, Sonogram

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
        method="IV",
        negative=False,
    )


class TestSynth:
    def test_shape_and_dtype(self):
        buf = synth(one_partial_bank(duration=0.25), sample_rate=8000)
        assert buf.samples.shape == (2000, 1)
        assert buf.samples.dtype == np.float32
        assert buf.sample_rate == 8000
        assert buf.duration == pytest.approx(0.25)

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
        method="IV",
        negative=False,
    )


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
        assert float(np.max(np.abs(render._block_table(w) - direct))) <= 1e-12

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
        sono = stft_sonogram(buf, window=2048, hop=1024)
        interior = sono.magnitude_db[2:-2]
        peaks = np.argmax(interior, axis=1)
        assert np.all(peaks == peaks[0])

    def test_constant_tail_width_matches_moments(self):
        # hold the shift at -3: the spectral envelope width should track the
        # measured field width through sigma_f = q_slope * sigma_r
        traj = SweepTrajectory(((-3.0 + 0j, -3.0 + 0j, 2.0),))
        sr = 48000
        buf = render_sweep(trajectory=traj, sample_rate=sr)
        window = 8192
        sono = stft_sonogram(buf, window=window, hop=window)
        frame = sono.magnitude_db[len(sono.magnitude_db) // 2]

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
        assert np.array_equal(sono.magnitude_db, reference_sonogram_db(buf, window, hop))

    def test_pure_tone_peak_bin(self):
        sr = 8000
        t = np.arange(sr) / sr
        x = (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32).reshape(-1, 1)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=512)
        frame = sono.magnitude_db[5]
        peak = sono.freqs[int(np.argmax(frame))]
        assert peak == pytest.approx(440.0, abs=sr / 1024.0)

    def test_shapes_and_axes(self):
        sr = 8000
        x = np.zeros((4096, 1), dtype=np.float32)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=256)
        assert sono.magnitude_db.shape == (13, 513)
        assert sono.freqs[0] == 0.0
        assert sono.freqs[-1] == sr / 2.0
        assert sono.times[0] == pytest.approx(512.0 / sr)

    def test_db_floor(self):
        sr = 8000
        x = np.zeros((2048, 1), dtype=np.float32)
        sono = stft_sonogram(AudioBuffer(x, sr), window=1024, hop=512)
        assert float(sono.magnitude_db.min()) == -120.0
        assert float(sono.magnitude_db.max()) == -120.0

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
        sono = stft_sonogram(AudioBuffer(x, sr), window=256, hop=200)
        assert float(sono.magnitude_db.min()) == -120.0
        sono.magnitude_db[-1, :4] = [-0.0, 1e-300, 1e21, 123456789.123]
        path = tmp_path / "sono.csv"
        write_sonogram_csv(sono, path)
        lines = ["," + ",".join(format(f, ".9g") for f in sono.freqs)]
        for t, row in zip(sono.times, sono.magnitude_db):
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
        sono = Sonogram(
            times=np.array([0.0232199546, 1.0 / 3.0]),
            freqs=np.linspace(0.0, 4000.0, len(row)),
            magnitude_db=np.array([row, row[::-1]]),
        )
        path = tmp_path / "sono.csv"
        write_sonogram_csv(sono, path)
        assert path.read_text() == per_value_sonogram_csv(sono)


def per_value_sonogram_csv(sono):
    """The sonogram CSV text with format(v, ".9g") called on every value."""
    lines = ["," + ",".join(format(f, ".9g") for f in sono.freqs)]
    for t, row in zip(sono.times, sono.magnitude_db):
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
        assert read_peak < 1.5 * size
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
