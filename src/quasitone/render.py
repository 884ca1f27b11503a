"""Audio rendering: additive synthesis, the long sweep, sonograms, WAV I/O.

synth and render_sweep go through one oscillator kernel, _accumulate,
which takes banks' frequency, amplitude and triangle-flag arrays with any
leading axes: synth passes one bank, render_sweep a chunk of frames' banks
at once. Each partial becomes sine components (a triangle becomes its odd
harmonics below Nyquist), and the components are summed by block phasor
rotation in float64, a fixed chunk of components at a time, with the
in-block sines and cosines built in two levels; the mix is cast to float32
at the very end. The summation order depends only on the input, so the
same input renders to the same bytes on every run.

render_sweep takes each frame's field, moments and envelope bank as arrays
over its frames, so every frame is known before any audio is rendered.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .analysis import compute_moments, stacked_moments
from .errors import BufferTooShort, NyquistViolation, UnsupportedFormat
from .grids import DEFAULT_HALF_WIDTH, default_edges, default_grid, edge_centers, sample_field
from .sonify import TAU, WAVE_TRIANGLE, MapConfig, PartialBank, envelope, spatial_gains
from .states import EPS_SHIFT, FockState, eval_cat

# perfbench/layers.py wraps this name by getattr; render does not call it.
from .sonify import method4_moments  # noqa: F401, E402

DEFAULT_SAMPLE_RATE = 48000

# Master peak after normalization: -1 dBFS.
TARGET_PEAK = 10.0 ** (-1.0 / 20.0)

FADE_SECONDS = 0.010

DB_FLOOR = -120.0

# Samples per batch of sonogram FFTs: 16 frames of the default 2048-sample
# window. Small batches keep the windowed copy and its spectrum in cache;
# batches of 512 such frames ran no faster and raised the peak RSS of a
# 20 s sweep's sonogram from 57 to 78 MB (2-core x86-64 host).
_STFT_CHUNK_SAMPLES = 1 << 15


# float64 values per chunk of the in-place float32 cast of a mix.
_CAST_CHUNK = 1 << 16

# Sweep frames per chunk of fields: 32 fields of 64 x 64 cells, 1 MB per
# array. With chunks of 16 and 64 the default sweep took 1.16 and 0.98 s in
# process against 0.89 s (medians of 6 runs, 2-core x86-64 host); once 1 MB
# arrays have been freed, the C allocator serves the audio pass's smaller
# arrays from memory the process already holds, without fresh page faults.
_FIELD_FRAMES = 32

# Samples (times channels) per chunk of sweep frames rendered together: 4
# frames of the default 0.25 s at 48 kHz, mono. Chunks of 2, 4, 8 and 16
# such frames took the default sweep's audio 0.59, 0.47, 0.65 and 0.62 s;
# the larger chunks' arrays no longer stay in cache (same host).
_AUDIO_SAMPLES = 4 * 12000


def _whole_rate(sample_rate) -> int:
    """The sample rate as an int. A WAV header stores a whole number of
    samples per second, so anything else (a bool too) is refused rather
    than rounded."""
    if isinstance(sample_rate, (bool, np.bool_)) or not (
        isinstance(sample_rate, numbers.Real)
        and math.isfinite(sample_rate)
        and sample_rate > 0
        and sample_rate == int(sample_rate)
    ):
        raise ValueError(f"sample rate must be positive and a whole number, got {sample_rate!r}")
    return int(sample_rate)


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Float32 audio, shape (n_samples, n_channels), plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] == 0 or s.shape[1] == 0:
            raise ValueError(f"samples must be a non-empty (n, channels) array, got {s.shape}")
        object.__setattr__(self, "samples", np.ascontiguousarray(s))
        object.__setattr__(self, "sample_rate", _whole_rate(self.sample_rate))

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.samples.shape[0] / self.sample_rate


# === additive synthesis ===


# Oscillators render in blocks of _BLOCK = _FINE**2 samples. Taking _CHUNK
# sine components and _SPAN samples (256 blocks) at a time bounds the
# kernel's working set to O(_CHUNK * _BLOCK * channels) arrays per bank,
# whatever the bank size or note length. Of 128, 256 and 512 for each, 256
# and 256 rendered 0.4 s and 4 s notes of 21 to 4600 components fastest
# (2-core x86-64 host, one BLAS thread).
_FINE = 16
_BLOCK = _FINE * _FINE
_CHUNK = 256
_SPAN = 256 * _BLOCK


def _check_nyquist(freq, sample_rate):
    """Raise NyquistViolation naming the first partial at or above half the rate."""
    too_high = freq >= 0.5 * sample_rate
    if np.any(too_high):
        f = float(freq.flat[np.argmax(too_high)])
        raise NyquistViolation(f"partial at {f:.1f} Hz needs a rate above {2 * f:.0f} Hz")


def _components(freq, amp, triangle, phases, sample_rate):
    """The partials as sine components: owner partial, radians per sample,
    amplitude and starting phase of each, in partial order.

    A sine partial is one component. A band-limited triangle is its odd
    harmonics j with f * j strictly below the Nyquist frequency, each with
    amplitude a * (8 / pi^2) * (-1)^((j - 1) / 2) / j^2 and phase j * phi.
    """
    _check_nyquist(freq, sample_rate)
    nyquist = 0.5 * sample_rate
    # enough odd j to pass Nyquist; the exact cut is the f * j test below
    counts = np.where(triangle, (np.floor(nyquist / freq).astype(int) + 2) // 2, 1)
    owner = np.repeat(np.arange(freq.size), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    j = 2 * (np.arange(owner.size) - first) + 1
    keep = freq[owner] * j < nyquist
    owner, j = owner[keep], j[keep]
    harmonic = np.where((j // 2) % 2 == 0, 1.0, -1.0) * (8.0 / math.pi**2) / j.astype(float) ** 2
    amps = amp[owner] * np.where(triangle[owner], harmonic, 1.0)
    omega = 2.0 * math.pi * freq[owner] * j / sample_rate
    return owner, omega, amps, phases[owner] * j


def _block_table(w):
    """Rows sin(w_k i) for every component k, then rows cos(w_k i), over
    i = 0 .. _BLOCK - 1: shape (..., 2 m, _BLOCK) for radians per sample
    w (..., m).

    Built in two levels, e^{i w (_FINE a + b)} = e^{i w _FINE a} e^{i w b},
    from the sines and cosines of 2 _FINE angles per component instead of
    _BLOCK.
    """
    m = w.shape[-1]
    steps = np.arange(_FINE, dtype=float)
    coarse, fine = w[..., None] * (_FINE * steps), w[..., None] * steps
    sa, ca = np.sin(coarse), np.cos(coarse)
    # per component, [sa ca; ca -sa] @ [cos(w b); sin(w b)]: the sine rows
    # sa cb + ca sb, then the cosine rows ca cb - sa sb
    left = np.stack([np.stack([sa, ca], axis=-1), np.stack([ca, -sa], axis=-1)], axis=-4)
    right = np.stack([np.cos(fine), np.sin(fine)], axis=-2)[..., None, :, :, :]
    return (left @ right).reshape(w.shape[:-1] + (2 * m, _BLOCK))


def _accumulate(freq, amp, triangle, phases, gains, out, sample_rate):
    """Add oscillator banks to out (..., n, channels), float64: one bank per
    leading index of out, none for a 2-d out.

    Partial k of a bank plays at freq[..., k] Hz and amplitude amp[..., k],
    as a triangle where triangle[..., k] is true. It starts at
    phases[..., k] radians and reaches channel c with gains[..., k, c],
    which broadcasts. Every sine component renders by block phasor
    rotation: sample b * _BLOCK + i is Im(sum_k exp(i w_k i) * C[k, b, c])
    with C[k, b, c] = a_k g_kc exp(i (w_k b _BLOCK + phi_k)). The
    block-start phases are computed directly, so no rounding error builds
    up from block to block. Each bank's components are padded with silent
    ones to the longest bank's count, so that the sum over a chunk of
    components is one real matrix product per bank. Raises
    NyquistViolation before anything is added.
    """
    *lead, n, n_ch = out.shape
    owner, omega, amps, phi = _components(
        freq.ravel(), amp.ravel(), triangle.ravel(), phases.ravel(), sample_rate
    )
    if owner.size == 0:
        return
    gains = np.broadcast_to(gains, freq.shape + (n_ch,)).reshape(-1, n_ch)
    n_banks = math.prod(lead)
    bank = owner // freq.shape[-1]
    counts = np.bincount(bank, minlength=n_banks)
    slot = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max())
    w, theta0 = np.zeros((2, n_banks, width))
    weights = np.zeros((n_banks, n_ch, width))
    w[bank, slot], theta0[bank, slot] = omega, phi
    weights[bank, :, slot] = amps[:, None] * gains[owner]
    for lo in range(0, width, _CHUNK):
        w_c, theta0_c = w[:, lo : lo + _CHUNK], theta0[:, lo : lo + _CHUNK]
        m = w_c.shape[-1]
        table = _block_table(w_c)
        # Im(e^{i w i} A e^{i theta}) = A (sin(w i) cos(theta) + cos(w i) sin(theta))
        coef_weights = np.concatenate([weights[..., lo : lo + _CHUNK]] * 2, axis=-1)[:, None]
        for start in range(0, n, _SPAN):
            stop = min(start + _SPAN, n)
            theta = np.arange(start, stop, _BLOCK)[:, None] * w_c[:, None]
            theta += theta0_c[:, None]
            trig = np.empty(theta.shape[:-1] + (2 * m,))
            np.cos(theta, out=trig[..., :m])
            np.sin(theta, out=trig[..., m:])
            coef = (trig[:, :, None, :] * coef_weights).reshape(n_banks, -1, 2 * m)
            block = (coef @ table).reshape(n_banks, -1, n_ch, _BLOCK).swapaxes(-1, -2)
            block = block.reshape(n_banks, -1, n_ch)[:, : stop - start]
            out[..., start:stop, :] += block.reshape(*lead, stop - start, n_ch)


def _fade_window(n, sample_rate):
    """Unity window with 10 ms raised-cosine ramps at both ends."""
    w = np.ones(n, dtype=float)
    L = min(int(round(FADE_SECONDS * sample_rate)), n // 2)
    if L >= 2:
        ramp = 0.5 * (1.0 - np.cos(math.pi * np.arange(L) / (L - 1)))
        w[:L] *= ramp
        w[-L:] *= ramp[::-1]
    return w


def _normalized_f32(out):
    """The mix scaled to peak TARGET_PEAK, as float32.

    Works in place: a long mix is the largest array of a render, and a
    scaled copy, an |out| copy for the peak or a float32 copy would each
    add to it. The float32 samples are written over the front half of
    out's own buffer, a chunk at a time, and the result views that buffer.
    """
    peak = max(float(out.max()), -float(out.min())) if out.size else 0.0
    if peak > 0.0:
        out *= TARGET_PEAK / peak
    flat = out.reshape(-1)
    samples = flat.view(np.float32)[: flat.size]
    # chunk k lands on float64 slots that chunks before k have been read
    # from; numpy buffers the first chunk, which overlaps its own source
    for lo in range(0, flat.size, _CAST_CHUNK):
        samples[lo : lo + _CAST_CHUNK] = flat[lo : lo + _CAST_CHUNK]
    return samples.reshape(out.shape)


def synth(bank: PartialBank, sample_rate=DEFAULT_SAMPLE_RATE, gains=None) -> AudioBuffer:
    """Render a partial bank to audio.

    gains is an optional (n_partials, n_channels) matrix of per-partial
    channel gains; omitted, the render is mono at unit gain. The mix gets
    10 ms raised-cosine ramps at both ends and a master normalization to
    peak 0.891 (-1 dBFS). Raises NyquistViolation if any partial reaches
    half the sample rate.
    """
    sample_rate = _whole_rate(sample_rate)
    n = int(round(bank.duration * sample_rate))
    if n < 1:
        raise ValueError("bank too short to render a single sample")
    n_partials = bank.freq.size
    if gains is None:
        gains = np.ones((n_partials, 1), dtype=float)
    else:
        gains = np.asarray(gains, dtype=float)
        if gains.shape[0] != n_partials or gains.ndim != 2:
            raise ValueError(f"gains must be (n_partials, channels), got {gains.shape}")
    out = np.zeros((n, gains.shape[1]), dtype=float)
    _accumulate(bank.freq, bank.amp, bank.triangle, bank.phase, gains, out, sample_rate)
    out *= _fade_window(n, sample_rate)[:, None]
    return AudioBuffer(_normalized_f32(out), sample_rate)


# === the long sweep ===


@dataclass(frozen=True)
class SweepTrajectory:
    """Piecewise-linear path of the superposition shift over time.

    Each segment is (start, end, seconds) with complex endpoints. Times
    beyond the path clamp to the nearest endpoint. Shift magnitudes at or
    below the degeneracy guard stand for the m=1 number state.
    """

    segments: tuple[tuple[complex, complex, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        cleaned = []
        for seg in self.segments:
            a, b, secs = complex(seg[0]), complex(seg[1]), float(seg[2])
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise ValueError(f"segment endpoints must be finite, got {a!r} and {b!r}")
            if not (np.isfinite(secs) and secs > 0):
                raise ValueError(f"segment duration must be positive, got {secs!r}")
            cleaned.append((a, b, secs))
        object.__setattr__(self, "segments", tuple(cleaned))

    @property
    def total_seconds(self) -> float:
        return sum(seg[2] for seg in self.segments)

    def delta_alpha_at(self, t: float) -> complex:
        if t <= 0:
            return self.segments[0][0]
        for a, b, secs in self.segments:
            if t <= secs:
                return a + (b - a) * (t / secs)
            t -= secs
        return self.segments[-1][1]


def default_trajectory() -> SweepTrajectory:
    """Number state into a two-lobe superposition drifting out to -3.

    Three equal 91 s legs, 273 s in all: 0 to -1, -1 to -2, -2 to -3.
    """
    return SweepTrajectory(((0j, -1 + 0j, 91.0), (-1 + 0j, -2 + 0j, 91.0), (-2 + 0j, -3 + 0j, 91.0)))


def sweep_cfg() -> MapConfig:
    """Default mapping config of render_sweep.

    The sweep follows the envelope width, so its center frequency tracks
    sigma_r; anchoring on r0 would push the low envelope edge below zero
    for every state on the default path.
    """
    return MapConfig(f0_mode="sigma_r")


def _frame_moments(shifts):
    """(r0, p0, sigma_r) of each frame's state on its default grid, one
    array entry per shift: the m=1 number state where |shift| <=
    EPS_SHIFT, all on one field, and CatState(shift) elsewhere, sampled and
    measured as arrays over chunks of frames."""
    fock = FockState(1)
    m = compute_moments(sample_field(fock, default_grid(fock)))
    r0, p0, sigma_r = (np.full(shifts.size, v) for v in (m.r0, m.p0, m.sigma_r))
    cat = np.flatnonzero([abs(z) > EPS_SHIFT for z in shifts.tolist()])
    for lo in range(0, cat.size, _FIELD_FRAMES):
        rows = cat[lo : lo + _FIELD_FRAMES]
        d = shifts[rows]
        r_edges, p_edges = default_edges(d.real, d.imag)
        r, p = edge_centers(r_edges)[:, :, None], edge_centers(p_edges)[:, None, :]
        m = stacked_moments(eval_cat(d[:, None, None], r, p), r_edges, p_edges)
        r0[rows], p0[rows], sigma_r[rows] = m.r0, m.p0, m.sigma_r
    return r0, p0, sigma_r


def render_sweep(
    trajectory: SweepTrajectory | None = None,
    cfg: MapConfig | None = None,
    sample_rate=DEFAULT_SAMPLE_RATE,
    frame_seconds=0.25,
    channels=1,
) -> AudioBuffer:
    """Render a trajectory as overlapped envelope-bank frames.

    A frame starts every frame_seconds/2. Each frame's state is sampled on
    its default grid, its moments taken, and a mapping IV envelope bank
    rendered for one frame. Frames carry a Hann window and overlap 50
    percent, which sums to unit gain; oscillator phases carry over between
    frames so the crossfade stays beat-free. The master normalization runs
    once over the whole piece. With channels 2 or 4 each frame is panned
    equal-power from its centroid position within a fixed box around the
    whole trajectory.

    The work runs as arrays over frames: fields and moments over chunks of
    frames, then every frame's bank at once, then the audio of each chunk
    of frames through synth's oscillator kernel with a leading frame axis.
    So a fault in any frame (a partial at Nyquist, a degenerate field)
    raises before any audio is rendered.

    Defaults reproduce the 273 s path; cfg defaults to the sigma_r-anchored
    envelope so every partial stays inside the audible band end to end.
    """
    trajectory = trajectory or default_trajectory()
    cfg = cfg or sweep_cfg()
    sample_rate = _whole_rate(sample_rate)
    if not (math.isfinite(frame_seconds) and frame_seconds > 0):
        raise ValueError(f"frame_seconds must be positive and finite, got {frame_seconds!r}")
    if isinstance(channels, bool) or channels not in (1, 2, 4):
        raise ValueError(f"channels must be 1, 2, or 4, got {channels!r}")
    n_total = int(round(trajectory.total_seconds * sample_rate))
    n_frame = int(round(frame_seconds * sample_rate))
    if n_frame < 4 or n_total < n_frame:
        raise ValueError("trajectory shorter than a single frame")
    hop = n_frame // 2
    starts = range(0, n_total, hop)
    shifts = np.array([trajectory.delta_alpha_at(start / sample_rate) for start in starts])
    r0, p0, sigma_r = _frame_moments(shifts)
    freq, amp = envelope(r0, sigma_r, cfg)
    _check_nyquist(freq, sample_rate)
    if channels == 1:
        gains = np.ones((len(starts), 1))
    else:
        ends = np.array([(z.real, z.imag) for a, b, _ in trajectory.segments for z in (a, b)])
        # pan within the default grids of the endpoint states
        lo, hi = ends.min(axis=0) - DEFAULT_HALF_WIDTH, ends.max(axis=0) + DEFAULT_HALF_WIDTH
        gains = spatial_gains(r0, p0, (lo[0], hi[0], lo[1], hi[1]), channels)
    # oscillator phases carried across frames: partial k of the next frame
    # picks up where partial k of this frame stands at the overlap start, so
    # the 50% crossfade blends nearly identical waveforms instead of beating
    advance = TAU * freq * (hop / sample_rate)
    phases = np.empty_like(freq)
    carried = np.zeros(cfg.n_osc)
    for k in range(len(starts)):
        phases[k] = carried
        carried = (carried + advance[k]) % TAU

    triangle = np.full(freq.shape, cfg.waveform == WAVE_TRIANGLE)
    window = (0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n_frame) / n_frame))[:, None]
    out = np.zeros((n_total, channels), dtype=float)
    per = max(1, _AUDIO_SAMPLES // (n_frame * channels))
    buffer = np.empty((per, n_frame, channels))  # one for every chunk: fresh pages fault
    for lo in range(0, len(starts), per):
        chunk = slice(lo, lo + per)
        frames = buffer[: len(starts[chunk])]
        frames.fill(0.0)
        _accumulate(
            freq[chunk], amp[chunk], triangle[chunk], phases[chunk], gains[chunk, None, :],
            frames, sample_rate,
        )
        frames *= window
        # one frame at a time: with an odd frame length, frames k and k + 2
        # share a sample
        for start, frame in zip(starts[chunk], frames):
            out[start : start + n_frame] += frame[: n_total - start]
    return AudioBuffer(_normalized_f32(out), sample_rate)


# === sonogram ===


@dataclass(frozen=True, eq=False)
class Sonogram:
    """Short-time magnitude spectrum in dB: times by frequencies."""

    times: np.ndarray
    freqs: np.ndarray
    magnitude_db: np.ndarray

    def __post_init__(self):
        if self.magnitude_db.shape != (self.times.size, self.freqs.size):
            raise ValueError("magnitude matrix must be (n_times, n_freqs)")


def stft_sonogram(buffer: AudioBuffer, window=2048, hop=512) -> Sonogram:
    """Hann-windowed short-time spectrum of the buffer, channels averaged.

    Magnitudes are scaled so a full-scale sine reads near 0 dB, then
    floored at -120 dB. Raises BufferTooShort when the audio is shorter
    than one window.
    """
    if window < 8 or hop < 1:
        raise ValueError("window must be >= 8 samples and hop >= 1")
    mono = buffer.samples.mean(axis=1, dtype=np.float64)
    if mono.size < window:
        raise BufferTooShort(f"{mono.size} samples but the window needs {window}")
    w = np.hanning(window)
    scale = 2.0 / float(np.sum(w))
    frames = np.lib.stride_tricks.sliding_window_view(mono, window)[::hop]
    n_frames = frames.shape[0]
    mags = np.empty((n_frames, window // 2 + 1), dtype=float)
    chunk = max(1, _STFT_CHUNK_SAMPLES // window)
    for lo in range(0, n_frames, chunk):
        spectrum = np.fft.rfft(frames[lo : lo + chunk] * w, axis=1)
        mags[lo : lo + chunk] = np.abs(spectrum) * scale
    # in place: a sweep-sized sonogram is 15 MB per temporary
    db = np.maximum(mags, 10.0 ** (DB_FLOOR / 20.0), out=mags)
    np.log10(db, out=db)
    db *= 20.0
    times = (np.arange(n_frames) * hop + window / 2.0) / buffer.sample_rate
    freqs = np.fft.rfftfreq(window, 1.0 / buffer.sample_rate)
    return Sonogram(times=times, freqs=freqs, magnitude_db=db)


def write_sonogram_csv(sono: Sonogram, path) -> None:
    """CSV with the frequency axis across the first row and times down the
    first column; the corner cell is empty.

    Every value is written as format(v, ".9g"). Most cells of a sweep's
    sonogram sit exactly at DB_FLOOR, whose text is "-120", so each row
    formats only the cells that differ from the floor and fills every run
    of floor cells with a slice of one precomputed ",-120" * n_freqs string.
    """
    floor_cell = "," + format(DB_FLOOR, ".9g")
    width = len(floor_cell)
    floor_run = floor_cell * sono.freqs.size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(["%.9g" % f for f in sono.freqs.tolist()]) + "\n")
        # row by row, so no copy of the whole text is held in memory
        for t, row in zip(sono.times.tolist(), sono.magnitude_db):
            live = np.flatnonzero(row != DB_FLOOR)
            parts = ["%.9g" % t]
            start = 0
            for k, v in zip(live.tolist(), row[live].tolist()):
                parts.append(floor_run[: width * (k - start)])
                parts.append(",%.9g" % v)
                start = k + 1
            parts.append(floor_run[: width * (row.size - start)])
            parts.append("\n")
            fh.write("".join(parts))


# === WAV I/O ===


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write 32-bit float WAV: 44-byte header plus interleaved samples."""
    data = np.ascontiguousarray(buffer.samples, dtype="<f4")
    n_ch = buffer.n_channels
    sr = buffer.sample_rate
    block = 4 * n_ch
    header = b"RIFF" + struct.pack("<I", 36 + data.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, n_ch, sr, sr * block, block, 32)
    header += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_wav(path) -> AudioBuffer:
    """Read a 32-bit float WAV written by write_wav (or anything like it).

    The file is read once into one buffer, and the samples view its data
    chunk. Rejects every other encoding with UnsupportedFormat, including
    truncated files, integer PCM, a zero sample rate, and data with no
    frame or with NaN or infinite samples.
    """
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob) :]
        blob += fh.read()  # empty for a regular file; the rest of a pipe
    view = memoryview(blob)
    if len(view) < 12 or view[:4] != b"RIFF" or view[8:12] != b"WAVE":
        raise UnsupportedFormat(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = data = None
    while pos + 8 <= len(view):
        cid = view[pos : pos + 4]
        (size,) = struct.unpack_from("<I", view, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise UnsupportedFormat(f"{path}: truncated {bytes(cid)!r} chunk")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise UnsupportedFormat(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise UnsupportedFormat(f"{path}: fmt chunk too small")
    audio_format, n_ch, sr, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format != 3 or bits != 32:
        raise UnsupportedFormat(
            f"{path}: need IEEE float 32 (format 3), got format {audio_format} at {bits} bits"
        )
    if sr < 1:
        raise UnsupportedFormat(f"{path}: sample rate must be positive, got {sr}")
    if n_ch < 1 or len(data) % (4 * n_ch):
        raise UnsupportedFormat(f"{path}: data size does not divide into {n_ch}-channel frames")
    samples = np.frombuffer(data, dtype="<f4").reshape(-1, n_ch)
    if not (samples.size and np.isfinite(samples).all()):
        raise UnsupportedFormat(f"{path}: need one or more frames of finite samples")
    return AudioBuffer(samples, sr)
