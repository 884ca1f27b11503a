"""Audio rendering: additive synthesis, the long sweep, sonograms, WAV I/O.

synth and every frame of render_sweep go through one oscillator kernel,
_accumulate, which takes a bank's frequency, amplitude and triangle-flag
arrays: each partial becomes sine components (a triangle becomes its odd
harmonics below Nyquist), and the components are summed by block phasor
rotation in float64, a fixed chunk of components at a time, then cast to
float32 at the very end. The summation order depends only on the
bank, so the same bank renders to the same bytes on every run.
"""

from __future__ import annotations

import cmath
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .analysis import compute_moments
from .errors import BufferTooShort, NyquistViolation, UnsupportedFormat
from .grids import DEFAULT_HALF_WIDTH, default_grid, sample_field
from .sonify import TAU, MapConfig, PartialBank, method4_moments, spatial_gains
from .states import EPS_SHIFT, CatState, FockState

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
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", np.ascontiguousarray(s))
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.samples.shape[0] / self.sample_rate


# === additive synthesis ===


# Oscillators render in blocks of _BLOCK samples. Taking _CHUNK sine
# components and _SPAN samples (256 blocks) at a time bounds the kernel's
# working set to O(_CHUNK * _BLOCK * channels) arrays, whatever the bank
# size or note length. Of 128, 256 and 512 for each, 256 and 256 rendered
# 0.4 s and 4 s notes of 21 to 4600 components fastest (2-core x86-64
# host, one BLAS thread).
_BLOCK = 256
_CHUNK = 256
_SPAN = 256 * _BLOCK


def _components(freq, amp, triangle, phases, sample_rate):
    """The bank as sine components: owner partial, radians per sample,
    amplitude and starting phase of each.

    A sine partial is one component. A band-limited triangle is its odd
    harmonics j with f * j strictly below the Nyquist frequency, each with
    amplitude a * (8 / pi^2) * (-1)^((j - 1) / 2) / j^2 and phase j * phi.
    """
    nyquist = 0.5 * sample_rate
    too_high = freq >= nyquist
    if np.any(too_high):
        f = float(freq[np.argmax(too_high)])
        raise NyquistViolation(f"partial at {f:.1f} Hz needs a rate above {2 * f:.0f} Hz")
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


def _accumulate(freq, amp, triangle, phases, gains, out, sample_rate):
    """Add the oscillator bank to out (n, channels), float64.

    Partial k plays at freq[k] Hz and amplitude amp[k], as a triangle
    where triangle[k] is true. It starts at phases[k] radians and reaches
    channel c with gains[k, c]. Every sine component renders by block
    phasor rotation:
    sample b * _BLOCK + i is Im(sum_k exp(i w_k i) * C[k, b, c]) with
    C[k, b, c] = a_k g_kc exp(i (w_k b _BLOCK + phi_k)). The block-start
    phases are computed directly, so no rounding error builds up from
    block to block, and the sum over components is one real matrix
    product per chunk. Raises NyquistViolation before anything is added.
    """
    owner, omega, amps, phi = _components(freq, amp, triangle, phases, sample_rate)
    n, n_ch = out.shape
    i = np.arange(_BLOCK, dtype=float)
    for lo in range(0, omega.size, _CHUNK):
        w = omega[lo : lo + _CHUNK]
        # Im(e^{i w i} A e^{i theta}) = A (sin(w i) cos(theta) + cos(w i) sin(theta))
        wi = np.outer(i, w)
        table = np.hstack([np.sin(wi), np.cos(wi)])
        weights = amps[lo : lo + _CHUNK, None] * gains[owner[lo : lo + _CHUNK]]
        weights = np.vstack([weights, weights])[:, None, :]
        for start in range(0, n, _SPAN):
            stop = min(start + _SPAN, n)
            theta = np.outer(w, np.arange(start, stop, _BLOCK)) + phi[lo : lo + _CHUNK, None]
            coef = np.vstack([np.cos(theta), np.sin(theta)])[:, :, None] * weights
            block = table @ coef.reshape(coef.shape[0], -1)
            block = block.reshape(_BLOCK, -1, n_ch).transpose(1, 0, 2).reshape(-1, n_ch)
            out[start:stop] += block[: stop - start]


def _check_rate(sample_rate):
    """The kernel divides by the rate, so check it before anything else."""
    if not sample_rate > 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate!r}")


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

    Scales out in place: a long mix is the largest array of a render, and
    a scaled copy (or an |out| copy for the peak) would double it.
    """
    peak = max(float(out.max()), -float(out.min())) if out.size else 0.0
    if peak > 0.0:
        out *= TARGET_PEAK / peak
    return out.astype(np.float32)


def synth(bank: PartialBank, sample_rate=DEFAULT_SAMPLE_RATE, gains=None) -> AudioBuffer:
    """Render a partial bank to audio.

    gains is an optional (n_partials, n_channels) matrix of per-partial
    channel gains; omitted, the render is mono at unit gain. The mix gets
    10 ms raised-cosine ramps at both ends and a master normalization to
    peak 0.891 (-1 dBFS). Raises NyquistViolation if any partial reaches
    half the sample rate.
    """
    _check_rate(sample_rate)
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


def render_sweep(
    trajectory: SweepTrajectory | None = None,
    cfg: MapConfig | None = None,
    sample_rate=DEFAULT_SAMPLE_RATE,
    frame_seconds=0.25,
    channels=1,
) -> AudioBuffer:
    """Render a trajectory as overlapped envelope-bank frames.

    Every frame_seconds/2 the shift is advanced, the state sampled on its
    default grid, its moments taken, and an envelope bank rendered for one
    frame. Frames carry a Hann window and overlap 50 percent, which sums to
    unit gain; oscillator phases carry over between frames so the
    crossfade stays beat-free. The master normalization runs once over the
    whole piece. With channels 2 or 4 each frame is panned equal-power from
    its centroid position within a fixed box around the whole trajectory.

    Defaults reproduce the 273 s path; cfg defaults to the sigma_r-anchored
    envelope so every partial stays inside the audible band end to end.
    """
    trajectory = trajectory or default_trajectory()
    cfg = cfg or sweep_cfg()
    _check_rate(sample_rate)
    if not (math.isfinite(frame_seconds) and frame_seconds > 0):
        raise ValueError(f"frame_seconds must be positive and finite, got {frame_seconds!r}")
    if channels not in (1, 2, 4):
        raise ValueError(f"channels must be 1, 2, or 4, got {channels!r}")
    n_total = int(round(trajectory.total_seconds * sample_rate))
    n_frame = int(round(frame_seconds * sample_rate))
    if n_frame < 4 or n_total < n_frame:
        raise ValueError("trajectory shorter than a single frame")
    hop = n_frame // 2
    hop_seconds = hop / sample_rate
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n_frame) / n_frame)
    out = np.zeros((n_total, channels), dtype=float)
    ends = np.array([(z.real, z.imag) for a, b, _ in trajectory.segments for z in (a, b)])
    # pan within the default grids of the endpoint states
    lo, hi = ends.min(axis=0) - DEFAULT_HALF_WIDTH, ends.max(axis=0) + DEFAULT_HALF_WIDTH
    pan_bounds = (lo[0], hi[0], lo[1], hi[1])
    # oscillator phases carried across frames: partial k of the next frame
    # picks up where partial k of this frame stands at the overlap start, so
    # the 50% crossfade blends nearly identical waveforms instead of beating
    phases = np.zeros(cfg.n_osc, dtype=float)
    start = 0
    while start < n_total:
        t_frame = start / sample_rate
        shift = trajectory.delta_alpha_at(t_frame)
        state = FockState(1) if abs(shift) <= EPS_SHIFT else CatState(shift)
        field = sample_field(state, default_grid(state))
        moments = compute_moments(field)
        bank = method4_moments(moments, cfg, duration=frame_seconds)
        if channels == 1:
            frame_gains = np.ones((cfg.n_osc, 1), dtype=float)
        else:
            g = spatial_gains(moments.r0, moments.p0, pan_bounds, channels)
            frame_gains = np.broadcast_to(g, (cfg.n_osc, channels))
        frame = np.zeros((n_frame, channels), dtype=float)
        _accumulate(bank.freq, bank.amp, bank.triangle, phases, frame_gains, frame, sample_rate)
        frame *= window[:, None]
        stop = min(start + n_frame, n_total)
        out[start:stop] += frame[: stop - start]
        phases = (phases + TAU * bank.freq * hop_seconds) % TAU
        start += hop
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
