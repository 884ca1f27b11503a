"""Audio rendering: additive synthesis, the long sweep, sonograms, WAV I/O.

synth and render_sweep go through one oscillator kernel, _accumulate,
which takes banks' frequency, amplitude and triangle-flag arrays with any
leading axes: synth passes one bank, render_sweep a chunk of frames' banks
at once. Each partial becomes sine components (a triangle becomes its odd
harmonics below Nyquist). The components of a bank at exactly one
frequency sum to one sinusoid, and a bank whose gain rows are all equal
renders one column, scaled into its channels afterwards: mapping I's 900
partials sit on a few dozen frequencies, and every mapping II-IV bank and
sweep frame pans as one. The sinusoids are summed by block phasor
rotation in float64, a fixed chunk of them at a time, with the in-block
sines and cosines and the block-start phasors both built in two levels by
one helper, in working arrays allocated once per call; the mix is cast to
float32 at the very end. The summation order depends only on the input,
so the same input renders to the same bytes on every run.

render_sweep takes each frame's field, moments and envelope bank as arrays
over its frames, so every frame is known before any audio is rendered.

The sonogram is one type, SonogramStream: it computes its spectrum a batch
of frames at a time, and write_sonogram_csv writes each batch as it comes,
so no whole matrix of the sonogram is ever held.
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
from .errors import BufferTooShort, NyquistViolation, UnsupportedFormat, refuse
from .grids import DEFAULT_HALF_WIDTH, default_edges, default_grid, edge_centers, sample_field
from .sonify import TAU, WAVE_TRIANGLE, MapConfig, PartialBank, envelope, spatial_gains
from .states import EPS_SHIFT, FockState, eval_cat, squared_shift
from .textfmt import written

# perfbench/layers.py wraps this name by getattr; render does not call it.
from .sonify import method4_moments  # noqa: F401, E402

DEFAULT_SAMPLE_RATE = 48000
DEFAULT_FRAME_SECONDS = 0.25
DEFAULT_WINDOW, DEFAULT_HOP = 2048, 512

# Master peak after normalization: -1 dBFS.
TARGET_PEAK = 10.0 ** (-1.0 / 20.0)

FADE_SECONDS = 0.010

DB_FLOOR = -120.0

# Samples per batch of sonogram frames: 16 frames of the default 2048-sample
# window, from channel mean to dB and on into the CSV. Small batches keep
# the windowed copy and its spectrum in cache; batches of 256 and 512 such
# frames ran no faster and took more memory (2-core x86-64 host).
_STFT_CHUNK_SAMPLES = 1 << 15


# Most samples, times channels, that synth or render_sweep may render: 2**26,
# which holds the default 273 s sweep at 4 channels (52.4 million). At the
# limit `sonify` (mapping IV) and `sweep` each peak at about 550 MB RSS, mono
# or 4 channels; the float64 mix alone is 512 MB (2-core x86-64 host).
MAX_SAMPLES = 1 << 26

# Most frames a sweep may take: 2**17, 60 times the default sweep's 2184.
# Every frame's moments and bank are held at once: a 4-channel `sweep` at
# the limit peaks at about 254 MB RSS and takes 18 s (same host).
MAX_SWEEP_FRAMES = 1 << 17

# Most partials, frames times n_osc, a sweep's banks may hold: as many as
# MAX_SWEEP_FRAMES frames of the default 21, the size measured above.
MAX_SWEEP_PARTIALS = MAX_SWEEP_FRAMES * 21

# Most sine components one render call may form: 2**20. A triangle partial
# is one per odd harmonic below Nyquist, so one far below the rate's audible
# range is millions, refused before any array of them exists; 900 triangle
# partials at 55 Hz reach the limit at about 256 kHz. One partial of 2**20
# components renders 0.01 s in 1 s and peaks at 74 MB RSS (same host).
MAX_COMPONENTS = 1 << 20

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


def _sample_count(what, seconds, sample_rate, channels) -> int:
    """round(seconds * sample_rate) as an int. ValueError naming the rate
    and channels when a WAV header cannot hold their byte rate, and naming
    the count when that many samples times channels exceed MAX_SAMPLES, or
    when float64 cannot hold the product (the count reads inf)."""
    if sample_rate * 4 * channels > 0xFFFFFFFF:
        raise ValueError(
            f"{sample_rate} Hz over {channels} channel(s) of 4-byte samples is {sample_rate * 4 * channels} "
            f"bytes per second, above the WAV header's limit of {0xFFFFFFFF}"
        )
    n = seconds * sample_rate
    count = round(n) * channels if math.isfinite(n) else math.inf
    if count > MAX_SAMPLES:
        raise ValueError(
            f"{what} of {seconds!r} s at {sample_rate} Hz is {count} samples over "
            f"{channels} channel(s), above the limit of {MAX_SAMPLES}"
        )
    return round(n)


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


# === additive synthesis ===


# Oscillators render in blocks of _BLOCK samples, _CHUNK sinusoids and _SPAN
# samples (256 blocks) at a time. One _accumulate call allocates its working
# arrays once and reuses them for every chunk, span and output column: per
# bank, in float64, a chunk's in-block table (2 _CHUNK by _BLOCK, 1 MiB), at
# most as much again for the temporaries of _phasors, a span's block-start
# phasors (2 _CHUNK by 256 blocks, 1 MiB) and coefficients (256 blocks by
# 2 _CHUNK, 1 MiB), and its product (256 blocks by _BLOCK, 0.5 MiB). Banks
# render in groups whose share of these fits _WORKING_SET, and one bank
# always fits: a call holds at most _WORKING_SET bytes besides out and its
# per-component arrays, whatever the partial count, note length, channel
# count or bank count.
_BLOCK = 256
_CHUNK = 256
_SPAN = 256 * _BLOCK
_WORKING_SET = 9 << 19


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
    # enough odd j to pass Nyquist, floor(nyquist / f) // 2 + 1; the exact
    # cut is the f * j test below. Counted in float64, which holds the count
    # of a partial at any frequency, as inf at worst.
    with np.errstate(over="ignore"):
        counts = np.where(triangle, np.floor(nyquist / freq / 2.0) + 1.0, 1.0)
    total = float(np.sum(counts))
    if not total <= MAX_COMPONENTS:
        raise ValueError(
            f"partials down to {float(freq.min()):.6g} Hz at {sample_rate} Hz make {total:.6g} sine "
            f"components, above the limit of {MAX_COMPONENTS}"
        )
    counts = counts.astype(int)
    owner = np.repeat(np.arange(freq.size), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    j = 2 * (np.arange(owner.size) - first) + 1
    keep = freq[owner] * j < nyquist
    owner, j = owner[keep], j[keep]
    harmonic = np.where((j // 2) % 2 == 0, 1.0, -1.0) * (8.0 / math.pi**2) / j.astype(float) ** 2
    amps = amp[owner] * np.where(triangle[owner], harmonic, 1.0)
    omega = 2.0 * math.pi * freq[owner] * j / sample_rate
    return owner, omega, amps, phases[owner] * j


def _sinusoids(bank, omega, phi, weights):
    """The distinct sinusoids of components with bank index, radians per
    sample, starting phase and weights (n, columns): the same four, one
    entry per sinusoid, banks and their components in the order given.

    Components of one bank at exactly equal radians per sample sum to one
    sinusoid, sum_k g_k e^{i phi_k} for weights g_k, rendered as at most
    two: phase 0 with weights sum_k g_k cos(phi_k) and phase pi/2 with
    weights sum_k g_k sin(phi_k), each dropped where all its weights are
    0, at the place of the group's first component. A component with no
    twin passes unchanged, and when no bank has a twin the input is
    returned as it is.
    """
    order = np.lexsort((omega, bank))  # stable: a group's first component leads it
    twin = (omega[order[1:]] == omega[order[:-1]]) & (bank[order[1:]] == bank[order[:-1]])
    if not twin.any():
        return bank, omega, phi, weights
    starts = np.flatnonzero(np.concatenate(([True], ~twin)))
    first = order[starts]
    alone = (np.diff(np.append(starts, order.size)) == 1)[:, None]
    g, p = weights[order], phi[order]
    # per group, the component itself or the phase-0 sum, then the phase-pi/2 sum
    pair_weights = np.stack(
        [
            np.where(alone, weights[first], np.add.reduceat(g * np.cos(p)[:, None], starts)),
            np.add.reduceat(g * np.sin(p)[:, None], starts),
        ],
        axis=1,
    )
    pair_phi = np.stack([np.where(alone[:, 0], phi[first], 0.0), np.full(first.size, 0.5 * math.pi)], axis=1)
    keep = np.where(alone, [True, False], (pair_weights != 0.0).any(axis=-1))
    place = np.argsort(first)  # the groups in the order of their first components
    keep = keep[place].ravel()
    return (
        np.repeat(bank[first[place]], 2)[keep],
        np.repeat(omega[first[place]], 2)[keep],
        pair_phi[place].ravel()[keep],
        pair_weights[place].reshape(-1, weights.shape[1])[keep],
    )


def _phasors(w, step, count, start=0, offset=None, out=None):
    """Sines, then cosines, of offset + w (start + step i) over i = 0 ..
    count - 1: shape (..., 2, m, count) for radians per sample w (..., m)
    and an offset of w's shape (none for 0).

    Built in two levels, e^{i w step (q a + b)} = e^{i w step q a}
    e^{i w step b} with q = ceil(sqrt(count)), from the sines and cosines
    of about 2 sqrt(count) angles per component instead of count; the
    start and the offset go into the coarse angles. Written into the front
    of out when given, a flat float64 array of at least 2 w.size q^2
    values, and returned as a view of it.
    """
    q = math.isqrt(count - 1) + 1
    n_coarse = -(-count // q)
    steps = np.arange(q, dtype=float)
    coarse = w[..., None] * (start + step * q * steps[:n_coarse])
    if offset is not None:
        coarse += offset[..., None]
    fine = w[..., None] * (step * steps)
    sa, ca = np.sin(coarse), np.cos(coarse)
    # per component, [sa ca; ca -sa] @ [cos(fine); sin(fine)]: the sines
    # sa cb + ca sb, then the cosines ca cb - sa sb
    left = np.stack([np.stack([sa, ca], axis=-1), np.stack([ca, -sa], axis=-1)], axis=-4)
    right = np.stack([np.cos(fine), np.sin(fine)], axis=-2)[..., None, :, :, :]
    shape = w.shape[:-1] + (2, w.shape[-1], n_coarse, q)
    full = np.empty(shape) if out is None else out[: math.prod(shape)].reshape(shape)
    np.matmul(left, right, out=full)
    return full.reshape(shape[:-2] + (n_coarse * q,))[..., :count]


def _accumulate(freq, amp, triangle, phases, gains, out, sample_rate):
    """Add oscillator banks to out (..., n, channels), float64 and
    C-contiguous: one bank per leading index of out, none for a 2-d out.

    Partial k of a bank plays at freq[..., k] Hz and amplitude amp[..., k],
    as a triangle where triangle[..., k] is true. It starts at
    phases[..., k] radians and reaches channel c with gains[..., k, c],
    which broadcasts. When every bank's gain rows are all equal, the banks
    render one column each, scaled into the channels afterwards. The
    components of a bank at one frequency render as one sinusoid
    (_sinusoids), and every sinusoid renders by block phasor rotation:
    sample b * _BLOCK + i is Im(sum_k exp(i w_k i) * C[k, b, c]) with
    C[k, b, c] = g_kc exp(i (w_k b _BLOCK + phi_k)). The block-start
    phasors are built in two levels from directly computed angles, so no
    rounding error builds up from block to block. Each bank's sinusoids
    are padded with silent ones to the longest bank's count, so that the
    sum over a chunk of them is one real matrix product per bank and
    column, added into out through a strided view. Raises
    NyquistViolation, or ValueError past MAX_COMPONENTS, before anything
    is added.
    """
    *lead, n, n_ch = out.shape
    n_banks = math.prod(lead)
    owner, omega, amps, phi = _components(
        freq.ravel(), amp.ravel(), triangle.ravel(), phases.ravel(), sample_rate
    )
    gains = np.broadcast_to(gains, freq.shape + (n_ch,)).reshape(n_banks, -1, n_ch)
    mono = n_ch > 1 and bool((gains == gains[:, :1]).all())
    weights = amps[:, None] if mono else amps[:, None] * gains.reshape(-1, n_ch)[owner]
    bank, omega, phi, weights = _sinusoids(owner // freq.shape[-1], omega, phi, weights)
    if bank.size == 0:
        return
    n_cols = weights.shape[1]
    counts = np.bincount(bank, minlength=n_banks)
    slot = np.arange(bank.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max())
    w, theta0 = np.zeros((2, n_banks, width))
    table_weights = np.zeros((n_banks, n_cols, width))
    w[bank, slot], theta0[bank, slot] = omega, phi
    table_weights[bank, :, slot] = weights
    out = out.reshape(n_banks, n, n_ch)
    # the working arrays of one bank, as counted beside _WORKING_SET; a
    # span's block starts fill at most q^2 values per sinusoid (_phasors).
    # A column scaled into the channels is scaled in the coefficients'
    # buffer, free once the product is formed.
    m = min(width, _CHUNK)
    span_blocks = -(-min(n, _SPAN) // _BLOCK)
    q = math.isqrt(span_blocks - 1) + 1
    coef_size = 2 * m if n_cols == n_ch else max(2 * m, _BLOCK)
    sizes = (2 * m * _BLOCK, 2 * m * q * q, span_blocks * coef_size, span_blocks * _BLOCK)
    group = max(1, min(n_banks, _WORKING_SET // (8 * (sum(sizes) + 2 * m * _BLOCK))))
    table_buf, starts_buf, coef_buf, prod_buf = (np.empty(group * size) for size in sizes)
    for first in range(0, n_banks, group):
        g = slice(first, first + group)
        for lo in range(0, width, _CHUNK):
            w_c, theta0_c = w[g, lo : lo + _CHUNK], theta0[g, lo : lo + _CHUNK]
            n_g, k = w_c.shape
            table = _phasors(w_c, 1, _BLOCK, out=table_buf).reshape(n_g, 2 * k, _BLOCK)
            for start in range(0, n, _SPAN):
                stop = min(start + _SPAN, n)
                n_blocks = -(-(stop - start) // _BLOCK)
                # Im(e^{i w i} A e^{i theta}) = A (sin(w i) cos(theta) + cos(w i) sin(theta)):
                # per block, the cosines of its start angles, then their sines
                trig = _phasors(w_c, _BLOCK, n_blocks, start, theta0_c, out=starts_buf)
                trig = trig[:, ::-1].transpose(0, 3, 1, 2)
                coef = coef_buf[: n_g * n_blocks * 2 * k].reshape(n_g, n_blocks, 2, k)
                prod = prod_buf[: n_g * n_blocks * _BLOCK].reshape(n_g, n_blocks, _BLOCK)
                samples = prod.reshape(n_g, -1)[:, : stop - start]
                for c in range(n_cols):
                    np.multiply(trig, table_weights[g, c, None, None, lo : lo + _CHUNK], out=coef)
                    np.matmul(coef.reshape(n_g, n_blocks, 2 * k), table, out=prod)
                    if n_cols == n_ch:
                        out[g, start:stop, c] += samples
                        continue
                    scaled = coef_buf[: samples.size].reshape(samples.shape)
                    for ch in range(n_ch):
                        np.multiply(samples, gains[g, :1, ch], out=scaled)
                        out[g, start:stop, ch] += scaled


def _fade(out, sample_rate):
    """Apply 10 ms raised-cosine ramps to both ends of out (n, channels),
    in place; the samples between them keep unit gain."""
    L = min(int(round(FADE_SECONDS * sample_rate)), out.shape[0] // 2)
    if L >= 2:
        ramp = 0.5 * (1.0 - np.cos(math.pi * np.arange(L) / (L - 1)))
        out[:L] *= ramp[:, None]
        out[-L:] *= ramp[::-1, None]


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
    half the sample rate, and ValueError, before any sample exists, if the
    note's samples times channels exceed MAX_SAMPLES, or its sine
    components, with a triangle's harmonics, MAX_COMPONENTS.
    """
    sample_rate = _whole_rate(sample_rate)
    n_partials = bank.freq.size
    if gains is None:
        gains = np.ones((n_partials, 1), dtype=float)
    else:
        gains = np.asarray(gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != n_partials or gains.shape[1] == 0:
            raise ValueError(f"gains must be (n_partials, channels) with channels >= 1, got {gains.shape}")
        refuse(gains, np.isfinite(gains), ValueError, "gains must be finite, got {!r}")
    n = _sample_count("note", bank.duration, sample_rate, gains.shape[1])
    if n < 1:
        raise ValueError(
            f"a note of {bank.duration!r} s gives {n} samples at {sample_rate} Hz; it needs at least 1"
        )
    out = np.zeros((n, gains.shape[1]), dtype=float)
    _accumulate(bank.freq, bank.amp, bank.triangle, bank.phase, gains, out, sample_rate)
    _fade(out, sample_rate)
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
            for end in (a, b):  # every frame's shift lies between the ends
                squared_shift(end)
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
    frame_seconds=DEFAULT_FRAME_SECONDS,
    channels=1,
) -> AudioBuffer:
    """Render a trajectory as overlapped envelope-bank frames.

    A frame starts every frame_seconds/2. Each frame's state is sampled on
    its default grid, its moments taken, and a mapping IV envelope bank
    rendered for one frame. Frames carry a Hann window and overlap 50
    percent, which sums to unit gain; oscillator phases carry over between
    frames so the crossfade stays beat-free. The master normalization runs
    once over the whole piece. Each frame is panned equal-power from its
    centroid position within a fixed box around the whole trajectory; one
    channel pans to unit gain.

    The work runs as arrays over frames: fields and moments over chunks of
    frames, then every frame's bank at once, then the audio of each chunk
    of frames through synth's oscillator kernel with a leading frame axis.
    So a fault in any frame (a partial at Nyquist, a degenerate field)
    raises before any audio is rendered. More than MAX_SAMPLES samples
    times channels, more than MAX_SWEEP_FRAMES frames, or more than
    MAX_SWEEP_PARTIALS frames times n_osc, raise ValueError before anything
    of that size exists.

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
    n_total = _sample_count("sweep", trajectory.total_seconds, sample_rate, channels)
    n_frame = _sample_count("frame", frame_seconds, sample_rate, channels)
    if n_frame < 4:
        raise ValueError(
            f"frame_seconds {frame_seconds!r} gives {n_frame} samples at {sample_rate} Hz; "
            f"a frame needs at least 4"
        )
    if n_total < n_frame:
        raise ValueError(
            f"a trajectory of {trajectory.total_seconds!r} s gives {n_total} samples at "
            f"{sample_rate} Hz, fewer than the {n_frame} of one frame"
        )
    hop = n_frame // 2
    starts = range(0, n_total, hop)
    if len(starts) > MAX_SWEEP_FRAMES:
        raise ValueError(
            f"{len(starts)} frames of {frame_seconds!r} s exceed the limit of {MAX_SWEEP_FRAMES}"
        )
    if len(starts) * cfg.n_osc > MAX_SWEEP_PARTIALS:
        raise ValueError(
            f"{len(starts)} frames of n_osc = {cfg.n_osc} partials are {len(starts) * cfg.n_osc} "
            f"partials, above the limit of {MAX_SWEEP_PARTIALS}"
        )
    shifts = np.array([trajectory.delta_alpha_at(start / sample_rate) for start in starts])
    r0, p0, sigma_r = _frame_moments(shifts)
    freq, amp = envelope(r0, sigma_r, cfg)
    _check_nyquist(freq, sample_rate)
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
class SonogramStream:
    """The Hann-windowed short-time spectrum of a buffer, channels averaged,
    computed a batch of frames at a time.

    Magnitudes are scaled so a full-scale sine reads near 0 dB, then
    floored at DB_FLOOR. Checks window, hop and the audio's length when
    made, so that a caller can refuse before it opens any output:
    ValueError for window < 8 or hop < 1, BufferTooShort for audio shorter
    than one window. chunks() computes the spectrum afresh on each call;
    the memory it takes does not grow with the length of the audio.
    """

    buffer: AudioBuffer
    window: int
    hop: int

    def __post_init__(self):
        if self.window < 8:
            raise ValueError(f"window must be >= 8 samples, got {self.window!r}")
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1 sample, got {self.hop!r}")
        n = self.buffer.samples.shape[0]
        if n < self.window:
            raise BufferTooShort(f"{n} samples but the window needs {self.window}")

    @property
    def n_frames(self) -> int:
        return 1 + (self.buffer.samples.shape[0] - self.window) // self.hop

    @property
    def times(self) -> np.ndarray:
        """Each frame's centre time in seconds."""
        return (np.arange(self.n_frames) * self.hop + self.window / 2.0) / self.buffer.sample_rate

    @property
    def freqs(self) -> np.ndarray:
        return np.fft.rfftfreq(self.window, 1.0 / self.buffer.sample_rate)

    def chunks(self):
        """(times, magnitude_db) of each batch of _STFT_CHUNK_SAMPLES //
        window frames, in order.

        Each batch takes the channel mean of its own samples in float64,
        then the Hann window, one batched rfft, |X| * scale, the floor,
        log10 and * 20. Every step acts on one sample or one frame, so each
        value has the same bits whatever the batch.
        """
        window, hop = self.window, self.hop
        w = np.hanning(window)
        scale = 2.0 / float(np.sum(w))
        times = self.times
        n_frames = times.size
        per = max(1, _STFT_CHUNK_SAMPLES // window)
        for lo in range(0, n_frames, per):
            hi = min(lo + per, n_frames)
            block = self.buffer.samples[lo * hop : (hi - 1) * hop + window]
            # the channels summed in order and divided by their count, as
            # block.mean(axis=1, dtype=np.float64) does at 4x the cost in quad
            mono = block[:, 0].astype(np.float64)
            for c in range(1, block.shape[1]):
                mono += block[:, c]
            mono /= block.shape[1]
            frames = np.lib.stride_tricks.sliding_window_view(mono, window)[::hop]
            db = np.abs(np.fft.rfft(frames * w, axis=1))
            db *= scale
            np.maximum(db, 10.0 ** (DB_FLOOR / 20.0), out=db)
            np.log10(db, out=db)
            db *= 20.0
            yield times[lo:hi], db


def stft_sonogram(buffer: AudioBuffer, window=DEFAULT_WINDOW, hop=DEFAULT_HOP) -> SonogramStream:
    """Hann-windowed short-time spectrum of the buffer, channels averaged,
    as a SonogramStream, checked as SonogramStream checks it.

    The sonogram command calls this rather than SonogramStream itself,
    because perfbench/layers.py wraps this name to count the frames; the
    spectrum itself is computed as write_sonogram_csv reads the chunks.
    """
    return SonogramStream(buffer, window, hop)


def write_sonogram_csv(sono: SonogramStream, path) -> None:
    """CSV with the frequency axis across the first row and times down the
    first column; the corner cell is empty.

    Rows go out a chunk of sono.chunks() at a time, so the sonogram is
    written without its whole matrix or text in memory.
    Every value is written as format(v, ".9g"). Most cells of a sweep's
    sonogram sit exactly at DB_FLOOR, whose text is "-120": each run of
    such cells is a slice of one precomputed ",-120" * n_freqs string, and
    each run of the other cells is formatted by one % operation.
    """
    floor_cell = ("," + format(DB_FLOOR, ".9g")).encode()
    width = len(floor_cell)
    n = sono.freqs.size
    floor_run = floor_cell * n
    with written(path) as (tmp,), open(tmp, "wb") as fh:
        fh.write(("," + ",".join(["%.9g" % f for f in sono.freqs.tolist()]) + "\n").encode())
        for times, db in sono.chunks():
            live = db != DB_FLOOR
            # the rows end to end, each led by one false flag: a run of live
            # cells [a, b) in row r toggles the flags at r * (n + 1) + a and b
            flags = np.zeros(live.size + times.size + 1, dtype=bool)
            flags[:-1].reshape(times.size, n + 1)[:, 1:] = live
            rows, cols = np.divmod(np.flatnonzero(flags[1:] != flags[:-1]), n + 1)
            runs = iter(zip(cols[0::2].tolist(), cols[1::2].tolist()))
            counts = np.bincount(rows[0::2], minlength=times.size).tolist()
            values = db[live].tolist()
            parts = []
            v = 0
            for t, count in zip(times.tolist(), counts):
                parts.append(b"%.9g" % t)
                pos = 0
                for _ in range(count):
                    a, b = next(runs)
                    parts.append(floor_run[: width * (a - pos)])
                    parts.append((b",%.9g" * (b - a)) % tuple(values[v : v + b - a]))
                    v += b - a
                    pos = b
                parts.append(floor_run[: width * (n - pos)])
                parts.append(b"\n")
            fh.write(b"".join(parts))


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
    with written(path) as (tmp,), open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_wav(path) -> AudioBuffer:
    """Read a 32-bit float WAV written by write_wav (or anything like it).

    The file is read once into one buffer, and the samples view its data
    chunk; no other array the size of the samples is made. Rejects every
    other encoding with UnsupportedFormat, including truncated files,
    integer PCM, a zero sample rate, and data with no frame or with NaN or
    infinite samples.
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
    # min and max carry any NaN and reach any infinity, without a bool mask
    # the size of the samples
    if not (samples.size and math.isfinite(samples.min()) and math.isfinite(samples.max())):
        raise UnsupportedFormat(f"{path}: need one or more frames of finite samples")
    return AudioBuffer(samples, sr)
