"""Mappings from Wigner fields and statistics to banks of partials.

Four mappings are provided, ordered by how much structure they keep:

  I    one partial per grid cell, capped at the 900 loudest
  II   two partials from the field extremes alone
  III  four partials weighted by equal-width value sections
  IV   an odd count of partials under a Gaussian spectral envelope whose
       center and width follow the field's first and second moments

Alongside the mappings live the quarter-tone quantizer, the technique tag
for negative regions, and equal-power spatial panning, which the score
layer combines into pitch events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DegenerateMoments, DegenerateRange, EmptyField, OutOfBounds
from .grids import WignerField
from .analysis import MomentSet, segment_four
from .states import PEAK_BOUND

# Cap on simultaneous partials for the per-cell mapping.
MAX_PARTIALS = 900

WAVE_SINE = "sine"
WAVE_TRIANGLE = "triangle"

TECH_ORDINARIO = "ordinario"
TECH_SUL_PONTICELLO = "sul_ponticello"
TECH_RICOCHET = "ricochet"

_NEGATIVE_TECHNIQUES = (TECH_SUL_PONTICELLO, TECH_RICOCHET)

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class MapConfig:
    """Tunable constants of the field-to-sound mappings.

    f_lo, f_hi bound every emitted frequency. The envelope constants feed
    mapping IV: its center frequency is f0_base + f0_slope * r0 (or
    f0_base + f0_slope * sigma_r when f0_mode is "sigma_r") and its
    spectral width is q_slope * sigma_r. n_osc must stay odd so one
    partial sits exactly on the envelope center.
    """

    f_lo: float = 55.0
    f_hi: float = 7040.0
    f0_base: float = 220.0
    f0_slope: float = 110.0
    q_slope: float = 80.0
    n_osc: int = 21
    ref_pitch: float = 440.0
    negative_technique: str = TECH_SUL_PONTICELLO
    waveform: str = WAVE_SINE
    freq_axis: str = "r"
    f0_mode: str = "r0"
    event_duration: float = 4.0

    def __post_init__(self):
        if not (0 < self.f_lo < self.f_hi):
            raise ValueError(f"need 0 < f_lo < f_hi, got [{self.f_lo}, {self.f_hi}]")
        if not (np.isfinite(self.q_slope) and self.q_slope > 0):
            raise ValueError(f"q_slope must be positive, got {self.q_slope!r}")
        if not (np.isfinite(self.f0_base) and np.isfinite(self.f0_slope)):
            raise ValueError("f0_base and f0_slope must be finite")
        if self.n_osc < 1 or self.n_osc % 2 == 0:
            raise ValueError(f"n_osc must be odd and positive, got {self.n_osc}")
        if self.ref_pitch <= 0:
            raise ValueError(f"ref_pitch must be positive, got {self.ref_pitch}")
        if self.negative_technique not in _NEGATIVE_TECHNIQUES:
            raise ValueError(f"negative_technique must be one of {_NEGATIVE_TECHNIQUES}")
        if self.waveform not in (WAVE_SINE, WAVE_TRIANGLE):
            raise ValueError(f"waveform must be 'sine' or 'triangle', got {self.waveform!r}")
        if self.freq_axis not in ("r", "p"):
            raise ValueError(f"freq_axis must be 'r' or 'p', got {self.freq_axis!r}")
        if self.f0_mode not in ("r0", "sigma_r"):
            raise ValueError(f"f0_mode must be 'r0' or 'sigma_r', got {self.f0_mode!r}")
        if self.event_duration <= 0:
            raise ValueError(f"event_duration must be positive, got {self.event_duration}")


_CONFIG_TYPES = {f.name: f.type for f in fields(MapConfig)}


def load_map_config(path, base: MapConfig | None = None) -> MapConfig:
    """Read key=value overrides from a plain-text file.

    Blank lines and lines starting with # are skipped. Unknown keys are
    rejected so typos fail loudly instead of silently keeping a default.
    """
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _CONFIG_TYPES[key]
            if kind in ("int", int):
                overrides[key] = int(value)
            elif kind in ("float", float):
                overrides[key] = float(value)
            else:
                overrides[key] = value
    return replace(base or MapConfig(), **overrides)


@dataclass(frozen=True)
class Partial:
    """One steady partial: frequency in Hz, amplitude in [0,1], phase in radians.

    Partials born from a grid cell remember the cell center and sampled
    value so the score layer can pan and tag them later.
    """

    freq: float
    amp: float
    phase: float
    waveform: str = WAVE_SINE
    source_r: float | None = None
    source_p: float | None = None
    source_value: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.freq) and self.freq > 0):
            raise ValueError(f"frequency must be positive and finite, got {self.freq!r}")
        if not (0.0 <= self.amp <= 1.0):
            raise ValueError(f"amplitude must lie in [0, 1], got {self.amp!r}")
        if self.waveform not in (WAVE_SINE, WAVE_TRIANGLE):
            raise ValueError(f"waveform must be 'sine' or 'triangle', got {self.waveform!r}")


@dataclass(frozen=True)
class PartialBank:
    """Partials plus the context needed to render or transcribe them."""

    partials: tuple[Partial, ...]
    duration: float
    method: str
    negative: bool

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.method not in ("I", "II", "III", "IV"):
            raise ValueError(f"method must be I, II, III, or IV, got {self.method!r}")


def _exp_freq_map(t, cfg: MapConfig):
    """Map t in [0,1] onto [f_lo, f_hi] with equal ratios per step."""
    return cfg.f_lo * (cfg.f_hi / cfg.f_lo) ** t


def _normalize(coords):
    """Positions of coords within their own range; a lone value maps to 0."""
    lo = float(coords[0])
    hi = float(coords[-1])
    if hi <= lo:
        return np.zeros_like(np.asarray(coords, dtype=float))
    return (np.asarray(coords, dtype=float) - lo) / (hi - lo)


def method1_grid(field: WignerField, cfg: MapConfig, duration: float | None = None) -> PartialBank:
    """One partial per cell: position sets pitch and phase, value sets level.

    The freq_axis coordinate (r by default) maps exponentially onto
    [f_lo, f_hi]; the other coordinate maps linearly onto [0, 2 pi) of
    starting phase. Amplitude is |value| / max |value| and a negative cell
    flips its partial by half a cycle. When the grid holds more than 900
    cells only the 900 largest magnitudes survive, ties resolved toward
    the lexicographically lowest (r, p).
    """
    v = field.values
    if v.size == 0:
        raise EmptyField("cannot map a field with no cells")
    rc = field.grid.r_centers
    pc = field.grid.p_centers
    if cfg.freq_axis == "r":
        f_of_cell = _exp_freq_map(_normalize(rc), cfg)[:, None] * np.ones((1, pc.size))
        ph_of_cell = np.ones((rc.size, 1)) * (TAU * _normalize(pc))[None, :]
    else:
        f_of_cell = np.ones((rc.size, 1)) * _exp_freq_map(_normalize(pc), cfg)[None, :]
        ph_of_cell = (TAU * _normalize(rc))[:, None] * np.ones((1, pc.size))
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        raise EmptyField("cannot map a field whose values are all zero")
    amp = np.abs(v) / vmax
    phase = np.where(v < 0, ph_of_cell + math.pi, ph_of_cell) % TAU

    i_idx, j_idx = np.unravel_index(np.arange(v.size), v.shape)
    if v.size > MAX_PARTIALS:
        # primary key loudness, then ascending (r, p) for determinism
        order = np.lexsort((j_idx, i_idx, -np.abs(v).ravel()))[:MAX_PARTIALS]
        order = np.sort(order)  # keep row-major output order
    else:
        order = np.arange(v.size)
    partials = tuple(
        Partial(
            freq=float(np.clip(f_of_cell[i, j], cfg.f_lo, cfg.f_hi)),
            amp=float(amp[i, j]),
            phase=float(phase[i, j]),
            waveform=WAVE_SINE,
            source_r=float(rc[i]),
            source_p=float(pc[j]),
            source_value=float(v[i, j]),
        )
        for i, j in zip(i_idx[order], j_idx[order])
    )
    return PartialBank(
        partials=partials,
        duration=float(duration if duration is not None else cfg.event_duration),
        method="I",
        negative=bool(np.any(v < 0)),
    )


def method2_extremes(field: WignerField, cfg: MapConfig, duration: float | None = None) -> PartialBank:
    """Two partials from the field extremes.

    The value axis [-PEAK_BOUND, PEAK_BOUND] = [-1/pi, 1/pi], the full
    range any Wigner function can reach, maps affinely onto [f_lo, f_hi];
    min and max each land where their value falls on that axis. Amplitudes
    are the two magnitudes scaled by the larger one, so the stronger
    extreme plays at full level.
    """
    vmin = float(np.min(field.values))
    vmax = float(np.max(field.values))
    if vmax <= vmin:
        raise DegenerateRange(f"field extremes coincide at {vmin!r}")
    bound = PEAK_BOUND
    span = cfg.f_hi - cfg.f_lo

    def freq_of(value):
        t = (np.clip(value, -bound, bound) + bound) / (2.0 * bound)
        return float(cfg.f_lo + span * t)

    biggest = max(abs(vmin), abs(vmax))
    partials = tuple(
        Partial(freq=freq_of(v), amp=abs(v) / biggest, phase=0.0, waveform=cfg.waveform)
        for v in (vmin, vmax)
    )
    return PartialBank(
        partials=partials,
        duration=float(duration if duration is not None else cfg.event_duration),
        method="II",
        negative=bool(vmin < 0),
    )


def method3_sections(field: WignerField, cfg: MapConfig, duration: float | None = None) -> PartialBank:
    """Four partials, one per value section, at log-equispaced frequencies.

    Section k of the equal-width value split drives the partial at
    f_lo * (f_hi/f_lo)^(k/3), lowest values to the lowest frequency.
    Amplitude is the section's absolute mass over the largest section
    mass.
    """
    seg = segment_four(field)
    peak = float(np.max(seg.section_abs_mass))
    freqs = _exp_freq_map(np.arange(4) / 3.0, cfg)
    partials = tuple(
        Partial(
            freq=float(np.clip(freqs[k], cfg.f_lo, cfg.f_hi)),
            amp=float(seg.section_abs_mass[k] / peak) if peak > 0 else 0.0,
            phase=0.0,
            waveform=cfg.waveform,
        )
        for k in range(4)
    )
    return PartialBank(
        partials=partials,
        duration=float(duration if duration is not None else cfg.event_duration),
        method="III",
        negative=bool(np.min(field.values) < 0),
    )


def method4_moments(
    moments: MomentSet, cfg: MapConfig, duration: float, negative: bool | None = None
) -> PartialBank:
    """Odd bank of partials under a Gaussian spectral envelope.

    Center frequency f0 = f0_base + f0_slope * r0, or with sigma_r in
    place of r0 when f0_mode is "sigma_r". Width sigma_f = q_slope *
    sigma_r. The n_osc partials sit at uniform spacing 6 sigma_f /
    (n_osc - 1), spanning three envelope widths each side, with amplitude
    exp(-(f_k - f0)^2 / (2 sigma_f^2)); the middle partial plays at 1.

    Nominal positions falling outside [f_lo, f_hi] are clipped to the
    band edge; amplitudes keep the nominal Gaussian profile so the
    envelope stays symmetric.
    """
    sigma_r = moments.sigma_r
    if not (np.isfinite(sigma_r) and sigma_r > 0):
        raise DegenerateMoments(f"sigma_r = {sigma_r!r} cannot shape an envelope")
    n = cfg.n_osc
    sigma_f = cfg.q_slope * sigma_r
    anchor = moments.r0 if cfg.f0_mode == "r0" else sigma_r
    f0 = cfg.f0_base + cfg.f0_slope * anchor
    spacing = 6.0 * sigma_f / (n - 1) if n > 1 else 0.0
    half = (n - 1) // 2
    partials = []
    for k in range(n):
        offset = (k - half) * spacing
        partials.append(
            Partial(
                freq=float(np.clip(f0 + offset, cfg.f_lo, cfg.f_hi)),
                amp=float(np.exp(-(offset**2) / (2.0 * sigma_f**2))),
                phase=0.0,
                waveform=cfg.waveform,
            )
        )
    if negative is None:
        negative = moments.negativity > 0
    return PartialBank(
        partials=tuple(partials), duration=float(duration), method="IV", negative=bool(negative)
    )


# === pitch lattice, technique, panning ===


def quarter_tone_index(freq, ref_pitch=440.0):
    """Nearest 24-step-per-octave index of freq relative to ref_pitch.

    Exact midpoints round up, toward the higher pitch.
    """
    f = np.asarray(freq, dtype=float)
    if np.any(f <= 0) or ref_pitch <= 0:
        raise ValueError("frequencies and ref_pitch must be positive")
    idx = np.floor(24.0 * np.log2(f / ref_pitch) + 0.5).astype(int)
    return idx if idx.ndim else int(idx)


def quantize_quarter_tone(freq, ref_pitch=440.0):
    """Snap freq onto the quarter-tone lattice ref_pitch * 2^(k/24).

    Applying the map twice returns the identical float: a lattice point
    measures an exactly integral step count, so it maps to itself.
    """
    return quarter_tone_freq(quarter_tone_index(freq, ref_pitch), ref_pitch)


def quarter_tone_freq(idx, ref_pitch=440.0):
    """Frequency ref_pitch * 2^(idx/24) of lattice index idx."""
    out = ref_pitch * np.exp2(np.asarray(idx, dtype=float) / 24.0)
    return out if out.ndim else float(out)


def technique_tag(negative: bool, cfg: MapConfig) -> str:
    """Playing technique for an event: ordinario unless the source is negative."""
    return cfg.negative_technique if negative else TECH_ORDINARIO


def spatial_gains(r, p, bounds, channels=2):
    """Equal-power channel gains for a point in a bounding rectangle.

    bounds is (r_min, r_max, p_min, p_max). Stereo pans on r alone:
    r_min is hard left. Quad places the point bilinearly with channel
    order (r_min,p_min), (r_max,p_min), (r_min,p_max), (r_max,p_max).
    The squared gains always sum to 1, so total power is position
    independent.
    """
    r_min, r_max, p_min, p_max = (float(b) for b in bounds)
    if not (r_min < r_max and p_min < p_max):
        raise ValueError(f"degenerate bounds {bounds!r}")
    if not (r_min <= r <= r_max and p_min <= p <= p_max):
        raise OutOfBounds(f"point ({r}, {p}) outside {bounds}")
    u = (r - r_min) / (r_max - r_min)
    v = (p - p_min) / (p_max - p_min)
    if channels == 1:
        return (1.0,)
    if channels == 2:
        a = 0.5 * math.pi * u
        return (math.cos(a), math.sin(a))
    if channels == 4:
        a = 0.5 * math.pi * u
        b = 0.5 * math.pi * v
        return (
            math.cos(a) * math.cos(b),
            math.sin(a) * math.cos(b),
            math.cos(a) * math.sin(b),
            math.sin(a) * math.sin(b),
        )
    raise ValueError(f"channels must be 1, 2, or 4, got {channels!r}")
