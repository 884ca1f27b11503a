"""Mappings from Wigner fields and statistics to banks of partials.

Four mappings are provided, ordered by how much structure they keep:

  I    one partial per grid cell, capped at the 900 loudest
  II   two partials from the field extremes alone
  III  four partials weighted by equal-width value sections
  IV   an odd count of partials under a Gaussian spectral envelope whose
       center and width follow the field's first and second moments

A PartialBank holds its partials as parallel arrays (frequency,
amplitude, phase, waveform flag and optional source cell), validated
once when the bank is built; every consumer reads those arrays whole.

Alongside the mappings live the quarter-tone quantizer, the technique tag
for negative regions, and equal-power spatial panning, which the score
layer combines into pitch events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

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
TECHNIQUES = (TECH_ORDINARIO, *_NEGATIVE_TECHNIQUES)

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
        if not (math.isfinite(self.f_hi) and 0 < self.f_lo < self.f_hi):
            raise ValueError(f"need 0 < f_lo < f_hi, both finite, got [{self.f_lo}, {self.f_hi}]")
        if not (np.isfinite(self.q_slope) and self.q_slope > 0):
            raise ValueError(f"q_slope must be positive, got {self.q_slope!r}")
        if not (np.isfinite(self.f0_base) and np.isfinite(self.f0_slope)):
            raise ValueError("f0_base and f0_slope must be finite")
        if self.n_osc < 1 or self.n_osc % 2 == 0:
            raise ValueError(f"n_osc must be odd and positive, got {self.n_osc}")
        if not (math.isfinite(self.ref_pitch) and self.ref_pitch > 0):
            raise ValueError(f"ref_pitch must be positive and finite, got {self.ref_pitch!r}")
        if self.negative_technique not in _NEGATIVE_TECHNIQUES:
            raise ValueError(f"negative_technique must be one of {_NEGATIVE_TECHNIQUES}")
        if self.waveform not in (WAVE_SINE, WAVE_TRIANGLE):
            raise ValueError(f"waveform must be 'sine' or 'triangle', got {self.waveform!r}")
        if self.freq_axis not in ("r", "p"):
            raise ValueError(f"freq_axis must be 'r' or 'p', got {self.freq_axis!r}")
        if self.f0_mode not in ("r0", "sigma_r"):
            raise ValueError(f"f0_mode must be 'r0' or 'sigma_r', got {self.f0_mode!r}")
        if not (math.isfinite(self.event_duration) and self.event_duration > 0):
            raise ValueError(f"event_duration must be positive and finite, got {self.event_duration!r}")


_CONFIG_TYPES = {f.name: f.type for f in fields(MapConfig)}  # type names: annotations are strings


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
            try:
                overrides[key] = int(value) if kind == "int" else float(value) if kind == "float" else value
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {kind}, got {value!r}") from None
    return replace(base or MapConfig(), **overrides)


class Partial(NamedTuple):
    """One unvalidated record of the PartialBank.partials view."""

    freq: float
    amp: float
    phase: float
    waveform: str


@dataclass(frozen=True, eq=False)
class PartialBank:
    """Partials as arrays plus the context needed to render or transcribe them.

    Partial k plays at freq[k] Hz, amplitude amp[k] in [0, 1] and starting
    phase phase[k] radians, as a band-limited triangle where triangle[k] is
    true and as a sine otherwise. Banks born from grid cells also carry
    each cell center (source_r, source_p) and sampled value (source_value)
    so the score layer can pan and tag them; the three come together or
    not at all.
    """

    freq: np.ndarray
    amp: np.ndarray
    phase: np.ndarray
    triangle: np.ndarray
    duration: float
    method: str
    negative: bool
    source_r: np.ndarray | None = None
    source_p: np.ndarray | None = None
    source_value: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if self.method not in ("I", "II", "III", "IV"):
            raise ValueError(f"method must be I, II, III, or IV, got {self.method!r}")
        names = ["freq", "amp", "phase", "triangle"]
        sources = [self.source_r, self.source_p, self.source_value]
        if any(s is not None for s in sources):
            if any(s is None for s in sources):
                raise ValueError("source_r, source_p and source_value come together")
            names += ["source_r", "source_p", "source_value"]
        for name in names:
            a = np.array(getattr(self, name), dtype=bool if name == "triangle" else float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        shapes = {name: getattr(self, name).shape for name in names}
        if self.freq.ndim != 1 or len(set(shapes.values())) != 1:
            raise ValueError(f"partial arrays must be 1-D of one length, got {shapes}")
        bad = self.freq[~(np.isfinite(self.freq) & (self.freq > 0))]
        if bad.size:
            raise ValueError(f"frequency must be positive and finite, got {float(bad[0])!r}")
        bad = self.amp[~((self.amp >= 0.0) & (self.amp <= 1.0))]
        if bad.size:
            raise ValueError(f"amplitude must lie in [0, 1], got {float(bad[0])!r}")

    @property
    def partials(self) -> tuple[Partial, ...]:
        """The bank as per-partial records; the benchmark's tracer reads them."""
        waveform = np.where(self.triangle, WAVE_TRIANGLE, WAVE_SINE).tolist()
        return tuple(
            map(Partial, self.freq.tolist(), self.amp.tolist(), self.phase.tolist(), waveform)
        )


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


def _uniform_bank(freq, amp, cfg: MapConfig, duration, method, negative) -> PartialBank:
    """Bank of zero-phase partials in cfg's waveform."""
    n = freq.size
    return PartialBank(
        freq=freq,
        amp=amp,
        phase=np.zeros(n),
        triangle=np.full(n, cfg.waveform == WAVE_TRIANGLE),
        duration=float(duration if duration is not None else cfg.event_duration),
        method=method,
        negative=bool(negative),
    )


def method1_grid(field: WignerField, cfg: MapConfig, duration: float | None = None) -> PartialBank:
    """One partial per cell: position sets pitch and phase, value sets level.

    The freq_axis coordinate (r by default) maps exponentially onto
    [f_lo, f_hi]; the other coordinate maps linearly onto [0, 2 pi) of
    starting phase. Amplitude is |value| / max |value| and a negative cell
    flips its partial by half a cycle. When the grid holds more than 900
    cells only the 900 largest magnitudes survive, ties resolved toward
    the lexicographically lowest (r, p). Partials are always sines, in
    row-major cell order.
    """
    v = field.values
    if v.size == 0:
        raise EmptyField("cannot map a field with no cells")
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        raise EmptyField("cannot map a field whose values are all zero")
    rc = field.grid.r_centers
    pc = field.grid.p_centers

    i_idx, j_idx = np.unravel_index(np.arange(v.size), v.shape)
    if v.size > MAX_PARTIALS:
        # primary key loudness, then ascending (r, p) for determinism
        order = np.lexsort((j_idx, i_idx, -np.abs(v).ravel()))[:MAX_PARTIALS]
        order = np.sort(order)  # keep row-major output order
        i_idx, j_idx = i_idx[order], j_idx[order]
    value = v[i_idx, j_idx]
    if cfg.freq_axis == "r":
        freq = _exp_freq_map(_normalize(rc), cfg)[i_idx]
        phase = TAU * _normalize(pc)[j_idx]
    else:
        freq = _exp_freq_map(_normalize(pc), cfg)[j_idx]
        phase = TAU * _normalize(rc)[i_idx]
    return PartialBank(
        freq=np.clip(freq, cfg.f_lo, cfg.f_hi),
        amp=np.abs(value) / vmax,
        phase=np.where(value < 0, phase + math.pi, phase) % TAU,
        triangle=np.zeros(value.size, dtype=bool),
        duration=float(duration if duration is not None else cfg.event_duration),
        method="I",
        negative=bool(np.any(v < 0)),
        source_r=rc[i_idx],
        source_p=pc[j_idx],
        source_value=value,
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
    extremes = np.array([vmin, vmax])
    t = (np.clip(extremes, -bound, bound) + bound) / (2.0 * bound)
    freq = cfg.f_lo + (cfg.f_hi - cfg.f_lo) * t
    amp = np.abs(extremes) / max(abs(vmin), abs(vmax))
    return _uniform_bank(freq, amp, cfg, duration, "II", vmin < 0)


def method3_sections(field: WignerField, cfg: MapConfig, duration: float | None = None) -> PartialBank:
    """Four partials, one per value section, at log-equispaced frequencies.

    Section k of the equal-width value split drives the partial at
    f_lo * (f_hi/f_lo)^(k/3), lowest values to the lowest frequency.
    Amplitude is the section's absolute mass over the largest section
    mass.
    """
    seg = segment_four(field)
    peak = float(np.max(seg.section_abs_mass))
    freq = np.clip(_exp_freq_map(np.arange(4) / 3.0, cfg), cfg.f_lo, cfg.f_hi)
    amp = seg.section_abs_mass / peak if peak > 0 else np.zeros(4)
    return _uniform_bank(freq, amp, cfg, duration, "III", np.min(field.values) < 0)


def envelope(r0, sigma_r, cfg: MapConfig):
    """Mapping IV's partial frequencies and amplitudes, (..., n_osc) each,
    for arrays r0 and sigma_r of one shape (see method4_moments)."""
    r0, sigma_r = np.asarray(r0, dtype=float), np.asarray(sigma_r, dtype=float)
    bad = sigma_r[~(np.isfinite(sigma_r) & (sigma_r > 0))]
    if bad.size:
        raise DegenerateMoments(f"sigma_r = {float(bad[0])!r} cannot shape an envelope")
    n = cfg.n_osc
    sigma_f = cfg.q_slope * sigma_r[..., None]
    anchor = r0 if cfg.f0_mode == "r0" else sigma_r
    f0 = cfg.f0_base + cfg.f0_slope * anchor[..., None]
    spacing = 6.0 * sigma_f / max(n - 1, 1)
    offset = (np.arange(n) - (n - 1) // 2) * spacing
    freq = np.clip(f0 + offset, cfg.f_lo, cfg.f_hi)
    # float_power squares through libm pow, as a Python float ** 2 does; the
    # correctly rounded offset**2 differs from it in the last bit of some
    # offsets, which would move a sweep's samples
    amp = np.exp(-np.float_power(offset, 2) / (2.0 * np.float_power(sigma_f, 2)))
    return freq, amp


def method4_moments(moments: MomentSet, cfg: MapConfig, duration: float | None = None) -> PartialBank:
    """Odd bank of partials under a Gaussian spectral envelope.

    Center frequency f0 = f0_base + f0_slope * r0, or with sigma_r in
    place of r0 when f0_mode is "sigma_r". Width sigma_f = q_slope *
    sigma_r. The n_osc partials sit at uniform spacing 6 sigma_f /
    (n_osc - 1), spanning three envelope widths each side, with amplitude
    exp(-(f_k - f0)^2 / (2 sigma_f^2)); the middle partial plays at 1.

    Nominal positions falling outside [f_lo, f_hi] are clipped to the
    band edge; amplitudes keep the nominal Gaussian profile so the
    envelope stays symmetric. duration defaults to cfg.event_duration; the
    bank is negative when the moments report any negativity.
    """
    freq, amp = envelope(moments.r0, moments.sigma_r, cfg)
    return _uniform_bank(freq, amp, cfg, duration, "IV", moments.negativity > 0)


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
    """Equal-power channel gains for points in a bounding rectangle.

    r and p are scalars or arrays of one shape; the result has that shape
    plus a trailing channel axis. bounds is (r_min, r_max, p_min, p_max).
    Stereo pans on r alone: r_min is hard left. Quad places the point
    bilinearly with channel order (r_min,p_min), (r_max,p_min),
    (r_min,p_max), (r_max,p_max). The squared gains always sum to 1, so
    total power is position independent.
    """
    r_min, r_max, p_min, p_max = (float(b) for b in bounds)
    if not (r_min < r_max and p_min < p_max):
        raise ValueError(f"degenerate bounds {bounds!r}")
    r, p = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(p, dtype=float))
    outside = ~((r_min <= r) & (r <= r_max) & (p_min <= p) & (p <= p_max))
    if np.any(outside):
        k = np.argmax(outside)
        raise OutOfBounds(f"point ({r.flat[k]}, {p.flat[k]}) outside {bounds}")
    u = (r - r_min) / (r_max - r_min)
    v = (p - p_min) / (p_max - p_min)
    if channels == 1:
        return np.ones(u.shape + (1,))
    a = 0.5 * math.pi * u
    if channels == 2:
        return np.stack([np.cos(a), np.sin(a)], axis=-1)
    if channels == 4:
        b = 0.5 * math.pi * v
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        return np.stack([ca * cb, sa * cb, ca * sb, sa * sb], axis=-1)
    raise ValueError(f"channels must be 1, 2, or 4, got {channels!r}")
