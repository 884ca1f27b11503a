"""Pitch events: quantized, tagged, panned transcriptions of partial banks.

An event is what a score needs and a synthesizer does not: a lattice pitch
instead of a free frequency, a playing technique instead of a sign bit,
and channel gains instead of a cell coordinate. Event lists serialize to
deterministic JSON, byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import compute_moments
from .errors import IoError
from .grids import WignerField
from .sonify import (
    MapConfig,
    PartialBank,
    quarter_tone_freq,
    quarter_tone_index,
    spatial_gains,
    technique_tag,
)


@dataclass(frozen=True)
class PitchEvent:
    """One note: onset and duration in seconds, pitch on the 24-step
    lattice, dynamic in [0, 1], playing technique, channel gains."""

    onset: float
    duration: float
    pitch_index: int
    freq_hz: float
    dynamic: float
    technique: str
    gains: tuple[float, ...]

    def __post_init__(self):
        if self.onset < 0 or self.duration <= 0:
            raise ValueError("onset must be >= 0 and duration positive")
        if not (np.isfinite(self.freq_hz) and self.freq_hz > 0):
            raise ValueError(f"freq_hz must be positive and finite, got {self.freq_hz!r}")
        if not (0.0 <= self.dynamic <= 1.0):
            raise ValueError(f"dynamic must lie in [0, 1], got {self.dynamic!r}")


def partial_gains(bank: PartialBank, field: WignerField, channels=2) -> np.ndarray:
    """Equal-power channel gains of each partial, shape (n_partials, channels).

    Partials born from grid cells pan from their cell centers; a bank
    without source cells pans every partial from the field centroid,
    whose moments are taken only then.
    """
    if bank.source_r is not None:
        r, p = bank.source_r, bank.source_p
    else:
        m = compute_moments(field)
        r, p = np.broadcast_to(m.r0, bank.freq.shape), np.broadcast_to(m.p0, bank.freq.shape)
    return spatial_gains(r, p, field.grid.bounds, channels)


def bank_to_events(
    bank: PartialBank,
    field: WignerField,
    cfg: MapConfig,
    channels=2,
    arpeggiate=False,
) -> tuple[PitchEvent, ...]:
    """Transcribe a bank against the field it came from.

    Frequencies snap to the quarter-tone lattice around cfg.ref_pitch.
    Per-cell partials keep their own technique (negative cells get the
    configured negative-region bowing); partials without a source cell
    share the field's negativity flag. Gains come from partial_gains.
    Events are sorted by onset, then pitch, then descending dynamic, then
    gains; ties keep bank order.

    arpeggiate staggers per-cell events by their p index: cells in the
    same p column share an onset and columns step across the bank
    duration, each event keeping the full duration.
    """
    n = bank.freq.size
    indices = quarter_tone_index(bank.freq, cfg.ref_pitch)
    freqs_q = quarter_tone_freq(indices, cfg.ref_pitch)
    gains = partial_gains(bank, field, channels)
    if bank.source_r is not None:
        negative = bank.source_value < 0
        p_centers = field.grid.p_centers
        step = bank.duration / p_centers.size if arpeggiate else 0.0
        column = np.minimum(np.searchsorted(p_centers, bank.source_p), p_centers.size - 1)
        onset = step * column
    else:
        negative = np.full(n, bank.negative)
        onset = np.zeros(n)
    technique = np.where(negative, technique_tag(True, cfg), technique_tag(False, cfg))
    # np.lexsort's last key is the primary one; it is stable, as list.sort is
    order = np.lexsort((*gains.T[::-1], -bank.amp, indices, onset))
    duration = float(bank.duration)
    columns = (onset, indices, freqs_q, bank.amp, technique, gains)
    return tuple(
        PitchEvent(t, duration, idx, f, a, tech, tuple(g))
        for t, idx, f, a, tech, g in zip(*(c[order].tolist() for c in columns))
    )


def _event_payload(event: PitchEvent) -> dict:
    return {
        "onset": event.onset,
        "duration": event.duration,
        "pitch_index": event.pitch_index,
        "freq_hz": event.freq_hz,
        "dynamic": event.dynamic,
        "technique": event.technique,
        "gains": list(event.gains),
    }


def score_to_json(events) -> str:
    """Deterministic JSON text for an event list, 17 digits per float."""
    from .textfmt import json_value

    return json_value([_event_payload(e) for e in events]) + "\n"


def write_score(events, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(score_to_json(events))
    except OSError as exc:
        raise IoError(f"cannot write score: {exc}") from exc


def read_score(path) -> tuple[PitchEvent, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read score: {exc}") from exc
    return tuple(
        PitchEvent(
            onset=float(e["onset"]),
            duration=float(e["duration"]),
            pitch_index=int(e["pitch_index"]),
            freq_hz=float(e["freq_hz"]),
            dynamic=float(e["dynamic"]),
            technique=str(e["technique"]),
            gains=tuple(float(g) for g in e["gains"]),
        )
        for e in data
    )
