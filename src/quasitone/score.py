"""Scores: quantized, tagged, panned transcriptions of partial banks.

A Score is one table, a column per event field and a row per note. It holds
what a notation needs and a synthesizer does not: lattice pitches, playing
techniques and channel gains. It serializes to byte-stable JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import compute_moments
from .grids import WignerField
from .sonify import (
    TECHNIQUES,
    MapConfig,
    PartialBank,
    quarter_tone_freq,
    quarter_tone_index,
    spatial_gains,
    technique_tag,
)

# the per-event columns in JSON key order; gains follows as a list
_COLUMNS = ("onset", "duration", "pitch_index", "freq_hz", "dynamic", "technique")


@dataclass(frozen=True, eq=False)
class Score:
    """Events as columns: row k is a note at onset[k] lasting duration[k]
    seconds, on lattice step pitch_index[k] (freq_hz[k] Hz), at dynamic[k]
    in [0, 1], played technique[k], panned by the gains[k] row of shape
    (n, channels). len() is the event count."""

    onset: np.ndarray
    duration: np.ndarray
    pitch_index: np.ndarray
    freq_hz: np.ndarray
    dynamic: np.ndarray
    technique: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        pitch = np.array(self.pitch_index, dtype=float)  # the int64 cast below truncates
        dtypes = {"pitch_index": np.int64, "technique": str}
        for name in _COLUMNS + ("gains",):
            a = np.array(getattr(self, name), dtype=dtypes.get(name, float))
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        shapes = [getattr(self, name).shape for name in _COLUMNS + ("gains",)]
        if self.gains.ndim != 2 or set(shapes[:-1]) != {shapes[-1][:1]}:
            raise ValueError(f"need 1-D columns and (n, channels) gains of one n, got {shapes}")
        on, du, fr, dy, tech = self.onset, self.duration, self.freq_hz, self.dynamic, self.technique
        for message, values, ok in (
            ("onset must be finite and >= 0", on, np.isfinite(on) & (on >= 0)),
            ("pitch_index must be integral", pitch, pitch == self.pitch_index),
            ("duration must be finite and positive", du, np.isfinite(du) & (du > 0)),
            ("freq_hz must be positive and finite", fr, np.isfinite(fr) & (fr > 0)),
            ("dynamic must lie in [0, 1]", dy, (dy >= 0) & (dy <= 1)),
            ("gains must be finite", self.gains, np.isfinite(self.gains)),
            (f"technique must be one of {TECHNIQUES}", tech, np.isin(tech, TECHNIQUES)),
        ):
            if not ok.all():
                raise ValueError(f"{message}, got {values[~ok].flat[0].item()!r}")

    def __len__(self) -> int:
        return self.onset.size


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
) -> Score:
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
    return Score(
        onset[order], np.full(n, float(bank.duration)), indices[order], freqs_q[order],
        bank.amp[order], technique[order], gains[order],
    )


def score_to_json(score: Score) -> str:
    """Deterministic JSON text for a score, one object per event line and
    17 significant digits per float."""
    if not len(score):
        return "[]\n"
    row = (
        '  {"onset": %.17g, "duration": %.17g, "pitch_index": %d, "freq_hz": %.17g, '
        '"dynamic": %.17g, "technique": "%s", "gains": ['
        + ", ".join(["%.17g"] * score.gains.shape[1]) + "]}"
    )
    rows = zip(*(getattr(score, name).tolist() for name in _COLUMNS), *score.gains.T.tolist())
    return "[\n" + ",\n".join(map(row.__mod__, rows)) + "\n]\n"


def write_score(score: Score, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(score_to_json(score))


def read_score(path) -> Score:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        columns = {name: [e[name] for e in data] for name in _COLUMNS}
        gains = [e["gains"] for e in data]
    except KeyError as exc:
        raise ValueError(f"{path}: an event lacks the key {exc}") from exc
    for k, row in enumerate(gains):
        if np.shape(row) != np.shape(gains[0]):
            raise ValueError(f"{path}: event {k} has gains {row!r}, event 0 has {gains[0]!r}")
    gains = np.array(gains, dtype=float).reshape(len(data), -1) if data else np.zeros((0, 0))
    return Score(**columns, gains=gains)
