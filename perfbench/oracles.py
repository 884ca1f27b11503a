"""Output checks for the benchmark's artifacts.

Each check reads one artifact from a pass directory and compares it with
figures that follow from the command's inputs: sample counts from the
duration and rate, the -1 dBFS master peak, unit signed mass, the
closed-form Wigner function of the harmonic eigenstates, the quarter-tone
lattice, the criterion-11 line count and an STFT recomputed here. None of
them compares with stored bytes. A check raises Mismatch on failure and
returns a dict of figures worth reporting.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

PEAK = 10.0 ** (-1.0 / 20.0)  # master peak after normalisation, -1 dBFS
MASS_TOL = 1e-3
PSI_TOL = 1e-6  # acceptance criteria 02 and 03
COVERAGE_MIN = 0.99
LATTICE_TOL = 1e-9
SWEEP_LINES = 21
SWEEP_DURATION_TOL = 0.25


class Mismatch(Exception):
    """An artifact disagrees with what its inputs imply."""


def _require(ok, message):
    if not ok:
        raise Mismatch(message)


def read_wav(path: Path):
    """Samples (n, channels) and rate of a 32-bit float WAV, parsed here."""
    blob = path.read_bytes()
    _require(blob[:4] == b"RIFF" and blob[8:12] == b"WAVE", f"{path.name}: not RIFF/WAVE")
    _require(blob[12:16] == b"fmt " and blob[36:40] == b"data", f"{path.name}: unexpected chunks")
    fmt, channels, rate, _, _, bits = struct.unpack("<HHIIHH", blob[20:36])
    _require(fmt == 3 and bits == 32, f"{path.name}: format {fmt}/{bits}, want float32")
    (size,) = struct.unpack("<I", blob[40:44])
    _require(size == len(blob) - 44, f"{path.name}: data size {size} vs file")
    return np.frombuffer(blob, dtype="<f4", offset=44).reshape(-1, channels), rate


def wav(d: Path, stdout: str, path: str, seconds: float, channels: int, rate: int = 48000):
    samples, got_rate = read_wav(d / path)
    _require(got_rate == rate, f"{path}: rate {got_rate}, want {rate}")
    _require(samples.shape == (round(seconds * rate), channels),
             f"{path}: shape {samples.shape}, want {(round(seconds * rate), channels)}")
    _require(bool(np.all(np.isfinite(samples))), f"{path}: non-finite samples")
    peak = float(np.max(np.abs(samples)))
    _require(abs(peak - PEAK) <= 2.0 * np.finfo(np.float32).eps,
             f"{path}: peak {peak!r}, want {PEAK!r} (-1 dBFS)")
    return {"audio_s": samples.shape[0] / rate}


def _field_values(d: Path, path: str):
    data = np.loadtxt(d / path, delimiter=",", skiprows=1, ndmin=2)
    side = json.loads((d / (path + ".json")).read_text())
    r_edges, p_edges = np.array(side["r_edges"]), np.array(side["p_edges"])
    shape = (r_edges.size - 1, p_edges.size - 1)
    _require(data.shape == (shape[0] * shape[1], 3), f"{path}: {data.shape[0]} rows for {shape}")
    return data, np.outer(np.diff(r_edges), np.diff(p_edges)).ravel()


def field(d: Path, stdout: str, path: str, fock: int | None = None):
    """Unit signed mass, coverage >= 0.99 and, for sampled eigenstates, the
    closed form of the same number state."""
    data, areas = _field_values(d, path)
    mass = float(np.sum(data[:, 2] * areas))
    _require(abs(mass - 1.0) <= MASS_TOL, f"{path}: signed mass {mass:.6f}")
    words = stdout.split()
    _require(len(words) == 2 and words[0] == "coverage", f"{path}: stdout {stdout!r}")
    _require(float(words[1]) >= COVERAGE_MIN, f"{path}: coverage {words[1]}")
    figures = {}
    if fock is not None:
        from quasitone.states import eval_fock

        err = float(np.max(np.abs(data[:, 2] - eval_fock(fock, data[:, 0], data[:, 1]))))
        _require(err <= PSI_TOL, f"{path}: max |W - W_fock{fock}| = {err:.2e}")
        figures["closed_form_err"] = err
    return figures


def moments(d: Path, stdout: str, path: str, fock: int | None = None):
    """Finite statistics with positive spreads; a number state m has its
    centroid at the origin and sigma_r = sqrt(m + 1/2)."""
    m = json.loads((d / path).read_text())
    _require(all(math.isfinite(v) for v in m.values()), f"{path}: non-finite moment")
    _require(m["sigma_r"] > 0 and m["sigma_p"] > 0 and m["negativity"] >= 0,
             f"{path}: sigma_r {m['sigma_r']}, sigma_p {m['sigma_p']}, negativity {m['negativity']}")
    if fock is not None:
        _require(abs(m["r0"]) <= MASS_TOL and abs(m["p0"]) <= MASS_TOL,
                 f"{path}: centroid ({m['r0']}, {m['p0']})")
        want = math.sqrt(fock + 0.5)
        _require(abs(m["sigma_r"] - want) <= MASS_TOL, f"{path}: sigma_r {m['sigma_r']} vs {want}")
    return {}


def origin_value(d: Path, stdout: str, fock: int):
    """W(0, 0) of number state n is (-1)^n / pi (criterion 02)."""
    err = abs(float(stdout) - (-1.0) ** fock / math.pi)
    _require(err <= PSI_TOL, f"W(0, 0) of eigenstate {fock}: error {err:.2e}")
    return {}


def score(d: Path, stdout: str, path: str, events: int, seconds: float):
    """One event per partial, every pitch on the quarter-tone lattice."""
    evs = json.loads((d / path).read_text())
    _require(len(evs) == events, f"{path}: {len(evs)} events, want {events}")
    freqs = np.array([e["freq_hz"] for e in evs])
    steps = 24.0 * np.log2(freqs / 440.0)
    _require(bool(np.all(np.abs(steps - np.round(steps)) <= LATTICE_TOL)), f"{path}: off-lattice pitch")
    _require(all(round(s) == e["pitch_index"] for s, e in zip(steps, evs)), f"{path}: pitch index")
    _require(all(0.0 <= e["onset"] < seconds and e["duration"] == seconds for e in evs),
             f"{path}: onset or duration outside the note")
    _require(all(0.0 <= e["dynamic"] <= 1.0 for e in evs), f"{path}: dynamic outside [0, 1]")
    return {}


def absent(d: Path, stdout: str, path: str):
    _require(not (d / path).exists(), f"{path}: written although the gate refused")
    return {}


# --- the sweep, after acceptance criterion 11 ---------------------------


def _spectrum_db(segment, rate):
    spec = np.abs(np.fft.rfft(segment * np.hanning(len(segment))))
    freqs = np.fft.rfftfreq(len(segment), 1.0 / rate)
    return freqs, 20.0 * np.log10(np.maximum(spec, spec.max() * 1e-12))


def _count_lines(segment, rate, freqs):
    """Expected partial positions that hold a spectral line: a local maximum
    within 0.3 line spacings of the position and no more than 45 dB below
    the strongest line."""
    f, db = _spectrum_db(segment, rate)
    freqs = np.asarray(freqs)
    half = 0.3 * np.min(np.diff(freqs))
    top = db[(f >= freqs[0] - half) & (f <= freqs[-1] + half)].max()
    found = 0
    for fk in freqs:
        near = np.flatnonzero(np.abs(f - fk) <= half)
        i = near[np.argmax(db[near])]
        found += bool(db[i] >= top - 45.0 and near[0] < i < near[-1])
    return found


def _envelope_width(segment, rate, probe_freqs):
    _, db = _spectrum_db(segment, rate)
    idx = np.round(np.asarray(probe_freqs) * len(segment) / rate).astype(int)
    coeffs = np.polyfit(np.asarray(probe_freqs) - np.mean(probe_freqs), db[idx], 2)
    return math.sqrt(-10.0 * math.log10(math.e) / coeffs[0])


def _probe(shift):
    """Partial positions of the sweep's bank at a shift."""
    from quasitone import CatState, FockState, MapConfig, compute_moments, default_grid
    from quasitone import method4_moments, sample_field

    state = FockState(1) if abs(shift) <= 1e-3 else CatState(shift)
    m = compute_moments(sample_field(state, default_grid(state)))
    bank = method4_moments(m, MapConfig(f0_mode="sigma_r"), 1.0)
    return [p.freq for p in bank.partials]


def _shift_at(legs, t):
    for a, b, secs in legs:
        if t <= secs:
            return a + (b - a) * t / secs
        t -= secs
    return legs[-1][1]


def sweep_lines(d: Path, stdout: str, path: str, legs):
    """Duration within 0.25 s and 21 spectral lines in 0.68 s windows at the
    first all-superposition frame, the middle and the tail. The envelope
    widths at both ends are reported, not checked: criterion 11's stated end
    width is a known open defect."""
    samples, rate = read_wav(d / path)
    mono = samples[:, 0].astype(float)
    n = mono.size
    total = sum(secs for _, _, secs in legs)
    _require(abs(n / rate - total) <= SWEEP_DURATION_TOL, f"{path}: {n / rate} s, want {total}")
    wide = 32768
    counts = []
    for start in (12000, n // 2 - wide // 2, n - wide):
        freqs = _probe(_shift_at(legs, (start + wide / 2.0) / rate))
        counts.append(_count_lines(mono[start:start + wide], rate, freqs))
    _require(all(c == SWEEP_LINES for c in counts), f"{path}: line counts {counts}, want 21")
    return {
        "start_width_hz": _envelope_width(mono[:6000], rate, _probe(0.0)),
        "end_width_hz": _envelope_width(mono[-16384:-8192], rate, _probe(legs[-1][1])),
    }


def sonogram_csv(d: Path, stdout: str, path: str, wav: str, window=2048, hop=512):
    """Frame and bin counts from the WAV length, and three rows against an
    STFT recomputed here (Hann window, 2/sum(w) scaling, -120 dB floor)."""
    samples, rate = read_wav(d / wav)
    mono = np.mean(samples.astype(float), axis=1)
    n_frames = 1 + (mono.size - window) // hop
    with open(d / path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) == n_frames + 1, f"{path}: {len(lines) - 1} frames, want {n_frames}")
    freqs = np.array(lines[0].split(",")[1:], dtype=float)
    _require(np.allclose(freqs, np.fft.rfftfreq(window, 1.0 / rate), rtol=1e-8, atol=0),
             f"{path}: frequency axis")
    w = np.hanning(window)
    for k in (0, n_frames // 2, n_frames - 1):
        row = np.array(lines[k + 1].split(","), dtype=float)
        _require(math.isclose(row[0], (k * hop + window / 2.0) / rate, rel_tol=1e-8),
                 f"{path}: time of frame {k}")
        mag = np.abs(np.fft.rfft(mono[k * hop:k * hop + window] * w)) * 2.0 / np.sum(w)
        want = 20.0 * np.log10(np.maximum(mag, 1e-6))
        _require(row.size == want.size + 1 and np.allclose(row[1:], want, rtol=0, atol=1e-5),
                 f"{path}: frame {k} differs from the recomputed STFT")
    return {"sono_bytes": (d / path).stat().st_size}
