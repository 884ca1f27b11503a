"""Acceptance checks, one test per numbered criterion.

Each test prints exactly one `criterion NN PASS|FAIL` line with its measured
numbers, then asserts. Figures are stated in quadrature units with hbar = 1,
where the vacuum is (1/pi) exp(-(r^2 + p^2)) and a coherent lobe has
sigma sqrt(1/2).
"""

import json
import math
import time

import numpy as np

from oracles import psi_grid
from quasitone import (
    COVERAGE_MIN,
    RESOLUTION_MAX,
    CatState,
    CoherentState,
    FockState,
    MapConfig,
    SampledState,
    bank_to_events,
    build_regular,
    compute_moments,
    coverage,
    default_grid,
    eval_cat,
    eval_coherent,
    eval_fock,
    evaluate,
    harmonic_eigenstate,
    method1_grid,
    method4_moments,
    quarter_tone_index,
    read_field,
    read_wav,
    render_sweep,
    sample_field,
    score_to_json,
    synth,
    write_field,
    write_wav,
)
from quasitone.cli import cli_main
from quasitone.sonify import quarter_tone_freq


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_number_state_origin_values():
    for m in range(6):
        eval_fock(m, 0.0, 0.0)  # warm the dispatch path
    t0 = time.perf_counter()
    values = [eval_fock(m, 0.0, 0.0) for m in range(6)]
    elapsed = time.perf_counter() - t0
    errs = [abs(v - (-1.0) ** m / math.pi) for m, v in enumerate(values)]
    ok = max(errs) < 1e-14 and elapsed < 1e-3
    report(1, ok, f"max origin error {max(errs):.2e}, runtime {elapsed * 1e3:.3f} ms")
    assert max(errs) < 1e-14
    assert elapsed < 1e-3


def test_criterion_02_transform_negativity_at_origin():
    x = psi_grid()
    psi = harmonic_eigenstate(1, x)
    t0 = time.perf_counter()
    w = float(evaluate(SampledState(x, psi), 0.0, 0.0))
    elapsed = time.perf_counter() - t0
    err = abs(w - (-1.0 / math.pi))
    ok = w < 0 and err < 1e-6 and elapsed < 1.0
    report(2, ok, f"origin value {w:.9f} vs -1/pi, error {err:.2e}, runtime {elapsed:.3f} s")
    assert w < 0
    assert err < 1e-6
    assert elapsed < 1.0


def test_criterion_03_transform_matches_closed_form():
    x = psi_grid()
    psi = harmonic_eigenstate(1, x)
    r = np.linspace(-3, 3, 21)
    p = np.linspace(-3, 3, 21)
    R, P = np.meshgrid(r, p, indexing="ij")
    t0 = time.perf_counter()
    w = evaluate(SampledState(x, psi), R, P)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(w - eval_fock(1, R, P))))
    ok = err < 1e-6 and elapsed < 10.0
    report(3, ok, f"21x21 max |transform - closed form| {err:.2e}, runtime {elapsed:.2f} s")
    assert err < 1e-6
    assert elapsed < 10.0


def test_criterion_04_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (0, 1, 2):
        f = sample_field(FockState(m), build_regular(-6, 6, -6, 6, 256, 256))
        worst = max(worst, abs(f.signed_mass - 1.0))
    for shift in (-0.5, -1.0, -3.0):
        state = CatState(shift)
        r0 = shift  # lobe centroid sits at the shift on the real axis
        grid = build_regular(r0 - 6, r0 + 6, -6, 6, 256, 256)
        worst = max(worst, abs(sample_field(state, grid).signed_mass - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    report(4, ok, f"worst |mass - 1| {worst:.2e} across 6 states, runtime {elapsed:.1f} s")
    assert worst < 1e-3
    assert elapsed < 30.0


def test_criterion_05_two_lobe_classical_limit():
    state = CatState(-8.0)
    grid = default_grid(state)
    field = sample_field(state, grid)
    R, P = np.meshgrid(grid.r_centers, grid.p_centers, indexing="ij")
    diff = float(np.max(np.abs(field.values - eval_coherent(-8.0 + 0j, R, P))))
    ok = diff < 1e-3
    report(5, ok, f"max |shift -8 field - displaced gaussian| {diff:.2e}")
    assert diff < 1e-3


def test_criterion_06_coverage_gate(tmp_path):
    states = [
        FockState(0), FockState(1), FockState(2), FockState(3), FockState(5),
        CatState(-0.5), CatState(-1.0), CatState(-3.0), CatState(-8.0),
        CoherentState(0j), CoherentState(2.0 + 1.0j),
        SampledState(psi_grid(), harmonic_eigenstate(1, psi_grid())),
    ]
    # every default grid must pass both measures of the gate: its window
    # share of W^2 and its resolution
    covs = [coverage(sample_field(state, default_grid(state))) for state in states]
    worst, coarsest = min(c.share for c in covs), max(c.resolution for c in covs)
    wav = tmp_path / "gated.wav"
    code = cli_main(
        [
            "sonify", "--state", "fock:1", "--method", "I",
            "--grid", "regular:8:-0.1:0.1", "--out", str(wav),
        ]
    )
    ok = worst >= COVERAGE_MIN and coarsest <= RESOLUTION_MAX and code == 3 and not wav.exists()
    report(
        6, ok,
        f"worst default-grid coverage {worst:.4f} (resolution {coarsest:.2e}) over {len(states)} "
        f"states; tiny window exit code {code}, audio written: {wav.exists()}",
    )
    assert worst >= COVERAGE_MIN
    assert coarsest <= RESOLUTION_MAX
    assert code == 3
    assert not wav.exists()


def test_criterion_07_moment_oracles():
    f0 = sample_field(FockState(0), build_regular(-6, 6, -6, 6, 256, 256))
    f1 = sample_field(FockState(1), build_regular(-6, 6, -6, 6, 256, 256))
    m0 = compute_moments(f0)
    m1 = compute_moments(f1)
    e_s0 = abs(m0.sigma_r - math.sqrt(0.5))
    e_s1 = abs(m1.sigma_r - math.sqrt(1.5))
    neg_want = (4.0 * math.exp(-0.5) - 1.0 - 1.0) / 2.0
    e_neg = abs(m1.negativity - neg_want)
    ok = e_s0 < 1e-3 and e_s1 < 1e-3 and e_neg < 1e-3
    report(
        7, ok,
        f"sigma_r errors {e_s0:.2e}/{e_s1:.2e}, negativity {m1.negativity:.6f} "
        f"vs {neg_want:.6f} (err {e_neg:.2e})",
    )
    assert e_s0 < 1e-3
    assert e_s1 < 1e-3
    assert e_neg < 1e-3


def test_criterion_08_grid_method_cardinality():
    cfg = MapConfig()
    f30 = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 30, 30))
    f64 = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 64, 64))
    n30 = method1_grid(f30, cfg).freq.size
    n64 = method1_grid(f64, cfg).freq.size
    ok = n30 == 900 and n64 == 900
    report(8, ok, f"partials: 30x30 -> {n30}, 64x64 top-selection -> {n64}")
    assert n30 == 900
    assert n64 == 900


def test_criterion_09_envelope_method_shape():
    cfg = MapConfig()
    f1 = sample_field(FockState(1), build_regular(-6, 6, -6, 6, 256, 256))
    bank = method4_moments(compute_moments(f1), cfg, 4.0)
    amps = bank.amp.tolist()
    n = len(amps)
    sym_err = max(abs(amps[k] - amps[n - 1 - k]) for k in range(n))
    center_ok = int(np.argmax(amps)) == n // 2
    ok = n == 21 and sym_err < 1e-12 and center_ok
    report(9, ok, f"{n} partials, symmetry error {sym_err:.2e}, argmax at center: {center_ok}")
    assert n == 21
    assert sym_err < 1e-12
    assert center_ok


def test_criterion_10_quarter_tone_lattice():
    rng = np.random.default_rng(20260815)
    freqs = rng.uniform(55.0, 7040.0, size=100_000)
    out = quarter_tone_freq(quarter_tone_index(freqs))
    steps = 24.0 * np.log2(out / 440.0)
    lattice_err = float(np.max(np.abs(steps - np.round(steps))))
    ratio_err = float(np.max(np.abs(np.log2(out / freqs))))
    idempotent = np.array_equal(quarter_tone_freq(quarter_tone_index(out)), out)
    ok = lattice_err < 1e-9 and ratio_err <= 1.0 / 48.0 + 1e-12 and idempotent
    report(
        10, ok,
        f"lattice error {lattice_err:.2e}, max ratio error 2^{ratio_err:.6f} "
        f"(bound 2^{1 / 48:.6f}), idempotent: {idempotent}",
    )
    assert lattice_err < 1e-9
    assert ratio_err <= 1.0 / 48.0 + 1e-12
    assert idempotent


def _spectrum_db(segment, sample_rate):
    w = np.hanning(len(segment))
    spec = np.abs(np.fft.rfft(segment * w))
    freqs = np.fft.rfftfreq(len(segment), 1.0 / sample_rate)
    db = 20.0 * np.log10(np.maximum(spec, spec.max() * 1e-12))
    return freqs, db


def _count_lines(segment, sample_rate, band):
    freqs, db = _spectrum_db(segment, sample_rate)
    sel = (freqs >= band[0]) & (freqs <= band[1])
    smooth = np.convolve(db[sel], np.ones(5) / 5.0, mode="same")
    floor = smooth.max() - 45.0
    count = 0
    for i in range(1, len(smooth) - 1):
        if smooth[i] > floor and smooth[i] > smooth[i - 1] and smooth[i] >= smooth[i + 1]:
            count += 1
    return count


def _fit_envelope_width(segment, sample_rate, probe_freqs):
    freqs, db = _spectrum_db(segment, sample_rate)
    idx = np.round(np.asarray(probe_freqs) * len(segment) / sample_rate).astype(int)
    x = np.asarray(probe_freqs) - np.mean(probe_freqs)
    coeffs = np.polyfit(x, db[idx], 2)
    return math.sqrt(-10.0 * math.log10(math.e) / coeffs[0])


def _sweep_state_probe(delta_alpha):
    state = FockState(1) if abs(delta_alpha) <= 1e-3 else CatState(delta_alpha)
    moments = compute_moments(sample_field(state, default_grid(state)))
    bank = method4_moments(moments, MapConfig(f0_mode="sigma_r"), 1.0)
    freqs = bank.freq.tolist()
    f0 = 220.0 + 110.0 * moments.sigma_r
    sf = 80.0 * moments.sigma_r
    return freqs, (f0 - 3.5 * sf, f0 + 3.5 * sf)


def test_criterion_11_sweep_duration_and_sonogram():
    sr = 48000
    t0 = time.perf_counter()
    buf = render_sweep(sample_rate=sr)
    mono = buf.samples[:, 0].astype(float)
    n = len(mono)
    duration = n / sr
    dur_ok = abs(duration - 273.0) <= 0.25

    # 21 spectral lines, probed at the earliest all-superposition window,
    # the middle, and the tail (0.68 s windows resolve the comb everywhere)
    wide = 32768
    frame = 12000
    counts = []
    for start in (frame, n // 2 - wide // 2, n - wide):
        t_mid = (start + wide / 2.0) / sr
        _, band = _sweep_state_probe(-t_mid / 91.0 if t_mid < 273.0 else -3.0)
        counts.append(_count_lines(mono[start : start + wide], sr, band))
    lines_ok = all(c == 21 for c in counts)

    # endpoint envelope widths from the spectral envelope at the partial
    # positions: first half frame is the pure number-state endpoint, the
    # tail is the far end of the path
    start_freqs, _ = _sweep_state_probe(0.0)
    end_freqs, _ = _sweep_state_probe(-3.0)
    width_start = _fit_envelope_width(mono[:6000], sr, start_freqs)
    width_end = _fit_envelope_width(mono[-16384:-8192], sr, end_freqs)
    literal_start = 80.0 * math.sqrt(1.5)
    literal_end = 80.0 * math.sqrt(0.5)
    start_ok = abs(width_start - literal_start) <= 0.10 * literal_start
    end_ok = abs(width_end - literal_end) <= 0.10 * literal_end
    distinct_ok = abs(width_start - width_end) > 20.0

    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 300.0
    ok = dur_ok and lines_ok and start_ok and end_ok and distinct_ok and time_ok
    report(
        11, ok,
        f"duration {duration:.3f} s; line counts {counts}; widths "
        f"{width_start:.1f}/{width_end:.1f} Hz vs stated {literal_start:.1f}/"
        f"{literal_end:.1f} Hz; runtime {elapsed:.0f} s",
    )
    assert dur_ok, f"duration {duration} outside 273 +/- 0.25 s"
    assert lines_ok, f"line counts {counts} != 21"
    assert start_ok, f"start width {width_start:.1f} vs stated {literal_start:.1f}"
    assert distinct_ok
    assert time_ok
    # the far end of the path is close to a single coherent lobe, whose
    # sigma_r approaches sqrt(1/2) as the shift grows
    assert end_ok, f"end width {width_end:.1f} Hz vs stated {literal_end:.1f} Hz"


def test_criterion_12_technique_tagging():
    cfg = MapConfig()
    field = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 30, 30))
    bank = method1_grid(field, cfg)
    mismatch = 0
    n_inside = 0
    cells = zip(bank.source_r.tolist(), bank.source_p.tolist(), bank.source_value.tolist())
    for r, p, value in cells:
        inside = r**2 + p**2 < 0.5
        n_inside += inside
        if inside != (value < 0):
            mismatch += 1
    score = bank_to_events(bank, field, cfg)
    n_sul = int(np.sum(score.technique == "sul_ponticello"))
    n_ord = int(np.sum(score.technique == "ordinario"))
    ok = mismatch == 0 and n_sul == n_inside and n_sul + n_ord == len(score)
    report(
        12, ok,
        f"{n_inside} cells inside the zero circle, {n_sul} marked events, "
        f"{mismatch} sign mismatches, {n_ord} ordinario",
    )
    assert mismatch == 0
    assert n_sul == n_inside
    assert n_sul + n_ord == len(score)


def test_criterion_13_io_fidelity(tmp_path):
    # WAV round trip
    cfg = MapConfig()
    field = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 30, 30))
    bank = method1_grid(field, cfg, duration=0.2)
    buf = synth(bank, sample_rate=22050)
    wav_path = tmp_path / "bank.wav"
    write_wav(buf, wav_path)
    wav_same = np.array_equal(read_wav(wav_path).samples, buf.samples)

    # field CSV round trip
    field_path = tmp_path / "field.csv"
    write_field(field, field_path)
    back = read_field(field_path)
    field_same = (
        np.array_equal(back.values, field.values)
        and np.array_equal(back.grid.r_edges, field.grid.r_edges)
        and back.state == field.state
    )

    # score bytes across two independent regenerations
    blobs = []
    for _ in range(2):
        f = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 30, 30))
        b = method1_grid(f, cfg)
        blobs.append(score_to_json(bank_to_events(b, f, cfg, channels=2)).encode())
    score_stable = blobs[0] == blobs[1]

    ok = wav_same and field_same and score_stable
    report(
        13, ok,
        f"wav bit-exact: {wav_same}, field bit-exact: {field_same}, "
        f"score byte-stable: {score_stable}",
    )
    assert wav_same
    assert field_same
    assert score_stable
