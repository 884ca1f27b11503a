import json

import numpy as np
import pytest

from quasitone import (
    FockState,
    MapConfig,
    PitchEvent,
    bank_to_events,
    build_regular,
    compute_moments,
    method1_grid,
    method4_moments,
    partial_gains,
    quantize_quarter_tone,
    quarter_tone_index,
    read_score,
    sample_field,
    score_to_json,
    write_score,
)


class TestPitchEvent:
    def test_validation(self):
        PitchEvent(0.0, 1.0, 0, 440.0, 0.5, "ordinario", (1.0,))
        with pytest.raises(ValueError):
            PitchEvent(-0.5, 1.0, 0, 440.0, 0.5, "ordinario", (1.0,))
        with pytest.raises(ValueError):
            PitchEvent(0.0, 0.0, 0, 440.0, 0.5, "ordinario", (1.0,))
        with pytest.raises(ValueError):
            PitchEvent(0.0, 1.0, 0, -5.0, 0.5, "ordinario", (1.0,))


class TestBankToEvents:
    def test_events_quantized_to_lattice(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg)
        for ev in events[:50]:
            assert ev.freq_hz == pytest.approx(
                float(quantize_quarter_tone(ev.freq_hz)), rel=1e-12
            )
            # index and frequency agree
            want = cfg.ref_pitch * 2.0 ** (ev.pitch_index / 24.0)
            assert ev.freq_hz == pytest.approx(want, rel=1e-9)

    def test_negative_cells_marked(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg)
        n_neg_cells = int(np.sum(bank.source_value < 0))
        n_neg_events = sum(1 for ev in events if ev.technique == "sul_ponticello")
        assert n_neg_events == n_neg_cells
        assert 0 < n_neg_events < len(events)

    def test_stereo_gains_unit_energy(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg, channels=2)
        for ev in events[:50]:
            assert len(ev.gains) == 2
            assert sum(g * g for g in ev.gains) == pytest.approx(1.0, abs=1e-9)

    def test_onsets_zero_without_arpeggio(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg)
        assert all(ev.onset == 0.0 for ev in events)

    def test_arpeggio_staggers_by_momentum_column(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg, duration=3.0)
        events = bank_to_events(bank, fock1_30_field, cfg, arpeggiate=True)
        onsets = sorted({ev.onset for ev in events})
        n_p = fock1_30_field.grid.shape[1]
        step = 3.0 / n_p
        assert len(onsets) == n_p
        assert onsets[1] - onsets[0] == pytest.approx(step, rel=1e-12)
        assert max(onsets) < 3.0

    def test_moment_bank_uses_centroid_gains(self, fock1_field, cfg):
        m = compute_moments(fock1_field)
        bank = method4_moments(m, cfg, 2.0)
        events = bank_to_events(bank, fock1_field, cfg, channels=2)
        assert len(events) == cfg.n_osc
        # centroid of the first excited state sits at the middle: equal power
        for ev in events:
            assert ev.gains[0] == pytest.approx(ev.gains[1], abs=1e-9)

    def test_event_gains_are_partial_gains(self, fock1_30_field, cfg):
        # the score and the sonify renderer pan through one function
        bank = method1_grid(fock1_30_field, cfg)
        rows = partial_gains(bank, fock1_30_field, channels=4)
        assert rows.shape == (bank.freq.size, 4)
        events = bank_to_events(bank, fock1_30_field, cfg, channels=4)
        assert sorted(ev.gains for ev in events) == sorted(tuple(r) for r in rows.tolist())

    def test_lattice_pitch_is_per_partial_quantization(self, fock1_30_field, cfg):
        # one vectorized pass over the bank gives what the per-partial
        # functions give, to the bit
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg)
        want = sorted(
            (quarter_tone_index(f, cfg.ref_pitch), quantize_quarter_tone(f, cfg.ref_pitch))
            for f in bank.freq.tolist()
        )
        assert sorted((ev.pitch_index, ev.freq_hz) for ev in events) == want
        assert all(type(ev.pitch_index) is int and type(ev.freq_hz) is float for ev in events)

    def test_events_sorted(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg, duration=2.0)
        events = bank_to_events(bank, fock1_30_field, cfg, arpeggiate=True)
        keys = [(ev.onset, ev.pitch_index, -ev.dynamic) for ev in events]
        assert keys == sorted(keys)
        # mirror cells +-p tie on onset, pitch and dynamic; quad gains order them
        events = bank_to_events(bank, fock1_30_field, cfg, channels=4)
        keys = [(ev.onset, ev.pitch_index, -ev.dynamic, ev.gains) for ev in events]
        assert keys == sorted(keys)


class TestScoreIo:
    def test_round_trip(self, tmp_path, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg)
        path = tmp_path / "score.json"
        write_score(events, path)
        back = read_score(path)
        assert back == events

    def test_byte_stable_across_runs(self, tmp_path, cfg):
        # regenerate everything from scratch twice; bytes must match
        blobs = []
        for _ in range(2):
            f = sample_field(FockState(1), build_regular(-5, 5, -5, 5, 30, 30))
            bank = method1_grid(f, cfg)
            events = bank_to_events(bank, f, cfg, channels=2)
            blobs.append(score_to_json(events).encode())
        assert blobs[0] == blobs[1]

    def test_json_shape(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        events = bank_to_events(bank, fock1_30_field, cfg)
        data = json.loads(score_to_json(events))
        assert isinstance(data, list)
        first = data[0]
        assert sorted(first) == sorted(
            ["onset", "duration", "pitch_index", "freq_hz", "dynamic", "technique", "gains"]
        )
