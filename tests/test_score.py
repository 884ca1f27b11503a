import json

import numpy as np
import pytest

from quasitone import (
    CatState,
    CoherentState,
    FockState,
    MapConfig,
    Score,
    bank_to_events,
    build_regular,
    compute_moments,
    method1_grid,
    method2_extremes,
    method3_sections,
    method4_moments,
    partial_gains,
    quantize_quarter_tone,
    quarter_tone_index,
    read_score,
    sample_field,
    score_to_json,
    write_score,
)
from quasitone.textfmt import json_value


def _columns(**changes):
    cols = dict(
        onset=[0.0, 0.5],
        duration=[1.0, 1.0],
        pitch_index=[0, 2],
        freq_hz=[440.0, 466.16],
        dynamic=[0.5, 1.0],
        technique=["ordinario", "ricochet"],
        gains=[[1.0], [1.0]],
    )
    cols.update(changes)
    return cols


class TestScore:
    def test_valid_table(self):
        score = Score(**_columns())
        assert len(score) == 2
        assert score.gains.shape == (2, 1)
        empty = {name: [] for name in _columns()}
        empty["gains"] = np.zeros((0, 2))
        assert len(Score(**empty)) == 0

    @pytest.mark.parametrize(
        "changes",
        [
            dict(onset=[-0.5, 0.5]),
            dict(duration=[0.0, 1.0]),
            dict(freq_hz=[-5.0, 440.0]),
            dict(freq_hz=[np.nan, 440.0]),
            dict(freq_hz=[np.inf, 440.0]),
            dict(dynamic=[1.5, 1.0]),
            dict(dynamic=[-0.1, 1.0]),
            dict(dynamic=[np.nan, 1.0]),
            dict(onset=[0.0]),
            dict(technique=["ordinario"]),
            dict(gains=[[1.0]]),
            dict(gains=[1.0, 1.0]),
            dict(onset=[np.inf, 0.5]),
            dict(onset=[np.nan, 0.5]),
            dict(duration=[np.inf, 1.0]),
            dict(gains=[[np.nan], [1.0]]),
            dict(gains=[[1.0], [-np.inf]]),
            dict(technique=["ordinario", "col_legno"]),
        ],
        ids=[
            "negative-onset", "zero-duration", "negative-freq", "nan-freq", "inf-freq",
            "loud-dynamic", "negative-dynamic", "nan-dynamic", "short-onset",
            "short-technique", "short-gains", "flat-gains", "inf-onset", "nan-onset",
            "inf-duration", "nan-gains", "inf-gains", "unknown-technique",
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            Score(**_columns(**changes))


class TestBankToEvents:
    def test_events_quantized_to_lattice(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        freq, index = score.freq_hz[:50], score.pitch_index[:50]
        assert freq == pytest.approx(quantize_quarter_tone(freq), rel=1e-12)
        # index and frequency agree
        assert freq == pytest.approx(cfg.ref_pitch * 2.0 ** (index / 24.0), rel=1e-9)

    def test_negative_cells_marked(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        n_neg_cells = int(np.sum(bank.source_value < 0))
        n_neg_events = int(np.sum(score.technique == "sul_ponticello"))
        assert n_neg_events == n_neg_cells
        assert 0 < n_neg_events < len(score)

    def test_stereo_gains_unit_energy(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg, channels=2)
        gains = score.gains[:50]
        assert gains.shape == (50, 2)
        assert np.sum(gains * gains, axis=1) == pytest.approx(np.ones(50), abs=1e-9)

    def test_onsets_zero_without_arpeggio(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        assert np.all(score.onset == 0.0)

    def test_arpeggio_staggers_by_momentum_column(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg, duration=3.0)
        score = bank_to_events(bank, fock1_30_field, cfg, arpeggiate=True)
        onsets = np.unique(score.onset)
        n_p = fock1_30_field.grid.shape[1]
        step = 3.0 / n_p
        assert len(onsets) == n_p
        assert onsets[1] - onsets[0] == pytest.approx(step, rel=1e-12)
        assert max(onsets) < 3.0

    def test_moment_bank_uses_centroid_gains(self, fock1_field, cfg):
        m = compute_moments(fock1_field)
        bank = method4_moments(m, cfg, 2.0)
        score = bank_to_events(bank, fock1_field, cfg, channels=2)
        assert len(score) == cfg.n_osc
        # centroid of the first excited state sits at the middle: equal power
        assert score.gains[:, 0] == pytest.approx(score.gains[:, 1], abs=1e-9)

    def test_event_gains_are_partial_gains(self, fock1_30_field, cfg):
        # the score and the sonify renderer pan through one function
        bank = method1_grid(fock1_30_field, cfg)
        rows = partial_gains(bank, fock1_30_field, channels=4)
        assert rows.shape == (bank.freq.size, 4)
        score = bank_to_events(bank, fock1_30_field, cfg, channels=4)
        assert sorted(map(tuple, score.gains.tolist())) == sorted(map(tuple, rows.tolist()))

    def test_lattice_pitch_is_per_partial_quantization(self, fock1_30_field, cfg):
        # one vectorized pass over the bank gives what the per-partial
        # functions give, to the bit
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        want = sorted(
            (quarter_tone_index(f, cfg.ref_pitch), quantize_quarter_tone(f, cfg.ref_pitch))
            for f in bank.freq.tolist()
        )
        assert sorted(zip(score.pitch_index.tolist(), score.freq_hz.tolist())) == want
        assert score.pitch_index.dtype == np.int64 and score.freq_hz.dtype == np.float64

    def test_events_sorted(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg, duration=2.0)
        score = bank_to_events(bank, fock1_30_field, cfg, arpeggiate=True)
        columns = (score.onset, score.pitch_index, -score.dynamic)
        keys = list(zip(*(c.tolist() for c in columns)))
        assert keys == sorted(keys)
        # mirror cells +-p tie on onset, pitch and dynamic; quad gains order them
        score = bank_to_events(bank, fock1_30_field, cfg, channels=4)
        keys = list(
            zip(
                score.onset.tolist(),
                score.pitch_index.tolist(),
                (-score.dynamic).tolist(),
                map(tuple, score.gains.tolist()),
            )
        )
        assert keys == sorted(keys)


class TestScoreIo:
    def test_round_trip(self, tmp_path, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        path = tmp_path / "score.json"
        write_score(score, path)
        back = read_score(path)
        assert len(back) == len(score)
        for name in ("onset", "duration", "pitch_index", "freq_hz", "dynamic", "technique"):
            column = getattr(back, name)
            assert column.dtype.kind == getattr(score, name).dtype.kind
            assert np.array_equal(column, getattr(score, name)), name
        assert np.array_equal(back.gains, score.gains)

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

    def test_read_validates(self, tmp_path, fock1_30_field, cfg):
        # a score file is external input: every table rule applies to it
        bank = method1_grid(fock1_30_field, cfg)
        rows = json.loads(score_to_json(bank_to_events(bank, fock1_30_field, cfg)))
        path = tmp_path / "bad.json"
        for key, value, match in [
            ("technique", "col_legno", None),
            ("dynamic", 1.5, None),
            ("gains", [float("nan")], None),
            # read as 3, it would be a silently substituted pitch
            ("pitch_index", 3.7, "pitch_index must be integral, got 3.7"),
            ("freq_hz", None, "lacks the key 'freq_hz'"),  # None deletes the key
            ("gains", [0.5, 0.5, 0.5], "bad.json: event 7 has gains"),
            ("gains", [float("nan"), 1.0], "gains must be finite, got nan"),
        ]:
            bad = [dict(row) for row in rows]
            bad[7][key] = value
            if value is None:
                del bad[7][key]
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=match):
                read_score(path)

    def test_empty_score(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]\n")
        score = read_score(path)
        assert len(score) == 0
        assert score_to_json(score) == "[]\n" == _reference_json(score)


def _reference_json(score):
    """The per-event writer the row format replaced: one dict per event,
    serialized by json_value."""
    rows = zip(
        score.onset.tolist(),
        score.duration.tolist(),
        score.pitch_index.tolist(),
        score.freq_hz.tolist(),
        score.dynamic.tolist(),
        score.technique.tolist(),
        score.gains.tolist(),
    )
    keys = ("onset", "duration", "pitch_index", "freq_hz", "dynamic", "technique", "gains")
    return json_value([dict(zip(keys, row)) for row in rows]) + "\n"


_BANKS = {
    "I": method1_grid,
    "II": method2_extremes,
    "III": method3_sections,
    "IV": lambda field, cfg, duration: method4_moments(compute_moments(field), cfg, duration),
}
_FIELDS = {
    "fock1": (FockState(1), build_regular(-5, 5, -5, 5, 30, 30)),
    "fock5": (FockState(5), build_regular(-6, 6, -6, 6, 24, 24)),
    "cat": (CatState(-1.0 + 0.5j), build_regular(-7, 5, -5.5, 6.5, 20, 28)),
    "coherent": (CoherentState(0.8 - 0.6j), build_regular(-4, 6, -6, 4, 16, 16)),
}


class TestRowWriter:
    @pytest.mark.parametrize("arpeggiate", [False, True], ids=["chord", "arpeggio"])
    @pytest.mark.parametrize("channels", [1, 2, 4])
    @pytest.mark.parametrize("method", ["I", "II", "III", "IV"])
    @pytest.mark.parametrize("state", sorted(_FIELDS))
    def test_matches_per_event_writer(self, state, method, channels, arpeggiate):
        cfg = MapConfig()
        field = sample_field(*_FIELDS[state])
        bank = _BANKS[method](field, cfg, 0.7)
        score = bank_to_events(bank, field, cfg, channels=channels, arpeggiate=arpeggiate)
        assert len(score) == bank.freq.size
        # line lists keep a failure report short; the final newline is compared too
        got, want = score_to_json(score), _reference_json(score)
        assert got.split("\n") == want.split("\n")
