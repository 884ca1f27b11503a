import json
import re

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
    quarter_tone_index,
    sample_field,
    score_to_json,
    write_score,
)
from quasitone import score as score_module
from quasitone.sonify import quarter_tone_freq
from quasitone.textfmt import fmt17_column, json_value


def _columns(**changes):
    cols = dict(
        onset=[0.0, 0.5],
        duration=[1.0, 1.0],
        pitch_index=[0, 2],
        dynamic=[0.5, 1.0],
        technique=["ordinario", "ricochet"],
        gains=[[1.0], [1.0]],
        ref_pitch=440.0,
    )
    cols.update(changes)
    return cols


def _empty_columns():
    cols = {name: [] for name in _columns()}
    return {**cols, "gains": np.zeros((0, 2)), "ref_pitch": 440.0}


class TestScore:
    def test_valid_table(self):
        score = Score(**_columns())
        assert len(score) == 2
        assert score.gains.shape == (2, 1)
        assert score.freq_hz.tolist() == [440.0, 440.0 * 2.0 ** (2 / 24)]
        assert not score.freq_hz.flags.writeable
        assert len(Score(**_empty_columns())) == 0

    @pytest.mark.parametrize(
        "changes",
        [
            dict(onset=[-0.5, 0.5]),
            dict(duration=[0.0, 1.0]),
            # freq_hz is derived: a bad reference pitch or an index past
            # float64's range is what makes it negative, NaN or infinite
            dict(ref_pitch=-5.0),
            dict(ref_pitch=np.nan),
            dict(pitch_index=[30000, 0]),
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

    @pytest.mark.parametrize("big", [1e20, -1e20, 2.0**63, np.inf, np.nan])
    @pytest.mark.parametrize("column", [list, np.array], ids=["list", "array"])
    def test_pitch_index_past_int64_refused(self, big, column):
        # refused before the int64 cast, which overflows on a list and warns
        # on an array
        refused = re.escape(f"pitch_index must be finite and within int64, got {big!r}")
        with pytest.raises(ValueError, match=refused):
            Score(**_columns(pitch_index=column([0, big])))

    def test_any_reference_pitch_loads(self, fock1_30_field):
        # the score carries the configured reference pitch, whatever it is
        cfg = MapConfig(ref_pitch=432.0)
        score = bank_to_events(method1_grid(fock1_30_field, cfg), fock1_30_field, cfg)
        assert score.ref_pitch == 432.0
        assert score.freq_hz / 2.0 ** (score.pitch_index / 24) == pytest.approx(432.0, rel=1e-12)

    def test_rules_on_written_rows(self, fock1_30_field, cfg):
        # one bad cell in a row of a real score breaks a table rule
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        for name, value, match in [
            ("technique", "col_legno", "technique must be one of"),
            ("dynamic", 1.5, r"dynamic must lie in \[0, 1\], got 1.5"),
            ("gains", np.nan, "gains must be finite, got nan"),
            # read as 3, it would be a silently substituted pitch
            ("pitch_index", 3.7, "pitch_index must be integral, got 3.7"),
        ]:
            columns = {key: getattr(score, key) for key in _columns()}
            column = np.array(columns[name], dtype=float if name == "pitch_index" else None)
            column[7] = value
            with pytest.raises(ValueError, match=match):
                Score(**{**columns, name: column})


class TestBankToEvents:
    def test_events_quantized_to_lattice(self, fock1_30_field, cfg):
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        freq, index = score.freq_hz[:50], score.pitch_index[:50]
        assert freq == pytest.approx(quarter_tone_freq(quarter_tone_index(freq)), rel=1e-12)
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
        ref = cfg.ref_pitch
        want = sorted(
            (quarter_tone_index(f, ref), quarter_tone_freq(quarter_tone_index(f, ref), ref))
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
        # 17 significant digits give every float back exactly
        bank = method1_grid(fock1_30_field, cfg)
        score = bank_to_events(bank, fock1_30_field, cfg)
        path = tmp_path / "score.json"
        write_score(score, path)
        rows = json.loads(path.read_text())
        assert len(rows) == len(score)
        for name in ("onset", "duration", "pitch_index", "freq_hz", "dynamic", "technique", "gains"):
            assert [row[name] for row in rows] == getattr(score, name).tolist(), name
        assert all(type(row["pitch_index"]) is int for row in rows)

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

    def test_failed_write_keeps_what_was_there(self, tmp_path, failed_write, fock1_30_field, cfg):
        path = tmp_path / "score.json"
        score = bank_to_events(method1_grid(fock1_30_field, cfg), fock1_30_field, cfg)
        failed_write(score_module, lambda: write_score(score, path))
        write_score(Score(**_columns()), path)
        failed_write(score_module, lambda: write_score(score, path))

    def test_empty_score(self, tmp_path):
        score = Score(**_empty_columns())
        path = tmp_path / "empty.json"
        write_score(score, path)
        assert path.read_text() == "[]\n" == _reference_json(score)


def _reference_json(score):
    """The per-event writer the row format replaced: one dict per event,
    serialized by json_value, on a line of its own."""
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
    events = ["  " + json_value(dict(zip(keys, row))) for row in rows]
    return "[\n" + ",\n".join(events) + "\n]\n" if events else "[]\n"


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
    def test_negative_zero_gains_match_per_row_format(self):
        # -0.0 and 0.0 share a value but not a bit pattern: each keeps its text
        gains = [[0.0, -0.0], [-0.0, 1.0], [0.0, -0.0], [0.25, 0.0]]
        score = Score(**_columns(
            onset=[0.0, 0.0, 0.5, 0.5], duration=[1.5] * 4, pitch_index=[0, 2, 0, -3],
            dynamic=[0.5, 1.0, 0.5, 0.125], technique=["ordinario"] * 4, gains=gains,
        ))
        row = (
            '  {"onset": %.17g, "duration": %.17g, "pitch_index": %d, "freq_hz": %.17g, '
            '"dynamic": %.17g, "technique": "%s", "gains": [%.17g, %.17g]}'
        )
        columns = [getattr(score, name).tolist() for name in score_module._COLUMNS]
        want = "[\n" + ",\n".join(row % (*event, *g) for *event, g in zip(*columns, gains)) + "\n]\n"
        got = score_to_json(score)
        assert got == want
        assert '"gains": [0, -0]' in got and '"gains": [-0, 1]' in got

    def test_fmt17_column(self):
        values = np.array([[0.1, -0.0, 0.0], [0.1, 1e300, -0.0]])
        assert fmt17_column(values) == [
            "0.10000000000000001", "-0", "0", "0.10000000000000001", "1.0000000000000001e+300", "-0"
        ]
        assert fmt17_column(np.zeros(0)) == []
        with pytest.raises(ValueError, match="non-finite"):
            fmt17_column(np.array([1.0, np.inf]))

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
