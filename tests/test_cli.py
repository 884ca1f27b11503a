import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasitone
from quasitone import read_field, read_score, read_wav
from quasitone.cli import cli_main, parse_grid, parse_state
from quasitone.states import CatState, CoherentState, FockState, SampledState


class TestStateGrammar:
    def test_fock(self):
        assert parse_state("fock:2") == FockState(2)

    def test_cat_real_and_complex(self):
        assert parse_state("cat:-1") == CatState(-1.0)
        assert parse_state("cat:-1,0.5") == CatState(complex(-1.0, 0.5))

    def test_coherent(self):
        assert parse_state("coherent:1.5,-0.5") == CoherentState(complex(1.5, -0.5))

    def test_psi_csv(self, tmp_path):
        from quasitone import default_psi_grid, harmonic_eigenstate

        x = default_psi_grid()
        psi = harmonic_eigenstate(0, x)
        path = tmp_path / "psi.csv"
        rows = ["x,re,im"] + [
            f"{float(xv)!r},{float(pv.real)!r},{float(pv.imag)!r}" for xv, pv in zip(x, psi)
        ]
        path.write_text("\n".join(rows) + "\n")
        state = parse_state(f"psi:{path}")
        assert isinstance(state, SampledState)

    def test_errors_are_usage_faults(self):
        from quasitone.cli import UsageFault

        for bad in ["fock", "fock:x", "cat:0", "blah:1", "psi:/nonexistent.csv"]:
            with pytest.raises(UsageFault):
                parse_state(bad)


class TestGridGrammar:
    def test_regular(self):
        g = parse_grid("regular:16:-4:4", FockState(0))
        assert g.shape == (16, 16)
        assert g.bounds == (-4.0, 4.0, -4.0, 4.0)

    def test_gauss(self):
        g = parse_grid("gauss:8:3", FockState(0))
        assert g.shape == (8, 8)
        assert g.kind == "gaussian"

    def test_errors(self):
        from quasitone.cli import UsageFault

        for bad in ["regular:16", "regular:a:-4:4", "gauss:8", "hex:4:0:1"]:
            with pytest.raises(UsageFault):
                parse_grid(bad, FockState(0))


class TestCommands:
    def test_eval_prints_pinned_value(self, capsys):
        assert cli_main(["eval", "--state", "cat:-1", "--r", "-1", "--p", "0"]) == 0
        out = capsys.readouterr().out.strip()
        # (1 + e^{-3/2} - 2 e^{-1/2}) / (pi (1 - e^{-1/2})), as in test_states
        assert abs(float(out) - 0.008145517875044592) < 1e-12

    def test_field_then_moments(self, tmp_path, capsys):
        fp = tmp_path / "f.csv"
        assert cli_main(["field", "--state", "fock:1", "--out", str(fp)]) == 0
        assert fp.exists()
        assert (tmp_path / "f.csv.json").exists()
        capsys.readouterr()

        mp = tmp_path / "m.json"
        assert cli_main(["moments", "--field", str(fp), "--out", str(mp)]) == 0
        data = json.loads(mp.read_text())
        assert data["sigma_r"] == pytest.approx(1.2247, abs=1e-3)

    def test_moments_to_stdout(self, tmp_path, capsys):
        fp = tmp_path / "f.csv"
        cli_main(["field", "--state", "fock:0", "--out", str(fp)])
        capsys.readouterr()
        assert cli_main(["moments", "--field", str(fp)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 9

    def test_field_low_coverage_exit_3_still_writes(self, tmp_path, capsys):
        fp = tmp_path / "small.csv"
        code = cli_main(
            ["field", "--state", "fock:1", "--grid", "regular:8:-0.1:0.1", "--out", str(fp)]
        )
        assert code == 3
        assert fp.exists()
        capsys.readouterr()

    def test_sonify_gate_blocks_audio(self, tmp_path, capsys):
        out = tmp_path / "t.wav"
        code = cli_main(
            [
                "sonify", "--state", "fock:1", "--method", "I",
                "--grid", "regular:8:-0.1:0.1", "--out", str(out),
            ]
        )
        assert code == 3
        assert not out.exists()
        capsys.readouterr()

    def test_sonify_writes_wav_and_score(self, tmp_path):
        out = tmp_path / "t.wav"
        score = tmp_path / "s.json"
        code = cli_main(
            [
                "sonify", "--state", "fock:1", "--method", "IV",
                "--duration", "0.3", "--sr", "8000",
                "--out", str(out), "--score", str(score),
            ]
        )
        assert code == 0
        buf = read_wav(out)
        assert buf.sample_rate == 8000
        assert buf.samples.shape == (2400, 1)
        events = read_score(score)
        assert len(events) == 21

    def test_sonify_stereo(self, tmp_path):
        # method II can map near the top of the band, so the rate must
        # keep 7040 Hz under Nyquist
        out = tmp_path / "st.wav"
        code = cli_main(
            [
                "sonify", "--state", "cat:-1", "--method", "II",
                "--duration", "0.2", "--sr", "16000", "--channels", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_wav(out).samples.shape[1] == 2

    def test_score_command_arpeggiate(self, tmp_path):
        # 16 cells per axis keeps the coverage gate happy on this window
        sp = tmp_path / "sc.json"
        code = cli_main(
            [
                "score", "--state", "fock:1", "--method", "I",
                "--grid", "regular:16:-5:5", "--duration", "1.0",
                "--arpeggiate", "--out", str(sp),
            ]
        )
        assert code == 0
        score = read_score(sp)
        assert len(score) == 256
        assert np.unique(score.onset).size == 16

    def test_sweep_and_sonogram(self, tmp_path):
        wav = tmp_path / "sw.wav"
        code = cli_main(
            [
                "sweep", "--segments", "0:-1:0.6;-1:-2:0.6",
                "--sr", "8000", "--out", str(wav),
            ]
        )
        assert code == 0
        buf = read_wav(wav)
        assert buf.samples.shape[0] == round(1.2 * 8000)

        sono = tmp_path / "sono.csv"
        code = cli_main(
            ["sonogram", "--audio", str(wav), "--window", "512", "--hop", "256", "--out", str(sono)]
        )
        assert code == 0
        assert sono.read_text().startswith(",")

    def test_config_round_trip(self, tmp_path):
        cfg_path = tmp_path / "map.cfg"
        cfg_path.write_text("n_osc=7\nf0_base=500\n")
        sp = tmp_path / "sc.json"
        code = cli_main(
            [
                "score", "--state", "fock:0", "--method", "IV",
                "--config", str(cfg_path), "--out", str(sp),
            ]
        )
        assert code == 0
        assert len(read_score(sp)) == 7


# a mapping IV render of the ground state, 0.1 s long
_SHORT_MAPPING = ["--state", "fock:0", "--method", "IV", "--duration", "0.1"]


class TestExitCodes:
    def test_bad_state_is_2(self, tmp_path, capsys):
        assert cli_main(["eval", "--state", "weird:1", "--r", "0", "--p", "0"]) == 2
        capsys.readouterr()

    def test_bad_grid_is_2(self, tmp_path, capsys):
        code = cli_main(
            ["field", "--state", "fock:0", "--grid", "bogus", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_config_key_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("loudness=11\n")
        code = cli_main(
            [
                "sonify", "--state", "fock:0", "--method", "IV",
                "--config", str(cfg_path), "--out", str(tmp_path / "x.wav"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_degenerate_cat_is_2(self, capsys):
        # cat:0 collapses; the state grammar reports it as a usage fault
        assert cli_main(["eval", "--state", "cat:0", "--r", "0", "--p", "0"]) == 2
        capsys.readouterr()

    def test_missing_field_file_is_4(self, tmp_path, capsys):
        assert cli_main(["moments", "--field", str(tmp_path / "none.csv")]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--state", "fock:0", "--out", "{missing}/f.csv"],
            ["moments", "--field", "{field}", "--out", "{missing}/m.json"],
            ["sonify", *_SHORT_MAPPING, "--out", "{missing}/x.wav"],
            ["sonify", *_SHORT_MAPPING, "--out", "{tmp}/x.wav", "--score", "{missing}/s.json"],
            ["sweep", "--segments", "0:-1:0.6", "--sr", "8000", "--out", "{missing}/x.wav"],
            ["sonogram", "--audio", "{wav}", "--out", "{missing}/s.csv"],
            ["score", *_SHORT_MAPPING, "--out", "{missing}/s.json"],
            ["moments", "--field", "{missing}/f.csv"],
            ["sonogram", "--audio", "{missing}/x.wav", "--out", "{tmp}/s.csv"],
        ],
        ids=[
            "field-out", "moments-out", "sonify-out", "sonify-score", "sweep-out",
            "sonogram-out", "score-out", "missing-field", "missing-audio",
        ],
    )
    def test_io_fault_is_4_naming_the_path(self, argv, tmp_path, capsys):
        from quasitone.render import AudioBuffer, write_wav

        field, wav, missing = tmp_path / "f.csv", tmp_path / "in.wav", tmp_path / "missing"
        assert cli_main(["field", "--state", "fock:0", "--out", str(field)]) == 0
        write_wav(AudioBuffer(np.zeros(4096), 8000), wav)
        argv = [a.format(missing=missing, tmp=tmp_path, field=field, wav=wav) for a in argv]
        (bad,) = [a for a in argv if a.startswith(str(missing))]
        capsys.readouterr()
        assert cli_main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and bad in err
        assert "Traceback" not in err
        if "--score" in argv:
            # sonify writes its WAV and its score, or neither
            assert not (tmp_path / "x.wav").exists()

    def test_sweep_nyquist_is_4_before_any_output(self, tmp_path, capsys):
        # a band topping out at 4 kHz reaches the 8 kHz Nyquist limit
        cfg_path, wav = tmp_path / "m.cfg", tmp_path / "x.wav"
        cfg_path.write_text("f_hi=4000\nf0_base=3900\nf0_slope=0\nq_slope=200\n")
        code = cli_main(
            [
                "sweep", "--segments", "0:-1:0.6", "--sr", "8000",
                "--config", str(cfg_path), "--out", str(wav),
            ]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: partial at 4000.0 Hz") and err.count("\n") == 1
        assert not wav.exists()

    def test_nyquist_is_4(self, tmp_path, capsys):
        # band top 7040 Hz exceeds the 8 kHz Nyquist limit of 4 kHz
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text("f0_base=3900\nf0_slope=0\nq_slope=200\n")
        code = cli_main(
            [
                "sonify", "--state", "fock:0", "--method", "IV", "--sr", "8000",
                "--config", str(cfg_path), "--out", str(tmp_path / "x.wav"),
            ]
        )
        assert code == 4
        capsys.readouterr()

    @pytest.mark.parametrize("empty", [False, True], ids=["nonfinite", "empty"])
    def test_bad_wav_samples_are_4(self, tmp_path, capsys, empty):
        # a NaN or an infinity is not a sample, and an empty data chunk
        # holds no frame; no sonogram cell may come from either
        from quasitone.render import AudioBuffer, write_wav

        samples = np.zeros(4096)
        samples[100], samples[2000] = np.nan, np.inf
        wav, out = tmp_path / "bad.wav", tmp_path / "s.csv"
        write_wav(AudioBuffer(samples, 8000), wav)
        if empty:
            # keep the header, with a zero-byte data chunk
            blob = wav.read_bytes()
            wav.write_bytes(blob[:4] + (36).to_bytes(4, "little") + blob[8:40] + bytes(4))
        assert cli_main(["sonogram", "--audio", str(wav), "--out", str(out)]) == 4
        assert "finite samples" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_wav_sample_rate_is_4(self, tmp_path, capsys):
        from quasitone.render import AudioBuffer, write_wav

        wav, out = tmp_path / "sr0.wav", tmp_path / "s.csv"
        write_wav(AudioBuffer(np.zeros(4096), 8000), wav)
        blob = wav.read_bytes()
        wav.write_bytes(blob[:24] + bytes(4) + blob[28:])  # the fmt chunk's rate field
        assert cli_main(["sonogram", "--audio", str(wav), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(wav) in err and "sample rate" in err
        assert not out.exists()


def _valid_csv_input(source, tmp_path):
    """A valid Fock 0 field CSV, read by moments, or a ground-state
    wavefunction CSV, read by eval; returns its path and that argv."""
    if source == "field":
        fp = tmp_path / "f.csv"
        assert cli_main(["field", "--state", "fock:0", "--out", str(fp)]) == 0
        return fp, ["moments", "--field", str(fp)]
    from quasitone import default_psi_grid, harmonic_eigenstate

    x = default_psi_grid()
    rows = [f"{float(xv)!r},{float(pv)!r},0.0" for xv, pv in zip(x, harmonic_eigenstate(0, x))]
    fp = tmp_path / "psi.csv"
    fp.write_text("x,re,im\n" + "\n".join(rows) + "\n")
    return fp, ["eval", "--state", f"psi:{fp}", "--r", "0", "--p", "0"]


class TestArgumentChecks:
    """Bad values reach the library's checks and exit 2 with a message."""

    @pytest.fixture
    def wav(self, tmp_path):
        from quasitone.render import AudioBuffer, write_wav

        path = tmp_path / "in.wav"
        write_wav(AudioBuffer(np.zeros(4096), 8000), path)
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--frame", "0", "--out", "x.wav"],
            ["score", "--state", "fock:1", "--method", "I", "--duration", "-1", "--out", "x.json"],
            ["sonify", "--state", "fock:1", "--method", "IV", "--sr", "0", "--out", "x.wav"],
            ["sonogram", "--audio", "{wav}", "--window", "4", "--out", "s.csv"],
        ],
        ids=["sweep-frame", "score-duration", "sonify-sr", "sonogram-window"],
    )
    def test_bad_value_is_2(self, argv, tmp_path, wav, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [a.format(wav=wav) for a in argv]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.glob("x.*")) and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sonify", "--state", "fock:1", "--method", "IV", "--sr", "0"],
            ["sonify", "--state", "fock:1", "--method", "I", "--sr", "-8000"],
            ["sweep", "--segments", "0:-1:0.5", "--sr", "0"],
        ],
        ids=["sonify-zero", "sonify-negative", "sweep-zero"],
    )
    def test_bad_sample_rate_is_named(self, argv, tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert cli_main(argv + ["--out", str(out)]) == 2
        assert "sample rate must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, fragment",
        [
            (["score", "--state", "fock:1", "--method", "IV", "--out", "x.json"], "ref_pitch=nan",
             "ref_pitch"),
            (["sonify", "--state", "fock:1", "--method", "IV", "--out", "x.wav"],
             "event_duration=nan", "event_duration"),
            (["sonify", "--state", "fock:1", "--method", "IV", "--duration", "0.1", "--out", "x.wav"],
             "f_hi=inf", "f_hi"),
            (["sonify", "--state", "fock:1", "--method", "IV", "--duration", "inf", "--out", "x.wav"],
             None, "duration"),
            (["sonify", "--state", "fock:1", "--method", "IV", "--duration", "nan", "--out", "x.wav"],
             None, "duration"),
            (["sweep", "--segments", "0:-1:1", "--frame", "inf", "--out", "x.wav"], None, "frame"),
            (["sweep", "--segments", "0:-1:1", "--frame", "nan", "--out", "x.wav"], None, "frame"),
            (["score", "--state", "fock:1", "--method", "IV", "--duration", "nan", "--out", "x.json"],
             None, "duration"),
            (["score", "--state", "fock:1", "--method", "IV", "--duration", "inf", "--out", "x.json"],
             None, "duration"),
            (["field", "--state", "cat:nan", "--out", "x.csv"], None, "delta_alpha"),
            (["sonify", "--state", "coherent:inf", "--method", "IV", "--out", "x.wav"], None, "alpha"),
            (["sweep", "--segments", "0:nan:2", "--out", "x.wav"], None, "segment"),
            (["eval", "--state", "fock:0", "--r", "nan", "--p", "0"], None, "--r"),
            (["eval", "--state", "fock:0", "--r", "0", "--p", "inf"], None, "--p"),
        ],
        ids=[
            "config-ref_pitch", "config-event_duration", "config-f_hi", "sonify-duration-inf",
            "sonify-duration-nan", "sweep-frame-inf", "sweep-frame-nan", "score-duration-nan",
            "score-duration-inf", "cat-shift", "coherent-alpha", "sweep-segment", "eval-r", "eval-p",
        ],
    )
    def test_nonfinite_value_is_named(self, argv, config, fragment, tmp_path, capsys, monkeypatch):
        # NaN and infinity pass every "<= 0" test; each must still exit 2
        # with a message naming the key or flag, never a traceback
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "m.cfg").write_text(config + "\n")
            argv = argv + ["--config", "m.cfg"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert not any(tmp_path.glob("x.*"))

    def test_malformed_field_file_is_2(self, tmp_path, capsys):
        fp = tmp_path / "f.csv"
        assert cli_main(["field", "--state", "fock:0", "--out", str(fp)]) == 0
        fp.write_text("r,p,val\n" + "\n".join(fp.read_text().splitlines()[1:]) + "\n")
        capsys.readouterr()
        assert cli_main(["moments", "--field", str(fp)]) == 2
        assert "expected header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, tail, fragment",
        [
            ("field", ",abc", "'abc'"),
            ("field", ",1_0", "'1_0'"),
            ("field", ",\u0661", "'\u0661'"),
            ("psi", ",abc", "'abc'"),
            ("psi", ",", "''"),
            ("psi", "", "got 2"),
            ("psi", ",1_0", "'1_0'"),
            ("psi", ",\u0661", "'\u0661'"),
        ],
        ids=[
            "abc", "1_0", "arabic-indic",
            "psi-abc", "psi-empty", "psi-short-row", "psi-1_0", "psi-arabic-indic",
        ],
    )
    def test_non_numeric_cell_names_file_and_line(self, source, tail, fragment, tmp_path, capsys):
        fp, argv = _valid_csv_input(source, tmp_path)
        lines = fp.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + tail
        fp.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{fp}: line 6:" in err and fragment in err

    @pytest.mark.parametrize(
        "source, cell",
        [("field", "nan"), ("field", "inf"), ("field", "-inf"), ("psi", "nan"), ("psi", "inf")],
        ids=["nan", "inf", "-inf", "psi-nan", "psi-inf"],
    )
    def test_non_finite_cell_names_file_and_line(self, source, cell, tmp_path, capsys):
        fp, argv = _valid_csv_input(source, tmp_path)
        lines = fp.read_text().splitlines()
        for k in (7, 9):
            lines[k] = lines[k].rsplit(",", 1)[0] + "," + cell
        fp.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{fp}: line 8:" in err and repr(cell) in err

    @pytest.mark.parametrize("command", ["eval", "field", "moments", "sonogram"])
    def test_config_only_where_read(self, command, tmp_path, capsys):
        # these commands read no config, so they do not take the flag
        argv = {
            "eval": ["--state", "fock:0", "--r", "0", "--p", "0"],
            "field": ["--state", "fock:0", "--out", str(tmp_path / "f.csv")],
            "moments": ["--field", str(tmp_path / "f.csv")],
            "sonogram": ["--audio", str(tmp_path / "a.wav"), "--out", str(tmp_path / "s.csv")],
        }[command]
        assert cli_main([command, *argv, "--config", str(tmp_path / "none.cfg")]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "state, edit",
        [
            ("fock:0", lambda side: [side]),
            ("fock:0", lambda side: {k: v for k, v in side.items() if k != "kind"}),
            ("fock:0", lambda side: {k: v for k, v in side.items() if k != "r_edges"}),
            ("fock:0", lambda side: {k: v for k, v in side.items() if k != "p_edges"}),
            ("fock:1", lambda side: {**side, "state": {"kind": "fock"}}),
            ("cat:-1", lambda side: {**side, "state": {**side["state"], "delta_alpha": [-1.0]}}),
        ],
        ids=["not-object", "no-kind", "no-r_edges", "no-p_edges", "fock-without-m", "short-shift"],
    )
    def test_malformed_sidecar_is_2(self, tmp_path, capsys, state, edit):
        fp, side = tmp_path / "f.csv", tmp_path / "f.csv.json"
        assert cli_main(["field", "--state", state, "--out", str(fp)]) == 0
        side.write_text(json.dumps(edit(json.loads(side.read_text()))))
        capsys.readouterr()
        assert cli_main(["moments", "--field", str(fp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(side) in err

    def test_nonfinite_wavefunction_is_2(self, tmp_path, capsys):
        # a NaN sample makes the norm NaN, which no tolerance test rejects
        from quasitone import default_psi_grid, harmonic_eigenstate

        x = default_psi_grid()
        psi = harmonic_eigenstate(0, x)
        rows = [f"{float(xv)!r},{float(pv)!r},0.0" for xv, pv in zip(x, psi)]
        rows[x.size // 2] = f"{float(x[x.size // 2])!r},nan,0.0"
        path = tmp_path / "psi.csv"
        path.write_text("x,re,im\n" + "\n".join(rows) + "\n")
        assert cli_main(["eval", "--state", f"psi:{path}", "--r", "0", "--p", "0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_zero_duration_is_not_replaced(self, tmp_path, capsys):
        # 0 is a value, not a missing --duration; it must fail the check
        out = tmp_path / "z.wav"
        code = cli_main(
            ["sonify", "--state", "fock:1", "--method", "IV", "--duration", "0", "--out", str(out)]
        )
        assert code == 2
        assert "duration" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_config_keeps_sweep_defaults(self, tmp_path):
        # a file restating the default n_osc must not change the sweep
        cfg_path = tmp_path / "same.cfg"
        cfg_path.write_text("n_osc=21\n")
        base = ["sweep", "--segments", "0:-1:0.5", "--sr", "8000"]
        plain, configured = tmp_path / "plain.wav", tmp_path / "cfg.wav"
        assert cli_main(base + ["--out", str(plain)]) == 0
        assert cli_main(base + ["--config", str(cfg_path), "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()


def _traced_metrics(argv):
    """Run one command with the benchmark's layer tracer installed in this
    process; return its per-layer metrics and span names. The modules'
    replaced names are put back afterwards."""
    import importlib.util

    from quasitone import cli, grids, render, score, states

    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = (cli, grids, render, score, states)
    saved = [dict(vars(m)) for m in modules]
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        assert cli.cli_main(argv) == 0
    finally:
        for module, names in zip(modules, saved):
            vars(module).update(names)
    return layers.layer_metrics(tracer.spans), {span[0] for span in tracer.spans}


class TestBenchmarkTracer:
    """The benchmark counts partials and oscillator work through
    PartialBank.partials; these runs keep that view working."""

    def test_mapping_one_counts(self, tmp_path):
        metrics, names = _traced_metrics(
            ["sonify", "--state", "fock:1", "--method", "I", "--duration", "0.05",
             "--sr", "16000", "--out", str(tmp_path / "one.wav")]
        )
        assert metrics["sonify.partials"] == 900
        assert metrics["render.osc_sample_ops"] == 900 * 800
        assert "render.synth_sine" in names

    def test_triangle_counts(self, tmp_path):
        cfg_path = tmp_path / "triangle.cfg"
        cfg_path.write_text("waveform=triangle\n")
        metrics, names = _traced_metrics(
            ["sonify", "--state", "fock:1", "--method", "IV", "--config", str(cfg_path),
             "--duration", "0.05", "--sr", "16000", "--out", str(tmp_path / "tri.wav")]
        )
        assert metrics["sonify.partials"] == 21
        # each triangle adds its odd harmonics below Nyquist
        assert metrics["render.osc_sample_ops"] > 21 * 800
        assert "render.synth_triangle" in names


class TestInstalledScript:
    def test_entry_point_exit_codes(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "quasitone.cli", "eval", "--state", "fock:0", "--r", "0", "--p", "0"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert abs(float(res.stdout.strip()) - 1.0 / np.pi) < 1e-12

        res = subprocess.run(
            [sys.executable, "-m", "quasitone.cli", "eval", "--state", "fock:-1", "--r", "0", "--p", "0"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 2

    def test_import_leaves_scipy_out(self):
        # every command pays for what importing the package imports
        src = str(Path(quasitone.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, quasitone.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert res.stdout.strip() == "[]"
