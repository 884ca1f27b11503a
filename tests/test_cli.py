import builtins
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasitone
from oracles import psi_grid
from quasitone import read_field, read_wav, textfmt
from quasitone.cli import cli_main, parse_grid, parse_state
from quasitone.sonify import _CONFIG_TYPES
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
        from quasitone import harmonic_eigenstate

        x = psi_grid()
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
        assert len(json.loads(score.read_text())) == 21

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
        events = json.loads(sp.read_text())
        assert len(events) == 256
        assert len({e["onset"] for e in events}) == 16

    @pytest.mark.parametrize("method", ["II", "III", "IV"])
    def test_arpeggiate_without_cells_is_2_naming_the_method(self, method, tmp_path, capsys):
        # only mapping I has per-cell sources to stagger
        out = tmp_path / "sc.json"
        argv = ["score", "--state", "fock:1", "--method", method, "--arpeggiate", "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --arpeggiate") and f"method {method} " in err
        assert err.count("\n") == 1
        assert not out.exists()

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
        assert len(json.loads(sp.read_text())) == 7


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

    def test_field_coverage_gate_is_3_through_the_table(self, tmp_path, capsys):
        # field keeps its files and coverage line, then exits 3 like sonify
        fp = tmp_path / "small.csv"
        argv = ["field", "--state", "fock:1", "--grid", "regular:8:-0.5:0.5", "--out", str(fp)]
        assert cli_main(argv) == 3
        assert fp.exists() and Path(str(fp) + ".json").exists()
        out, err = capsys.readouterr()
        words = out.split()
        assert len(words) == 2 and words[0] == "coverage" and float(words[1]) < 0.99
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err

    def test_field_computes_coverage_once(self, tmp_path, capsys, monkeypatch):
        # the printed coverage is the value the gate checks, not a second pass
        from quasitone import cli, grids

        calls, coverage = [], grids.coverage
        counted = lambda field: calls.append(field) or coverage(field)  # noqa: E731
        monkeypatch.setattr(grids, "coverage", counted)
        monkeypatch.setattr(cli, "coverage", counted)
        argv = ["field", "--state", "fock:1", "--grid", "regular:8:-0.5:0.5", "--out", str(tmp_path / "f.csv")]
        assert cli_main(argv) == 3
        assert len(calls) == 1
        out, err = capsys.readouterr()
        assert f"window share {out.split()[1]} of" in err

    def test_event_duration_is_an_unknown_key(self, tmp_path, capsys):
        # note length is --duration alone; the old config key is refused
        (tmp_path / "m.cfg").write_text("event_duration=4.0\n")
        argv = ["sonify", *_SHORT_MAPPING, "--config", str(tmp_path / "m.cfg"),
                "--out", str(tmp_path / "x.wav")]
        assert cli_main(argv) == 2
        assert "unknown key 'event_duration'" in capsys.readouterr().err
        assert not (tmp_path / "x.wav").exists()

    def test_field_row_off_its_cell_center_is_2(self, tmp_path, capsys):
        # a moved r once loaded silently and gave the original moments
        fp = tmp_path / "f.csv"
        argv = ["field", "--state", "fock:1", "--grid", "regular:16:-4:4", "--out", str(fp)]
        assert cli_main(argv) == 0
        lines = fp.read_text().split("\n")
        assert lines[2].startswith("-3.75,-3.25,")
        lines[2] = "7.25" + lines[2][len("-3.75"):]
        fp.write_text("\n".join(lines))
        capsys.readouterr()
        assert cli_main(["moments", "--field", str(fp)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {fp}: line 3: (r, p) = (7.25, -3.25) is not the cell center (-3.75, -3.25) "
            "of the sidecar's grid\n",
        )

    def test_degenerate_cat_is_2(self, capsys):
        # cat:0 collapses; the state grammar reports it as a usage fault
        assert cli_main(["eval", "--state", "cat:0", "--r", "0", "--p", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--state", "cat:1e200", "--r", "0", "--p", "0"],
            ["sweep", "--segments", "0:-1:0.5;-1:1e200:0.5", "--sr", "8000", "--out", "{wav}"],
        ],
        ids=["eval", "sweep"],
    )
    def test_shift_whose_square_overflows_is_2(self, argv, tmp_path, capsys):
        # refused naming the shift, before any audio; an OverflowError or a
        # RuntimeWarning (an error under this suite) would fail the test
        wav = tmp_path / "x.wav"
        assert cli_main([a.format(wav=wav) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "delta_alpha = (1e+200+0j) is not finite" in err
        assert not wav.exists()

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

    @pytest.mark.parametrize(
        "module, argv, named",
        [
            ("grids", ["field", "--state", "fock:0", "--out", "f.csv"], "f.csv"),
            ("analysis", ["moments", "--field", "{field}", "--out", "m.json"], "m.json"),
            ("score", ["score", *_SHORT_MAPPING, "--out", "s.json"], "s.json"),
            ("render", ["sonify", *_SHORT_MAPPING, "--out", "x.wav", "--score", "s.json"], "x.wav"),
            ("render", ["sonogram", "--audio", "{wav}", "--out", "s.csv"], "s.csv"),
        ],
        ids=["field", "moments", "score", "sonify", "sonogram"],
    )
    def test_file_too_large_names_the_output(self, module, argv, named, tmp_path, capsys, monkeypatch):
        # past `ulimit -f` or on a full disk, write() raises an OSError that
        # names no file; the error names the path given, not its temporary
        from quasitone import analysis, grids, render, score
        from quasitone.render import AudioBuffer, write_wav

        field, wav = tmp_path / "in" / "f.csv", tmp_path / "in" / "in.wav"
        field.parent.mkdir()
        assert cli_main(["field", "--state", "fock:0", "--out", str(field)]) == 0
        write_wav(AudioBuffer(np.zeros(4096), 8000), wav)
        capsys.readouterr()

        class FileTooLarge:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, data):
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        def full_open(path, mode="r", *args, **kwargs):
            return FileTooLarge() if "w" in mode else builtins.open(path, mode, *args, **kwargs)

        modules = {"grids": grids, "analysis": analysis, "score": score, "render": render}
        monkeypatch.setattr(modules[module], "open", full_open, raising=False)
        monkeypatch.chdir(tmp_path)
        assert cli_main([a.format(field=field, wav=wav) for a in argv]) == 4
        assert capsys.readouterr() == ("", f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {named!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["sonify", *_SHORT_MAPPING, "--out", "a.wav", "--score", "a.wav"], "--out and --score"),
            (["sonify", *_SHORT_MAPPING, "--out", "old.wav", "--score", "alias.wav"], "--out and --score"),
            (["moments", "--field", "f.csv", "--out", "f.csv"], "--out and --field"),
            (["moments", "--field", "f.csv", "--out", "f.csv.json"], "--out and the --field sidecar"),
            (["sonogram", "--audio", "old.wav", "--out", "old.wav"], "--out and --audio"),
            (["sweep", "--config", "m.cfg", "--out", "m.cfg"], "--out and --config"),
            (["field", "--state", "psi:psi.csv", "--out", "psi.csv"], "--out and --state"),
            (["field", "--state", "psi:f.json", "--out", "f"], "the --out sidecar and --state"),
            (["score", *_SHORT_MAPPING, "--config", "m.cfg", "--out", "./sub/../m.cfg"], "--out and --config"),
        ],
        ids=[
            "sonify-out-score", "sonify-symlink", "moments-field", "moments-sidecar",
            "sonogram-audio", "sweep-config", "field-psi", "field-sidecar-psi", "score-config",
        ],
    )
    def test_output_over_another_file_is_2_naming_both(self, argv, flags, tmp_path, capsys, monkeypatch):
        from quasitone.render import AudioBuffer, write_wav

        monkeypatch.chdir(tmp_path)
        assert cli_main(["field", "--state", "fock:0", "--out", "f.csv"]) == 0
        write_wav(AudioBuffer(np.zeros(4096), 8000), "old.wav")
        os.symlink("old.wav", "alias.wav")
        Path("m.cfg").write_text("n_osc=7\n")
        (tmp_path / "sub").mkdir()
        psi, _ = _valid_csv_input("psi", tmp_path)
        Path("f.json").write_bytes(psi.read_bytes())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        capsys.readouterr()
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flags} name the same file ") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_score_fault_keeps_the_old_wav(self, tmp_path, capsys):
        # a --score file that cannot be written leaves the WAV already at
        # --out as it was, and no temporary
        wav = tmp_path / "x.wav"
        assert cli_main(["sonify", *_SHORT_MAPPING, "--out", str(wav)]) == 0
        old = wav.read_bytes()
        argv = ["sonify", "--state", "fock:1", "--method", "IV", "--duration", "0.2", "--out", str(wav)]
        assert cli_main([*argv, "--score", str(tmp_path / "missing" / "s.json")]) == 4
        err = capsys.readouterr().err
        # the score's path is named, not its temporary
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("s.json'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["x.wav"] and wav.read_bytes() == old

    def test_failed_rename_names_the_path(self, tmp_path, monkeypatch):
        # os.replace(temporary, path) names both; the error names the path alone
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, "Permission denied", src, None, dst)

        path = tmp_path / "s.json"
        monkeypatch.setattr(textfmt.os, "replace", refuse)
        with pytest.raises(PermissionError) as refused:
            with textfmt.written(str(path)) as (tmp,), open(tmp, "w") as fh:
                fh.write("[]\n")
        assert str(refused.value) == f"[Errno {errno.EACCES}] Permission denied: '{path}'"
        assert list(tmp_path.iterdir()) == []

    def test_field_sidecar_fault_leaves_no_csv(self, tmp_path, capsys):
        # field writes its CSV and its sidecar, or neither
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.json").mkdir()
        assert cli_main(["field", "--state", "fock:1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"{out}.json" in err
        assert not out.exists()

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


class TestFarAndUnresolvable:
    """Far points of closed forms print 0, and a default grid that float64
    cannot resolve is refused naming its centroid, before any output."""

    @pytest.mark.parametrize(
        "state, r, p",
        [
            ("fock:1", "1e200", "0"),
            ("fock:3", "1e60", "0"),
            ("fock:20", "1e8", "0"),
            ("fock:0", "1e200", "0"),
            ("coherent:0", "1e200", "0"),
            ("cat:3", "1e200", "0"),
            ("coherent:1e200", "0", "0"),
            ("coherent:-1e308", "1e308", "0"),
            ("cat:1e154", "-1e154", "0"),
        ],
    )
    def test_far_point_prints_zero(self, state, r, p, capsys):
        # a RuntimeWarning is an error under this suite
        assert cli_main(["eval", "--state", state, f"--r={r}", f"--p={p}"]) == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize(
        "state, r, p, refused",
        [
            ("cat:9e153,9e153", "9e153", "9e153", "|delta_alpha| = 1.27e+154 of delta_alpha = (9e+153+9e+153j) exceeds 1e+154"),
            ("cat:1.3e154", "2.6e154", "0", "|delta_alpha| = 1.3e+154 of delta_alpha = (1.3e+154+0j) exceeds 1e+154"),
            ("cat:1.3e154", "2e154", "0", "|delta_alpha| = 1.3e+154 of delta_alpha = (1.3e+154+0j) exceeds 1e+154"),
            ("fock:400", "26.6", "0", "photon number 400 exceeds 287"),
            ("fock:288", "0", "0", "photon number 288 exceeds 287"),
        ],
    )
    def test_state_whose_formula_overflows_is_2(self, state, r, p, refused, capsys):
        # each state gave NaN, or 0 through an overflow warning, somewhere in
        # its domain before it was refused
        assert cli_main(["eval", "--state", state, f"--r={r}", f"--p={p}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: state {state!r}: {refused}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, centroid",
        [
            (["field", "--state", "coherent:1e15", "--out", "{out}"], "(1000000000000000.0, 0.0)"),
            (["sweep", "--segments", "0:1e15:1", "--sr", "8000", "--out", "{out}"], "(375000000000000.0, 0.0)"),
            (["sweep", "--segments", "0:1e150:1", "--sr", "8000", "--out", "{out}"], "(1.25e+149, 0.0)"),
        ],
        ids=["field", "sweep-1e15", "sweep-1e150"],
    )
    def test_unresolvable_default_grid_is_2(self, argv, centroid, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main([a.format(out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the default grid around centroid {centroid} is not resolved in float64: its edges are not evenly 0.15625 apart\n"
        assert list(tmp_path.iterdir()) == []

    def test_exact_far_edges_are_kept(self, tmp_path, capsys):
        out = tmp_path / "cat.csv"
        assert cli_main(["field", "--state", "cat:1e14", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "coverage 1.000000\n"
        side = json.loads(Path(str(out) + ".json").read_text())
        assert side["r_edges"] == (1e14 - 5.0 + 0.15625 * np.arange(65)).tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGridsThatCannotBeHeld:
    """A grid with more than MAX_CELLS cells, or with a width or a cell area
    that float64 cannot hold, is refused naming the grid before any array
    of its size exists; a mass that is not finite fails the coverage gate
    instead of reading as full coverage."""

    @pytest.mark.parametrize(
        "grid, refused",
        [
            ("regular:1025:-5:5", "1025 x 1025 = 1050625 cells exceed the limit of 1048576"),
            ("gauss:1025:3", "1025 x 1025 = 1050625 cells exceed the limit of 1048576"),
            ("regular:64:-1e308:1e308", "r range [-1e+308, 1e+308] is wider than float64 can hold"),
            ("gauss:8:1e308", "+-span_sigmas sigma_r window [-1.225e+308, 1.225e+308] is wider than float64 can hold"),
            ("regular:64:-1e200:1e200", "a cell of 3.125e+198 x 3.125e+198 has an area float64 cannot hold"),
        ],
        ids=["count-regular", "count-gauss", "width-regular", "width-gauss", "cell-area"],
    )
    def test_grid_is_2_naming_it(self, grid, refused, tmp_path, capsys):
        argv = ["field", "--state", "fock:1", "--grid", grid, "--out", str(tmp_path / "f.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", f"error: grid {grid!r}: {refused}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["field", "sonify"])
    @pytest.mark.parametrize("broken", ["field", "split"])
    def test_mass_that_is_not_finite_is_3_naming_the_grid(self, command, broken, tmp_path, capsys, monkeypatch):
        from quasitone import WignerField, cli, eval_fock, grids

        def field(state, grid):
            if broken == "field":
                return WignerField(grid, np.full(grid.shape, np.nan), state)
            return WignerField(grid, eval_fock(1, grid.r_centers[:, None], grid.p_centers), state)

        monkeypatch.setattr(cli, "sample_field", field)
        if broken == "split":
            monkeypatch.setattr(grids, "evaluate", lambda s, r, p: np.full(np.broadcast(r, p).shape, np.inf))
        argv = [command, "--state", "fock:1", "--grid", "regular:8:-5:5", "--out", str(tmp_path / "out")]
        assert cli_main(argv + (["--method", "IV"] if command == "sonify" else [])) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: W^2 sums ") and err.count("\n") == 1
        assert "of the grid on r in [-5, 5], p in [-5, 5]" in err and "must be finite" in err
        assert list(tmp_path.iterdir()) == []


def _package_env():
    """os.environ with this checkout's src directory first on PYTHONPATH."""
    src = str(Path(quasitone.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _limited_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


class TestRendersThatCannotBeHeld:
    """A render of more samples or sweep frames than render's limits is
    refused naming the count, exit 2, before anything of its size exists.
    Each runs as its own process under a 3 GiB address-space limit, so
    that a render the limits miss fails fast instead of filling memory."""

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["sonify", "--state", "fock:1", "--method", "IV", "--duration", "1e7"],
             "note of 10000000.0 s at 48000 Hz is 480000000000 samples over 1 channel(s)"),
            (["sweep", "--segments", "0:-1:1e7"],
             "sweep of 10000000.0 s at 48000 Hz is 480000000000 samples over 1 channel(s)"),
            (["sweep", "--channels", "4", "--segments", "0:-1:350"],
             "sweep of 350.0 s at 48000 Hz is 67200000 samples over 4 channel(s)"),
            (["sweep", "--frame", "0.001", "--segments", "0:-1:65.537"],
             "131074 frames of 0.001 s exceed the limit of 131072"),
            # a WAV header holds a byte rate below 2**32
            (["sonify", "--state", "fock:1", "--method", "IV", "--sr", "300000000",
              "--duration", "0.00001", "--channels", "4"],
             "300000000 Hz over 4 channel(s) of 4-byte samples is 4800000000 bytes per second"),
            (["sweep", "--sr", "5000000000", "--frame", "1e-8", "--segments", "0:-1:1e-6"],
             "5000000000 Hz over 1 channel(s) of 4-byte samples is 20000000000 bytes per second"),
        ],
        ids=[
            "sonify-duration", "sweep-segments", "sweep-channels", "sweep-frames",
            "sonify-byte-rate", "sweep-byte-rate",
        ],
    )
    def test_render_is_2_naming_the_count(self, argv, refused, tmp_path):
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "quasitone.cli", *argv,
             "--out", "x.wav"],
            capture_output=True, text=True, cwd=tmp_path, env=_package_env(), timeout=120,
            preexec_fn=_limited_address_space,
        )
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith(f"error: {refused}") and res.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_triangle_far_below_the_rate_is_2_naming_the_count(self, tmp_path, capsys):
        # mapping III's lowest partial sits on f_lo; its harmonic count was
        # cast to int with a RuntimeWarning
        cfg = tmp_path / "low.cfg"
        cfg.write_text("f_lo=1e-300\nwaveform=triangle\n")
        out = tmp_path / "x.wav"
        argv = ["sonify", "--state", "fock:1", "--method", "III", "--duration", "0.05", "--config", str(cfg)]
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: partials down to 1e-300 Hz at 48000 Hz make 1.2e+304 sine components, "
            "above the limit of 1048576\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, n_osc, refused",
        [
            (["sonify", "--state", "fock:1", "--method", "IV"], 1000000001,
             "config: n_osc = 1000000001 exceeds the limit of 900 partials"),
            # 3200 frames of 899 partials, more than 131072 frames of 21
            (["sweep", "--segments", "0:-1:400"], 899,
             "3200 frames of n_osc = 899 partials are 2876800 partials, above the limit of 2752512"),
        ],
        ids=["sonify-n-osc", "sweep-partials"],
    )
    def test_bank_is_2_naming_its_size(self, argv, n_osc, refused, tmp_path):
        cfg, run = tmp_path / "map.cfg", tmp_path / "run"
        cfg.write_text(f"n_osc={n_osc}\n")
        run.mkdir()
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "quasitone.cli", *argv,
             "--config", str(cfg), "--out", "x.wav"],
            capture_output=True, text=True, cwd=run, env=_package_env(), timeout=120,
            preexec_fn=_limited_address_space,
        )
        assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {refused}\n")
        assert list(run.iterdir()) == []

    def test_far_field_moments_is_4_leaving_no_file(self, tmp_path, capsys):
        # the outer cells of gauss:8:1e150 sit near +-3.5e149, where d**3 overflows
        field = str(tmp_path / "f.csv")
        assert cli_main(["field", "--state", "fock:0", "--grid", "gauss:8:1e150", "--out", field]) == 3
        capsys.readouterr()
        out = tmp_path / "m.json"
        assert cli_main(["moments", "--field", field, "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", "error: third central moment nan is not finite\n")
        assert not out.exists()


def _valid_csv_input(source, tmp_path):
    """A valid Fock 0 field CSV, read by moments, or a ground-state
    wavefunction CSV, read by eval; returns its path and that argv."""
    if source == "field":
        fp = tmp_path / "f.csv"
        assert cli_main(["field", "--state", "fock:0", "--out", str(fp)]) == 0
        return fp, ["moments", "--field", str(fp)]
    from quasitone import harmonic_eigenstate

    x = psi_grid()
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
            ["sonogram", "--audio", "{wav}", "--hop", "0", "--out", "s.csv"],
        ],
        ids=["sweep-frame", "score-duration", "sonify-sr", "sonogram-window", "sonogram-hop"],
    )
    def test_bad_value_is_2(self, argv, tmp_path, wav, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [a.format(wav=wav) for a in argv]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.glob("x.*")) and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "argv, code, printed",
        [
            (["eval", "--state", "fock:0", "--r", "-1e-3", "--p", "0"], 0, "0.31830956787406367\n"),
            (["eval", "--state", "fock:0", "--r", "0", "--p", "-inf"], 2, "error: --p must be finite, got -inf\n"),
            (["sonify", "--state", "fock:1", "--method", "IV", "--duration", "-1e-3", "--out", "x.wav"], 2,
             "error: duration must be positive and finite, got -0.001\n"),
            (["sweep", "--segments", "-1:-2:0.5", "--sr", "8000", "--out", "x.wav"], 0, ""),
        ],
        ids=["eval-r", "eval-p", "sonify-duration", "sweep-segments"],
    )
    def test_value_starting_with_a_dash_is_a_value(self, argv, code, printed, tmp_path, capsys, monkeypatch):
        # argparse reads a dash word that is not a plain decimal as an
        # unknown option, and said "--X: expected one argument" for each
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == code
        out, err = capsys.readouterr()
        assert (out + err) == printed
        assert (tmp_path / "x.wav").exists() == (argv[0] == "sweep")

    def test_frame_too_short_is_2_naming_the_minimum(self, tmp_path, capsys, monkeypatch):
        # 1e-5 s is 0 samples at 48 kHz: the frame is too short, not the trajectory
        monkeypatch.chdir(tmp_path)
        assert cli_main(["sweep", "--segments", "0:-1:1", "--frame", "1e-5", "--out", "x.wav"]) == 2
        err = capsys.readouterr().err
        assert err == "error: frame_seconds 1e-05 gives 0 samples at 48000 Hz; a frame needs at least 4\n"
        assert not (tmp_path / "x.wav").exists()

    def test_window_longer_than_audio_is_4(self, tmp_path, wav, capsys, monkeypatch):
        # the sonogram streams into its CSV, so it is refused before the CSV is opened
        monkeypatch.chdir(tmp_path)
        argv = ["sonogram", "--audio", str(wav), "--window", "8192", "--out", "s.csv"]
        assert cli_main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: 4096 samples but the window needs 8192")
        assert not (tmp_path / "s.csv").exists()

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
            "config-ref_pitch", "config-f_hi", "sonify-duration-inf",
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
            ("cat:-1", lambda side: {**side, "state": {**side["state"], "alpha": [0.5, 0.0]}}),
        ],
        ids=[
            "not-object", "no-kind", "no-r_edges", "no-p_edges", "fock-without-m", "short-shift",
            "cat-carrier",
        ],
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
        from quasitone import harmonic_eigenstate

        x = psi_grid()
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


def _psi_csv(path, n, nodes, span=10.5, cut=None):
    """Eigenstate n on `nodes` samples over +-span, written as the
    benchmark's transform workload writes it, set to exact zeros beyond
    |x| > cut when cut is given; returns the path."""
    from quasitone import harmonic_eigenstate

    x = np.linspace(-span, span, nodes)
    psi = harmonic_eigenstate(n, x)
    if cut is not None:
        psi = psi * (np.abs(x) <= cut)
    psi = psi / math.sqrt(float(np.sum(psi * psi)) * (x[1] - x[0]))
    path.write_text("x,re,im\n" + "".join(f"{a!r},{b!r},0.0\n" for a, b in zip(x.tolist(), psi.tolist())))
    return path


def _wavepacket_csv(path, p0, nodes=257):
    """psi = e^{-x^2/2 + i p0 x} on `nodes` samples over +-10.5; returns the path."""
    x = np.linspace(-10.5, 10.5, nodes)
    psi = np.exp(-x * x / 2.0 + 1j * p0 * x)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * (x[1] - x[0]))
    rows = (f"{a!r},{b.real!r},{b.imag!r}\n" for a, b in zip(x.tolist(), psi.tolist()))
    path.write_text("x,re,im\n" + "".join(rows))
    return path


class TestCoverageGate:
    """Grids that do not hold their state: each exits 3 naming the measure
    that failed, and the command writes no score."""

    @pytest.mark.parametrize(
        "state, grid, named",
        [
            ("fock:120", "regular:512:-10:10", ["window share 0.519380 of"]),
            ("fock:60", "regular:256:-10:10", ["window share 0.881905 of"]),
            ("fock:3", "regular:3:-5:5", ["window share 0.711421 of", "resolution 6.37055 ("]),
            ("cat:0.05", "regular:3:-5:5", ["resolution 5.66562 ("]),
            ("fock:8", "regular:8:-4:4", ["window share 0.853042 of", "resolution 0.121078 ("]),
        ],
    )
    def test_grid_that_does_not_hold_its_state_is_3(self, state, grid, named, tmp_path, capsys):
        # the |W| ratio, clamped to 1, let each of these through
        out = tmp_path / "s.json"
        assert cli_main(["score", "--state", state, "--method", "II", "--grid", grid, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: grid does not hold the state: ") and err.count("\n") == 1
        # every measure that fails is named, and no other
        for measure in ("window share", "resolution"):
            assert (measure in err) == any(n.startswith(measure) for n in named)
        assert all(n in err for n in named)
        assert not out.exists()

    def test_fock_50_on_its_wide_grid_holds_its_share(self, tmp_path, capsys):
        argv = ["field", "--state", "fock:50", "--grid", "regular:512:-10:10", "--out", str(tmp_path / "f.csv")]
        assert cli_main(argv) == 0
        assert capsys.readouterr() == ("coverage 0.992761\n", "")


class TestSampledCoverage:
    """The window share a psi: field prints, and the limits that the gate's
    split cells share with a grid: the momentum limit and the sample span."""

    @pytest.mark.parametrize(
        "nodes, n, cut, grid, line",
        [
            (257, 0, None, None, "coverage 1.000000"),
            (257, 1, None, None, "coverage 0.999999"),
            (257, 2, None, None, "coverage 0.999998"),
            (257, 3, None, None, "coverage 0.999995"),
            (193, 0, None, None, "coverage 0.999999"),
            (193, 1, None, None, "coverage 0.999997"),
            (257, 0, None, "regular:40:-3:3", "coverage 1.000000"),
            (257, 1, None, "regular:40:-3:3", "coverage 0.999998"),
            (257, 2, None, "regular:40:-3:3", "coverage 0.999906"),
            (257, 3, None, "regular:40:-3:3", "coverage 0.997776"),
            # samples that end in exact zeros, whose spline rings past the
            # last nonzero sample where the samples' |psi| * |psi| is 0
            (257, 0, 1.5, None, "coverage 0.992976"),
            (257, 2, 3.0, "regular:40:-3:3", "coverage 0.997706"),
            (193, 2, 3.0, None, "coverage 0.998868"),
            # a Gaussian-quantile grid: the field takes the dense product
            (257, 2, None, "gauss:64:3", "coverage 0.999620"),
        ],
    )
    def test_printed_coverage_keeps_its_digits(self, nodes, n, cut, grid, line, tmp_path, capsys):
        # each line the W^2 window share of the grid's cells split 2 x 2;
        # every grid here resolves its state
        src = _psi_csv(tmp_path / "psi.csv", n, nodes, cut=cut)
        argv = ["field", "--state", f"psi:{src}", "--out", str(tmp_path / "f.csv")]
        code = cli_main(argv + (["--grid", grid] if grid else []))
        assert capsys.readouterr().out == line + "\n"
        assert code == (0 if float(line.split()[1]) >= 0.99 else 3)

    @pytest.mark.parametrize("p0", [15.0, 20.0])
    def test_moving_wavepacket_is_covered(self, p0, tmp_path, capsys):
        # the default grid is centred on the spectral momentum; a finite
        # difference read 11.47 for 15 and 12.14 for 20. On 1025 samples
        # the spline through them holds the packet (see the next test)
        src = _wavepacket_csv(tmp_path / "psi.csv", p0, nodes=1025)
        assert cli_main(["field", "--state", f"psi:{src}", "--out", str(tmp_path / "f.csv")]) == 0
        assert capsys.readouterr().out == {15.0: "coverage 0.999949\n", 20.0: "coverage 0.999835\n"}[p0]

    @pytest.mark.parametrize("p0", [15.0, 20.0])
    def test_wavepacket_its_spline_does_not_hold_is_3(self, p0, tmp_path, capsys):
        # on 257 samples, 5 and 4 a period, the spline that the transform
        # integrates has a norm below the samples' 1, and the window share
        # of a grid that holds the packet is about that norm squared
        from quasitone.states import _spline_at

        src = _wavepacket_csv(tmp_path / "psi.csv", p0)
        out = tmp_path / "f.csv"
        assert cli_main(["field", "--state", f"psi:{src}", "--out", str(out)]) == 3
        printed, err = capsys.readouterr()
        share = float(printed.split()[1])
        assert err.startswith(f"error: grid does not hold the state: window share {share:.6f} of")
        state = parse_state(f"psi:{src}")
        t = np.linspace(-10.5, 10.5, 200001)
        norm = float(np.sum(np.abs(_spline_at(state.x, state.coef, t)) ** 2) * (t[1] - t[0]))
        assert share < 0.99 and abs(share - norm * norm) < 1e-3
        assert out.exists()  # field writes its files whatever the gate says

    def test_split_cells_past_the_momentum_limit_are_4(self, tmp_path, capsys):
        # the default grid around p0 = 33.5 ends at the p center 38.4219,
        # inside 38.4471; its cells split 2 x 2 reach 38.4609
        src = _wavepacket_csv(tmp_path / "psi.csv", 33.5)
        out = tmp_path / "f.csv"
        assert cli_main(["field", "--state", f"psi:{src}", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: p = 38.4609 reaches |p| >= 38.4471")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_span_of_8_passes_on_its_default_grid(self, tmp_path, capsys):
        # psi_0 over +-8 once exited 4: the gate needed samples out to the
        # centroid +- 10
        src = _psi_csv(tmp_path / "psi.csv", 0, 257, span=8.0)
        out = tmp_path / "f.csv"
        assert cli_main(["field", "--state", f"psi:{src}", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("coverage 1.000000\n", "")
        assert out.exists()

    def test_split_cells_outside_the_span_are_4(self, tmp_path, capsys):
        # the grid's r centers +-7.2 lie inside +-8, its split cells' outer
        # ones at +-8.4 do not
        src = _psi_csv(tmp_path / "psi.csv", 0, 257, span=8.0)
        out = tmp_path / "f.csv"
        argv = ["field", "--state", f"psi:{src}", "--grid", "regular:4:-9.6:9.6", "--out", str(out)]
        assert cli_main(argv) == 4
        assert capsys.readouterr() == ("", "error: evaluation point r = -8.4 lies outside the sample span\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "make, refused",
        [
            (lambda path: _psi_csv(path, 0, 257, span=3.0), "edge probability 5.422e-05 exceeds 1e-06; "),
            (lambda path: _wavepacket_csv(path, 36.0), "p = 38.5374 reaches |p| >= 38.4471 = pi / (2 h), "),
        ],
        ids=["tail-mass", "momentum"],
    )
    @pytest.mark.parametrize("grid", [[], ["--grid", "gauss:16:3"]], ids=["default", "gauss"])
    def test_state_fault_is_4_on_any_grid(self, make, refused, grid, tmp_path, capsys):
        # a gauss: grid samples the state's default field for its moments;
        # the state's fault there is the state's, not the grid text's
        src = make(tmp_path / "psi.csv")
        out = tmp_path / "f.csv"
        assert cli_main(["field", "--state", f"psi:{src}", *grid, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: " + refused)
        assert not out.exists()

    @pytest.mark.parametrize("p", ["77", "153", "-38.45"])
    def test_momentum_past_the_limit_is_4_naming_both(self, p, tmp_path, capsys):
        # 257 samples over +-10.5 resolve |p| < 257 pi / 21 = 38.447; the
        # transform would fold 77 onto 77 - 76.894, near the origin, and
        # print a value there
        src = _psi_csv(tmp_path / "psi.csv", 1, 257)
        assert cli_main(["eval", "--state", f"psi:{src}", "--r", "0", "--p", p]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: p = {p} reaches |p| >= 38.4471")
        assert "257-sample" in err and "more finely" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--state", "psi:{src}", "--out", "{out}"],
            ["eval", "--state", "psi:{src}", "--r", "0.5", "--p", "-0.25"],
        ],
        ids=["field", "eval"],
    )
    def test_one_spline_solve_per_command(self, argv, tmp_path, monkeypatch, capsys):
        # the state holds its spline: the field and its coverage gate both
        # read the one solve made when it is parsed
        from quasitone import states

        solve, calls = states._spline_coefficients, []
        monkeypatch.setattr(
            states, "_spline_coefficients", lambda x, y: calls.append(x.size) or solve(x, y)
        )
        src = _psi_csv(tmp_path / "psi.csv", 1, 257)
        assert cli_main([a.format(src=src, out=tmp_path / "f.csv") for a in argv]) == 0
        assert calls == [257]
        capsys.readouterr()


def _traced_metrics(*argvs):
    """Run commands with the benchmark's layer tracer installed in this
    process; return their per-layer metrics and spans. The modules'
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
        for argv in argvs:
            assert cli.cli_main(argv) == 0
    finally:
        for module, names in zip(modules, saved):
            vars(module).update(names)
    return layers.layer_metrics(tracer.spans), tracer.spans


class TestBenchmarkTracer:
    """The benchmark counts partials and oscillator work through
    PartialBank.partials, and sonogram frames through the stream that
    stft_sonogram returns; these runs keep those views working."""

    def test_mapping_one_counts(self, tmp_path):
        metrics, spans = _traced_metrics(
            ["sonify", "--state", "fock:1", "--method", "I", "--duration", "0.05",
             "--sr", "16000", "--out", str(tmp_path / "one.wav")]
        )
        assert metrics["sonify.partials"] == 900
        assert metrics["render.osc_sample_ops"] == 900 * 800
        assert "render.synth_sine" in {span[0] for span in spans}

    def test_triangle_counts(self, tmp_path):
        cfg_path = tmp_path / "triangle.cfg"
        cfg_path.write_text("waveform=triangle\n")
        metrics, spans = _traced_metrics(
            ["sonify", "--state", "fock:1", "--method", "IV", "--config", str(cfg_path),
             "--duration", "0.05", "--sr", "16000", "--out", str(tmp_path / "tri.wav")]
        )
        assert metrics["sonify.partials"] == 21
        # each triangle adds its odd harmonics below Nyquist
        assert metrics["render.osc_sample_ops"] > 21 * 800
        assert "render.synth_triangle" in {span[0] for span in spans}

    def test_sonogram_counts(self, tmp_path):
        wav, csv = tmp_path / "tone.wav", tmp_path / "sono.csv"
        t = np.arange(20000) / 8000
        quasitone.write_wav(quasitone.AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t), 8000), wav)
        metrics, spans = _traced_metrics(["sonogram", "--audio", str(wav), "--out", str(csv)])
        rows = csv.read_text().splitlines()[1:]
        assert metrics["render.stft_frames"] == len(rows) == 1 + (20000 - 2048) // 512
        assert metrics["render.sono_csv_bytes"] == csv.stat().st_size
        assert {"render.stft", "render.sono_csv"} <= {span[0] for span in spans}

    def test_one_coverage_span_per_gated_command(self, tmp_path):
        # field, sonify and score each gate once, through the coverage that
        # cli imports; the gate reads no cached reference, so the tracer's
        # counts of one stay 0
        metrics, spans = _traced_metrics(
            ["field", "--state", "fock:1", "--out", str(tmp_path / "f.csv")],
            ["sonify", "--state", "fock:1", "--method", "IV", "--duration", "0.1", "--out", str(tmp_path / "x.wav")],
            ["score", "--state", "fock:1", "--method", "II", "--out", str(tmp_path / "s.json")],
        )

        def root(i):
            while spans[i][3] is not None:
                i = spans[i][3]
            return i

        roots = [i for i, span in enumerate(spans) if span[0] == "cli.main"]
        gates = [root(i) for i, span in enumerate(spans) if span[0] == "grids.coverage"]
        assert gates == roots and len(roots) == 3
        assert (metrics["grids.coverage_ref_misses"], metrics["grids.coverage_ref_hits"]) == (0, 0)


# A minimal valid argv of each command and every flag's parsed value.
_GRAMMAR = {
    "eval": (
        ["--state", "fock:0", "--r", "0", "--p", "-1.5"],
        {"state": "fock:0", "r": 0.0, "p": -1.5},
    ),
    "field": (
        ["--state", "fock:0", "--out", "f.csv"],
        {"state": "fock:0", "grid": None, "out": "f.csv"},
    ),
    "moments": (["--field", "f.csv"], {"field": "f.csv", "out": None}),
    "sonify": (
        ["--state", "fock:1", "--method", "IV", "--out", "x.wav"],
        {
            "state": "fock:1", "method": "IV", "grid": None, "duration": 4.0, "sr": 48000,
            "channels": 1, "out": "x.wav", "score": None, "config": None,
        },
    ),
    "sweep": (
        ["--out", "s.wav"],
        {"out": "s.wav", "sr": 48000, "frame": 0.25, "channels": 1, "segments": None, "config": None},
    ),
    "sonogram": (
        ["--audio", "a.wav", "--out", "s.csv"],
        {"audio": "a.wav", "out": "s.csv", "window": 2048, "hop": 512},
    ),
    "score": (
        ["--state", "fock:1", "--method", "I", "--out", "e.json"],
        {
            "state": "fock:1", "method": "I", "grid": None, "duration": 4.0, "channels": 2,
            "arpeggiate": False, "out": "e.json", "config": None,
        },
    ),
}

# The flags each command requires, in the order argparse names them.
_REQUIRED = {
    "eval": "--state, --r, --p",
    "field": "--state, --out",
    "moments": "--field",
    "sonify": "--state, --method, --out",
    "sweep": "--out",
    "sonogram": "--audio, --out",
    "score": "--state, --method, --out",
}


class TestGrammar:
    @pytest.mark.parametrize("command", sorted(_GRAMMAR))
    def test_minimal_argv_parses_to_pinned_values(self, command, monkeypatch):
        from quasitone import cli

        seen = []
        monkeypatch.setattr(cli, "_run", lambda args: seen.append(vars(args)) or 0)
        argv, values = _GRAMMAR[command]
        assert cli_main([command, *argv]) == 0
        assert seen == [{"command": command, **values}]
        assert all(type(seen[0][k]) is type(v) for k, v in values.items())

    def test_defaults_are_the_library_s(self, monkeypatch):
        import inspect

        from quasitone import cli
        from quasitone.render import render_sweep, stft_sonogram

        seen = []
        monkeypatch.setattr(cli, "_run", lambda args: seen.append(vars(args)) or 0)
        for command in ("sweep", "sonogram"):
            assert cli_main([command, *_GRAMMAR[command][0]]) == 0
        sweep, sonogram = seen
        frame = inspect.signature(render_sweep).parameters["frame_seconds"].default
        window, hop = (inspect.signature(stft_sonogram).parameters[k].default for k in ("window", "hop"))
        assert (sweep["frame"], sonogram["window"], sonogram["hop"]) == (frame, window, hop)

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_required_flags(self, command, capsys):
        assert cli_main([command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: quasitone " + command)
        assert err.endswith(f"error: the following arguments are required: {_REQUIRED[command]}\n")

    def test_top_level_help_names_every_command(self, capsys):
        assert cli_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: quasitone ")
        assert all(command in out for command in _GRAMMAR)

    @pytest.mark.parametrize("command", sorted(_GRAMMAR))
    def test_command_help_names_every_flag(self, command, capsys):
        assert cli_main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: quasitone " + command)
        assert all(f"--{flag}" in out for flag in _GRAMMAR[command][1])


# Well-formed, then malformed pieces of each flag's value. Every size stays
# small or past a limit, so that an example runs in milliseconds: grids of
# at most 16 cells a side, notes of at most 0.05 s, paths of at most 0.5 s,
# at most 101 oscillators and rates of at most 48 kHz, or a count that the
# program refuses before any array of its size exists. "{name}" is a file
# of _fuzz_inputs, and "{dir}" the example's own directory.
_PIECES = {
    "state": (
        ["fock:0", "fock:1", "fock:3", "fock:12", "cat:0.5", "cat:-1,0.5", "cat:2.5,-1", "coherent:1,-0.5",
         "coherent:3,4", "psi:{psi}"],
        ["fock:-1", "fock:x", "fock:1e3", "fock:288", "fock", "cat:0", "cat:1e-6", "cat:nan", "cat:1,2,3",
         "cat:1e200", "coherent:inf", "coherent:1e200", "squeezed:1", "psi:{uneven_psi}", "psi:{missing}",
         "psi:{config}"],
    ),
    "grid": (
        ["regular:8:-5:5", "regular:16:-6:6", "regular:1:-5:5", "regular:4:-1:1", "gauss:8:4", "gauss:16:6"],
        ["regular:0:-5:5", "regular:8:5:-5", "regular:8:-inf:5", "regular:64:-1e308:1e308",
         "regular:100000:-5:5", "regular:16:-1e150:1e150", "regular:8", "gauss:8:0", "gauss:8:nan",
         "gauss:8:1e308", "gauss:16:1e150", "gauss:x:3", "hex:8"],
    ),
    "method": (["I", "II", "III", "IV"], ["V", "iv"]),
    "duration": (["0.05", "0.001", "1e-5"], ["0", "-1", "1e-300", "nan", "inf", "1e7", "x"]),
    "sr": (["8000", "48000", "1000", "1"], ["0", "-8000", "8000.5", "2147483648", "4294967295", "x"]),
    "channels": (["1", "2", "4"], ["3", "x"]),
    "frame": (["0.25", "0.05", "0.3", "2"], ["1e-5", "1e-300", "0", "-0.25", "nan", "1e305", "x"]),
    "segments": (
        ["0:-1:0.5", "0,0.5:-1:0.3;-1:-1.5:0.2", "0:0:0.5", "-2:2:0.4", "0:1e-8:0.5"],
        ["0:-1:0", "0:-1:-1", "0:-1:nan", "0:-1:1e-300", "0:-1:1e7", "0:nan:0.5", "0:1e300:0.5",
         "1e154:0:0.5", "0:1,1e154:0.5", "0:-1", "a:b:c", ""],
    ),
    "window": (["256", "2048", "8", "9", "4000"], ["7", "0", "4001", "100000", "x"]),
    "hop": (["128", "512", "4000"], ["0", "-1", "4001", "1e3", "x"]),
    "r": (["0", "1.5", "-3", "40", "1e8"], ["nan", "inf", "1e154", "-1e200", "1e308", "x"]),
    "p": (["0", "-1.5", "3", "-40", "1e8"], ["-inf", "1e154", "1e308", "x"]),
    "out": (["{dir}/out"], ["{dir}", "{dir}/missing/out", "{config}"]),
    "score": (["{dir}/score.json"], ["{dir}/out", "{dir}/missing/score.json"]),
    "field": (["{field}"], ["{nan_edge_field}", "{missing}", "{dir}", "{wav}"]),
    "audio": (["{wav}"], ["{missing}", "{config}", "{dir}"]),
    "config": (["{config}"], ["{missing}", "{dir}"]),
}

# Well-formed, then malformed values of each config key, by its type.
_CONFIG_VALUES = {
    "int": (["21", "1", "3", "101"], ["0", "2", "-1", "1000000001", "1.5", "x"]),
    "float": (["55", "110", "440", "1000", "7040"], ["0", "-1", "1e-300", "-1e308", "nan", "inf", "1e308", "x"]),
    "str": (["r0", "sigma_r", "r", "p", "sine", "triangle", "ricochet", "sul_ponticello"], ["x", ""]),
}


# Flags whose value is one number: a refusal of a malformed one names it.
_ONE_NUMBER_FLAGS = ("duration", "sr", "frame", "window", "hop", "r", "p")


def _draw_piece(draw, good_bad):
    """One well-formed piece five times in six, else one malformed piece;
    returns the piece and whether it is malformed."""
    good, bad = good_bad
    malformed = not draw(st.integers(0, 5))
    return draw(st.sampled_from(bad if malformed else good)), malformed


@pytest.fixture(scope="module")
def _fuzz_inputs(tmp_path_factory):
    """The files the pieces name, made once: a field and its sidecar, the
    same with a NaN edge, a 0.5 s WAV, a psi CSV and one whose x column is
    not uniform."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {name: str(d / name) for name in ("field", "nan_edge_field", "wav", "psi", "uneven_psi", "missing")}
    for name in ("field", "nan_edge_field"):
        assert cli_main(["field", "--state", "fock:0", "--grid", "regular:16:-5:5", "--out", files[name]]) == 0
    side = json.loads(Path(files["nan_edge_field"] + ".json").read_text())
    side["r_edges"][3] = math.nan
    Path(files["nan_edge_field"] + ".json").write_text(json.dumps(side))
    assert cli_main(["sweep", "--segments", "0:-1:0.5", "--sr", "8000", "--out", files["wav"]]) == 0
    rows = _psi_csv(Path(files["psi"]), 0, 257).read_text().splitlines()
    x, rest = rows[5].split(",", 1)
    rows[5] = f"{float(x) + 0.01!r},{rest}"
    Path(files["uneven_psi"]).write_text("\n".join(rows) + "\n")
    return files


@st.composite
def _fuzz_argv(draw):
    """A command, then each of its flags from _GRAMMAR drawn or left out,
    in drawn order, a required one rarely left out, and now and then a
    stray argument; returns (argv, config text) and, when its one malformed
    piece is the value of a one-number flag or a numeric config key, the
    same example with that piece well-formed, and the piece."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required = _REQUIRED[command].replace("--", "").split(", ")
    # sonify's note and sweep's path default to seconds of audio
    always = {"sonify": ["duration"], "sweep": ["segments"]}.get(command, [])
    flags = [
        flag for flag in _GRAMMAR[command][1]
        if flag in always or draw(st.integers(0, 9)) < (9 if flag in required else 5)
    ]
    # the example and its copy with every piece well-formed, and the
    # malformed pieces, each with whether it is one number
    argv, fixed, malformed = [command], [command], []

    def piece(good_bad, number):
        value, bad = _draw_piece(draw, good_bad)
        malformed.extend([(value, number)] if bad else [])
        return value, good_bad[0][0]

    for flag in draw(st.permutations(flags)):
        argv.append(f"--{flag}")
        fixed.append(f"--{flag}")
        if flag != "arpeggiate":
            value, good = piece(_PIECES[flag], flag in _ONE_NUMBER_FLAGS)
            argv.append(value)
            fixed.append(good)
    if draw(st.integers(0, 19)) == 0:
        at, stray = draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "stray", "--sr=8000"]))
        argv.insert(at, stray)
        fixed.insert(at, stray)
    keys = draw(st.lists(st.sampled_from([*_CONFIG_TYPES, "loudness", "# note", "no equals sign"]), max_size=3))
    config, fixed_config = "", ""
    for key in keys:
        if key in _CONFIG_TYPES:
            kind = _CONFIG_TYPES[key]
            value, good = piece(_CONFIG_VALUES[kind], kind != "str")
            config, fixed_config = config + f"{key}={value}\n", fixed_config + f"{key}={good}\n"
        else:
            config, fixed_config = config + key + "\n", fixed_config + key + "\n"
    one_number = len(malformed) == 1 and malformed[0][1]
    return argv, config, (fixed, fixed_config, malformed[0][0]) if one_number else None


def _run_fuzz_example(argv, config, inputs):
    """(exit code, stderr, warnings caught) of one example, run in its own
    directory."""
    with tempfile.TemporaryDirectory() as d:
        Path(d, "config").write_text(config)
        names = {**inputs, "dir": d, "config": str(Path(d, "config"))}
        argv = [piece.format(**names) for piece in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli_main(argv)
    return code, err.getvalue(), caught


def _names_value(line, piece):
    """Whether line names piece, as written or as its float's repr."""
    try:
        return piece in line or repr(float(piece)) in line
    except ValueError:
        return False


class TestGrammarFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=_fuzz_argv())
    def test_every_argv_exits_through_the_table(self, drawn, _fuzz_inputs):
        argv, config, rerun = drawn
        code, err, caught = _run_fuzz_example(argv, config, _fuzz_inputs)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code == 0:
            assert err == "", (argv, err)
        elif err.startswith("usage: quasitone"):
            assert code == 2 and ": error: " in err.splitlines()[-1], (argv, err)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)], argv
        # a refusal that the one malformed number alone causes names it
        if code == 2 and rerun is not None:
            fixed, fixed_config, piece = rerun
            if _run_fuzz_example(fixed, fixed_config, _fuzz_inputs)[0] != 2:
                assert _names_value(err.splitlines()[-1], piece), (argv, config, err)


# Every one-number flag of every command and every numeric config key, with
# numbers malformed for it: nan, inf, or past its range. The rest of each
# command is well-formed and small, so that only that number can refuse it.
_SMALL_ARGV = {
    "eval": ["--state", "fock:0", "--r", "0", "--p", "0"],
    "sonify": ["--state", "fock:1", "--method", "IV", "--duration", "0.05", "--sr", "8000", "--out", "{dir}/out"],
    "score": ["--state", "fock:1", "--method", "I", "--duration", "0.05", "--out", "{dir}/out"],
    "sweep": ["--segments", "0:-1:0.5", "--sr", "8000", "--out", "{dir}/out"],
    "sonogram": ["--audio", "{wav}", "--out", "{dir}/out"],
}
_MALFORMED_NUMBERS = {
    "duration": ["0", "-1", "nan", "inf"],
    "sr": ["0", "-8000", "8000.5", "2147483648", "nan", "inf"],
    "channels": ["0", "3", "nan"],
    "frame": ["0", "-0.25", "1e-300", "1e305", "nan", "inf"],
    "window": ["7", "0", "nan", "inf"],
    "hop": ["0", "-1", "nan", "inf"],
    "r": ["nan", "inf", "-inf"],
    "p": ["nan", "inf", "-inf"],
}
# a note too short for one sample, or longer than MAX_SAMPLES allows; a
# score has no samples
_MALFORMED_NOTES = ["1e-300", "1e7"]
# mapping IV of coherent:3,4 (r0 = 3): f0_slope 1e308 overflows the envelope
# center, and q_slope 1e-300 and 1e308 make a width too narrow or too wide
# to square
_MALFORMED_CONFIG = {
    "f_lo": ["0", "-1", "7040", "nan", "inf"],
    "f_hi": ["1", "nan", "inf"],
    "f0_base": ["nan", "inf", "-inf"],
    "f0_slope": ["1e308", "nan", "inf"],
    "q_slope": ["0", "-1", "1e-300", "1e308", "nan", "inf"],
    "n_osc": ["0", "2", "-1", "1000000001", "nan"],
    "ref_pitch": ["0", "-1", "nan", "inf"],
}
_CONFIG_ARGV = ["sonify", "--state", "coherent:3,4", "--method", "IV", "--duration", "0.05", "--sr", "8000",
                "--out", "{dir}/out", "--config", "{config}"]


def _malformed_number_cases():
    for command, argv in sorted(_SMALL_ARGV.items()):
        for flag in sorted(set(_GRAMMAR[command][1]) & set(_MALFORMED_NUMBERS)):
            notes = _MALFORMED_NOTES if (command, flag) == ("sonify", "duration") else []
            for value in _MALFORMED_NUMBERS[flag] + notes:
                if f"--{flag}" in argv:
                    at = argv.index(f"--{flag}") + 1
                    case = [command, *argv[:at], value, *argv[at + 1 :]]
                else:
                    case = [command, *argv, f"--{flag}", value]
                yield pytest.param(case, "", value, id=f"{command}--{flag}={value}")
    for key, values in _MALFORMED_CONFIG.items():
        for value in values:
            yield pytest.param(_CONFIG_ARGV, f"{key}={value}\n", value, id=f"config-{key}={value}")


class TestMalformedNumbers:
    def test_every_number_has_cases(self):
        flags = {flag for command in _SMALL_ARGV for flag in _GRAMMAR[command][1]}
        assert flags & set(_MALFORMED_NUMBERS) == set(_MALFORMED_NUMBERS) == {*_ONE_NUMBER_FLAGS, "channels"}
        assert set(_GRAMMAR) - set(_SMALL_ARGV) == {"field", "moments"}  # no number among their flags
        assert set(_MALFORMED_CONFIG) == {key for key, kind in _CONFIG_TYPES.items() if kind != "str"}

    @pytest.mark.parametrize("argv", [[c, *a] for c, a in sorted(_SMALL_ARGV.items())] + [_CONFIG_ARGV])
    def test_small_argv_runs(self, argv, _fuzz_inputs):
        code, err, _ = _run_fuzz_example(argv, "n_osc=21\n", _fuzz_inputs)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv, config, value", _malformed_number_cases())
    def test_refusal_names_the_number(self, argv, config, value, _fuzz_inputs):
        code, err, _ = _run_fuzz_example(argv, config, _fuzz_inputs)
        assert code == 2 and "Traceback" not in err, (argv, config, err)
        assert _names_value(err.splitlines()[-1], value), (argv, config, err)


class TestOneParser:
    def test_calls_in_one_process_do_not_leak(self, tmp_path, capsys):
        evaluation = ["eval", "--state", "fock:0", "--r", "0", "--p", "0"]
        assert cli_main([]) == 2
        assert "usage:" in capsys.readouterr().err
        assert cli_main(evaluation) == 0
        first = capsys.readouterr().out
        assert float(first) == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert cli_main(["--help"]) == 0
        capsys.readouterr()
        bad = ["sonify", "--state", "fock:0", "--method", "V", "--out", str(tmp_path / "x.wav")]
        assert cli_main(bad) == 2
        assert "invalid choice: 'V'" in capsys.readouterr().err
        assert cli_main(evaluation) == 0
        assert capsys.readouterr().out == first
        assert not any(tmp_path.iterdir())

    def test_no_parser_is_built_per_call(self, monkeypatch, capsys):
        import argparse

        def refuse(self, *args, **kwargs):
            raise AssertionError("cli_main built an ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert cli_main(["eval", "--state", "fock:0", "--r", "0", "--p", "0"]) == 0
        assert cli_main(["sonify", "--help"]) == 0
        assert cli_main(["score", "--method", "V"]) == 2
        capsys.readouterr()


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
        code = (
            "import sys, quasitone.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env(),
            check=True,
        )
        assert res.stdout.strip() == "[]"


class TestReadme:
    def test_library_example_runs(self, tmp_path, monkeypatch, capsys):
        # the documented API: a deletion that breaks the example fails here
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = [b.split("\n", 1)[1] for b in text.split("```")[1::2] if b.startswith("python\n")]
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("33 ")
        assert read_wav(tmp_path / "cat.wav").samples.shape == (6 * 48000, 2)
        assert len(json.loads((tmp_path / "cat.json").read_text())) == 33
