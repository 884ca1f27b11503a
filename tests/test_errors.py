"""errors.refuse, the one path by which an array check names the first
value it refused, and the bytes of every message that goes through it;
the scalar refusals that name their value, and the files refused for
bytes that are not UTF-8, named with their path."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import psi_grid
from quasitone import (
    AudioBuffer,
    DegenerateMoments,
    GridSpec,
    InvalidBounds,
    MapConfig,
    MassTooLow,
    PartialBank,
    SampledState,
    Score,
    SonogramStream,
    SweepTrajectory,
    WignerField,
    compute_moments,
    harmonic_eigenstate,
    quarter_tone_index,
    render_sweep,
    synth,
    write_field,
)
from quasitone.cli import cli_main
from quasitone.errors import refuse
from quasitone.sonify import envelope
from quasitone.textfmt import fmt17_column


class TestRefuse:
    def test_names_the_first_refused_element_as_a_python_scalar(self):
        values = np.array([[1.0, -2.0], [np.nan, -3.0]])
        with pytest.raises(ValueError, match=r"^got -2\.0$"):
            refuse(values, values > 0, ValueError, "got {!r}")

    def test_returns_when_every_element_passes(self):
        assert refuse(np.arange(3), np.ones(3, dtype=bool), ValueError, "{}") is None
        assert refuse(np.empty(0), np.empty(0, dtype=bool), ValueError, "{}") is None

    def test_takes_scalars_and_their_format(self):
        with pytest.raises(MassTooLow, match=r"^mass 0\.2500$"):
            refuse(np.float64(0.25), np.float64(0.25) > 0.5, MassTooLow, "mass {:.4f}")

    def test_no_module_writes_the_refusal_by_hand(self):
        # the idioms errors.refuse replaced: the values a mask refuses,
        # selected with [~...], then a test of their count, or selected in
        # the raise itself
        idiom = re.compile(r"(\w+) = [^\n]*\[~[^\n]*\n\s*if (not )?\1\.size|raise [^\n]*\[~")
        src = Path(__file__).parent.parent / "src" / "quasitone"
        found = {p.name for p in src.glob("*.py") if p.name != "errors.py" and idiom.search(p.read_text())}
        assert found == set()


def _bank(**arrays):
    given = {"freq": [440.0], "amp": [1.0], "phase": [0.0], "triangle": [False], **arrays}
    return PartialBank(**given, duration=0.01, negative=False)


def _score(**columns):
    given = {
        "onset": [0.0], "duration": [1.0], "pitch_index": [0], "dynamic": [1.0],
        "technique": ["ordinario"], "gains": [[1.0]], "ref_pitch": 440.0, **columns,
    }
    return Score(**given)


def _field(values, r_edges=(-1.0, -1 / 3, 1 / 3, 1.0), p_edges=(0.0, 1.0)):
    return WignerField(GridSpec("regular", np.array(r_edges), np.array(p_edges)), np.array(values, dtype=float))


# Each message that goes through refuse, its class and text, reached from a
# public entry point. They read the same before refuse existed.
_REFUSALS = {
    "second central moment": (
        lambda: compute_moments(_field([[0.0], [2.0], [0.0]])),
        DegenerateMoments, "second central moment 0.0 is not positive",
    ),
    "third central moment": (
        lambda: compute_moments(_field([[1e-300], [1.0], [1e-300]], r_edges=(-2e103, -1, 1, 2e103))),
        DegenerateMoments, "third central moment nan is not finite",
    ),
    "fourth central moment": (
        lambda: compute_moments(_field([[1e-300], [1.0], [1e-300]], r_edges=(-2e80, -1, 1, 2e80))),
        DegenerateMoments, "fourth central moment inf is not finite",
    ),
    "signed mass": (
        lambda: compute_moments(_field([[0.1], [0.2], [-0.1]])),
        MassTooLow, "signed mass 0.1333 is at or below 0.5",
    ),
    "write_field": (
        lambda: write_field(_field([[1.0], [np.inf], [np.nan]]), "never.csv"),
        ValueError, "non-finite value cannot be serialized: inf",
    ),
    "fmt17_column": (
        lambda: fmt17_column([1.0, -np.inf, 2.0]),
        ValueError, "non-finite value cannot be serialized: -inf",
    ),
    "synth gains": (
        lambda: synth(_bank(), sample_rate=8000, gains=[[0.5, np.nan]]),
        ValueError, "gains must be finite, got nan",
    ),
    "bank frequency": (
        lambda: _bank(freq=[-0.0]), ValueError, "frequency must be positive and finite, got -0.0",
    ),
    "bank phase": (lambda: _bank(phase=[np.inf]), ValueError, "phase must be finite, got inf"),
    "bank amplitude": (lambda: _bank(amp=[1.5]), ValueError, "amplitude must lie in [0, 1], got 1.5"),
    "envelope": (
        lambda: envelope([0.0, 0.0], [1.0, -0.0], MapConfig()),
        DegenerateMoments, "sigma_r = -0.0 cannot shape an envelope",
    ),
    "quarter_tone_index": (
        lambda: quarter_tone_index([440.0, np.nan]), ValueError, "frequency must be positive and finite, got nan",
    ),
    "score int64": (
        lambda: _score(pitch_index=[-2.0**63 - 4096]),
        ValueError, "pitch_index must be finite and within int64, got -9.22337203685478e+18",
    ),
    "score onset": (lambda: _score(onset=[-1.0]), ValueError, "onset must be finite and >= 0, got -1.0"),
    "score pitch": (lambda: _score(pitch_index=[2.5]), ValueError, "pitch_index must be integral, got 2.5"),
    "score duration": (
        lambda: _score(duration=[np.nan]), ValueError, "duration must be finite and positive, got nan",
    ),
    "score freq_hz": (
        lambda: _score(pitch_index=[-1e6]), ValueError, "freq_hz must be positive and finite, got 0.0",
    ),
    "score dynamic": (lambda: _score(dynamic=[2.0]), ValueError, "dynamic must lie in [0, 1], got 2.0"),
    "score gains": (lambda: _score(gains=[[np.inf]]), ValueError, "gains must be finite, got inf"),
    "score technique": (
        lambda: _score(technique=["legato"]),
        ValueError, "technique must be one of ('ordinario', 'sul_ponticello', 'ricochet'), got 'legato'",
    ),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_each_refusal_keeps_its_class_and_bytes(name):
    call, error, message = _REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def _sampled(x):
    x = np.asarray(x, dtype=float)
    return SampledState(x, harmonic_eigenstate(0, psi_grid())[: x.size])


# The refusals that named no value, and one that named a value out of
# column order: each names the first edge, sample, step or value at fault.
_NAMED = {
    "grid edge not finite": (
        lambda: GridSpec("regular", np.array([0.0, 1.0, np.nan, -np.inf]), np.array([0.0, 1.0])),
        InvalidBounds, "r_edges contains non-finite value nan",
    ),
    "grid edges not increasing": (
        lambda: GridSpec("regular", np.array([0.0, 1.0]), np.array([0.0, 1.0, 1.0, 0.5])),
        InvalidBounds, "p_edges must increase strictly, got 1.0 at or below the edge before it",
    ),
    "sample not finite": (
        lambda: SampledState(np.arange(8.0), [1.0] * 5 + [math.nan] * 3),
        ValueError, "x and psi must be finite, but the sample at x = 5.0 is not",
    ),
    "samples not increasing": (
        lambda: _sampled([0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 6.0, 7.0]),
        ValueError, "sample grid must be strictly increasing, got 3.0 at or below the x before it",
    ),
    "samples not uniform": (
        lambda: _sampled([0.0, 0.5, 1.0, 1.5, 2.25, 2.5, 3.0, 3.5]),
        ValueError, "sample grid must be uniform, got a step of 0.75 after a first step of 0.5",
    ),
    # np.unique sorts NaN's bits before -inf's
    "fmt17_column in column order": (
        lambda: fmt17_column([1.0, -np.inf, np.nan]),
        ValueError, "non-finite value cannot be serialized: -inf",
    ),
    "sonogram window": (
        lambda: SonogramStream(AudioBuffer(np.zeros(64), 8000), 7, 2),
        ValueError, "window must be >= 8 samples, got 7",
    ),
    "sonogram hop": (
        lambda: SonogramStream(AudioBuffer(np.zeros(64), 8000), 8, 0),
        ValueError, "hop must be >= 1 sample, got 0",
    ),
    "f0_base": (lambda: MapConfig(f0_base=math.nan), ValueError, "f0_base must be finite, got nan"),
    "f0_slope": (lambda: MapConfig(f0_slope=-math.inf), ValueError, "f0_slope must be finite, got -inf"),
    "negative_technique": (
        lambda: MapConfig(negative_technique="x"),
        ValueError, "negative_technique must be one of ('sul_ponticello', 'ricochet'), got 'x'",
    ),
    "note too short": (
        lambda: synth(PartialBank([440.0], [1.0], [0.0], [False], duration=1e-5, negative=False), sample_rate=48000),
        ValueError, "a note of 1e-05 s gives 0 samples at 48000 Hz; it needs at least 1",
    ),
    "trajectory too short": (
        lambda: render_sweep(SweepTrajectory(((0j, -1 + 0j, 0.1),)), sample_rate=8000, frame_seconds=0.5),
        ValueError, "a trajectory of 0.1 s gives 800 samples at 8000 Hz, fewer than the 4000 of one frame",
    ),
}


@pytest.mark.parametrize("name", list(_NAMED))
def test_each_refusal_names_its_first_bad_value(name):
    call, error, message = _NAMED[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


class TestNamedOnTheCommandLine:
    def test_sidecar_edge_that_is_nan_is_2_naming_it(self, tmp_path, capsys):
        fp = tmp_path / "f.csv"
        assert cli_main(["field", "--state", "fock:0", "--out", str(fp)]) == 0
        side = Path(f"{fp}.json")
        side.write_text(side.read_text().replace('"r_edges": [-5', '"r_edges": [NaN', 1))
        capsys.readouterr()
        assert cli_main(["moments", "--field", str(fp)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {side}: malformed sidecar: InvalidBounds('r_edges contains non-finite value nan')\n"
        )

    def test_psi_whose_x_is_not_uniform_is_2_naming_the_step(self, tmp_path, capsys):
        x = np.linspace(-10.5, 10.5, 257)
        psi = harmonic_eigenstate(0, x)
        x[100] += 0.01
        fp = tmp_path / "psi.csv"
        fp.write_text("x,re,im\n" + "".join(f"{a!r},{b!r},0.0\n" for a, b in zip(x.tolist(), psi.tolist())))
        for argv in (["eval", "--r", "0", "--p", "0"], ["field", "--out", str(tmp_path / "f.csv")]):
            assert cli_main([*argv, "--state", f"psi:{fp}"]) == 2
            step, first = float(x[100] - x[99]), float(x[1] - x[0])
            assert capsys.readouterr() == (
                "", f"error: state 'psi:{fp}': sample grid must be uniform, got a step of {step!r} "
                f"after a first step of {first!r}\n"
            )
        assert not (tmp_path / "f.csv").exists()


class TestNotUtf8:
    """A file whose bytes are not UTF-8 is refused naming its path, exit 2."""

    BYTES = b"RIFF\xce\x00\x00\x00WAVEfmt "
    DECODE = "not UTF-8 text: 'utf-8' codec can't decode byte 0xce in position 4: invalid continuation byte"

    def test_field_csv(self, tmp_path, capsys):
        bad = tmp_path / "s.wav"
        bad.write_bytes(self.BYTES)
        assert cli_main(["moments", "--field", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: {self.DECODE}\n")

    def test_field_sidecar(self, tmp_path, capsys):
        fp = tmp_path / "f.csv"
        assert cli_main(["field", "--state", "fock:0", "--out", str(fp)]) == 0
        Path(f"{fp}.json").write_bytes(self.BYTES)
        capsys.readouterr()
        assert cli_main(["moments", "--field", str(fp)]) == 2
        assert capsys.readouterr() == ("", f"error: {fp}.json: {self.DECODE}\n")

    def test_config(self, tmp_path, capsys):
        bad = tmp_path / "s.wav"
        bad.write_bytes(self.BYTES)
        out = tmp_path / "x.wav"
        argv = ["sonify", "--state", "fock:1", "--method", "IV", "--config", str(bad), "--out", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", f"error: config: {bad}: {self.DECODE}\n")
        assert not out.exists()

    def test_psi_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(self.BYTES)
        assert cli_main(["eval", "--state", f"psi:{bad}", "--r", "0", "--p", "0"]) == 2
        assert capsys.readouterr() == ("", f"error: state 'psi:{bad}': {bad}: {self.DECODE}\n")
