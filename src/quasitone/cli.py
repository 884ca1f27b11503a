"""Command line front end.

Subcommands cover the whole pipeline: eval, field, moments, sonify, sweep,
sonogram, score; sonify, sweep and score also read a --config file of
mapping constants. cli_main alone turns a fault into an exit code, by its
exception class:

  0  success
  2  ValueError: an argument, grammar, config or out-of-range value,
     including a non-finite one, or a psi: or --config file that cannot
     be read (UsageFault is a ValueError)
  3  CoverageError: the grid holds too little of the state's W^2 or does
     not resolve it, or a sum of the gate is not finite
  4  any other QuasitoneError, or an OSError: numeric or I/O failures
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .analysis import compute_moments, moments_to_json, write_moments
from .errors import CoverageError, QuasitoneError
from .grids import (
    build_gaussian,
    build_regular,
    coverage,
    default_grid,
    read_field,
    require_coverage,
    sample_field,
    sidecar_path,
    write_field,
)
from .render import (
    DEFAULT_FRAME_SECONDS,
    DEFAULT_HOP,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_WINDOW,
    SweepTrajectory,
    read_wav,
    render_sweep,
    stft_sonogram,
    sweep_cfg,
    synth,
    write_sonogram_csv,
    write_wav,
)
from .score import bank_to_events, partial_gains, write_score
from .sonify import (
    DEFAULT_DURATION,
    MapConfig,
    load_map_config,
    method1_grid,
    method2_extremes,
    method3_sections,
    method4_moments,
)
from .states import CatState, CoherentState, FockState, SampledState
from .textfmt import fmt17, read_csv_table, written


class UsageFault(ValueError):
    """Grammar or config problem; exits 2 like every ValueError."""


# Exit code of each fault class that cli_main reports; the first match wins.
_EXIT_CODES = {ValueError: 2, CoverageError: 3, QuasitoneError: 4, OSError: 4}


def _parse_complex_pair(text, what):
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise UsageFault(f"{what}: expected <re> or <re,im>, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise UsageFault(f"{what}: {exc}") from exc
    return complex(re, im)


def parse_state(text):
    """State grammar: fock:<m> | cat:<re[,im]> | coherent:<re[,im]> | psi:<csv>."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageFault(f"state {text!r} missing ':'")
    try:
        if kind == "fock":
            return FockState(int(rest))
        if kind == "cat":
            return CatState(_parse_complex_pair(rest, "cat shift"))
        if kind == "coherent":
            return CoherentState(_parse_complex_pair(rest, "coherent displacement"))
        if kind == "psi":
            return _read_psi_csv(rest)
    except UsageFault:
        raise
    except (ValueError, QuasitoneError) as exc:
        raise UsageFault(f"state {text!r}: {exc}") from exc
    raise UsageFault(f"unknown state kind {kind!r}")


def _read_psi_csv(path):
    """Wavefunction CSV with header x,re,im and one sample per row."""
    try:
        x, re, im = read_csv_table(path, "x,re,im").T  # SampledState copies x
    except OSError as exc:
        raise UsageFault(f"cannot read wavefunction: {exc}") from exc
    psi = re.astype(complex)  # re + 1j * im would turn a real part of -0.0 into 0.0
    psi.imag = im
    return SampledState(x, psi)


def parse_grid(text, state):
    """Grid grammar: regular:<n>:<min>:<max> | gauss:<n>:<span_sigmas>; a
    fault of the text is a UsageFault, and one of the state's default field,
    whose moments shape a gauss: grid, the state's own."""
    parts = text.split(":")
    gauss = parts[0] == "gauss" and len(parts) == 3
    moments = compute_moments(sample_field(state, default_grid(state))) if gauss else None
    try:
        if parts[0] == "regular" and len(parts) == 4:
            n, lo, hi = int(parts[1]), float(parts[2]), float(parts[3])
            return build_regular(lo, hi, lo, hi, n, n)
        if gauss:
            n, span = int(parts[1]), float(parts[2])
            return build_gaussian(moments, n, n, span_sigmas=span)
    except (ValueError, QuasitoneError) as exc:
        raise UsageFault(f"grid {text!r}: {exc}") from exc
    raise UsageFault(f"grid {text!r}: expected regular:<n>:<min>:<max> or gauss:<n>:<span>")


def _load_cfg(args, base: MapConfig) -> MapConfig:
    """The command's default config, overridden by --config when given."""
    if args.config:
        try:
            return load_map_config(args.config, base=base)
        except (OSError, ValueError) as exc:
            raise UsageFault(f"config: {exc}") from exc
    return base


def _sampled_field(args):
    """The --state field on the --grid grid, or on the state's default grid."""
    state = parse_state(args.state)
    grid = parse_grid(args.grid, state) if args.grid else default_grid(state)
    return sample_field(state, grid)


def _bank_for(method, field, cfg, duration):
    if method == "IV":
        return method4_moments(compute_moments(field), cfg, duration)
    # looked up per call, so that wrappers replacing these names see it
    mapping = {"I": method1_grid, "II": method2_extremes, "III": method3_sections}[method]
    return mapping(field, cfg, duration)


def _parse_segments(text):
    segs = []
    for chunk in text.split(";"):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise UsageFault(f"segment {chunk!r}: expected <start>:<end>:<seconds>")
        a = _parse_complex_pair(parts[0], "segment start")
        b = _parse_complex_pair(parts[1], "segment end")
        try:
            secs = float(parts[2])
        except ValueError as exc:
            raise UsageFault(f"segment {chunk!r}: {exc}") from exc
        segs.append((a, b, secs))
    return SweepTrajectory(tuple(segs))


def _build_parser():
    top = argparse.ArgumentParser(
        prog="quasitone", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = top.add_subparsers(dest="command", required=True)

    def mapping(name, help_text, channels):
        """sonify and score: the flags of one mapping of a state's field."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--state", required=True)
        p.add_argument("--method", required=True, choices=["I", "II", "III", "IV"])
        p.add_argument("--grid")
        p.add_argument("--duration", type=float, default=DEFAULT_DURATION)
        p.add_argument("--channels", type=int, default=channels, choices=[1, 2, 4])
        p.add_argument("--out", required=True)
        return p

    p = sub.add_parser("eval", help="print one Wigner value")
    p.add_argument("--state", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("field", help="sample a state onto a grid and write CSV + sidecar")
    p.add_argument("--state", required=True)
    p.add_argument("--grid")
    p.add_argument("--out", required=True)

    p = sub.add_parser("moments", help="statistics of a stored field as JSON")
    p.add_argument("--field", required=True)
    p.add_argument("--out")

    p = mapping("sonify", "render one mapping of a state to WAV", channels=1)
    p.add_argument("--sr", type=int, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--score")

    p = sub.add_parser("sweep", help="render a shift trajectory to WAV")
    p.add_argument("--out", required=True)
    p.add_argument("--sr", type=int, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--frame", type=float, default=DEFAULT_FRAME_SECONDS)
    p.add_argument("--channels", type=int, default=1, choices=[1, 2, 4])
    p.add_argument("--segments", help="<start>:<end>:<seconds>[;...] with complex endpoints re[,im]")

    p = sub.add_parser("sonogram", help="short-time spectrum of a WAV as CSV")
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--hop", type=int, default=DEFAULT_HOP)

    p = mapping("score", "transcribe one mapping of a state to JSON events", channels=2)
    p.add_argument("--arpeggiate", action="store_true", help="stagger method I's cell events by p column")

    # only the commands that map a field to sound read a config
    for name in ("sonify", "sweep", "score"):
        sub.choices[name].add_argument("--config", help="key=value text file of mapping constants")
    # every single-dash word but -h is a value (-inf, -1e-3, a path from a
    # negative shift): argparse takes only plain decimals such as -1 for one
    for parser in sub.choices.values():
        parser._negative_number_matcher = re.compile(r"-[^-]")
    return top


# Built once at import; every cli_main call parses with it.
_PARSER = _build_parser()


def _refuse_shared_files(args):
    """UsageFault naming both flags when a file the command writes is also
    another of its outputs or one of its inputs, compared by real path; a
    device or other non-regular file may be named twice."""
    out, field = getattr(args, "out", None), getattr(args, "field", None)
    kind, _, psi = getattr(args, "state", "").partition(":")
    writes = {
        "--out": out,
        "--score": getattr(args, "score", None),
        "the --out sidecar": args.command == "field" and sidecar_path(out),
    }
    reads = {
        "--field": field,
        "the --field sidecar": field and sidecar_path(field),
        "--audio": getattr(args, "audio", None),
        "--config": getattr(args, "config", None),
        "--state": kind == "psi" and psi,
    }
    written_by = {}
    for flag, path in [*writes.items(), *reads.items()]:
        if not path or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        real = os.path.realpath(path)
        if real in written_by:
            raise UsageFault(f"{written_by[real]} and {flag} name the same file {path!r}")
        if flag in writes:
            written_by[real] = flag


def _run(args) -> int:
    _refuse_shared_files(args)
    if args.command == "eval":
        state = parse_state(args.state)
        for flag, value in (("--r", args.r), ("--p", args.p)):
            if not math.isfinite(value):
                raise UsageFault(f"{flag} must be finite, got {value!r}")
        from .states import evaluate

        print(fmt17(float(evaluate(state, args.r, args.p))))
        return 0

    if args.command == "field":
        field = _sampled_field(args)
        cov = coverage(field)
        write_field(field, args.out)
        print(f"coverage {cov.share:.6f}")
        # the files stay for inspection; the gate still sets the exit code
        require_coverage(cov)
        return 0

    if args.command == "moments":
        moments = compute_moments(read_field(args.field))
        if args.out:
            write_moments(moments, args.out)
        else:
            sys.stdout.write(moments_to_json(moments))
        return 0

    if args.command == "sweep":
        cfg = _load_cfg(args, sweep_cfg())
        trajectory = _parse_segments(args.segments) if args.segments else None
        buffer = render_sweep(
            trajectory=trajectory,
            cfg=cfg,
            sample_rate=args.sr,
            frame_seconds=args.frame,
            channels=args.channels,
        )
        write_wav(buffer, args.out)
        return 0

    if args.command == "sonogram":
        # checks window, hop and length before the CSV is opened
        sono = stft_sonogram(read_wav(args.audio), window=args.window, hop=args.hop)
        write_sonogram_csv(sono, args.out)
        return 0

    # sonify and score, the commands that map the state's field to a bank
    if args.command == "score" and args.arpeggiate and args.method != "I":
        raise UsageFault(
            f"--arpeggiate staggers the per-cell events of method I; method {args.method} "
            f"has no cells to stagger"
        )
    cfg = _load_cfg(args, MapConfig())
    field = _sampled_field(args)
    require_coverage(coverage(field))
    bank = _bank_for(args.method, field, cfg, args.duration)
    if args.command == "score":
        score = bank_to_events(bank, field, cfg, channels=args.channels, arpeggiate=args.arpeggiate)
        write_score(score, args.out)
        return 0
    gains = None if args.channels == 1 else partial_gains(bank, field, args.channels)
    score = bank_to_events(bank, field, cfg, channels=args.channels) if args.score else None
    # the WAV and the --score file are written together, or neither
    with written(*((args.out, args.score) if args.score else (args.out,))) as paths:
        write_wav(synth(bank, sample_rate=args.sr, gains=gains), paths[0])
        if score is not None:
            write_score(score, paths[1])
    return 0


def cli_main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
