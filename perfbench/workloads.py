"""The benchmark's workloads: seeded inputs and the command list of one pass.

A pass is the fixed command list a user would run to get a workload's
artifacts. Every argv names files relative to the pass directory, so the
same seed gives the same argv, the same inputs and (the program being
deterministic) the same output bytes in every pass.

The seed changes the states, shifts and leg lengths, never the amount of
work: each workload draws its parameters from ranges chosen so that the
grid sizes, partial counts, sample counts and quadrature sizes stay fixed
and the cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracles

WORKLOADS = ("sweep", "gallery", "transform")


@dataclass(frozen=True)
class Step:
    """One command line plus what its outputs must satisfy."""

    argv: tuple[str, ...]
    expect_rc: int = 0
    outputs: tuple[str, ...] = ()  # files written, hashed across passes
    checks: tuple = ()  # (oracle function, keyword arguments) pairs


@dataclass(frozen=True)
class Plan:
    inputs: dict[str, str]  # relative path -> text, written during set-up
    steps: tuple[Step, ...]


def build_plan(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[f"_{workload}"](np.random.default_rng([seed, WORKLOADS.index(workload)]))


# --- sweep ---------------------------------------------------------------
# Why: the sweep is the headline artifact of acceptance criterion 11. One
# pass renders a seeded three-leg shift trajectory that starts at shift 0,
# so it crosses the number-state handoff, then takes its sonogram. The time
# goes to per-frame field sampling, moments and oscillator banks (160 frames
# of 0.25 s with 21 partials), the STFT and the sonogram CSV writer. There
# is no transform, coverage gate, mapping I or score here. The path is 20 s
# instead of the default 273 s so that a run holds several passes.

SWEEP_SECONDS = 20.0


def _sweep(rng) -> Plan:
    ends = [-rng.uniform(0.8, 1.2), -rng.uniform(1.8, 2.2), -rng.uniform(2.7, 3.0)]
    first = 0.5 * int(rng.integers(11, 17))
    second = 0.5 * int(rng.integers(11, 17))
    legs = [(0.0, ends[0], first), (ends[0], ends[1], second),
            (ends[1], ends[2], SWEEP_SECONDS - first - second)]
    segments = ";".join(f"{a!r}:{b!r}:{secs!r}" for a, b, secs in legs)
    steps = (
        Step(
            ("sweep", "--out", "sweep.wav", "--segments", segments),
            outputs=("sweep.wav",),
            checks=(
                (oracles.wav, dict(path="sweep.wav", seconds=SWEEP_SECONDS, channels=1)),
                (oracles.sweep_lines, dict(path="sweep.wav", legs=legs)),
            ),
        ),
        Step(
            ("sonogram", "--audio", "sweep.wav", "--out", "sweep_sono.csv"),
            outputs=("sweep_sono.csv",),
            checks=((oracles.sonogram_csv, dict(path="sweep_sono.csv", wav="sweep.wav")),),
        ),
    )
    return Plan(inputs={}, steps=steps)


# --- gallery -------------------------------------------------------------
# Why: many short commands whose time is spent in render.synth on long
# notes with many partials: mapping I's 900 sines and triangle banks whose
# odd harmonics run up to Nyquist. Around that sit the 900 Partial objects
# of mapping I, the field and score writers and the closed-form coverage
# gate, which misses once per state and then hits. No transform, no sweep.
# For an oscillator-kernel change this is the opposite of `sweep`: few
# calls with many samples each instead of many 0.25 s frames.

NOTE_SECONDS = 0.4
MAPPINGS = (("I", "sine.cfg", 900), ("II", "triangle.cfg", 2), ("III", "triangle.cfg", 4),
            ("IV", "sine.cfg", 21), ("IV", "triangle.cfg", 21))
CHANNELS = (1, 2, 4)
ARPEGGIO_EVENTS = 900  # mapping I on the default 64 x 64 grid keeps the 900 loudest cells


def _polar(rng, lo, hi, angle_lo, angle_hi):
    radius = rng.uniform(lo, hi)
    angle = rng.uniform(angle_lo, angle_hi)
    return f"{radius * math.cos(angle)!r},{radius * math.sin(angle)!r}"


def _gallery(rng) -> Plan:
    # number states 0, 2 and 5, one cat and one coherent state, in seeded
    # order; cat and coherent peaks stay near r = 0 so that the mapping IV
    # envelope centre, and with it the triangle harmonic count and the cost
    # of a pass, varies little from seed to seed
    states = [f"fock:{m}" for m in (0, 2, 5)] + [
        "cat:" + _polar(rng, 1.0, 1.4, 0.4 * math.pi, 0.6 * math.pi),
        "coherent:" + _polar(rng, 0.3, 0.8, 0.4 * math.pi, 0.6 * math.pi),
    ]
    rng.shuffle(states)
    steps = []
    k = 0
    for i, state in enumerate(states):
        fld = f"field_{i}.csv"
        steps.append(Step(("field", "--state", state, "--out", fld),
                          outputs=(fld, fld + ".json"),
                          checks=((oracles.field, dict(path=fld)),)))
        mom = f"moments_{i}.json"
        steps.append(Step(("moments", "--field", fld, "--out", mom), outputs=(mom,),
                          checks=((oracles.moments, dict(path=mom)),)))
        for j, (method, cfg, n_partials) in enumerate(MAPPINGS):
            channels = CHANNELS[k % len(CHANNELS)]
            k += 1
            wav, score = f"note_{i}_{j}.wav", f"note_{i}_{j}.json"
            steps.append(Step(
                ("sonify", "--state", state, "--method", method, "--config", cfg,
                 "--duration", repr(NOTE_SECONDS), "--channels", str(channels),
                 "--out", wav, "--score", score),
                outputs=(wav, score),
                checks=((oracles.wav, dict(path=wav, seconds=NOTE_SECONDS, channels=channels)),
                        (oracles.score, dict(path=score, events=n_partials,
                                             seconds=NOTE_SECONDS))),
            ))
        arp = f"arpeggio_{i}.json"
        steps.append(Step(
            ("score", "--state", state, "--method", "I", "--duration", repr(NOTE_SECONDS),
             "--arpeggiate", "--out", arp),
            outputs=(arp,),
            checks=((oracles.score, dict(path=arp, events=ARPEGGIO_EVENTS,
                                         seconds=NOTE_SECONDS)),),
        ))
    # a window far too small for the state: the coverage gate must refuse it
    steps.append(Step(
        ("sonify", "--state", "fock:1", "--method", "IV", "--grid", "regular:8:-0.5:0.5",
         "--duration", repr(NOTE_SECONDS), "--out", "refused.wav"),
        expect_rc=3,
        checks=((oracles.absent, dict(path="refused.wav")),),
    ))
    inputs = {"sine.cfg": "waveform=sine\n", "triangle.cfg": "waveform=triangle\n"}
    return Plan(inputs=inputs, steps=tuple(steps))


# --- transform -----------------------------------------------------------
# Why: sampled wavefunctions go through the dense quadrature transform,
# both on the 64 x 64 default grid and in the 512 x 512 coverage reference,
# which is nearly all of the time; render is idle. Each parsed SampledState
# hashes by identity, so the coverage cache always misses. Each state also
# gets a one-point `eval` at the origin, checked against criterion 02. Two node counts
# show how the cost scales with the sample count. They are far below the
# 2049-node default (46 s per state) so that a run holds several passes; the
# span 10.5 is the narrowest that still covers the reference window, which
# keeps each count within 1e-6 of the closed form for the states drawn.

PSI_SPAN = 10.5
PSI_NODES = ((257, 4), (193, 2))  # node count, eigenstates 0..n-1 within 1e-6 there


def _psi_samples(n: int, nodes: int):
    from quasitone.states import harmonic_eigenstate

    x = np.linspace(-PSI_SPAN, PSI_SPAN, nodes)
    psi = harmonic_eigenstate(n, x)
    return x, psi / math.sqrt(float(np.sum(psi * psi)) * (x[1] - x[0]))


def _transform(rng) -> Plan:
    inputs = {}
    steps = []
    for nodes, n_max in PSI_NODES:
        n = int(rng.integers(0, n_max))
        x, psi = _psi_samples(n, nodes)
        src = f"psi_{nodes}.csv"
        inputs[src] = "x,re,im\n" + "".join(f"{a!r},{b!r},0.0\n" for a, b in zip(x.tolist(), psi.tolist()))
        fld, mom = f"field_{nodes}.csv", f"moments_{nodes}.json"
        steps.append(Step(("field", "--state", f"psi:{src}", "--out", fld),
                          outputs=(fld, fld + ".json"),
                          checks=((oracles.field, dict(path=fld, fock=n)),)))
        steps.append(Step(("moments", "--field", fld, "--out", mom), outputs=(mom,),
                          checks=((oracles.moments, dict(path=mom, fock=n)),)))
        steps.append(Step(("eval", "--state", f"psi:{src}", "--r", "0", "--p", "0"),
                          checks=((oracles.origin_value, dict(fock=n)),)))
    return Plan(inputs=inputs, steps=tuple(steps))
