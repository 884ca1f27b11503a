"""Per-layer spans recorded from outside the program.

Each layer of quasitone calls the layer below through names it imported
(`from .grids import sample_field`). Replacing such a name in the calling
module with a wrapper times every call across that boundary without
touching the program's source. Spans stay in memory as (name, start, end,
parent, counts) and are written out when the pass ends.

The layers are the package's modules: cli, states, grids, analysis,
sonify, render and score. textfmt has no span of its own; its cost sits
inside the writer spans of grids, analysis, render and score.
"""

from __future__ import annotations

import os
import time

import numpy as np

LAYERS = ("cli", "states", "grids", "analysis", "sonify", "render", "score")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, counts]
        self._open = []

    def wrap(self, name, fn, count=None):
        """fn with a span per call; name may be a function of the arguments,
        count maps (args, kwargs, result) to a dict of computed counts."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name(*args, **kwargs) if callable(name) else name, 0.0, 0.0,
                    self._open[-1] if self._open else None, {}]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _evaluate_name(state, r, p):
    from quasitone.states import SampledState

    return "states.transform" if isinstance(state, SampledState) else "states.closed"


def _evaluate_counts(args, kwargs, result):
    from quasitone.states import SampledState

    state, r, p = args
    points = int(np.broadcast(np.asarray(r), np.asarray(p)).size)
    if isinstance(state, SampledState):
        # Simpson nodes per point: 2 n + 1 for n samples
        return {"states.transform_points": points,
                "states.quad_node_products": points * (2 * state.x.size + 1)}
    return {"states.closed_points": points}


def _coverage(tracer, fn):
    from quasitone import grids

    def counted(field):
        before = grids._reference_abs_mass.cache_info()
        result = fn(field)
        after = grids._reference_abs_mass.cache_info()
        counted.delta = {"grids.coverage_ref_hits": after.hits - before.hits,
                         "grids.coverage_ref_misses": after.misses - before.misses}
        return result

    return tracer.wrap("grids.coverage", counted, lambda a, k, r: counted.delta)


def _synth_name(bank, *args, **kwargs):
    waveforms = {p.waveform for p in bank.partials}
    return "render.synth_" + ("triangle" if "triangle" in waveforms else "sine")


def _synth_counts(args, kwargs, result):
    """Oscillator evaluations: partials x harmonics below Nyquist x samples."""
    bank = args[0]
    rate = result.sample_rate
    n = result.samples.shape[0]
    ops = 0
    for p in bank.partials:
        ops += n if p.waveform == "sine" else n * len(range(1, int(np.ceil(0.5 * rate / p.freq)), 2))
    return {"render.osc_sample_ops": ops}


def _sweep_counts(args, kwargs, result):
    hop = int(round(kwargs["frame_seconds"] * result.sample_rate)) // 2
    return {"render.sweep_frames": -(-result.samples.shape[0] // hop)}


def install(tracer: Tracer) -> None:
    """Replace the cross-layer names of every quasitone module with traced
    wrappers."""
    from quasitone import cli, grids, render, score, states

    def put(module, attr, name, count=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))

    def out_bytes(key, pos):
        return lambda a, k, r: {key: _file_bytes(a[pos])}

    # cli -> every layer; one root span per command
    cli.cli_main = tracer.wrap("cli.main", cli.cli_main)
    for module in (cli, render):
        put(module, "sample_field", "grids.sample",
            lambda a, k, r: {"grids.cells": int(np.prod(r.values.shape))})
    cli.coverage = _coverage(tracer, cli.coverage)
    # a field is a CSV plus its JSON sidecar
    put(cli, "write_field", "grids.io",
        lambda a, k, r: {"grids.io_bytes": _file_bytes(a[1], str(a[1]) + ".json")})
    put(cli, "read_field", "grids.io",
        lambda a, k, r: {"grids.io_bytes": _file_bytes(a[0], str(a[0]) + ".json")})
    for module in (cli, render, score):
        put(module, "compute_moments", "analysis.moments",
            lambda a, k, r: {"analysis.moments_calls": 1})
    put(cli, "write_moments", "analysis.io")
    put(cli, "load_map_config", "sonify.config")
    for attr in ("method1_grid", "method2_extremes", "method3_sections", "method4_moments"):
        put(cli, attr, "sonify.map", lambda a, k, r: {"sonify.partials": len(r.partials)})
    put(render, "method4_moments", "sonify.map",
        lambda a, k, r: {"sonify.partials": len(r.partials)})
    cli.synth = tracer.wrap(_synth_name, cli.synth, _synth_counts)
    put(cli, "render_sweep", "render.sweep", _sweep_counts)
    put(cli, "stft_sonogram", "render.stft",
        lambda a, k, r: {"render.stft_frames": int(r.times.size)})
    put(cli, "write_wav", "render.wav_io", out_bytes("render.wav_bytes", 1))
    put(cli, "read_wav", "render.wav_io", out_bytes("render.wav_bytes", 0))
    put(cli, "write_sonogram_csv", "render.sono_csv", out_bytes("render.sono_csv_bytes", 1))
    put(cli, "bank_to_events", "score.events", lambda a, k, r: {"score.events": len(r)})
    put(cli, "write_score", "score.write", out_bytes("score.bytes", 1))
    # grids -> states: closed forms and the quadrature transform, including
    # the evaluations of the coverage reference; cli's eval command imports
    # states.evaluate when it runs
    for module in (grids, states):
        module.evaluate = tracer.wrap(_evaluate_name, module.evaluate, _evaluate_counts)


# Span names whose summed duration is reported as <name>_s.
TIMED_SPANS = (
    "states.transform", "states.closed", "grids.coverage", "grids.sample", "grids.io",
    "analysis.moments", "sonify.map", "render.synth_sine", "render.synth_triangle",
    "render.stft", "render.wav_io", "render.sono_csv", "score.events", "score.write",
)
COUNTS = (
    "states.transform_points", "states.quad_node_products", "states.closed_points",
    "grids.coverage_ref_hits", "grids.coverage_ref_misses", "grids.cells", "grids.io_bytes",
    "analysis.moments_calls", "sonify.partials", "render.osc_sample_ops", "render.sweep_frames",
    "render.stft_frames", "render.wav_bytes", "render.sono_csv_bytes", "score.events",
    "score.bytes",
)


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "bytes" if metric.endswith("bytes") else "count"


def layer_metrics(spans) -> dict:
    """Per-layer figures of one pass: span totals, self times, call counts
    and computed counts. Self time is a span's duration minus the time of
    its direct children."""
    out = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    out.update({key: 0 for key in COUNTS})
    out["render.sweep_self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    for (name, start, end, _, counts), inner in zip(spans, child_time):
        layer = name.split(".")[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += end - start - inner
        if name in TIMED_SPANS:
            out[f"{name}_s"] += end - start
        if name == "render.sweep":
            out["render.sweep_self_s"] += end - start - inner
        for key, value in counts.items():
            out[key] += value
    return out
