"""Wigner quasi-distributions of optical states, mapped to sound.

The pipeline: build a state (states), evaluate its Wigner function on a grid
(grids), summarize the sampled field (analysis), map it to oscillator banks
(sonify), and render those to audio or transcribe them to score events
(render, score).
"""

from .analysis import (
    MASS_FLOOR,
    MomentSet,
    ValueSegmentation,
    compute_moments,
    moments_to_json,
    segment_four,
    write_moments,
)
from .errors import (
    BufferTooShort,
    CoverageError,
    DegenerateMoments,
    DegenerateRange,
    DegenerateShift,
    EmptyField,
    InvalidBounds,
    MassTooLow,
    NyquistViolation,
    OutOfBounds,
    QuadratureSpanTooSmall,
    QuasitoneError,
    UnsupportedFormat,
)
from .grids import (
    COVERAGE_MIN,
    KIND_GAUSSIAN,
    KIND_REGULAR,
    GridSpec,
    WignerField,
    build_gaussian,
    build_regular,
    coverage,
    default_grid,
    read_field,
    require_coverage,
    sample_field,
    write_field,
)
from .render import (
    DEFAULT_SAMPLE_RATE,
    AudioBuffer,
    Sonogram,
    SweepTrajectory,
    default_trajectory,
    read_wav,
    render_sweep,
    stft_sonogram,
    synth,
    write_sonogram_csv,
    write_wav,
)
from .score import Score, bank_to_events, partial_gains, read_score, score_to_json, write_score
from .sonify import (
    MAX_PARTIALS,
    MapConfig,
    PartialBank,
    load_map_config,
    method1_grid,
    method2_extremes,
    method3_sections,
    method4_moments,
    quantize_quarter_tone,
    quarter_tone_index,
    spatial_gains,
    technique_tag,
)
from .states import (
    EPS_SHIFT,
    PEAK_BOUND,
    CatState,
    CoherentState,
    FockState,
    SampledState,
    default_psi_grid,
    evaluate,
    eval_cat,
    eval_coherent,
    eval_fock,
    harmonic_eigenstate,
    laguerre,
    state_centroid,
    wigner_transform,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
