"""Exception hierarchy shared by all quasitone modules.

Every domain failure raised by this package derives from QuasitoneError so
callers (and the command line front end) can tell numeric or contract
violations apart from programming errors. A file that cannot be read or
written raises the standard OSError instead, which names its path.
"""

from __future__ import annotations

import numpy as np


def refuse(values, ok, error, message):
    """Raise error(message.format(v)) for the first element v of values,
    as a Python scalar, where ok is false; return when ok holds everywhere.

    Every array check of the package refuses through this, so each
    refusal names the first value it refused.
    """
    bad = np.asarray(values)[~np.asarray(ok)]
    if bad.size:
        raise error(message.format(bad.flat[0].item()))


class QuasitoneError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateShift(QuasitoneError):
    """Superposition shift too close to zero for the cat formula."""


class QuadratureSpanTooSmall(QuasitoneError):
    """Sampled wavefunction carries visible mass at its grid edges."""


class MomentumUnresolved(QuasitoneError):
    """Momentum at or past what a sampled wavefunction's quadrature resolves."""


class InvalidBounds(QuasitoneError):
    """Grid bounds empty, reversed, or not finite."""


class DegenerateMoments(QuasitoneError):
    """Moment set unusable (non-positive or non-finite spread)."""


class MassTooLow(QuasitoneError):
    """Signed mass of a field too small to normalize statistics."""


class DegenerateRange(QuasitoneError):
    """Value range collapsed to a single point; no sections exist."""


class EmptyField(QuasitoneError):
    """Field holds no cells to map."""


class OutOfBounds(QuasitoneError):
    """Point lies outside the rectangle used for spatial panning."""


class NyquistViolation(QuasitoneError):
    """A partial frequency is at or above half the sample rate."""


class BufferTooShort(QuasitoneError):
    """Audio shorter than one analysis window."""


class UnsupportedFormat(QuasitoneError):
    """WAV file is not 32-bit float or is structurally damaged."""


class CoverageError(QuasitoneError):
    """Grid holds too little of the state's W^2, or does not resolve it."""
