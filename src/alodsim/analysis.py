"""Objective impulse-response metrics.

Schroeder backward integration, T30 from the ISO [-5, -35] dB span,
normalized echo density, two-segment (dual-slope) decay fitting and the
direct-to-reverberant ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InsufficientDecayError, SceneValidationError
from .filterbank import OCTAVE_CENTERS_8, band_split, padded_len

EDC_FLOOR_DB = -120.0
T30_FIT_SPAN_DB = (-5.0, -35.0)
NED_GAUSSIAN_FRACTION = math.erfc(1.0 / math.sqrt(2.0))  # ~0.3173
DRR_CLAMP_DB = 120.0
NED_WINDOW_S = 25e-3
NED_HOP = 64  # samples between window centers
NED_BLOCK_SAMPLES = 1 << 16  # frames are measured in blocks of about this size
DUAL_SLOPE_SPAN_DB = 60.0  # fit down to this far below the peak
DRR_DIRECT_WINDOW_S = 2.5e-3  # centered on the peak sample


@dataclass(frozen=True)
class EdcCurve:
    values: np.ndarray  # dB, 0 at t = 0, non-increasing
    sample_rate: float


@dataclass(frozen=True)
class NedProfile:
    times: np.ndarray
    values: np.ndarray
    window: float


@dataclass(frozen=True)
class DualSlopeFit:
    slope1: float  # dB/s
    slope2: float  # dB/s
    knee_time: float
    knee_level: float
    residual: float  # mean squared fit error, dB^2


def schroeder_edc(ir: np.ndarray, fs: float) -> EdcCurve:
    """Backward-integrated energy decay, normalized and clamped at -120 dB."""
    h = np.asarray(ir, dtype=float)
    energy = h**2
    total = float(energy.sum())
    if total <= 0.0:
        raise SceneValidationError("all-zero impulse response")
    values = np.cumsum(energy[::-1])[::-1]  # turned into the curve in place
    del energy  # only the curve is held from here on
    values /= total
    with np.errstate(divide="ignore"):
        np.log10(values, out=values)
    values *= 10.0
    np.maximum(values, EDC_FLOOR_DB, out=values)
    return EdcCurve(values=values, sample_rate=fs)


def t30(edc: EdcCurve) -> float:
    """T30 from a least-squares line over the [-5, -35] dB EDC span."""
    hi, lo = T30_FIT_SPAN_DB
    v = edc.values
    start = int(np.argmax(v <= hi))
    if v[start] > hi:
        raise InsufficientDecayError("EDC never reaches -5 dB")
    stop = int(np.argmax(v <= lo))
    if v[stop] > lo:
        raise InsufficientDecayError("EDC never reaches -35 dB")
    if stop == start:  # a line through one sample has no defined slope
        raise InsufficientDecayError("fewer than two EDC samples in the fit span")
    t = np.arange(start, stop + 1) / edc.sample_rate
    slope = float(np.polyfit(t, v[start:stop + 1], 1)[0])
    if slope >= 0:
        raise InsufficientDecayError("EDC is not decaying over the fit span")
    return 60.0 / abs(slope)


def t30_bands(ir: np.ndarray, fs: float) -> np.ndarray:
    """Per-octave-band T30 of a single channel; a band with no energy has none."""
    bands = band_split(ir, fs, padded_len(len(ir)))
    silent = ~bands.any(axis=1)  # as a band above the Nyquist frequency
    if silent.any():
        raise InsufficientDecayError(f"the {OCTAVE_CENTERS_8[np.argmax(silent)]:g} Hz band "
                                     f"carries no energy at a sample rate of {fs:g} Hz")
    return np.array([t30(schroeder_edc(band, fs)) for band in bands])


def ned(ir: np.ndarray, fs: float) -> NedProfile:
    """Normalized echo density: fraction of |h| above the local std dev,
    divided by the Gaussian expectation erfc(1/sqrt(2)).
    """
    h = np.asarray(ir, dtype=float)
    w = int(round(NED_WINDOW_S * fs))
    w += (w + 1) % 2  # odd length
    if w > h.size:
        raise SceneValidationError("window longer than impulse response")
    half = w // 2
    centers = np.arange(half, h.size - half, NED_HOP)
    # one read-only row per center; the rows overlap, so nothing is copied
    step = h.strides[0]
    frames = as_strided(h, shape=(centers.size, w), strides=(NED_HOP * step, step),
                        writeable=False)
    values = np.empty(centers.size)
    rows = max(NED_BLOCK_SAMPLES // w, 1)
    for lo in range(0, centers.size, rows):
        block = frames[lo:lo + rows]
        sigma = np.sqrt(np.mean(block**2, axis=1))
        above = np.count_nonzero(np.abs(block) > sigma[:, None], axis=1)
        values[lo:lo + rows] = np.where(sigma == 0.0, 0.0, above / w)
    return NedProfile(times=centers / fs,
                      values=values / NED_GAUSSIAN_FRACTION,
                      window=w / fs)


def _hinge_mse(t: np.ndarray, y: np.ndarray, knees: np.ndarray) -> np.ndarray:
    """Mean squared error of the least-squares fit of y by 1, t and
    max(t - t[k], 0), for each knee index k in ``knees``.

    Each knee's 3x3 normal equations are built from the sums of x, x^2, y
    and xy over [k, n), read off reversed cumulative sums, and solved by
    eliminating the line (1, x) first, so a knee costs O(1) after one pass
    over the span. x and y are centered on their means, which the constant
    column absorbs; then the line's block of the Gram matrix is diagonal.
    """
    n = y.size
    x = t - t.mean()
    y = y - y.mean()

    def tail(a):  # a[k:].sum() for every knee k
        return np.cumsum(a[::-1])[::-1][knees]

    sxx, sxy = x @ x, x @ y
    s0, sx, sx2, sy, s_xy = n - knees, tail(x), tail(x * x), tail(y), tail(x * y)
    xk = x[knees]
    # the hinge column h = x - x[k] on [k, n): its products with 1, x, h, y
    h1 = sx - xk * s0
    hx = sx2 - xk * sx
    hh = sx2 - 2.0 * xk * sx + xk * xk * s0
    hy = s_xy - xk * sy
    # what the hinge adds to the line fit: Schur complement of the line block
    gain = (hy - hx * sxy / sxx) ** 2 / (hh - h1 * h1 / n - hx * hx / sxx)
    return (y @ y - sxy * sxy / sxx - gain) / n


def dual_slope_fit(edc: EdcCurve) -> DualSlopeFit:
    """Two-segment piecewise-linear least squares with a gridded knee.

    The knee is searched on a 0.5 dB level grid; the model is continuous at
    the knee (hinge basis). Fitting runs from the -5 dB point (skipping the
    onset plateau, as in the T30 convention) down to DUAL_SLOPE_SPAN_DB
    below the peak (or 5 dB above the clamp floor).
    """
    v = edc.values
    if v.min() > -50.0:
        raise InsufficientDecayError("EDC must span at least 50 dB")
    floor = max(-DUAL_SLOPE_SPAN_DB, float(v.min()) + 5.0)
    start = int(np.argmax(v <= -5.0))
    stop = int(np.argmax(v <= floor))
    t = np.arange(start, stop + 1) / edc.sample_rate
    y = v[start:stop + 1]

    knees = []
    for level in np.arange(-10.0, floor + 10.0, -0.5):
        k = int(np.argmax(y <= level))
        if y[k] <= level and 2 <= k <= y.size - 3:
            knees.append(k)
    if not knees:
        raise InsufficientDecayError("no admissible knee position")
    # the first knee of least error, as a strict minimum over the levels picks it
    k = knees[int(np.argmin(_hinge_mse(t, y, np.array(knees))))]
    tk = t[k]
    basis = np.stack([np.ones_like(t), t - t[0], np.maximum(t - tk, 0.0)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(basis, y, rcond=None)
    resid = float(np.mean((basis @ coef - y) ** 2))
    slope1 = float(coef[1])
    slope2 = float(coef[1] + coef[2])
    knee_level = float(coef[0] + coef[1] * (tk - t[0]))
    return DualSlopeFit(slope1=slope1, slope2=slope2, knee_time=float(tk),
                        knee_level=min(knee_level, 0.0), residual=resid)


def drr(ir: np.ndarray, fs: float) -> float:
    """Direct-to-reverberant ratio, direct window centered on first arrival."""
    h = np.asarray(ir, dtype=float)
    energy = h**2
    total = float(energy.sum())
    if total <= 0.0:
        raise SceneValidationError("all-zero impulse response")
    peak = int(np.argmax(np.abs(h)))
    half = int(round(DRR_DIRECT_WINDOW_S * fs / 2.0))
    lo = max(peak - half, 0)
    hi = min(peak + half + 1, h.size)
    e_direct = float(energy[lo:hi].sum())
    e_rest = total - e_direct
    if e_rest <= 10.0 ** (-DRR_CLAMP_DB / 10.0) * e_direct:
        return DRR_CLAMP_DB
    return 10.0 * math.log10(e_direct / e_rest)
