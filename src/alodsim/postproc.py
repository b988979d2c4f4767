"""Spectral matching of a simulated IR to a reference IR.

A single minimum-phase correction filter (cepstral construction) is derived
from the ratio of third-octave smoothed magnitude spectra and applied
identically to every channel, which preserves interchannel level and time
differences exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MatchInfeasibleError, RateMismatchError
from .filterbank import fftconvolve, log_ramp
from .spatial import ImpulseResponse

DEFAULT_RANGE_HZ = (100.0, 16000.0)
DEFAULT_CLAMP_DB = 12.0
DEFAULT_FIR_TAPS = 2048


@dataclass(frozen=True)
class SpectralMatchReport:
    residual_mean_db: float
    residual_max_db: float
    residual_rms_db: float
    band_range: tuple
    clamped: bool


def third_octave_smooth(magnitude: np.ndarray) -> np.ndarray:
    """Energy mean over a +/- 1/6-octave window around each rFFT bin."""
    mag = np.asarray(magnitude, dtype=float)
    n_bins = mag.size
    power = mag**2
    cums = np.concatenate([[0.0], np.cumsum(power)])
    k = np.arange(n_bins)
    lo = np.maximum((k * 2.0 ** (-1.0 / 6.0)).astype(int), 0)
    hi = np.minimum(np.ceil(k * 2.0 ** (1.0 / 6.0)).astype(int), n_bins - 1)
    hi = np.maximum(hi, lo)
    mean_power = (cums[hi + 1] - cums[lo]) / (hi + 1 - lo)
    out = np.sqrt(mean_power)
    out[0] = mag[0]
    return out


def _mean_magnitude(ir: ImpulseResponse, n_fft: int) -> np.ndarray:
    spec = np.fft.rfft(ir.channels, n=n_fft, axis=1)
    return np.sqrt(np.mean(np.abs(spec) ** 2, axis=0))


def minimum_phase_fir(magnitude: np.ndarray, n_taps: int) -> np.ndarray:
    """Minimum-phase FIR with the given rFFT magnitude (cepstral method)."""
    mag = np.maximum(np.asarray(magnitude, dtype=float), 1e-12)
    n_fft = 2 * (mag.size - 1)
    log_mag = np.log(mag)
    cepstrum = np.fft.irfft(log_mag, n=n_fft)
    folded = cepstrum.copy()
    folded[1: n_fft // 2] *= 2.0
    folded[n_fft // 2 + 1:] = 0.0
    min_phase_spec = np.exp(np.fft.rfft(folded, n=n_fft))
    h = np.fft.irfft(min_phase_spec, n=n_fft)
    return h[:n_taps]


def _smooth_edge(freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """1 inside [lo, hi], raised-cosine rolloff over 1/3 octave outside."""
    log_f = np.log2(np.maximum(freqs, 1e-6))
    below, above = np.log2(lo / 2.0 ** (1.0 / 3.0)), np.log2(hi * 2.0 ** (1.0 / 3.0))
    return np.minimum(log_ramp(log_f, below, np.log2(lo) - below),
                      log_ramp(log_f, above, np.log2(hi) - above))


def _smoothed_difference_db(ir_a: ImpulseResponse, ir_b: ImpulseResponse) -> np.ndarray:
    """Third-octave smoothed level of ``ir_a`` minus that of ``ir_b`` (dB) at
    the rFFT bins inside DEFAULT_RANGE_HZ; both share ``ir_a``'s sample rate."""
    n_fft = 1 << max(ir_a.n_samples, ir_b.n_samples, 2).bit_length()
    freqs = np.fft.rfftfreq(n_fft, 1.0 / ir_a.sample_rate)
    sa = third_octave_smooth(_mean_magnitude(ir_a, n_fft))
    sb = third_octave_smooth(_mean_magnitude(ir_b, n_fft))
    lo, hi = DEFAULT_RANGE_HZ
    sel = (freqs >= lo) & (freqs <= hi)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.maximum(sa[sel], 1e-12) / np.maximum(sb[sel], 1e-12))


def match_spectrum(sim: ImpulseResponse, ref: ImpulseResponse):
    """Correct ``sim`` toward the average spectrum of ``ref``.

    Returns (corrected IR, filter, SpectralMatchReport). The correction
    magnitude is smoothed-ref / smoothed-sim, clamped to +/- DEFAULT_CLAMP_DB,
    rolled off to unity outside DEFAULT_RANGE_HZ and cut to DEFAULT_FIR_TAPS
    taps.
    """
    if sim.sample_rate != ref.sample_rate:
        raise RateMismatchError("sample rates differ")
    lo, hi = DEFAULT_RANGE_HZ
    n_fft = 1 << max(sim.n_samples, ref.n_samples, 4 * DEFAULT_FIR_TAPS).bit_length()
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sim.sample_rate)

    mag_sim = third_octave_smooth(_mean_magnitude(sim, n_fft))
    mag_ref = third_octave_smooth(_mean_magnitude(ref, n_fft))
    sel = (freqs >= lo) & (freqs <= hi)
    for name, mag in (("simulated", mag_sim), ("reference", mag_ref)):
        if not np.any(mag[sel] > 1e-9 * np.max(mag)):
            raise MatchInfeasibleError(f"{name} IR spectrally empty in match range")

    raw = mag_ref / np.maximum(mag_sim, 1e-12 * np.max(mag_sim))
    clamp = 10.0 ** (DEFAULT_CLAMP_DB / 20.0)
    clamped = bool(np.any((raw[sel] > clamp) | (raw[sel] < 1.0 / clamp)))
    correction = np.clip(raw, 1.0 / clamp, clamp)
    weight = _smooth_edge(freqs, lo, hi)
    correction = correction**weight  # unity outside range, smooth rolloff

    fir = minimum_phase_fir(correction, DEFAULT_FIR_TAPS)
    corrected = ImpulseResponse(
        channels=fftconvolve(sim.channels, fir),
        sample_rate=sim.sample_rate,
    )

    # post-hoc residual over the match range
    diff = _smoothed_difference_db(corrected, ref)
    report = SpectralMatchReport(
        residual_mean_db=float(np.mean(np.abs(diff))),
        residual_max_db=float(np.max(np.abs(diff))),
        residual_rms_db=float(math.sqrt(np.mean(diff**2))),
        band_range=DEFAULT_RANGE_HZ,
        clamped=clamped,
    )
    return corrected, fir, report
