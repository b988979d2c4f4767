"""Test stimuli: minimum-phase pink pulse, octave-band variants, sine sweeps.

The pink pulse is built in the frequency domain (1/sqrt(f) magnitude from
50 Hz to Nyquist, raised-cosine rolloff over the octave below 50 Hz) and
reconstructed with minimum phase. Its envelope is required to fall to
-60 dBFS within 36 ms; if the raw construction misses that, an exponential
gain ramp enforces it. Its length and a sweep's come from ``scene.sample_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RateMismatchError, SceneValidationError
from .filterbank import (OCTAVE_CENTERS_8, OCTAVE_CENTERS_10, band_edges, band_energies,
                         fftconvolve, log_ramp)
from .postproc import minimum_phase_fir
from .scene import sample_count
from .spatial import ImpulseResponse

PINK_LOW_EDGE_HZ = 50.0
ENVELOPE_DEADLINE_S = 36e-3
ENVELOPE_FLOOR_DB = -60.0
ALLOWED_BAND_OFFSETS_DB = (6.0, 0.0, -6.0)
ENVELOPE_SMOOTH_S = 1e-3  # moving-average length of the envelope power
SWEEP_FADE_S = 5e-3  # raised-cosine fade at either end of a sweep


@dataclass(frozen=True)
class Stimulus:
    samples: np.ndarray
    sample_rate: float
    kind: str

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise SceneValidationError("stimulus must be one channel of >= 1 sample")
        if not np.all(np.isfinite(s)):
            raise SceneValidationError("stimulus contains non-finite samples")
        if np.max(np.abs(s)) > 1.0 + 1e-9:
            raise SceneValidationError("stimulus exceeds 0 dBFS")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class BandLevels:
    """Ten octave-band offsets (31 Hz .. 16 kHz), each +6, 0 or -6 dB."""

    offsets_db: tuple

    def __post_init__(self):
        offsets = tuple(float(o) for o in self.offsets_db)
        if len(offsets) != len(OCTAVE_CENTERS_10):
            raise SceneValidationError(
                f"need {len(OCTAVE_CENTERS_10)} band offsets, got {len(offsets)}"
            )
        if any(o not in ALLOWED_BAND_OFFSETS_DB for o in offsets):
            raise SceneValidationError("band offsets must be +6, 0 or -6 dB")
        object.__setattr__(self, "offsets_db", offsets)


def _envelope_db(x: np.ndarray, fs: float) -> np.ndarray:
    # magnitude of the analytic signal: the spectrum's positive frequencies
    # doubled, its negative ones zeroed, DC and (for even n) Nyquist kept
    n = x.size
    spec = np.fft.fft(x)
    spec[1:(n + 1) // 2] *= 2.0
    spec[n // 2 + 1:] = 0.0
    env = np.abs(np.fft.ifft(spec))
    k = max(int(round(ENVELOPE_SMOOTH_S * fs)), 1)
    start = (k - 1) // 2  # the centered n samples of the moving average
    env = np.sqrt(fftconvolve(env**2, np.ones(k) / k)[start:start + n])
    peak = np.max(env)
    return 20.0 * np.log10(np.maximum(env, 1e-12 * peak) / peak)


def _pink_magnitude(freqs: np.ndarray, offsets: Optional[BandLevels]) -> np.ndarray:
    # 1/sqrt(f) from the low edge up, rolled off over the octave below it
    octaves = np.log2(np.maximum(freqs, 1e-6) / (PINK_LOW_EDGE_HZ / 2.0))
    mag = log_ramp(octaves, 0.0, 1.0) / np.sqrt(np.maximum(freqs, PINK_LOW_EDGE_HZ))
    if offsets is not None:
        gains = 10.0 ** (np.asarray(offsets.offsets_db) / 20.0)
        mag *= gains[np.digitize(freqs, band_edges(OCTAVE_CENTERS_10))]
    return mag


def _enforce_envelope(x: np.ndarray, fs: float):
    deadline = int(round(ENVELOPE_DEADLINE_S * fs))
    probe = max(int(round(2e-3 * fs)), 1)
    t = np.arange(x.size) / fs
    for _ in range(8):
        env = _envelope_db(x, fs)
        at_deadline = float(np.max(env[deadline: deadline + probe]))
        if at_deadline <= ENVELOPE_FLOOR_DB:
            break
        # exponential ramp: add just enough decay to hit the floor on time
        rate_db_per_s = (at_deadline - ENVELOPE_FLOOR_DB + 3.0) / ENVELOPE_DEADLINE_S
        x = x * 10.0 ** (-rate_db_per_s * t / 20.0)
        x = x / np.max(np.abs(x))
    return x


def _build_pulse(fs: float, duration: float, offsets: Optional[BandLevels],
                 kind: str) -> Stimulus:
    n = sample_count(duration, fs, "duration")
    if fs < 8000.0:
        raise SceneValidationError("sample rate must be >= 8 kHz")
    if n < int(round(ENVELOPE_DEADLINE_S * fs)) + 1:
        raise SceneValidationError(f"pulse must outlast its envelope deadline, got {duration} s")
    # minimum_phase_fir's FFT is 2 (bins - 1) long, so an odd n is designed
    # on the grid of n + 1 and keeps its first n samples
    freqs = np.fft.rfftfreq(n + n % 2, 1.0 / fs)
    mag = _pink_magnitude(freqs, offsets)

    # Interior octave bands (250 Hz .. 8 kHz at 44.1 kHz) must come out flat
    # relative to each other after minimum-phase reconstruction and envelope
    # enforcement; the decay ramp smears energy out of the lowest bands, so
    # iterate a measured per-band correction until the residual is < 0.05 dB.
    centers = np.asarray(OCTAVE_CENTERS_8)
    usable = centers[centers < fs / 2.0]
    band_of = np.digitize(freqs, band_edges(usable))
    interior = np.arange(1, usable.size - 1)
    targets = np.zeros(usable.size)
    if offsets is not None:
        off = dict(zip(OCTAVE_CENTERS_10, offsets.offsets_db))
        targets = np.array([off.get(c, 0.0) for c in usable])
    corr_db = np.zeros(usable.size)
    for _ in range(6):
        gains = 10.0 ** (corr_db[band_of] / 20.0)
        x = minimum_phase_fir(mag * gains, n)
        x = x / np.max(np.abs(x))
        x = _enforce_envelope(x, fs)
        meas = 10.0 * np.log10(band_energies(x, fs, centers=tuple(usable)))
        err = (meas - targets)[interior]
        err = err - err.mean()
        if np.max(np.abs(err)) < 0.05:
            break
        corr_db[interior] -= err
    return Stimulus(samples=x, sample_rate=fs, kind=kind)


def pink_pulse(fs: float = 44100.0, duration: float = 0.5) -> Stimulus:
    """The 500-ms minimum-phase pink pulse, peak-normalized to 0 dBFS."""
    return _build_pulse(fs, duration, None, "pink_pulse")


def pink_pulse_variant(levels: BandLevels, fs: float = 44100.0,
                       duration: float = 0.5) -> Stimulus:
    """Pink pulse with per-octave-band level offsets applied pre-reconstruction."""
    return _build_pulse(fs, duration, levels, "pink_pulse_variant")


def convolve(stimulus: Stimulus, ir: ImpulseResponse) -> np.ndarray:
    """Full linear convolution of each IR channel with the stimulus, by one
    FFT product per channel; (n_ch, n_ir + n_stim - 1) output."""
    if stimulus.sample_rate != ir.sample_rate:
        raise RateMismatchError("stimulus and IR sample rates differ")
    return fftconvolve(ir.channels, stimulus.samples)


def ess_generate(f1: float = 100.0, f2: float = 22050.0, duration: float = 3.2,
                 fs: float = 44100.0) -> Stimulus:
    """Exponential sine sweep (Farina), with short raised-cosine fades."""
    n = sample_count(duration, fs, "duration")
    if not (0.0 < f1 < f2 <= fs / 2.0):
        raise SceneValidationError("require 0 < f1 < f2 <= fs/2")
    t = np.arange(n) / fs
    rate = math.log(f2 / f1)
    x = np.sin(2.0 * math.pi * f1 * duration / rate * (np.exp(t * rate / duration) - 1.0))
    n_fade = min(int(round(SWEEP_FADE_S * fs)), n // 4)
    if n_fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)
        x[:n_fade] *= ramp
        x[-n_fade:] *= ramp[::-1]
    return Stimulus(samples=x, sample_rate=fs, kind="ess")


def ess_inverse(sweep: Stimulus, f1: float, f2: float) -> np.ndarray:
    """Amplitude-compensated time-reversed sweep (the Farina inverse filter)."""
    n = len(sweep.samples)
    duration = n / sweep.sample_rate
    rate = math.log(f2 / f1)
    t = np.arange(n) / sweep.sample_rate
    # -6 dB/octave energy compensation along the (reversed) sweep
    comp = np.exp(-t * rate / duration)
    inv = sweep.samples[::-1] * comp
    # normalize so that sweep (*) inverse peaks at 1
    ref = fftconvolve(sweep.samples, inv)
    return inv / np.max(np.abs(ref))


def ess_deconvolve(recording: np.ndarray, sweep: Stimulus,
                   f1: float = 100.0, f2: float = 22050.0) -> ImpulseResponse:
    """Recover an IR by convolving the recording with the inverse sweep."""
    rec = np.atleast_2d(np.asarray(recording, dtype=float))
    inv = ess_inverse(sweep, f1, f2)
    out = fftconvolve(rec, inv)
    return ImpulseResponse(channels=out, sample_rate=sweep.sample_rate)
