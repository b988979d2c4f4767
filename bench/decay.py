"""The benchmark's own decay analysis and synthetic decays.

Render outputs are graded with this code, not with ``alodsim.analysis``, so
a fault in the program's analysis cannot hide a fault in its renders.
"""

from __future__ import annotations

import numpy as np


def edc_db(energy: np.ndarray) -> np.ndarray:
    """Schroeder backward integral of an energy signal, in dB re its total."""
    tail = np.cumsum(energy[::-1])[::-1]
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(tail / tail[0])


def t30(energy: np.ndarray, fs: float) -> float:
    """60 dB over the slope of a least-squares line through the EDC from -5 to -35 dB."""
    edc = edc_db(energy)
    start = int(np.argmax(edc <= -5.0))
    stop = int(np.argmax(edc <= -35.0))
    if edc[stop] > -35.0 or stop <= start:
        raise ValueError("EDC does not fall from -5 to -35 dB")
    t = np.arange(start, stop + 1) / fs
    slope = np.polyfit(t, edc[start:stop + 1], 1)[0]
    return -60.0 / float(slope)


def self_check() -> list:
    """Compare ``edc_db`` and ``t30`` with the closed form of an exponential decay.

    For energy r**k over n samples, the backward sum from k is
    (r**k - r**n) / (1 - r), so the EDC is 10 log10((r**k - r**n) / (1 - r**n)).
    """
    fs, t60, n = 8000.0, 0.8, 16000
    r = 10.0 ** (-6.0 / (t60 * fs))  # -60 dB of energy per t60
    k = np.arange(n)
    exact = 10.0 * np.log10((r**k - r**n) / (1.0 - r**n))
    keep = exact > -100.0  # below that the closed form loses its digits
    failures = []
    err = float(np.max(np.abs(edc_db(r**k)[keep] - exact[keep])))
    if err > 1e-9:
        failures.append(f"own EDC differs from the closed form by {err:.3g} dB")
    measured = t30(r**k, fs)
    if abs(measured - t60) > 1e-6 * t60:
        failures.append(f"own T30 {measured:.9f} s on an exact {t60} s decay")
    return failures


def decaying_noise(rng: np.random.Generator, n: int, fs: float, t60: float) -> np.ndarray:
    """White Gaussian noise whose energy falls by 60 dB per ``t60`` seconds."""
    t = np.arange(n) / fs
    return rng.standard_normal(n) * 10.0 ** (-3.0 * t / t60)


def dual_slope_noise(rng: np.random.Generator, n: int, fs: float, t1: float,
                     t2: float, knee_db: float) -> np.ndarray:
    """Sum of two decaying noises whose EDC asymptotes cross at ``knee_db``.

    With EDC_i(t) = a_i**2 T_i 10**(-6 t / T_i) (up to a common factor) and
    the crossing placed at level L on the first asymptote, at t = -L T1 / 60,
    the amplitude ratio is 20 log10(a2 / a1) = L (1 - T1 / T2) + 10 log10(T1 / T2).
    """
    ratio_db = knee_db * (1.0 - t1 / t2) + 10.0 * np.log10(t1 / t2)
    return (decaying_noise(rng, n, fs, t1)
            + 10.0 ** (ratio_db / 20.0) * decaying_noise(rng, n, fs, t2))
