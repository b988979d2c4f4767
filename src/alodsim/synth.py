"""Sample-domain synthesis of a SpatialIR.

Taps are accumulated into per-band impulse buffers (one add per tap per
band) over the early extent of the IR, one render unit at a time; the
zero-phase octave filterbank is applied once per band, and the bands are
summed. Cost is O(bands), not O(taps). Direction handling is
delegated to a *spread function* mapping a DOA to weighted render units
(an HRTF index, a loudspeaker channel, or a single mono unit), so the same
accumulator serves the binaural, array and mono paths.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.signal import fftconvolve

from .filterbank import BandFilter, OCTAVE_CENTERS_8
from .ism import SpatialIR, burst_samples

SpreadFn = Callable[[np.ndarray], List[Tuple[int, float]]]


def _mono_spread(_doa: np.ndarray):
    return [(0, 1.0)]


def spatial_ir_length(spatial_ir: SpatialIR, min_duration: float = 0.0) -> int:
    """Sample count needed to hold every tap, burst and tail stream."""
    fs = spatial_ir.sample_rate
    t_end = min_duration
    for tap in spatial_ir.taps:
        end = tap.delay
        if tap.diffuse_burst is not None:
            end += tap.diffuse_burst.duration
        t_end = max(t_end, end)
    n = int(math.ceil(t_end * fs)) + 1
    for stream in spatial_ir.tail:
        n = max(n, int(round(stream.onset * fs)) + len(stream.samples))
    return n


def render_units(spatial_ir: SpatialIR, spread: SpreadFn,
                 n_samples: int = 0,
                 centers=OCTAVE_CENTERS_8) -> Dict[int, np.ndarray]:
    """Broadband waveform per render unit.

    Returns {unit_key: samples}; all waveforms share the same length. The
    optional coupling signature is NOT applied here (it acts on the final
    channels; convolution commutes with the per-unit linear processing).
    """
    fs = spatial_ir.sample_rate
    n = max(n_samples, spatial_ir_length(spatial_ir))
    n_bands = len(centers)

    # first pass: group the taps by render unit, so that one band buffer is
    # alive at a time, and find where the taps and their bursts end
    unit_taps: Dict[int, list] = {}
    extent = 0
    for tap in spatial_ir.taps:
        idx = int(round(tap.delay * fs))
        if idx >= n:
            continue
        burst = tap.diffuse_burst
        length = 1 if burst is None else max(int(round(burst.duration * fs)), 1)
        extent = max(extent, min(idx + length, n))
        for unit, gain in spread(tap.doa):
            unit_taps.setdefault(unit, []).append((tap, idx, gain))
    # the band buffers and their transform span the taps plus a margin that
    # holds the filter kernels' decay (the lowest band edge sets the time scale)
    m = min(n, extent + max(int(0.15 * fs), 4096))

    combine = BandFilter(m, fs, centers=centers)
    units: Dict[int, np.ndarray] = {}
    for unit, contributions in unit_taps.items():
        buf = np.zeros((n_bands, m))
        for tap, idx, gain in contributions:
            buf[:, idx] += gain * tap.amplitude
            if tap.diffuse_burst is not None:
                for b in range(n_bands):
                    noise = burst_samples(tap.diffuse_burst, b, fs)
                    stop = min(idx + len(noise), n)
                    buf[b, idx:stop] += gain * noise[: stop - idx]
        units[unit] = np.zeros(n)
        units[unit][:m] = combine.apply(buf)

    for stream in spatial_ir.tail:
        offset = int(round(stream.onset * fs))
        stop = min(offset + len(stream.samples), n)
        if stop <= offset:
            continue
        for unit, gain in spread(stream.direction):
            wave = units.get(unit)
            if wave is None:
                wave = np.zeros(n)
                units[unit] = wave
            wave[offset:stop] += gain * stream.samples[: stop - offset]
    return units


def synthesize_mono(spatial_ir: SpatialIR, n_samples: int = 0,
                    centers=OCTAVE_CENTERS_8, apply_signature: bool = True) -> np.ndarray:
    """Omnidirectional (direction-discarding) rendering of a SpatialIR."""
    units = render_units(spatial_ir, _mono_spread, n_samples, centers)
    if not units:
        out = np.zeros(max(n_samples, 1))
    else:
        out = units[0]
    if apply_signature and spatial_ir.signature is not None:
        out = fftconvolve(out, spatial_ir.signature)
    return out
