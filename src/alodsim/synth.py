"""Sample-domain synthesis of a SpatialIR.

Taps are accumulated into per-band impulse buffers over the early extent of
the IR, one render unit at a time; the zero-phase octave filterbank is
applied once per band, and the bands are summed. Cost is O(bands), not
O(taps). A render unit is an HRTF index, a loudspeaker channel or the
single mono unit. Directions reach the units through one gain matrix: the
caller's ``unit_gains`` maps (k, 3) directions to (k, n_units) gains, and
the same accumulator serves the binaural, array and mono paths.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np
from scipy.signal import fftconvolve

from .filterbank import BandFilter, OCTAVE_CENTERS_8
from .ism import SpatialIR, burst_samples


def spatial_ir_length(spatial_ir: SpatialIR, min_duration: float = 0.0) -> int:
    """Sample count needed to hold every tap, burst and tail stream."""
    fs = spatial_ir.sample_rate
    taps = spatial_ir.taps
    t_end = np.max(taps.delay + taps.burst_duration, initial=min_duration)
    n = int(math.ceil(t_end * fs)) + 1
    for stream in spatial_ir.tail:
        n = max(n, int(round(stream.onset * fs)) + len(stream.samples))
    return n


def render_units(spatial_ir: SpatialIR,
                 unit_gains: Callable[[np.ndarray], np.ndarray],
                 n_samples: int = 0,
                 centers=OCTAVE_CENTERS_8) -> Dict[int, np.ndarray]:
    """Broadband waveform per render unit.

    Returns {unit: samples} for every unit that a tap or tail stream reaches
    with a nonzero gain; all waveforms share the same length. The optional
    coupling signature is NOT applied here (it acts on the final channels;
    convolution commutes with the per-unit linear processing).
    """
    fs = spatial_ir.sample_rate
    n = max(n_samples, spatial_ir_length(spatial_ir))
    n_bands = len(centers)

    taps = spatial_ir.taps
    starts = np.rint(taps.delay * fs).astype(np.int64)
    rows = np.flatnonzero(starts < n)
    starts = starts[rows]
    streams = [s for s in spatial_ir.tail
               if len(s.samples) and int(round(s.onset * fs)) < n]
    gains = unit_gains(np.concatenate([taps.doa[rows],
                                       np.reshape([s.direction for s in streams], (-1, 3))]))
    tap_gains, stream_gains = gains[: len(rows)], gains[len(rows):]

    # the band buffers and their transform span the taps plus a margin that
    # holds the filter kernels' decay (the lowest band edge sets the time scale)
    lengths = np.maximum(np.rint(taps.burst_duration[rows] * fs).astype(np.int64), 1)
    extent = int(np.max(np.minimum(starts + lengths, n), initial=0))
    m = min(n, extent + max(int(0.15 * fs), 4096))

    # one band buffer is alive at a time
    combine = BandFilter(m, fs, centers=centers)
    units: Dict[int, np.ndarray] = {}
    bursts = taps.has_burst[rows]
    for unit in np.flatnonzero(np.any(tap_gains != 0.0, axis=0)).tolist():
        hit = np.flatnonzero(tap_gains[:, unit])
        buf = np.zeros((n_bands, m))
        np.add.at(buf.T, starts[hit],
                  tap_gains[hit, unit][:, None] * taps.amplitude[rows[hit]])
        for k in hit[bursts[hit]]:
            noise = burst_samples(taps, rows[k], fs)
            stop = min(starts[k] + noise.shape[1], n)
            buf[:, starts[k]:stop] += tap_gains[k, unit] * noise[:, : stop - starts[k]]
        units[unit] = np.zeros(n)
        units[unit][:m] = combine.apply(buf)

    for stream, gain in zip(streams, stream_gains):
        offset = int(round(stream.onset * fs))
        stop = min(offset + len(stream.samples), n)
        for unit in np.flatnonzero(gain).tolist():
            if unit not in units:
                units[unit] = np.zeros(n)
            units[unit][offset:stop] += gain[unit] * stream.samples[: stop - offset]
    return units


def synthesize_mono(spatial_ir: SpatialIR, n_samples: int = 0,
                    centers=OCTAVE_CENTERS_8, apply_signature: bool = True) -> np.ndarray:
    """Omnidirectional (direction-discarding) rendering of a SpatialIR."""
    units = render_units(spatial_ir, lambda d: np.ones((len(d), 1)),
                         n_samples, centers)
    out = units.get(0, np.zeros(max(n_samples, 1)))
    if apply_signature and spatial_ir.signature is not None:
        out = fftconvolve(out, spatial_ir.signature)
    return out
