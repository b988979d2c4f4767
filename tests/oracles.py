"""Slow reference implementations kept as test oracles.

``per_band_run_fdn`` runs the FDN loop once per octave band and filters
every band at FFT length 2n; ``render_units_2m`` allocates full-length band
buffers and filters them at FFT length 2m. Both are the straightforward
forms of what ``alodsim.fdn.run_fdn`` and ``alodsim.synth.render_units``
compute with band grouping, early-extent buffers and fast FFT lengths.
"""

import numpy as np

from alodsim.fdn import _run_band, _shape_decay, _t60_of
from alodsim.filterbank import OCTAVE_CENTERS_8, band_masks
from alodsim.ism import burst_samples
from alodsim.synth import spatial_ir_length


def per_band_run_fdn(config, duration, input_signal=None,
                     band_centers=OCTAVE_CENTERS_8) -> np.ndarray:
    """(n_lines, n) line outputs: one loop run and one masked FFT per band."""
    fs = config.sample_rate
    n = int(round(duration * fs))
    impulse_driven = input_signal is None
    if input_signal is None:
        input_signal = np.array([1.0])
    masks = band_masks(2 * n, fs, band_centers)
    spectra = None
    for b in range(config.line_gains.shape[1]):
        gains = config.line_gains[:, b]
        lines = _run_band(config, gains, n, input_signal)
        if impulse_driven:
            lines = _shape_decay(lines, fs, _t60_of(config, gains))
        contrib = np.fft.rfft(lines, n=2 * n, axis=1) * masks[b][None, :]
        spectra = contrib if spectra is None else spectra + contrib
    return np.fft.irfft(spectra, n=2 * n, axis=1)[:, :n]


def render_units_2m(spatial_ir, spread, n_samples=0, centers=OCTAVE_CENTERS_8):
    """{unit: waveform} with (n_bands, n) buffers filtered at length 2m."""
    fs = spatial_ir.sample_rate
    n = max(n_samples, spatial_ir_length(spatial_ir))
    n_bands = len(centers)
    band_bufs = {}
    extent = 0
    for tap in spatial_ir.taps:
        idx = int(round(tap.delay * fs))
        if idx >= n:
            continue
        extent = max(extent, idx + 1)
        for unit, gain in spread(tap.doa):
            buf = band_bufs.setdefault(unit, np.zeros((n_bands, n)))
            buf[:, idx] += gain * tap.amplitude
            if tap.diffuse_burst is not None:
                for b in range(n_bands):
                    noise = burst_samples(tap.diffuse_burst, b, fs)
                    stop = min(idx + len(noise), n)
                    buf[b, idx:stop] += gain * noise[: stop - idx]
                    extent = max(extent, stop)
    m = min(n, extent + max(int(0.15 * fs), 4096))
    masks = band_masks(2 * m, fs, centers)
    units = {}
    for unit, buf in band_bufs.items():
        spec = np.einsum("bk,bk->k", masks, np.fft.rfft(buf[:, :m], n=2 * m, axis=1))
        wave = np.zeros(n)
        wave[:m] = np.fft.irfft(spec, n=2 * m)[:m]
        units[unit] = wave
    for stream in spatial_ir.tail:
        offset = int(round(stream.onset * fs))
        stop = min(offset + len(stream.samples), n)
        if stop <= offset:
            continue
        for unit, gain in spread(stream.direction):
            wave = units.setdefault(unit, np.zeros(n))
            wave[offset:stop] += gain * stream.samples[: stop - offset]
    return units
