"""Zero-phase octave filterbank.

Bands are realized as raised-cosine magnitude masks on the rFFT grid with
crossovers on a log-frequency axis. The masks of a bank sum to exactly 1 at
every bin, so per-band buffers that carry identical gains recombine into the
original broadband signal. Each band job has one owner: :func:`band_split`
splits a signal into its bands, ``synth.render_units`` merges per-band rows
into one wave, and :func:`band_kernels` band-limits an FDN input. Every
log-frequency raised cosine goes through :func:`log_ramp`, every set of
band edges through :func:`band_edges`, and every linear convolution through
:func:`fftconvolve` or, for many waves summed, :func:`partitioned_convolve`.
"""

from __future__ import annotations

import numpy as np

# Octave band centers used for room absorption / decay targets.
OCTAVE_CENTERS_8 = (125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0)

# Octave band centers used for stimulus band manipulation (31 Hz .. 16 kHz).
OCTAVE_CENTERS_10 = (
    31.5, 63.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0,
)

# Width (in octaves) of the raised-cosine crossover around each band edge.
CROSSOVER_OCTAVES = 1.0 / 3.0


def log_ramp(log_f: np.ndarray, start: float, width: float) -> np.ndarray:
    """Raised-cosine ramp on a log2-frequency axis: 0 at ``start``, 1 at
    ``start + width`` (both in log2 units), constant beyond either end. A
    negative ``width`` makes it fall toward higher frequencies."""
    x = np.clip((log_f - start) / width, 0.0, 1.0)
    return 0.5 - 0.5 * np.cos(np.pi * x)


def band_edges(centers) -> np.ndarray:
    """The geometric midpoints between neighboring band centers."""
    centers = np.asarray(centers, dtype=float)
    return np.sqrt(centers[:-1] * centers[1:])


def band_masks(n_fft: int, fs: float, centers=OCTAVE_CENTERS_8) -> np.ndarray:
    """Amplitude masks, shape (n_bands, n_fft // 2 + 1), summing to 1 per bin.

    Band ``i`` spans the geometric-midpoint edges between neighboring
    centers; the lowest band extends to DC and the highest to Nyquist.
    """
    freqs = np.fft.rfftfreq(n_fft, 1.0 / fs)
    log_f = np.log2(np.maximum(freqs, 1e-6))
    edges = band_edges(centers)
    steps = [log_ramp(log_f, np.log2(e) - CROSSOVER_OCTAVES / 2.0, CROSSOVER_OCTAVES)
             for e in edges]
    masks = np.empty((len(centers), freqs.size))
    lower = np.ones_like(freqs)  # step at the band's lower edge (1 for band 0)
    for i in range(len(centers)):
        upper = steps[i] if i < len(edges) else np.zeros_like(freqs)
        masks[i] = lower - upper
        lower = upper
    return masks


def next_fast_len(n: int) -> int:
    """The smallest 2-3-5-smooth integer >= ``n``: an FFT length that
    ``numpy.fft`` transforms fast (``n`` itself for ``n`` <= 6)."""
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()  # the smallest power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 = 3^i 5^j: its smallest power-of-two multiple >= n
            fit = p35 << (-(-n // p35) - 1).bit_length()
            if fit < best:
                best = fit
            p35 *= 3
        p5 *= 5
    return best


def padded_len(n: int) -> int:
    """FFT length for masking ``n`` samples: at least ``2 n``, so the acausal
    half of each band kernel falls into the padding instead of wrapping to
    the end of the buffer, and 2-3-5-smooth, so the FFT is fast."""
    return next_fast_len(2 * n)


def fftconvolve(a, b) -> np.ndarray:
    """Full linear convolution of ``a`` and ``b`` along the last axis; the
    other axes broadcast. One real FFT product at a 2-3-5-smooth length, of
    ``b`` once and of ``a`` 8 rows at a time, straight into the output rows."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b  # a one-sample factor only scales: exact, no FFT rounding
    size = a.shape[-1] + b.shape[-1] - 1
    n_fft = next_fast_len(size)
    lead, spectrum = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), np.fft.rfft(b, n_fft)
    out = np.empty(lead + (size,))
    # rows in step: views unless a or b broadcasts
    a, spectrum = (np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
                   for x in (a, spectrum))
    for i in range(0, len(a), 8):
        chunk = np.fft.rfft(a[i:i + 8], n_fft) * spectrum[i:i + 8]
        out.reshape(-1, size)[i:i + 8] = np.fft.irfft(chunk, n_fft)[:, :size]
    return out


def partitioned_convolve(waves, kernels) -> np.ndarray:
    """``sum(fftconvolve(waves[u], kernels[u]))`` over U waves of length n and
    (U, E, taps) kernels, uniformly partitioned: per block of max(2048, 4 taps)
    samples, one batched rfft, one product summed over u and one irfft."""
    n, taps = len(waves[0]), kernels.shape[-1]
    block = max(2048, 4 * taps)
    n_fft = next_fast_len(block + taps - 1)
    spectra, out = np.fft.rfft(kernels, n_fft), np.zeros((kernels.shape[1], n + taps - 1))
    for i in range(0, n, block):
        chunk = np.fft.rfft([w[i:i + block] for w in waves], n_fft)
        m = min(block, n - i) + taps - 1  # samples of this block's convolution
        out[:, i:i + m] += np.fft.irfft(np.einsum("uef,uf->ef", spectra, chunk), n_fft)[:, :m]
    return out


def band_split(x: np.ndarray, fs: float, n_fft: int) -> np.ndarray:
    """The zero-phase octave bands of ``x``, shape (n_bands, len(x)): its
    spectrum at ``n_fft`` times each band mask, transformed back one band at a
    time (complex temporaries stay one row long) and cut to ``len(x)``: circular
    at ``n_fft == len(x)``, padded against wrap-around at ``padded_len(len(x))``."""
    spec = np.fft.rfft(x, n_fft)
    masks = band_masks(n_fft, fs)
    bands = np.empty((len(masks), len(x)))
    for band, mask in zip(bands, masks):
        band[:] = np.fft.irfft(spec * mask, n_fft)[:len(x)]
    return bands


def band_kernels(fs: float) -> np.ndarray:
    """(n_bands, 2 h) zero-phase band kernels, h = max(0.3 fs, 4096): each
    band of a unit impulse, rolled by h so that it is causal."""
    h = max(int(0.3 * fs), 4096)
    return np.roll(band_split(np.eye(1, 2 * h)[0], fs, 2 * h), h, axis=-1)


def band_energies(x: np.ndarray, fs: float, centers=OCTAVE_CENTERS_8) -> np.ndarray:
    """Per-band energy of ``x`` (Parseval over masked spectra)."""
    n = len(x)
    masks = band_masks(n, fs, centers)
    spec = np.fft.rfft(x)
    power = np.abs(spec) ** 2
    # rfft bins count interior frequencies twice in the full spectrum
    weights = np.full(power.shape, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return (masks**2 * power * weights).sum(axis=1) / n
