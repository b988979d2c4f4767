import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from alodsim.filterbank import (
    OCTAVE_CENTERS_8,
    band_energies,
    band_kernels,
    band_masks,
    band_split,
    fftconvolve,
    next_fast_len,
    padded_len,
)

from oracles import fftconvolve_one_shot

FS = 44100.0


def test_masks_sum_to_one():
    masks = band_masks(8192, FS)
    assert masks.shape == (8, 4097)
    assert np.allclose(masks.sum(axis=0), 1.0, atol=1e-12)
    assert masks.min() >= 0.0
    assert masks.max() <= 1.0 + 1e-12


def test_masks_select_the_right_band():
    masks = band_masks(16384, FS)
    freqs = np.fft.rfftfreq(16384, 1.0 / FS)
    for b, center in enumerate(OCTAVE_CENTERS_8):
        i = int(np.argmin(np.abs(freqs - center)))
        assert masks[b, i] > 0.999, f"band {center} Hz mask not 1 at its center"


def test_tone_energy_lands_in_one_band():
    n = 32768
    t = np.arange(n) / FS
    for b, center in enumerate(OCTAVE_CENTERS_8[:-1]):
        tone = np.sin(2 * np.pi * center * t)
        e = band_energies(tone, FS)
        share = e / e.sum()
        assert share[b] > 0.99, f"{center} Hz tone leaked out of band {b}"


def test_band_energies_are_parseval_complete():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10000)
    e = band_energies(x, FS)
    # masks sum to 1 in amplitude, so per-band power masks overlap at the
    # crossovers; total band energy stays within a few percent of the signal
    total = float(np.dot(x, x))
    assert 0.9 * total <= e.sum() <= 1.001 * total


def test_recombination_is_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4096)
    for n_fft in (padded_len(x.size), x.size):  # padded and circular
        rec = band_split(x, FS, n_fft).sum(axis=0)
        assert np.max(np.abs(rec - x)) < 1e-12


def _band(x, b, n_fft=None):
    """One octave band of ``x``: its spectrum at ``n_fft`` (padded_len by
    default) times band b's mask."""
    n_fft = n_fft or padded_len(len(x))
    return np.fft.irfft(np.fft.rfft(x, n_fft) * band_masks(n_fft, FS)[b], n_fft)[:len(x)]


def test_bandpass_sums_back_to_signal():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4096)
    parts = np.sum([_band(x, b) for b in range(8)], axis=0)
    assert np.max(np.abs(parts - x)) < 1e-12


def test_bandpass_is_zero_phase():
    n = 8192
    x = np.zeros(n)
    x[n // 2] = 1.0
    y = _band(x, 3)
    peak = int(np.argmax(np.abs(y)))
    assert peak == n // 2


@pytest.mark.parametrize("n", [1, 2, 7, 4096, 34479, 175582])
def test_padded_len_is_fast_and_holds_the_kernel(n):
    size = padded_len(n)
    assert size >= 2 * n
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    assert size == 1, f"{padded_len(n)} has a prime factor above 5"


def test_band_filter_gives_every_band_from_one_transform(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3000)
    rfft = np.fft.rfft
    for n_fft in (padded_len(x.size), x.size):  # padded and circular
        want = [_band(x, b, n_fft) for b in range(8)]
        lengths = []
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
            bands = band_split(x, FS, n_fft)
        assert lengths == [n_fft]
        assert bands.shape == (8, x.size)
        for b in range(8):
            assert np.max(np.abs(bands[b] - want[b])) < 1e-12


@pytest.mark.parametrize("fs", [44100.0, 48000.0])
def test_band_kernels_are_the_rolled_inverse_transforms_of_the_masks(fs):
    # a unit impulse's spectrum is exactly 1, so its bands are the masks'
    # inverse transforms, bit for bit
    h = max(int(0.3 * fs), 4096)
    want = np.roll(np.fft.irfft(band_masks(2 * h, fs), 2 * h), h, axis=-1)
    assert np.array_equal(band_kernels(fs), want)


def test_band_kernels_are_causal_zero_phase_bands_that_sum_to_a_delay():
    kernels = band_kernels(FS)
    h = int(0.3 * FS)
    assert kernels.shape == (8, 2 * h)
    delay = np.zeros(2 * h)
    delay[h] = 1.0
    assert np.max(np.abs(kernels.sum(axis=0) - delay)) < 1e-12
    # each band's kernel is symmetric about sample h, where it peaks
    assert np.all(np.argmax(np.abs(kernels), axis=1) == h)
    np.testing.assert_allclose(kernels[:, h - 100:h], kernels[:, h + 100:h:-1], atol=1e-15)


# shapes of (a, b) by case, for signal lengths n and k
_CONV_SHAPES = {
    "1-D": lambda n, k: ((n,), (k,)),
    "(C, n) with (k,)": lambda n, k: ((3, n), (k,)),
    "(C, n) with (1, k)": lambda n, k: ((2, n), (1, k)),
}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_CONV_SHAPES)), st.integers(1, 600), st.integers(1, 600),
       st.integers(0, 2**32 - 1))
@example("(C, n) with (k,)", 600, 1, 0)
@example("(C, n) with (1, k)", 1, 600, 0)
def test_fftconvolve_matches_scipy(case, n, k, seed):
    rng = np.random.default_rng(seed)
    shape_a, shape_b = _CONV_SHAPES[case](n, k)
    a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
    ref = scipy.signal.fftconvolve(a, b.reshape((1,) * (a.ndim - b.ndim) + b.shape), axes=-1)
    got = fftconvolve(a, b)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("channels", [None, 1, 7, 8, 9, 86], ids=lambda c: f"{c or '1-D'}")
@pytest.mark.parametrize("n, k", [(3001, 700), (700, 3001), (9597, 9978)])
def test_fftconvolve_in_chunks_of_rows_equals_one_product(channels, n, k):
    # each chunk of 8 rows is transformed apart from the others: every row
    # still gets the same sums as in one transform of all of them
    rng = np.random.default_rng(n + (channels or 0))
    a = rng.standard_normal(n if channels is None else (channels, n))
    for b in (rng.standard_normal(k), rng.standard_normal((1, k))):
        got, want = fftconvolve(a, b), fftconvolve_one_shot(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fftconvolve_of_86_channels_holds_its_output_and_bounded_scratch():
    # the living room's door signature on an 86-channel array render: the
    # whole complex spectrum of the channels at once, and an output that was
    # a view of an n_fft-long buffer, took the peak to 2.0 x the output
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((86, 9597)), rng.standard_normal(9978)
    tracemalloc.start()
    try:
        out = fftconvolve(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (86, 9597 + 9978 - 1) and out.base is None
    assert peak < out.nbytes + (8 << 20), f"peak {peak} B for {out.nbytes} B of output"


def test_next_fast_len_matches_scipy():
    # every FFT length in the package comes from here
    got = [next_fast_len(n) for n in range(300001)]
    assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(300001)]
