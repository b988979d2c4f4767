import numpy as np
import pytest

from alodsim.errors import MatchInfeasibleError, RateMismatchError
from alodsim.filterbank import band_masks
from alodsim.postproc import (
    _smoothed_difference_db,
    match_spectrum,
    minimum_phase_fir,
    third_octave_smooth,
)
from alodsim.spatial import ImpulseResponse

FS = 44100.0


def spectral_deviation_db(ir_a: ImpulseResponse, ir_b: ImpulseResponse) -> float:
    """Mean |difference| of third-octave smoothed magnitude spectra (dB)."""
    return float(np.mean(np.abs(_smoothed_difference_db(ir_a, ir_b))))


def _noise_ir(seed=0, n=8192, channels=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((channels, n)) * np.exp(-np.arange(n) / (0.1 * FS))
    return ImpulseResponse(channels=x, sample_rate=FS)


def _colored(ir, offsets_db, seed=None):
    n_fft = 1 << (ir.n_samples - 1).bit_length()
    masks = band_masks(n_fft, ir.sample_rate)
    color = (10.0 ** (np.asarray(offsets_db) / 20.0)[:, None] * masks).sum(axis=0)
    spec = np.fft.rfft(ir.channels, n=n_fft, axis=1) * color[None, :]
    return ImpulseResponse(
        channels=np.fft.irfft(spec, n=n_fft, axis=1)[:, :ir.n_samples],
        sample_rate=ir.sample_rate)


def test_third_octave_smooth_preserves_flat_spectra():
    mag = np.full(2049, 3.0)
    out = third_octave_smooth(mag)
    assert np.allclose(out, 3.0, atol=1e-12)


def test_third_octave_smooth_averages_narrow_peaks_away():
    mag = np.ones(4097)
    mag[2000] = 100.0
    out = third_octave_smooth(mag)
    assert out[2000] < 10.0  # the lone bin is diluted by its neighborhood


def test_minimum_phase_fir_magnitude_and_energy_front_loading():
    freqs = np.fft.rfftfreq(4096, 1.0 / FS)
    mag = 1.0 / np.sqrt(1.0 + (freqs / 2000.0) ** 2)  # smooth lowpass
    h = minimum_phase_fir(mag, 4096)
    got = np.abs(np.fft.rfft(h, n=4096))
    sel = freqs < 15000
    assert np.max(np.abs(20 * np.log10(got[sel] / mag[sel]))) < 0.1
    # minimum phase: most energy in the first few hundred samples
    e = h**2
    assert e[:256].sum() > 0.95 * e.sum()


def test_match_spectrum_self_is_identity_level():
    ir = _noise_ir()
    _, _, report = match_spectrum(ir, ir)
    assert report.residual_mean_db < 0.05
    assert not report.clamped


def test_match_spectrum_corrects_octave_coloration():
    ir = _noise_ir(seed=1)
    ref = _colored(ir, [4.0, -3.0, 5.0, -2.0, 0.0, 3.0, -4.0, 2.0])
    corrected, fir, report = match_spectrum(ir, ref)
    assert report.residual_mean_db < 0.5
    before = spectral_deviation_db(ir, ref)
    after = spectral_deviation_db(corrected, ref)
    assert after < 0.25 * before


def test_match_spectrum_clamps_extreme_coloration():
    ir = _noise_ir(seed=2)
    ref = _colored(ir, [20.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -20.0])
    _, _, report = match_spectrum(ir, ref)
    assert report.clamped


def test_match_spectrum_rejects_rate_mismatch():
    ir = _noise_ir()
    other = ImpulseResponse(channels=ir.channels, sample_rate=48000.0)
    with pytest.raises(RateMismatchError):
        match_spectrum(ir, other)


def test_match_spectrum_rejects_a_silent_reference():
    ir = _noise_ir(seed=5)
    silent = ImpulseResponse(channels=np.zeros_like(ir.channels), sample_rate=FS)
    with pytest.raises(MatchInfeasibleError, match="reference"):
        match_spectrum(ir, silent)


def test_spectral_deviation_zero_for_identical():
    ir = _noise_ir(seed=3)
    assert spectral_deviation_db(ir, ir) == pytest.approx(0.0, abs=1e-9)


def test_spectral_deviation_sees_broadband_gain():
    ir = _noise_ir(seed=4)
    louder = ImpulseResponse(channels=2.0 * ir.channels, sample_rate=FS)
    dev = spectral_deviation_db(ir, louder)
    assert dev == pytest.approx(20.0 * np.log10(2.0), abs=0.01)
