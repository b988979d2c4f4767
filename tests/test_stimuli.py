import numpy as np
import pytest

from alodsim.errors import RateMismatchError, SceneValidationError
from alodsim.filterbank import band_energies
from alodsim.spatial import ImpulseResponse
from alodsim.stimuli import (
    BandLevels,
    Stimulus,
    convolve,
    ess_deconvolve,
    ess_generate,
    ess_inverse,
    pink_pulse,
    pink_pulse_variant,
    _envelope_db,
)

from oracles import envelope_db

FS = 44100.0


# ---------------------------------------------------------------------------
# pink pulse
# ---------------------------------------------------------------------------

def test_pink_pulse_length_and_normalization():
    p = pink_pulse()
    assert p.samples.size == int(0.5 * FS)
    assert np.max(np.abs(p.samples)) == pytest.approx(1.0, abs=1e-12)


def test_pink_pulse_interior_bands_flat():
    p = pink_pulse()
    db = 10.0 * np.log10(band_energies(p.samples, FS))
    interior = db[1:-1]
    dev = interior - interior.mean()
    assert np.max(np.abs(dev)) < 0.5, f"interior band spread {dev}"


@pytest.mark.parametrize("n", [22051, 1589])
def test_pink_pulse_of_an_odd_sample_count_is_that_long(n):
    # the minimum-phase design's FFT grid is even; an odd count once lost
    # its last sample. 1589 samples is the shortest pulse past the deadline.
    assert pink_pulse(duration=n / FS).samples.size == n
    levels = BandLevels(offsets_db=(0.0,) * 9 + (6.0,))
    assert pink_pulse_variant(levels, duration=n / FS).samples.size == n


def test_pink_pulse_envelope_reaches_floor_in_time():
    from alodsim.stimuli import _envelope_db

    p = pink_pulse()
    env = _envelope_db(p.samples, FS)
    assert env[int(0.036 * FS)] <= -60.0


@pytest.mark.parametrize("n", [1, 2, 2000, 2001, 22050])
def test_envelope_matches_the_hilbert_oracle(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.exp(-np.arange(n) / 300.0)
    got, ref = _envelope_db(x, FS), envelope_db(x, FS)
    above = ref > -100.0
    # compared as power re peak: FFT rounding near 1e-16 of peak power is
    # up to 1e-6 dB at -100 dB, whichever FFT computes it
    diff = 10.0 ** (got[above] / 10.0) - 10.0 ** (ref[above] / 10.0)
    assert np.max(np.abs(diff)) <= 1e-14


def test_pink_pulse_is_deterministic():
    assert np.array_equal(pink_pulse().samples, pink_pulse().samples)


def test_variant_zero_offsets_bit_exact():
    base = pink_pulse()
    v = pink_pulse_variant(BandLevels(offsets_db=(0.0,) * 10))
    assert np.array_equal(v.samples, base.samples)
    assert v.kind == "pink_pulse_variant"


def test_variant_offsets_realized_in_band_energies():
    offsets = (0.0, 0.0, 0.0, 6.0, -6.0, 0.0, 6.0, 0.0, 0.0, 0.0)
    base = pink_pulse()
    v = pink_pulse_variant(BandLevels(offsets_db=offsets))
    db_base = 10.0 * np.log10(band_energies(base.samples, FS))
    db_v = 10.0 * np.log10(band_energies(v.samples, FS))
    rel = db_v[1:-1] - db_base[1:-1]
    rel = rel - np.median(rel)  # ignore the common renormalization shift
    # interior measurement bands are 250 Hz .. 8 kHz; the offsets above put
    # +6 dB at 250 Hz and 2 kHz and -6 dB at 500 Hz
    assert rel[0] == pytest.approx(6.0, abs=0.5)
    assert rel[1] == pytest.approx(-6.0, abs=0.5)
    assert rel[3] == pytest.approx(6.0, abs=0.5)


def test_band_levels_validation():
    with pytest.raises(SceneValidationError):
        BandLevels(offsets_db=(0.0,) * 9)  # wrong count
    with pytest.raises(SceneValidationError):
        BandLevels(offsets_db=(3.0,) + (0.0,) * 9)  # not in {+6, 0, -6}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_length_and_fades():
    sw = ess_generate()
    assert sw.samples.size == int(3.2 * FS)
    assert abs(sw.samples[0]) < 1e-9
    assert abs(sw.samples[-1]) < 1e-3


def test_sweep_deconvolution_recovers_an_impulse():
    sw = ess_generate()
    ir = ess_deconvolve(sw.samples, sw)
    h = ir.channels[0]
    peak_i = int(np.argmax(np.abs(h)))
    peak = abs(h[peak_i])
    guard = int(0.01 * FS)
    mask = np.ones(h.size, dtype=bool)
    mask[max(0, peak_i - guard):peak_i + guard] = False
    artifact = np.max(np.abs(h[mask]))
    assert 20.0 * np.log10(peak / artifact) >= 60.0


def test_sweep_deconvolution_recovers_a_known_filter():
    sw = ess_generate()
    # a simple two-tap system: y[n] = x[n] + 0.5 x[n - 100]
    rec = sw.samples.copy()
    rec[100:] += 0.5 * sw.samples[:-100]
    ir = ess_deconvolve(rec, sw)
    h = ir.channels[0]
    peak_i = int(np.argmax(np.abs(h)))
    assert abs(h[peak_i + 100] / h[peak_i]) == pytest.approx(0.5, abs=0.02)


def test_sweep_inverse_normalized():
    sw = ess_generate()
    inv = ess_inverse(sw, 100.0, 22050.0)
    from scipy.signal import fftconvolve

    ref = fftconvolve(sw.samples, inv)
    assert np.max(np.abs(ref)) == pytest.approx(1.0, rel=1e-9)


def test_sweep_frequency_bounds_validated():
    with pytest.raises(SceneValidationError):
        ess_generate(f1=0.0)
    with pytest.raises(SceneValidationError):
        ess_generate(f1=1000.0, f2=100.0)
    with pytest.raises(SceneValidationError):
        ess_generate(f2=40000.0, fs=44100.0)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_stimulus_rejects_an_empty_signal():
    # as ``alodsim render`` builds one from a WAV with no frames
    with pytest.raises(SceneValidationError, match="one channel"):
        Stimulus(samples=np.zeros(0), sample_rate=FS, kind="file")


def test_convolve_shapes_and_rate_check():
    p = pink_pulse()
    ir = ImpulseResponse(channels=np.zeros((2, 100)), sample_rate=FS)
    out = convolve(p, ir)
    assert out.shape == (2, 100 + p.samples.size - 1)
    wrong = ImpulseResponse(channels=np.zeros((1, 10)), sample_rate=48000.0)
    with pytest.raises(RateMismatchError):
        convolve(p, wrong)


def test_convolve_identity_ir():
    p = pink_pulse()
    ident = np.zeros(8)
    ident[0] = 1.0
    ir = ImpulseResponse(channels=ident[None, :], sample_rate=FS)
    out = convolve(p, ir)
    assert np.allclose(out[0, :p.samples.size], p.samples, atol=1e-12)
