from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alodsim.analysis import (
    NED_WINDOW_S,
    drr,
    dual_slope_fit,
    ned,
    schroeder_edc,
    t30,
    t30_bands,
)
from alodsim.errors import InsufficientDecayError, SceneValidationError
from alodsim.pipeline import simulate
from alodsim.scene import RoomSpec, mean_free_path, preset, profile_preset
from oracles import dual_slope_fit_per_knee, ned_per_frame

FS = 44100.0


def synthetic_decay(t60, fs=FS, duration=None, seed=0, amp2=0.0, t60_2=None,
                    knee_db=-40.0):
    """Exponentially decaying Gaussian noise, optionally with a second slope.

    Constructed directly from the definition, independent of the renderer.
    """
    if duration is None:
        duration = 1.4 * t60 if t60_2 is None else 1.1 * (
            -knee_db / 60.0 * t60 + t60_2)
    n = int(duration * fs)
    t = np.arange(n) / fs
    rng = np.random.default_rng(seed)
    env2 = 10.0 ** (-60.0 * t / (10.0 * t60))
    if t60_2 is not None:
        # second exponential pinned to cross the first at the knee level
        t_knee = -knee_db / 60.0 * t60
        level2 = 10.0 ** (knee_db / 10.0)
        env2 = env2 + level2 * 10.0 ** (-60.0 * (t - t_knee) / (10.0 * t60_2))
    return rng.standard_normal(n) * np.sqrt(env2)


# ---------------------------------------------------------------------------
# EDC / T30
# ---------------------------------------------------------------------------

def test_edc_monotone_and_normalized():
    h = synthetic_decay(0.5)
    edc = schroeder_edc(h, FS)
    assert edc.values[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(edc.values) <= 1e-12)
    assert edc.values.min() >= -120.0


def test_edc_rejects_silence():
    with pytest.raises(SceneValidationError):
        schroeder_edc(np.zeros(100), FS)


def test_t30_accuracy_on_synthetic_decays():
    rng = np.random.default_rng(99)
    for seed in range(20):
        target = float(rng.uniform(0.3, 3.0))
        h = synthetic_decay(target, seed=seed)
        est = t30(schroeder_edc(h, FS))
        assert abs(est / target - 1.0) < 0.04, (
            f"T60 {target:.3f}: estimated {est:.3f}")


def test_t30_exact_on_ideal_exponential():
    t60 = 0.8
    n = int(1.2 * FS)
    t = np.arange(n) / FS
    h = 10.0 ** (-60.0 * t / (20.0 * t60))  # noiseless exponential
    est = t30(schroeder_edc(h, FS))
    assert est == pytest.approx(t60, rel=0.01)


def test_t30_requires_enough_decay():
    h = np.ones(1000)
    with pytest.raises(InsufficientDecayError):
        t30(schroeder_edc(h, FS))


def test_t30_rejects_a_fit_span_of_one_sample():
    # a lone impulse: the EDC drops from 0 dB to the floor in one step
    h = np.zeros(1000)
    h[10] = 1.0
    with pytest.raises(InsufficientDecayError, match="fewer than two"):
        t30(schroeder_edc(h, FS))


# ---------------------------------------------------------------------------
# NED
# ---------------------------------------------------------------------------

def test_t30_bands_names_a_band_above_the_nyquist_frequency():
    # at 16 kHz the 16 kHz band's mask is zero, since its crossover starts
    # at 10.1 kHz; the IR itself is loud
    ir = simulate(replace(preset("pub"), sample_rate=16000.0), profile_preset("razr-full"),
                  output_mode="mono").ir
    assert np.max(np.abs(ir.channels)) > 1.0
    with pytest.raises(InsufficientDecayError,
                       match="the 16000 Hz band carries no energy at a sample rate of 16000 Hz"):
        t30_bands(ir.channels[0], ir.sample_rate)


def test_ned_of_gaussian_noise_is_one():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(int(0.5 * FS))
    profile = ned(h, FS)
    center = profile.values[5:-5]
    assert 0.9 <= center.mean() <= 1.1
    assert np.all(center > 0.8)


def test_ned_of_sparse_impulses_is_low():
    h = np.zeros(int(0.5 * FS))
    h[::2000] = 1.0
    profile = ned(h, FS)
    assert profile.values.mean() < 0.2


def test_ned_window_longer_than_signal_rejected():
    with pytest.raises(SceneValidationError):
        ned(np.ones(100), FS)


def test_ned_checks_the_window_after_rounding_it_to_odd_length():
    # round(25 ms * 44.1 kHz) = 1102 samples, made odd: 1103
    w = 1103
    with pytest.raises(SceneValidationError):
        ned(np.ones(w - 1), FS)
    profile = ned(np.ones(w), FS)
    assert profile.values.size == 1
    assert profile.window == w / FS


@st.composite
def _ned_signals(draw):
    """A random fs, a length from one window up, and a signal that may hold
    silence, sparse impulses, decaying noise or values whose squares underflow."""
    fs = float(draw(st.sampled_from([1000, 8000, 16000, 22050, 44100, 48000])))
    w = int(round(NED_WINDOW_S * fs))
    w += (w + 1) % 2
    n = draw(st.integers(w, 6 * w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "sparse", "silent gap", "tiny"]))
    h = rng.standard_normal(n) * 10.0 ** (-draw(st.floats(0.0, 6.0)) * np.arange(n) / n)
    if kind == "sparse":
        h = np.where(rng.random(n) < draw(st.floats(0.0, 0.05)), h, 0.0)
    elif kind == "silent gap":
        lo = draw(st.integers(0, n - 1))
        h[lo:lo + draw(st.integers(0, 3 * w))] = 0.0
    elif kind == "tiny":
        h = h * 1e-170  # squares below the smallest subnormal
    return h, fs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ned_signals())
def test_ned_equals_the_per_frame_oracle(signal):
    h, fs = signal
    got, want = ned(h, fs), ned_per_frame(h, fs)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.values, want.values)
    assert got.window == want.window


# ---------------------------------------------------------------------------
# dual slope
# ---------------------------------------------------------------------------

def _single_line_mse(edc, span_db=60.0):
    """Mean squared error of the least-squares line over the span that
    dual_slope_fit fits (-5 dB down to span_db or 5 dB above the floor)."""
    v = edc.values
    floor = max(-span_db, float(v.min()) + 5.0)
    start, stop = int(np.argmax(v <= -5.0)), int(np.argmax(v <= floor))
    t, y = np.arange(start, stop + 1) / edc.sample_rate, v[start:stop + 1]
    return float(np.mean((np.polyval(np.polyfit(t, y, 1), t) - y) ** 2))


def test_dual_slope_fit_recovers_synthetic_knee():
    h = synthetic_decay(1.6, t60_2=3.2, knee_db=-40.0, seed=5)
    fit = dual_slope_fit(schroeder_edc(h, FS))
    # backward integration of the slow tail lifts the EDC above the
    # instantaneous power curve, so the fitted knee sits a few dB above
    # the -40 dB power crossing
    assert fit.knee_level == pytest.approx(-37.0, abs=5.0)
    assert -60.0 / fit.slope1 == pytest.approx(1.6, rel=0.15)
    assert -60.0 / fit.slope2 == pytest.approx(3.2, rel=0.25)
    # the hinge fit must beat the single line decisively
    assert fit.residual < 0.5 * _single_line_mse(schroeder_edc(h, FS))


def test_dual_slope_fit_on_single_slope_gives_equal_slopes():
    h = synthetic_decay(0.9, seed=6)
    fit = dual_slope_fit(schroeder_edc(h, FS))
    assert abs(fit.slope1 - fit.slope2) / abs(fit.slope1) < 0.15


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t60=st.floats(0.1, 1.0), ratio=st.floats(0.5, 4.0), knee_db=st.floats(-45.0, -10.0),
       seed=st.integers(0, 2**32 - 1), fs=st.sampled_from([4000.0, 8000.0, 16000.0]),
       stretch=st.floats(0.8, 1.3))
def test_dual_slope_fit_equals_the_per_knee_oracle(t60, ratio, knee_db, seed, fs, stretch):
    h = synthetic_decay(t60, fs=fs, seed=seed, t60_2=ratio * t60, knee_db=knee_db)
    edc = schroeder_edc(h[: int(stretch * h.size)], fs)
    try:
        want = dual_slope_fit_per_knee(edc)
    except InsufficientDecayError:
        with pytest.raises(InsufficientDecayError):
            dual_slope_fit(edc)
        return
    assert dual_slope_fit(edc) == want


def test_dual_slope_needs_50_db_of_decay():
    # a constant signal's EDC bottoms out at 10 log10(1/n) ~ -30 dB,
    # well short of the 50 dB the fit requires
    h = np.ones(1000)
    with pytest.raises(InsufficientDecayError):
        dual_slope_fit(schroeder_edc(h, FS))


# ---------------------------------------------------------------------------
# DRR / mean free path
# ---------------------------------------------------------------------------

def test_drr_of_known_split():
    n = int(0.3 * FS)
    h = np.zeros(n)
    h[100] = 1.0  # direct
    rng = np.random.default_rng(1)
    tail = rng.standard_normal(n - 1000)
    tail *= np.sqrt(0.1 / np.dot(tail, tail))  # reverberant energy 0.1
    h[1000:] += tail
    est = drr(h, FS)
    assert est == pytest.approx(10.0, abs=0.5)  # 10 log10(1.0 / 0.1)


def test_mean_free_path_formula():
    room = RoomSpec(id="r", dims=(4.0, 3.0, 2.5), absorption=0.3,
                    scattering=0.3)
    v = 4.0 * 3.0 * 2.5
    s = 2 * (12.0 + 10.0 + 7.5)
    assert mean_free_path(room) == pytest.approx(4.0 * v / s)
