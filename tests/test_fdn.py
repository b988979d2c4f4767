import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alodsim import fdn
from alodsim.analysis import dual_slope_fit, schroeder_edc, t30, t30_bands
from alodsim.coupled import _room_fdns
from alodsim.errors import InfeasibleTargetError, SceneValidationError
from alodsim.fdn import (
    MAX_DELAY_MFP,
    N_LINES,
    FdnConfig,
    design_dual_slope,
    design_fdn,
    line_blocks,
)
from alodsim.ism import SpatialIR, Tail, Taps
from alodsim.scene import (
    DecayTarget,
    RoomSpec,
    SecondSlope,
    mean_free_path,
    preset,
    profile_preset,
)

from alodsim.synth import synthesize_mono

from oracles import fdn_lines, per_band_run_fdn, run_band

FS = 44100.0
NO_TAPS = Taps(delay=np.zeros(0), amplitude=np.zeros((0, 8)), doa=np.zeros((0, 3)),
               order=np.zeros(0, dtype=int))


def _living_room():
    return preset("living-room").room("living-room")


# spread delays: the longest line is four blocks of min(delay) long, so its
# feed written ahead lands several blocks past the block that made it
SPREAD_DELAYS = (13, 29, 41, 53)


def _small_config(delays=(13, 17, 19, 23)):
    rng = np.random.default_rng(5)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    gains = np.full((4, 8), 0.9)
    return FdnConfig(delays=np.array(delays), feedback_matrix=q, line_gains=gains,
                     sample_rate=FS, input_gain=0.5)


def ring(config, n, input_signal=None):
    """(lines, n): the blocks of ``fdn.line_blocks``, laid end to end."""
    out = np.full((config.n_lines, n), np.nan)
    at = 0
    for start, y in line_blocks(config, n, input_signal):
        assert start == at
        out[:, start:start + y.shape[1]] = y
        at += y.shape[1]
    assert at == n
    return out


def mono_tail(configs, seconds, drive=None):
    """The mono render of a tail of ``configs`` alone, at unit energy."""
    tail = Tail(configs=tuple(configs), length=int(seconds * FS), energy=1.0, start=0, drive=drive)
    return synthesize_mono(SpatialIR(taps=NO_TAPS, sample_rate=FS, tail=tail))


def naive_fdn(config, gains, n, input_signal):
    """Per-sample oracle for the blocked recurrence in fdn.line_blocks: one
    circular buffer per line, fed at the line input."""
    n_lines = config.n_lines
    delays = config.delays
    buffers = [np.zeros(d) for d in delays]
    heads = [0] * n_lines
    out = np.zeros((n_lines, n))
    m = config.feedback_matrix
    for t in range(n):
        y = np.array([buffers[i][heads[i]] for i in range(n_lines)])
        att = gains * y
        out[:, t] = att
        x = m @ att
        for i in range(n_lines):
            buffers[i][heads[i]] = x[i]
            if t < len(input_signal):
                buffers[i][heads[i]] += config.input_gain * input_signal[t]
            heads[i] = (heads[i] + 1) % delays[i]
    return out


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_delays_must_be_distinct():
    cfg = _small_config()
    with pytest.raises(SceneValidationError):
        FdnConfig(delays=np.array([13, 13, 19, 23]),
                  feedback_matrix=cfg.feedback_matrix,
                  line_gains=cfg.line_gains, sample_rate=FS)


def test_matrix_must_be_orthogonal():
    cfg = _small_config()
    with pytest.raises(SceneValidationError):
        FdnConfig(delays=cfg.delays, feedback_matrix=np.eye(4) * 1.01,
                  line_gains=cfg.line_gains, sample_rate=FS)


@pytest.mark.parametrize("gain", [0.0, 1.0, 1.5, np.nan])
def test_line_gains_must_lie_strictly_between_0_and_1(gain):
    cfg = _small_config()
    gains = cfg.line_gains.copy()
    gains[2, 5] = gain
    with pytest.raises(InfeasibleTargetError, match=r"\(0, 1\)"):
        FdnConfig(delays=cfg.delays, feedback_matrix=cfg.feedback_matrix,
                  line_gains=gains, sample_rate=FS)


# ---------------------------------------------------------------------------
# recurrence correctness
# ---------------------------------------------------------------------------

def test_block_recurrence_matches_per_sample_oracle():
    # blockwise matrix products may round differently in the last ulp, so
    # the comparison allows rounding noise but nothing structural; the
    # 40-sample input is longer than the 39-sample ring
    cfg = _small_config()
    gains = cfg.line_gains[:, 0]
    x = np.random.default_rng(0).standard_normal(40)
    fast = ring(cfg, 400, x)
    slow = naive_fdn(cfg, gains, 400, x)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_block_recurrence_matches_oracle_with_spread_delays():
    cfg = _small_config(SPREAD_DELAYS)
    gains = cfg.line_gains[:, 0]
    x = np.random.default_rng(1).standard_normal(60)
    fast = ring(cfg, 500, x)
    slow = naive_fdn(cfg, gains, 500, x)
    assert np.max(np.abs(fast - slow)) < 1e-12


@st.composite
def _random_fdn_case(draw):
    n_lines = draw(st.integers(3, 6))
    # the shortest delay sets the block size; the longest line spans two
    # blocks or more, and the lines come in any order
    block = draw(st.integers(2, 14))
    longest = draw(st.integers(max(2 * block, block + n_lines), 4 * block + 8))
    others = draw(st.lists(st.integers(block + 1, longest - 1), min_size=n_lines - 2,
                           max_size=n_lines - 2, unique=True))
    delays = draw(st.permutations([block, longest, *others]))
    gains = np.array(draw(st.lists(st.floats(1e-3, 1.0, exclude_max=True),
                                   min_size=n_lines, max_size=n_lines)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.standard_normal((n_lines, n_lines)))
    q = q * np.sign(np.diag(r))
    cfg = FdnConfig(delays=np.array(delays), feedback_matrix=q,
                    line_gains=gains[:, None], sample_rate=FS, input_gain=0.5)
    n = draw(st.integers(1, 160))
    x = rng.uniform(-1.0, 1.0, draw(st.integers(1, 200)))  # longer or shorter than n
    return cfg, gains, n, x


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_random_fdn_case())
def test_block_recurrence_matches_oracle_on_random_configs(case):
    cfg, gains, n, x = case
    fast = ring(cfg, n, x)
    slow = naive_fdn(cfg, gains, n, x)
    assert np.max(np.abs(fast - slow)) < 1e-12
    assert np.array_equal(fast, run_band(cfg, gains, n, x))


def _ring_case(case):
    """(configs, drive, seconds) of one of the tails that the ring must run."""
    room = _living_room()
    if case == "broadband":
        return [design_fdn(room, room.decay, FS)], None, 0.15
    if case == "per-band groups":
        cfg, x = _four_band_groups(True)
        return [cfg], x, 0.05
    if case == "driven past the ring":  # 4000 samples into a 1392-sample ring
        x = np.random.default_rng(6).standard_normal(4000)
        return [design_fdn(room, room.decay, FS)], x, 0.15
    underground = preset("underground").rooms[0]
    return list(design_dual_slope(underground, underground.decay, FS)), None, 0.15


@pytest.mark.parametrize("case", ["broadband", "per-band groups", "driven past the ring",
                                  "dual-slope pair"])
def test_ring_matches_the_whole_block_and_per_sample_oracles(case):
    configs, x, seconds = _ring_case(case)
    n = int(seconds * FS)
    for cfg in configs:
        got = ring(cfg, n, x)
        for run in (run_band, naive_fdn):
            want = fdn_lines(cfg, n, x, run=run)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), run.__name__


def test_ring_holds_a_few_line_delays_not_the_tail():
    # underground primary: a 5391-sample ring of 12 lines and one block of
    # 8192 samples and a step, against a (12, 176 400) array of line outputs
    # for 4 s (16.9 MB)
    room = preset("underground").rooms[0]
    cfg = design_fdn(room, room.decay, FS)
    n = int(4.0 * FS)
    tracemalloc.start()
    try:
        widths = [y.shape[1] for _, y in line_blocks(cfg, n)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(widths) == n and min(widths[:-1]) >= 8192
    assert peak < 2 << 20, peak


def test_recurrence_prefix_is_run_length_invariant():
    # the same config must produce a bit-identical prefix regardless of the
    # requested duration (determinism contract)
    cfg = _small_config(SPREAD_DELAYS)
    gains = cfg.line_gains[:, 0]
    x = np.random.default_rng(2).standard_normal(50)
    short = ring(cfg, 300, x)
    long = ring(cfg, 900, x)
    assert np.array_equal(short, long[:, :300])


def test_unit_gain_loop_conserves_energy():
    # with gains = 1 the feedback matrix is orthogonal, so once the input is
    # in, total buffer energy is exactly constant; the output energy over a
    # delay-LCM period equals the loop energy injected
    cfg = _small_config()
    gains = np.ones(4)
    out = naive_fdn(cfg, gains, 6000, np.array([1.0]))
    # windowed output energy of the lossless loop drifts only by rounding
    e1 = np.sum(out[:, 1000:3000] ** 2)
    e2 = np.sum(out[:, 3000:5000] ** 2)
    assert abs(e2 - e1) / e1 < 0.2  # statistical wobble, no decay trend


# ---------------------------------------------------------------------------
# the designed reverberator
# ---------------------------------------------------------------------------

def test_design_gain_formula():
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS)
    t60 = room.decay.t30_bands
    expected = 10.0 ** (-3.0 * cfg.delays[:, None] / (FS * t60[None, :]))
    assert np.array_equal(cfg.line_gains, expected)


def test_design_delays_are_pairwise_coprime():
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS)
    d = cfg.delays
    assert d.size == N_LINES
    for i in range(d.size):
        for j in range(i + 1, d.size):
            assert math.gcd(int(d[i]), int(d[j])) == 1


def test_design_shortest_delay_tracks_room_height():
    # shortest physical path is the 2.71 m height
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS)
    raw = 2.71 * FS / 343.0  # ~348.4 samples
    assert abs(int(cfg.delays.min()) - raw) < 8  # coprime nudges go upward


@pytest.mark.parametrize("name", ["living-room", "pub", "underground"])
def test_design_delays_rise_to_at_most_max_delay_mfp(name):
    # a line holds its energy for a whole pass; the underground preset's
    # longest line once ran 22643 samples, where 4 mean free paths are 4620.
    # Only the coprime nudge, upward by a few samples, may pass the cap
    for room in preset(name).rooms:
        cfg = design_fdn(room, room.decay, FS)
        assert np.all(np.diff(cfg.delays) > 0)
        assert cfg.delays.max() < MAX_DELAY_MFP * mean_free_path(room) * FS / 343.0 + 8


def test_volume_override_scales_delays():
    room = preset("pub").rooms[0]  # V_override = 442 < box volume
    cfg = design_fdn(room, room.decay, FS)
    plain = RoomSpec(id="p", dims=room.dims, absorption=room.absorption,
                     scattering=room.scattering, decay=room.decay)
    cfg_plain = design_fdn(plain, room.decay, FS)
    factor = (442.0 / float(np.prod(room.dims))) ** (1.0 / 3.0)
    assert cfg.delays.min() < cfg_plain.delays.min()
    assert cfg.delays.min() == pytest.approx(cfg_plain.delays.min() * factor,
                                             rel=0.03)


def test_tail_broadband_t30_hits_target():
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS)
    mono = mono_tail([cfg], 1.2)
    est = t30(schroeder_edc(mono, FS))
    assert 0.49 <= est <= 0.59, f"T30 {est:.3f} outside 0.54 +/- 10%"


def test_tail_per_band_t30_within_ten_percent():
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS)
    mono = mono_tail([cfg], 1.2)
    bands = t30_bands(mono, FS)
    rel = np.abs(bands / room.decay.t30_bands - 1.0)
    assert np.all(rel < 0.10), f"per-band rel errors {np.round(rel, 3)}"


def test_tail_is_seed_deterministic():
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS, seed=3)
    a = mono_tail([cfg], 0.4)
    b = mono_tail([cfg], 0.4)
    assert np.array_equal(a, b)


def test_different_seed_changes_matrix_not_decay():
    room = _living_room()
    a = design_fdn(room, room.decay, FS, seed=0)
    b = design_fdn(room, room.decay, FS, seed=1)
    assert not np.allclose(a.feedback_matrix, b.feedback_matrix)
    assert np.array_equal(a.delays, b.delays)
    assert np.array_equal(a.line_gains, b.line_gains)


# ---------------------------------------------------------------------------
# band grouping against the per-band oracle
# ---------------------------------------------------------------------------

def _count_band_limited_inputs(monkeypatch):
    calls = []
    original = fdn.fftconvolve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fdn, "fftconvolve", counted)
    return calls


def test_broadband_target_runs_the_loop_once(monkeypatch):
    room = _living_room()
    cfg = design_fdn(room, room.decay, FS)
    assert len(np.unique(cfg.line_gains.T, axis=0)) == 1
    want = per_band_run_fdn(cfg, 0.5)
    calls = _count_band_limited_inputs(monkeypatch)
    got = ring(cfg, int(0.5 * FS))
    assert len(calls) == 0  # one group: the impulse enters unfiltered
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _four_band_groups(driven):
    """A living-room FDN whose 8 band targets form 4 groups, and its input:
    300 noise samples when ``driven``, else None (a unit impulse)."""
    target = DecayTarget(t30_bands=np.array([0.8, 0.8, 0.7, 0.6, 0.6, 0.6, 0.45, 0.45]))
    x = np.random.default_rng(4).standard_normal(300) if driven else None
    return design_fdn(_living_room(), target, FS), x


@pytest.mark.parametrize("driven", [False, True])
def test_distinct_band_targets_match_per_band_oracle(monkeypatch, driven):
    cfg, x = _four_band_groups(driven)
    # the oracle runs past 0.5 s, so the acausal half of its band kernels
    # sees the loop's own continuation there, as line_blocks' band-limited
    # input does, not zeros
    want = per_band_run_fdn(cfg, 1.0, input_signal=x)[:, :int(0.5 * FS)]
    calls = _count_band_limited_inputs(monkeypatch)
    got = ring(cfg, int(0.5 * FS), x)
    assert len(calls) == 4  # one band-limited input per group
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("driven", [False, True])
def test_distinct_band_targets_transform_no_twice_duration(monkeypatch, driven):
    # each group's input is band-limited by a short convolution: no line
    # output is transformed at the 2n that masking n samples would need
    cfg, x = _four_band_groups(driven)
    lengths, rfft = [], np.fft.rfft

    def recorded(a, n=None, *args, **kwargs):
        lengths.append(np.shape(a)[-1] if n is None else n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recorded)
    ring(cfg, int(0.5 * FS), x)
    assert all(length < 2 * int(0.5 * FS) for length in lengths), lengths


# ---------------------------------------------------------------------------
# dual slope
# ---------------------------------------------------------------------------

def test_dual_slope_secondary_gain_formula():
    room = preset("underground").rooms[0]
    primary, secondary = design_dual_slope(room, room.decay, FS)
    t1, t2, level = 1.6, 3.2, -40.0
    rel_db = level * (1.0 - t1 / t2) + 10.0 * math.log10(t1 / t2)
    expected = primary.input_gain * 10.0 ** (rel_db / 20.0)
    assert secondary.input_gain == pytest.approx(expected, rel=1e-12)


def _line_t60(config):
    """(lines, bands) T60 that each line gain realizes over its delay."""
    return -3.0 * config.delays[:, None] / (config.sample_rate * np.log10(config.line_gains))


def test_dual_slope_secondary_scales_every_band_t30():
    # per-band primary T30s: each band's second slope is its own T30 times
    # t2 / t1, so every band meets its knee where the broadband rule puts it
    room = preset("underground").rooms[0]
    target = replace(room.decay, t30_bands=1.6 * np.geomspace(1.4, 0.55, 8))
    primary, secondary = design_dual_slope(room, target, FS)
    ratio = target.second_slope.t30_2 / target.broadband_t30
    np.testing.assert_allclose(_line_t60(secondary), _line_t60(primary) * ratio, rtol=1e-9)


def test_dual_slope_tail_knee_and_slopes():
    room = preset("underground").rooms[0]
    primary, secondary = design_dual_slope(room, room.decay, FS)
    mono = mono_tail([primary, secondary], 3.8)
    fit = dual_slope_fit(schroeder_edc(mono, FS))
    assert -45.0 <= fit.knee_level <= -33.0, f"knee at {fit.knee_level:.1f} dB"
    # the late slope must be distinctly shallower than the early one
    assert abs(fit.slope2) < 0.75 * abs(fit.slope1)


def test_dual_slope_requires_second_slope():
    # a room's tail is the dual-slope pair only where the profile renders a
    # second slope: the living room has none, and razr-simple renders none
    cases = (("living-room", "razr-full", 1), ("underground", "razr-full", 2),
             ("underground", "razr-simple", 1))
    for name, profile, n_fdns in cases:
        scene = preset(name)
        configs = _room_fdns(scene, profile_preset(profile), scene.rooms[0],
                             np.random.SeedSequence(0))
        assert len(configs) == n_fdns, (name, profile)
        assert all(config.n_lines == N_LINES for config in configs)


def test_dual_slope_onset_must_lie_below_minus_20_db():
    # the scene rejects what the dual-slope FDN design cannot realize
    with pytest.raises(SceneValidationError, match="below -20 dB"):
        SecondSlope(t30_2=3.2, onset_level_db=-10.0)
    with pytest.raises(SceneValidationError, match="below -20 dB"):
        SecondSlope(t30_2=3.2, onset_level_db=-20.0)
    assert SecondSlope(t30_2=3.2, onset_level_db=-20.5).onset_level_db == -20.5


@pytest.mark.parametrize("t30", [1e-6, 1e300])
def test_unreachable_t30_target_is_an_infeasible_target(t30):
    # 1e-6 s underflows the line gains to 0; 1e300 s rounds them to 1
    room = _living_room()
    with pytest.raises(InfeasibleTargetError, match="living-room"):
        design_fdn(room, DecayTarget(t30_bands=t30), FS)
