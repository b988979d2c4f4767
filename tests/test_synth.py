import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from alodsim import ism, preset, profile_preset, simulate, synth
from alodsim.coupled import occluded_direct_ir
from alodsim.errors import SceneValidationError
from alodsim.fdn import design_fdn
from alodsim.ism import Bursts, SpatialIR, Tail, Taps, burst_duration, early_spatial_ir
from alodsim.pipeline import build_spatial_ir, render_output
from alodsim.scene import MAX_SAMPLES, ReceiverSpec, RenderingProfile
from alodsim.spatial import array_preset_86, synthetic_hrtf
from alodsim.synth import spatial_ir_length, synthesize_mono

from oracles import render_units_2m, render_units_block, render_units_whole, seeded_offsets

FS = 44100.0
NO_TAPS = Taps(delay=np.zeros(0), amplitude=np.zeros((0, 8)), doa=np.zeros((0, 3)),
               order=np.zeros(0, dtype=int))


def _tail(seconds: float, rms: float, start: int = 0) -> Tail:
    """The living room's FDN for ``seconds`` from sample ``start``, its 12
    lines together at about ``rms`` per sample."""
    room = preset("living-room").rooms[0]
    n = int(seconds * FS)
    return Tail(configs=(design_fdn(room, room.decay, FS),), length=n, energy=rms**2 * n,
                start=start)


def _two_unit_gains(doa):
    # left-leaning directions go to unit 0, the rest to unit 1, with a
    # little crosstalk so both units see every tap
    return np.where((doa[:, 1] >= 0)[:, None], [0.8, 0.2], [0.3, 0.9])


def _early_ir(tail_seconds: float) -> SpatialIR:
    rng = np.random.default_rng(11)
    k = np.arange(40)
    doa = rng.standard_normal((40, 3))
    burst = k % 4 == 0
    # every fourth tap carries a burst of 4 + k ms (order 2 + k / 2); the
    # taps halfway between them are burst-free with equal bands, impulses
    # that reach the same units as the band-dependent taps
    amplitude = rng.uniform(0.0, 0.5, (40, 8))
    amplitude[k % 4 == 2] = amplitude[k % 4 == 2, :1]
    taps = Taps(delay=0.005 + 0.002 * k, amplitude=amplitude,
                doa=doa / np.linalg.norm(doa, axis=1, keepdims=True),
                order=2 + k // 2)
    bursts = Bursts(tap=k[burst], energy=rng.uniform(0.0, 1e-3, (40, 8))[burst],
                    offset=seeded_offsets(k[burst]))
    return SpatialIR(taps=taps, sample_rate=FS, bursts=bursts,
                     tail=_tail(tail_seconds, 1e-3, start=2205))  # 50 ms


def test_render_units_match_the_2m_oracle():
    # the longer FFT changes how much of the low bands' kernel tails wraps
    # around; at lags near m those tails are ~1e-7 of the peak
    ir = _early_ir(0.5)
    want = render_units_2m(ir, _two_unit_gains)
    unit, _, _ = render_units_block(ir, _two_unit_gains)[1]
    assert len(unit) == 2 * 10  # ten impulse taps, each on both units
    got = render_units_whole(ir, _two_unit_gains)
    assert sorted(got) == sorted(want)
    peak = max(np.max(np.abs(w)) for w in want.values())
    for unit, wave in got.items():
        assert wave.shape == want[unit].shape
        assert np.max(np.abs(wave - want[unit])) <= 1e-6 * peak


def test_band_buffers_span_the_early_extent_not_the_tail():
    # an order-10 tap carries a 20 ms burst; its flat specular part is one
    # impulse
    ir = replace(_burst_tap(), tail=_tail(10.0, 1e-4, start=882))  # 20 ms
    n = spatial_ir_length(ir)
    tracemalloc.start()
    try:
        _, (unit, _, _) = render_units_block(ir, lambda doa: np.ones((len(doa), 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_full_band_buffer = 8 * n * 8  # (8, n) float64
    assert len(unit) == 1
    assert peak < one_full_band_buffer, f"peak {peak} B for n = {n}"


def _occluded_direct():
    scene = preset("living-room")
    return occluded_direct_ir(scene, scene.sources[0], scene.receivers[0])


def _burst_tap():
    # an order-10 tap with a 20 ms burst and equal bands
    tap = Taps(delay=np.array([0.01]), amplitude=np.full((1, 8), 0.5),
               doa=np.array([[1.0, 0.0, 0.0]]), order=np.array([10]))
    burst = Bursts(tap=np.array([0]), energy=np.full((1, 8), 1e-4), offset=seeded_offsets([1]))
    return SpatialIR(taps=tap, sample_rate=FS, bursts=burst)


@pytest.mark.parametrize("build", [_occluded_direct, _burst_tap],
                         ids=["band-dependent tap", "burst"])
def test_band_filtered_content_keeps_its_kernel_margin(build):
    # rendered as the last content of an IR, a band-filtered tap keeps its
    # filter kernels' decay: the render equals the one with a silent tail
    # after it, which leaves room for that decay
    ir = build()
    alone = synthesize_mono(ir)
    padded = synthesize_mono(replace(ir, tail=_tail(0.5, 0.0)))
    assert alone.size < padded.size
    assert np.array_equal(alone, padded[: alone.size])
    assert not padded[alone.size:].any()


def _record_calls(monkeypatch, owner, name, note):
    """Wrap ``owner.name`` so that each call appends ``note(*args)``."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs:
                        calls.append(note(*args)) or real(*args, **kwargs))
    return calls


def _drawn_rows(monkeypatch):
    """The burst rows that ``render_units`` draws, in the order asked for."""
    calls = _record_calls(monkeypatch, synth, "burst_waves", lambda taps, bursts, rows, fs: rows)
    return lambda: [row for rows in calls for row in rows.tolist()]


def test_each_burst_is_drawn_once_per_call(monkeypatch):
    # every tap reaches both units; its burst is still drawn only once
    drawn = _drawn_rows(monkeypatch)
    ir = _early_ir(0.1)
    render_units_block(ir, _two_unit_gains)
    assert sorted(drawn()) == list(range(len(ir.bursts.tap)))


def test_burst_count_of_a_pub_array_render(monkeypatch):
    scene, profile = preset("pub"), profile_preset("razr-full")
    spatial, = build_spatial_ir(scene, profile)
    n_bursts = len(spatial.bursts.tap)
    drawn = _drawn_rows(monkeypatch)
    simulate(scene, profile, output_mode="array")
    # once for the splice's mono energy, once for the 86-channel render
    assert n_bursts > 0 and len(drawn()) == 2 * n_bursts


def test_burst_draws_stay_under_the_chunk_bound(monkeypatch):
    # at ism_order 8 the pub's burst waves hold over 12 MiB of samples;
    # drawn chunk by chunk, the draw adds less than 4 MiB to the traced peak
    scene = preset("pub")
    profile = RenderingProfile(name="order-8", ism_order=8)
    ir = early_spatial_ir(scene, profile, scene.sources[0], scene.receivers[0].position,
                          scene.rooms[0], np.random.SeedSequence(0))
    bound = 4 << 20
    assert 8 * np.sum(np.rint(burst_duration(ir.taps.order[ir.bursts.tap]) * FS)) > 3 * bound
    ism._noise_table(FS)  # built once per sample rate, outside any render
    growth = []

    def traced(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield from ism.burst_waves(*args)
        growth.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(synth, "burst_waves", traced)
    tracemalloc.start()
    try:
        render_units_block(ir, lambda doa: np.ones((len(doa), 1)))
    finally:
        tracemalloc.stop()
    assert len(growth) == 1 and growth[0] < bound, growth


def test_razr_full_pub_array_render_filters_no_bands(monkeypatch):
    # flat absorption: each burst is one broadband wave and every specular
    # tap an impulse, so no unit needs band buffers
    masked = _record_calls(monkeypatch, synth, "band_masks", lambda n_fft, fs: n_fft)
    out = simulate(preset("pub"), profile_preset("razr-full"), output_mode="array")
    assert np.any(out.ir.channels)
    assert masked == []


@pytest.mark.parametrize("fixture", ["underground_full_mono", "pub_full_mono",
                                     "living_full_mono"])
def test_razr_full_renders_have_no_silent_window(request, fixture):
    # criterion 4 compares echo densities from 20 ms after the direct sound
    # on, and a silent window reads NED 0; the bursts' low bands outlast the
    # bursts and bridge the gap before the tail's first output
    ir = request.getfixturevalue(fixture).ir
    x, fs = ir.channels[0], ir.sample_rate
    direct = int(np.argmax(np.abs(x) > 0.05 * np.max(np.abs(x))))
    window = int(0.025 * fs)
    energy = np.concatenate([[0.0], np.cumsum(x**2)])
    starts = np.arange(direct, int(0.15 * fs) - window + 1)
    quietest = np.min(energy[starts + window] - energy[starts])
    assert quietest > 1e-9 * energy[-1]


def test_two_band_groups_match_the_2m_oracle(monkeypatch):
    # burst-free taps whose bands 0-3 and 4-7 carry two different amplitudes
    rng = np.random.default_rng(3)
    low, high = rng.uniform(0.0, 0.5, (2, 30))
    doa = rng.standard_normal((30, 3))
    taps = Taps(delay=0.004 + 0.003 * np.arange(30),
                amplitude=np.repeat(np.stack([low, high], axis=1), 4, axis=1),
                doa=doa / np.linalg.norm(doa, axis=1, keepdims=True),
                order=np.ones(30, dtype=int))
    ir = SpatialIR(taps=taps, sample_rate=FS)
    # no burst, stream or signature: with the noise table built, every
    # transform is of a band buffer
    ism._noise_table(FS)
    rows = _record_calls(monkeypatch, np.fft, "rfft", lambda x, *rest: np.shape(x)[0])
    got, (unit, _, _) = render_units_block(ir, _two_unit_gains)
    assert len(unit) == 0
    assert rows == [8, 8]  # bands differ: one 8-band buffer per unit
    want = render_units_2m(ir, _two_unit_gains)
    assert sorted(got) == sorted(want)
    peak = max(np.max(np.abs(w)) for w in want.values())
    for unit, wave in got.items():
        assert wave.shape == want[unit].shape
        # the oracle's FFT length 2m wraps the kernel tails differently,
        # by ~1e-8 of the peak here
        assert np.max(np.abs(wave - want[unit])) <= 1e-7 * peak


def test_ism_15_array_render_filters_no_bands(monkeypatch):
    # flat absorption: every tap has equal bands, so the masks sum to 1
    ir, _ = build_spatial_ir(preset("living-room"), profile_preset("ism-15"))  # through the door
    masked = _record_calls(monkeypatch, synth, "band_masks", lambda n_fft, fs: n_fft)
    front = ReceiverSpec(id="r", position=np.zeros(3), orientation=np.array([1.0, 0.0, 0.0]))
    out = render_output(ir, "array", front, layout=array_preset_86())
    assert len(ir.taps) > 4000 and np.any(out.channels)
    assert masked == []


def test_no_render_draws_a_random_number(monkeypatch):
    # every burst's noise offsets are drawn when the early part is built
    scene, profile = preset("living-room"), profile_preset("razr-full")
    parts = build_spatial_ir(scene, profile)
    ism._noise_table(FS)
    hrtf, layout, receiver = synthetic_hrtf(), array_preset_86(), scene.receivers[0]

    def no_generator(*args, **kwargs):
        raise AssertionError("a render drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for part in parts:
        for mode in ("mono", "binaural", "array"):
            out = render_output(part, mode, receiver, hrtf=hrtf, layout=layout)
            assert np.any(out.channels)
    assert len(parts) == 2 and len(parts[0].bursts.tap) > 0


def test_ism_15_binaural_render_makes_no_fft(monkeypatch):
    # no burst, no band-dependent tap, no tail and no signature: every tap
    # adds its amplitude times its HRTF pair, with no transform at all
    scene, profile = preset("pub"), profile_preset("ism-15")
    ir, = build_spatial_ir(scene, profile)
    assert ir.signature is None and ir.tail is None and len(ir.bursts.tap) == 0
    calls = _record_calls(monkeypatch, np.fft, "rfft", lambda x, *rest: np.shape(x))
    out = simulate(scene, profile, output_mode="binaural")
    assert len(ir.taps) > 4000 and np.any(out.ir.channels)
    assert calls == []


def test_spatial_ir_length_is_bounded_before_any_wave_exists():
    # a one-sample tail ending on the last sample allowed, or one beyond it
    tail = replace(_tail(0.0, 1.0, start=MAX_SAMPLES - 1), length=1)
    at_bound = SpatialIR(taps=NO_TAPS, sample_rate=FS, tail=tail)
    assert spatial_ir_length(at_bound) == MAX_SAMPLES
    beyond = replace(at_bound, tail=replace(tail, start=MAX_SAMPLES))
    with pytest.raises(SceneValidationError, match=f"more than {MAX_SAMPLES}"):
        spatial_ir_length(beyond)
    with pytest.raises(SceneValidationError, match=f"more than {MAX_SAMPLES}"):
        synthesize_mono(replace(at_bound, tail=replace(tail, start=44_100_000_000)))  # 1e6 s


def test_a_30_s_pub_mono_render_holds_its_output_and_a_ring():
    # the FDN streams through a ring of 2112 samples per line into the output
    # row; its (12, n) block of line outputs used to set a peak of 14 x
    scene, profile = preset("pub"), profile_preset("razr-full")
    simulate(scene, profile, output_mode="mono", duration=1.0)  # caches outside the trace
    tracemalloc.start()
    try:
        out = simulate(scene, profile, output_mode="mono", duration=30.0).ir.channels
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape[1] > 30 * FS
    assert peak <= 2 * out.nbytes, f"peak {peak / out.nbytes:.2f} x the output"
