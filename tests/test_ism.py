import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alodsim import ism
from alodsim.filterbank import band_energies, band_masks
from alodsim.ism import (
    NOISE_TABLE_LEN,
    Bursts,
    Images,
    Taps,
    _emission_direction,
    _noise_table,
    apply_jitter,
    burst_duration,
    burst_waves,
    early_spatial_ir,
    enumerate_images,
    reflect_finite_panels,
    smear_taps,
    taps_from_images,
)
from alodsim.scene import DirectivityGrid, PanelSpec, RoomSpec, preset, profile_preset
from alodsim.errors import SceneValidationError

from oracles import (
    burst_samples,
    directivity_gain,
    early_taps_per_tap,
    emission_direction,
    enumerate_images_grid,
    seeded_offsets,
)


def _box(dims, absorption=0.3, origin=(0, 0, 0)):
    return RoomSpec(id="r", dims=dims, absorption=absorption, scattering=0.3,
                    origin=origin)


def brute_force_images(dims, source, max_order):
    """Mirror oracle: breadth-first reflection across the six wall planes.

    Returns {rounded position: minimal reflection count}. Independent of the
    closed-form lattice enumeration under test.
    """
    dims = np.asarray(dims, float)
    found = {}
    frontier = {tuple(np.round(np.asarray(source, float), 9)): np.asarray(source, float)}
    found.update({k: 0 for k in frontier})
    for depth in range(1, max_order + 1):
        nxt = {}
        for pos in frontier.values():
            for axis in range(3):
                for plane in (0.0, dims[axis]):
                    p = pos.copy()
                    p[axis] = 2.0 * plane - p[axis]
                    key = tuple(np.round(p, 9))
                    if key not in found:
                        nxt[key] = p
        found.update({k: depth for k in nxt})
        frontier = nxt
    return found


# ---------------------------------------------------------------------------
# image enumeration
# ---------------------------------------------------------------------------

_ROOM_SIDE = st.floats(2.0, 9.0)
_INSIDE = st.floats(0.1, 0.9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dims=st.tuples(_ROOM_SIDE, _ROOM_SIDE, _ROOM_SIDE),
       fraction=st.tuples(_INSIDE, _INSIDE, _INSIDE), order=st.integers(0, 4))
def test_positions_match_brute_force_oracle(dims, fraction, order):
    dims = np.array(dims)
    source = dims * np.array(fraction)
    images = enumerate_images(_box(dims), source, order)
    oracle = brute_force_images(dims, source, order)
    # every image once, at an oracle point (to 1e-9), with its least order
    keys = [tuple(np.round(p, 9)) for p in images.position]
    assert len(set(keys)) == len(keys) == len(oracle)
    assert [oracle.get(k) for k in keys] == images.order.tolist()


def test_fifty_rooms_match_the_oracle_within_1_s():
    rng = np.random.default_rng(12345)
    start = time.time()
    for _ in range(50):
        dims = rng.uniform(2.0, 9.0, 3)
        source = dims * rng.uniform(0.1, 0.9, 3)
        room = _box(dims)
        for order in (0, 1, 4):
            images = enumerate_images(room, source, order)
            got = {tuple(np.round(p, 9)) for p in images.position}
            oracle = set(brute_force_images(dims, source, order))
            assert got == oracle, f"dims={dims} order={order}"
            # per-image positions agree to 1e-9 with the oracle points
            for p in images.position:
                key = tuple(np.round(p, 9))
                assert key in oracle
    assert time.time() - start < 1.0, "oracle comparison exceeded 1 s"


def test_image_counts_follow_4n2_plus_2():
    room = _box((4.1, 3.3, 2.7))
    src = np.array([1.0, 1.0, 1.0])
    images = enumerate_images(room, src, 6)
    by_order = {}
    for order in images.order:
        by_order[order] = by_order.get(order, 0) + 1
    assert by_order[0] == 1
    for n in range(1, 7):
        assert by_order[n] == 4 * n * n + 2, f"order {n}"


def test_cumulative_image_counts():
    room = _box((4.1, 3.3, 2.7))
    src = np.array([1.0, 1.0, 1.0])
    assert len(enumerate_images(room, src, 1)) == 7
    assert len(enumerate_images(room, src, 3)) == 63
    assert len(enumerate_images(room, src, 15)) == 4991


def test_band_gain_is_product_of_wall_amplitudes():
    alpha = np.tile(np.linspace(0.1, 0.45, 8), (6, 1))
    alpha[0] = 0.2  # x0 wall distinct
    room = RoomSpec(id="r", dims=(4.0, 3.0, 2.5), absorption=alpha,
                    scattering=0.3)
    images = enumerate_images(room, np.array([1.0, 1.0, 1.0]), 2)
    for wall_hits, band_gain in zip(images.wall_hits, images.band_gain):
        expected = np.ones(8)
        for wall, hits in enumerate(wall_hits):
            expected *= np.sqrt(1.0 - alpha[wall]) ** hits
        assert np.allclose(band_gain, expected, atol=1e-12)


_IMAGE_FIELDS = ("position", "order", "wall_hits", "band_gain")


def _assert_same_images(got, want, context):
    for name in _IMAGE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (context, name)
        assert a.tobytes() == b.tobytes(), (context, name)  # same rows, order and bits


def test_preset_rooms_match_the_grid_oracle_byte_for_byte():
    # rows of equal wall_hits (q = 0 with m = +-k) must keep lattice order,
    # and band_gain its wall-by-wall sum, for every render to keep its bytes
    for name in ("living-room", "pub", "underground"):
        scene = preset(name)
        for room in scene.rooms:
            sources = [s.position for s in scene.sources if room.contains(s.position)]
            for source in sources + [room.origin + 0.37 * room.dims]:
                for order in range(21):
                    _assert_same_images(enumerate_images(room, source, order),
                                        enumerate_images_grid(room, source, order),
                                        (name, room.id, order))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dims=st.tuples(_ROOM_SIDE, _ROOM_SIDE, _ROOM_SIDE),
       fraction=st.tuples(_INSIDE, _INSIDE, _INSIDE), order=st.integers(0, 12),
       alpha=st.lists(st.floats(0.0, 0.95), min_size=48, max_size=48))
def test_box_rooms_match_the_grid_oracle_byte_for_byte(dims, fraction, order, alpha):
    room = RoomSpec(id="r", dims=dims, absorption=np.reshape(alpha, (6, 8)),
                    scattering=0.3, origin=(1.5, -2.0, 0.25))
    source = room.origin + np.array(dims) * np.array(fraction)
    _assert_same_images(enumerate_images(room, source, order),
                        enumerate_images_grid(room, source, order), order)


def test_order_30_peak_stays_within_three_and_a_half_times_the_result():
    # the whole 61^3 grid with six hit counts per row peaked at 5.0x the
    # result's 5.45 MB; building the 37 881 kept rows only peaks at 2.2x
    room = preset("pub").rooms[0]
    source = preset("pub").sources[0].position
    enumerate_images(room, source, 30)
    tracemalloc.start()
    try:
        images = enumerate_images(room, source, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = sum(getattr(images, name).nbytes for name in _IMAGE_FIELDS)
    assert len(images) == 37881
    assert peak < 3.5 * result, peak / result


@pytest.mark.parametrize("order", [2.5, True, "3", None, -1])
def test_max_order_must_be_a_whole_number(order):
    with pytest.raises(SceneValidationError):
        enumerate_images(_box((4.0, 3.0, 2.5)), np.array([1.0, 1.0, 1.0]), order)


def test_max_order_may_be_a_numpy_integer():
    room, source = _box((4.0, 3.0, 2.5)), np.array([1.0, 1.0, 1.0])
    _assert_same_images(enumerate_images(room, source, np.int32(3)),
                        enumerate_images(room, source, 3), "int32")


def test_source_outside_room_rejected():
    room = _box((2.0, 2.0, 2.0))
    with pytest.raises(SceneValidationError):
        enumerate_images(room, np.array([3.0, 1.0, 1.0]), 1)


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

def test_jitter_spares_direct_and_first_order():
    room = _box((5.0, 4.0, 3.0))
    images = enumerate_images(room, np.array([1.5, 1.5, 1.5]), 3)
    jittered = apply_jitter(images, profile_preset("razr-full"),
                            np.random.default_rng(0))
    assert np.array_equal(jittered.order, images.order)
    for order, orig, jit in zip(images.order, images.position, jittered.position):
        if order < 2:
            assert np.array_equal(orig, jit)
        else:
            assert not np.array_equal(orig, jit)


def test_jitter_disabled_is_identity():
    room = _box((5.0, 4.0, 3.0))
    images = enumerate_images(room, np.array([1.5, 1.5, 1.5]), 3)
    out = apply_jitter(images, profile_preset("ism-15"),
                       np.random.default_rng(0))
    assert out is images


# ---------------------------------------------------------------------------
# smearing
# ---------------------------------------------------------------------------

def test_smearing_conserves_per_band_energy():
    room = _box((5.0, 4.0, 3.0))
    images = enumerate_images(room, np.array([1.5, 1.5, 1.5]), 3)
    taps = taps_from_images(images, np.array([3.0, 2.0, 1.5]), 343.0)
    smeared, bursts = smear_taps(taps, profile_preset("razr-full"), room.scattering,
                                 np.random.SeedSequence(7))
    diffuse = np.zeros_like(taps.amplitude)
    diffuse[bursts.tap] = bursts.energy
    for i in range(len(taps)):
        if taps.order[i] < 1:
            assert np.array_equal(smeared.amplitude[i], taps.amplitude[i])
            assert i not in bursts.tap
            continue
        assert i in bursts.tap
        specular = smeared.amplitude[i] ** 2
        assert np.allclose(specular + diffuse[i], taps.amplitude[i] ** 2, rtol=1e-12)


def test_smearing_disabled_is_identity():
    room = _box((5.0, 4.0, 3.0))
    images = enumerate_images(room, np.array([1.5, 1.5, 1.5]), 2)
    taps = taps_from_images(images, np.array([3.0, 2.0, 1.5]), 343.0)
    out, bursts = smear_taps(taps, profile_preset("ism-15"), room.scattering,
                             np.random.SeedSequence(7))
    assert out is taps and len(bursts.tap) == 0


def test_a_room_without_scattering_draws_no_burst():
    # s = 0 leaves every reflection its whole energy as a specular tap, so
    # none carries a burst and the IR is not extended by any burst length
    room = dataclasses.replace(_box((5.0, 4.0, 3.0)), scattering=0.0)
    images = enumerate_images(room, np.array([1.5, 1.5, 1.5]), 3)
    taps = taps_from_images(images, np.array([3.0, 2.0, 1.5]), 343.0)
    smeared, bursts = smear_taps(taps, profile_preset("razr-full"), room.scattering,
                                 np.random.SeedSequence(7))
    assert np.array_equal(smeared.amplitude, taps.amplitude)
    assert len(bursts.tap) == 0 and bursts.offset.shape == (0, 8)


def _burst(taps, bursts, row, fs):
    ((drawn, wave),) = burst_waves(taps, bursts, np.array([row]), fs)
    assert drawn == bursts.tap[row]
    return wave


def test_burst_samples_deterministic_and_energy_normalized():
    room = _box((5.0, 4.0, 3.0))
    images = enumerate_images(room, np.array([1.5, 1.5, 1.5]), 2)
    taps = taps_from_images(images, np.array([3.0, 2.0, 1.5]), 343.0)
    smeared, bursts = smear_taps(taps, profile_preset("razr-full"), room.scattering,
                                 np.random.SeedSequence(7))
    row = 0
    a = _burst(smeared, bursts, row, 44100.0)
    b = _burst(smeared, bursts, row, 44100.0)
    assert np.array_equal(a, b)
    assert a.shape == (round(burst_duration(smeared.order[bursts.tap[row]]) * 44100.0),)
    # with its burst energy in one band alone, the wave holds what that
    # band's mask passes of a white noise of that energy: the mask's energy
    # share, as the band energy of a unit impulse gives it
    share = band_energies(np.eye(1, NOISE_TABLE_LEN)[0], 44100.0)
    waves = []
    for band in range(8):
        alone = np.where(np.arange(8) == band, bursts.energy, 0.0)
        waves.append(_burst(smeared, dataclasses.replace(bursts, energy=alone), row, 44100.0))
        assert float(np.dot(waves[-1], waves[-1])) == pytest.approx(
            bursts.energy[row, band] * share[band], rel=1e-9)
    # different bands read different noise
    assert not np.allclose(waves[2] / np.max(np.abs(waves[2])),
                           waves[3] / np.max(np.abs(waves[3])))


def test_burst_wave_carries_each_bands_energy():
    # band energies 3 dB apart; the target is what the masks pass of
    # independent white noises with those energies, one per band. One
    # burst's low bands hold few degrees of freedom, so 32 bursts are pooled
    fs, energy = 44100.0, 10.0 ** (-0.3 * np.arange(8))
    taps = Taps(delay=np.zeros(32), amplitude=np.zeros((32, 8)),
                doa=np.tile([1.0, 0.0, 0.0], (32, 1)), order=np.full(32, 3))
    bursts = Bursts(tap=np.arange(32), energy=np.tile(energy, (32, 1)),
                    offset=seeded_offsets(np.arange(32)))
    waves = [wave for _, wave in burst_waves(taps, bursts, np.arange(32), fs)]
    n = waves[0].size
    got = np.mean([band_energies(w, fs) for w in waves], axis=0)
    power = band_masks(n, fs) ** 2
    weights = np.full(power.shape[1], 2.0)  # rfft bins count twice, but DC and Nyquist
    weights[0] = 1.0
    weights[-1] = 1.0 if n % 2 == 0 else 2.0
    want = (power * weights) @ (energy @ power) / n
    assert np.max(np.abs(10.0 * np.log10(got / want))) < 1.0


def test_batched_bursts_equal_the_per_row_oracle():
    # orders 1-6 mixed as delay order mixes them, a band at 0 in each row
    # and one row at 0 in every band; 160 of 200 rows, of up to 2025 samples
    # each, fill several chunks of the draw
    rng = np.random.default_rng(3)
    k = np.arange(200)
    energy = rng.uniform(0.0, 1e-3, (200, 8))
    energy[k, k % 8] = 0.0
    energy[17] = 0.0
    taps = Taps(delay=np.zeros(200), amplitude=np.zeros((200, 8)),
                doa=np.tile([1.0, 0.0, 0.0], (200, 1)), order=rng.integers(1, 7, 200))
    bursts = Bursts(tap=k, energy=energy, offset=seeded_offsets(rng.integers(0, 2**32, 200)))
    rows = k[k % 5 != 3]
    fs = 44100.0
    assert len(rows) * round(burst_duration(taps.order).max() * fs) > 2 * ism._BURST_CHUNK
    drawn = list(burst_waves(taps, bursts, rows, fs))
    assert [tap for tap, _ in drawn] == rows.tolist()
    for row, (_, wave) in zip(rows, drawn):
        assert wave.tobytes() == burst_samples(taps, bursts, row, fs).tobytes(), row
    assert not drawn[rows.tolist().index(17)][1].any()


def test_noise_table_is_cached_on_the_sample_rate_value():
    # a sample rate read from a file or a numpy array is a new float object
    table = _noise_table(44100.0)
    assert _noise_table(float("44100")) is table
    assert _noise_table(np.float64(44100.0)) is table
    assert _noise_table(48000.0) is not table
    assert not table[0].flags.writeable


# ---------------------------------------------------------------------------
# finite panels
# ---------------------------------------------------------------------------

def _panel_z1():
    return PanelSpec(id="p", corners=np.array([
        [0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [2.0, 2.0, 1.0], [0.0, 2.0, 1.0],
    ]), absorption=0.1)


def test_panel_reflection_matches_mirror_geometry():
    panel = _panel_z1()
    src = np.array([0.5, 1.0, 2.0])
    rec = np.array([1.5, 1.0, 2.0])
    taps = reflect_finite_panels([panel], src, rec, c=343.0)
    assert len(taps) == 1
    assert taps.order[0] == 1
    mirror = np.array([0.5, 1.0, 0.0])  # src reflected across z = 1
    r = np.linalg.norm(rec - mirror)
    assert taps.delay[0] == pytest.approx(r / 343.0, rel=1e-12)
    assert np.allclose(np.abs(taps.amplitude[0]), np.sqrt(1.0 - panel.absorption) / r)
    # DOA points from receiver toward the mirror image
    assert np.allclose(taps.doa[0], (mirror - rec) / r)


def test_panel_reflection_requires_same_side():
    panel = _panel_z1()
    taps = reflect_finite_panels([panel], np.array([0.5, 1.0, 2.0]),
                                 np.array([1.5, 1.0, 0.5]))
    assert len(taps) == 0
    assert taps.amplitude.shape == (0, 8) and taps.doa.shape == (0, 3)


def test_panel_reflection_requires_hit_inside_rectangle():
    panel = _panel_z1()
    # reflection point would land at x = 5, far outside the 2 x 2 panel
    assert len(reflect_finite_panels([panel], np.array([4.0, 1.0, 2.0]),
                                     np.array([6.0, 1.0, 2.0]))) == 0


# ---------------------------------------------------------------------------
# composed early part
# ---------------------------------------------------------------------------

def test_early_spatial_ir_taps_sorted_and_direct_delay():
    scene = preset("pub")
    src = next(s for s in scene.sources if s.id == "target")
    rec = scene.receivers[0]
    spatial = early_spatial_ir(scene, profile_preset("razr-full"), src,
                               rec.position, scene.rooms[0],
                               np.random.SeedSequence(0))
    delays = spatial.taps.delay
    assert np.all(np.diff(delays) >= 0.0)
    assert delays.min() == pytest.approx(0.97 / 343.0, rel=1e-9)


def test_early_spatial_ir_is_seed_deterministic():
    scene = preset("pub")
    src = scene.sources[0]
    rec = scene.receivers[0]
    a = early_spatial_ir(scene, profile_preset("razr-full"), src,
                         rec.position, scene.rooms[0], np.random.SeedSequence(3))
    b = early_spatial_ir(scene, profile_preset("razr-full"), src,
                         rec.position, scene.rooms[0], np.random.SeedSequence(3))
    assert len(a.taps) == len(b.taps)
    assert np.array_equal(a.taps.delay, b.taps.delay)
    assert np.array_equal(a.taps.amplitude, b.taps.amplitude)


# ---------------------------------------------------------------------------
# source directivity
# ---------------------------------------------------------------------------

def _grid(seed=5):
    rng = np.random.default_rng(seed)
    azimuths = np.sort(rng.uniform(0.0, 360.0, 11))
    elevations = np.concatenate([[-90.0], np.sort(rng.uniform(-80.0, 80.0, 5)), [90.0]])
    return DirectivityGrid(azimuths_deg=azimuths, elevations_deg=elevations,
                           gains=rng.uniform(0.1, 1.0, (11, 7, 8)))


def test_directivity_gain_matches_the_per_direction_reference():
    grid = _grid()
    rng = np.random.default_rng(8)
    dirs = rng.standard_normal((400, 3))
    # the last facing vector is vertical, which swaps the reference "up"
    for forward in (np.array([0.0, -1.0, 0.0]), rng.standard_normal(3),
                    np.array([0.0, 0.0, 1.0])):
        got = grid.gain(dirs, forward)
        assert got.shape == (400, 8)
        want = np.array([directivity_gain(grid, d, forward) for d in dirs])
        assert np.array_equal(got, want)


def test_emission_direction_matches_the_per_image_reference():
    rng = np.random.default_rng(9)
    # every parity pattern of the six wall-hit counts, plus even offsets
    parities = np.array(list(itertools.product((0, 1), repeat=6)))
    hits = parities + 2 * rng.integers(0, 3, parities.shape)
    images = Images(position=rng.uniform(-20.0, 20.0, (len(hits), 3)),
                    order=hits.sum(axis=1), wall_hits=hits,
                    band_gain=np.ones((len(hits), 8)))
    receiver = np.array([1.0, 2.0, 1.5])
    got = _emission_direction(images, receiver)
    for i in range(len(hits)):
        want = emission_direction(images.position[i], hits[i], receiver)
        assert np.allclose(got[i], want, rtol=0.0, atol=1e-15)


def test_directional_source_taps_match_the_per_tap_chain():
    scene = preset("pub")
    source = dataclasses.replace(scene.sources[0], directivity=_grid(), level_db=-3.0)
    receiver = scene.receivers[0].position
    profile = profile_preset("razr-full")  # diffuse model and panels on
    room = scene.rooms[0]
    ir = early_spatial_ir(scene, profile, source, receiver, room, np.random.SeedSequence(4))
    got, bursts = ir.taps, ir.bursts
    want, want_bursts = early_taps_per_tap(scene, profile, source, receiver, room,
                                           np.random.SeedSequence(4))
    assert len(got) == len(want) == 65
    for name in ("delay", "amplitude", "doa"):
        ref = np.array([t[name] for t in want])
        err = np.max(np.abs(getattr(got, name) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), name
    assert np.array_equal(got.order, [t["order"] for t in want])
    ref = np.array([b["energy"] for b in want_bursts])
    assert np.max(np.abs(bursts.energy - ref)) <= 1e-12 * np.max(ref)
    assert np.array_equal(bursts.tap, [b["tap"] for b in want_bursts])
    assert np.array_equal(bursts.offset, [b["offset"] for b in want_bursts])
    # the grid does shape the taps
    omni = early_spatial_ir(scene, profile, dataclasses.replace(source, directivity=None),
                            receiver, room, np.random.SeedSequence(4)).taps
    assert not np.allclose(omni.amplitude, got.amplitude, rtol=0.01)
