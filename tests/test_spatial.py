import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from alodsim.errors import SceneValidationError
from alodsim.fdn import FdnConfig
from alodsim.ism import Bursts, SpatialIR, Tail, Taps, _noise_table
from alodsim.spatial import (
    HrtfSet,
    ImpulseResponse,
    LoudspeakerLayout,
    _Triangulation,
    _hull_triangles,
    array_preset_86,
    az_el_to_vec,
    diotic_array,
    frontal_speaker_index,
    head_frame,
    load_hrtf_dir,
    synthetic_hrtf,
    vbap_gains,
)
from alodsim.pipeline import build_spatial_ir, render_output, simulate
from alodsim.scene import ReceiverSpec, preset, profile_preset
from alodsim.synth import spatial_ir_length, synthesize_mono
from alodsim.wavio import write_wav

from oracles import (
    binauralize_per_unit,
    calibrated,
    render_array_block,
    render_array_per_tap,
    render_units_whole,
    seeded_offsets,
    tail_lines,
    vbap_gains_one_call,
)

FS = 44100.0


def _tap(doa, delay=0.01, amp=0.5):
    return Taps(delay=np.array([delay]), amplitude=np.full((1, 8), amp),
                doa=np.asarray(doa, dtype=float)[None, :], order=np.zeros(1, dtype=int))


def _single_tap_ir(doa):
    return SpatialIR(taps=_tap(doa), sample_rate=FS)


FRONT = np.array([1.0, 0.0, 0.0])  # head_frame(FRONT) is the identity
TURNED = np.array([0.3, -1.0, 0.2]) / np.linalg.norm([0.3, -1.0, 0.2])


def _render(ir, mode, orientation=FRONT, **kwargs):
    """``render_output`` for a listener facing ``orientation``."""
    receiver = ReceiverSpec(id="r", position=np.zeros(3), orientation=orientation)
    return render_output(ir, mode, receiver, **kwargs)


# ---------------------------------------------------------------------------
# head frame / HRTF
# ---------------------------------------------------------------------------

def test_head_frame_is_orthonormal_and_front_aligned():
    for look in ([1, 0, 0], [0, 1, 0], [0.3, -0.8, 0.1]):
        frame = head_frame(np.array(look, dtype=float))
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        assert np.allclose(frame[0], np.asarray(look) / np.linalg.norm(look))


def test_synthetic_hrtf_nearest_recovers_grid_direction():
    hrtf = synthetic_hrtf()
    for i in range(0, hrtf.directions.shape[0], 17):
        assert hrtf.nearest(hrtf.directions[i]) == i


def test_lateral_source_favors_the_near_ear():
    hrtf = synthetic_hrtf()
    ir = _render(_single_tap_ir([0.0, 1.0, 0.0]), "binaural", hrtf=hrtf)  # from the left
    assert ir.n_channels == 2
    e_left = float(np.sum(ir.channels[0] ** 2))
    e_right = float(np.sum(ir.channels[1] ** 2))
    assert e_left > 1.5 * e_right


def test_frontal_source_is_symmetric():
    hrtf = synthetic_hrtf()
    ir = _render(_single_tap_ir([1.0, 0.0, 0.0]), "binaural", hrtf=hrtf)
    assert np.allclose(ir.channels[0], ir.channels[1], atol=1e-12)


def test_orientation_rotates_the_scene():
    hrtf = synthetic_hrtf()
    # listener facing +y, source at world +x = to the listener's right
    ir = _render(_single_tap_ir([1.0, 0.0, 0.0]), "binaural", np.array([0.0, 1.0, 0.0]),
                 hrtf=hrtf)
    e_left = float(np.sum(ir.channels[0] ** 2))
    e_right = float(np.sum(ir.channels[1] ** 2))
    assert e_right > 1.5 * e_left


@pytest.mark.parametrize("field", ["directions", "filters"])
def test_hrtf_set_rejects_non_finite_values(field):
    base = synthetic_hrtf()
    values = dict(directions=base.directions.copy(), filters=base.filters.copy())
    values[field].flat[0] = np.nan
    with pytest.raises(SceneValidationError, match="finite"):
        HrtfSet(sample_rate=FS, **values)


def test_load_hrtf_dir_round_trip(tmp_path):
    hrtf = synthetic_hrtf()
    lines = []
    for i, d in enumerate(hrtf.directions):
        az = np.degrees(np.arctan2(d[1], d[0]))
        el = np.degrees(np.arcsin(np.clip(d[2], -1, 1)))
        name = f"h{i:03d}.wav"
        write_wav(str(tmp_path / name), hrtf.filters[i].T, FS)
        lines.append(f"{az:.6f} {el:.6f} {name}")
    (tmp_path / "index.txt").write_text("\n".join(lines) + "\n")
    loaded = load_hrtf_dir(str(tmp_path))
    assert loaded.directions.shape == hrtf.directions.shape
    assert np.allclose(loaded.filters, hrtf.filters, atol=1e-6)
    assert loaded.sample_rate == FS


# ---------------------------------------------------------------------------
# VBAP / array
# ---------------------------------------------------------------------------

def test_vbap_gains_power_normalized():
    layout = array_preset_86()
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(3)
        g = vbap_gains(v, layout)
        assert np.sum(g**2) == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(g) <= 3
        assert np.all(g >= 0)


def test_vbap_speaker_coincident_single_channel():
    layout = array_preset_86()
    for i in (0, 12, 48, 85):
        g = vbap_gains(layout.directions[i], layout)
        assert g[i] == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(g > 1e-9) == 1


def test_vbap_midpoint_gets_equal_pair_gains():
    layout = array_preset_86()
    # adjacent main-ring speakers 0 and 1 (az 0 and 7.5 deg, el 0)
    mid = layout.directions[0] + layout.directions[1]
    mid = mid / np.linalg.norm(mid)
    g = vbap_gains(mid, layout)
    assert g[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
    assert g[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_vbap_triangulation_follows_each_new_layout():
    # layouts are created and dropped one after another, so a new layout
    # often reuses the memory (and id) of the one before it
    rng = np.random.default_rng(7)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    for trial in range(200):
        extra = rng.standard_normal((int(rng.integers(0, 6)), 3))
        dirs = np.vstack([axes + 0.2 * rng.standard_normal((6, 3)), extra])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        center = rng.uniform(-1.0, 1.0, 3)
        layout = LoudspeakerLayout(positions=center + 2.0 * dirs, center=center)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        idx, g, _ = (a[0] for a in _Triangulation(layout).gains(d[None, :]))
        g = np.clip(g, 0.0, None)
        want = np.zeros(layout.n_speakers)
        want[idx] = g / np.linalg.norm(g)
        got = vbap_gains(d, layout)
        assert got.shape == want.shape, f"trial {trial}"
        assert np.allclose(got, want, atol=1e-12), f"trial {trial}"
        del layout


def test_vbap_gains_of_a_batch_equal_gains_one_direction_at_a_time():
    layout = array_preset_86()
    dirs = np.random.default_rng(3).standard_normal((2, 5, 3))
    got = vbap_gains(dirs, layout)
    assert got.shape == (2, 5, 86)
    for i in range(2):
        for j in range(5):
            assert np.allclose(got[i, j], vbap_gains(dirs[i, j], layout), atol=1e-15)


def _upper_hemisphere(lowest_ring_deg: float) -> LoudspeakerLayout:
    """Rings of 8 at the given elevation and 6 at 45 degrees, plus the zenith."""
    rings = ((lowest_ring_deg, 8), (45.0, 6), (90.0, 1))
    dirs = [az_el_to_vec(360.0 * i / count, el) for el, count in rings for i in range(count)]
    return LoudspeakerLayout(positions=2.0 * np.array(dirs), center=np.zeros(3))


def test_vbap_counts_directions_outside_coverage_in_one_warning():
    # upper hemisphere only: rings at 10 and 45 degrees plus the zenith
    layout = _upper_hemisphere(10.0)
    rng = np.random.default_rng(5)
    below = np.array([az_el_to_vec(az, el) for az, el in
                      zip(rng.uniform(0.0, 360.0, 50), rng.uniform(-10.0, -1.0, 50))])
    with pytest.warns(RuntimeWarning) as caught:
        gains = vbap_gains(below, layout)
    assert len(caught) == 1
    assert "50 of 50 directions" in str(caught[0].message)
    assert np.allclose(np.sum(gains**2, axis=1), 1.0)


def test_vbap_on_a_hemispherical_layout():
    # a ring at ear level with nothing below: the hull's bottom face passes
    # through the listener and has no inverse
    layout = _upper_hemisphere(0.0)
    rng = np.random.default_rng(8)
    above = np.array([az_el_to_vec(az, el) for az, el in
                      zip(rng.uniform(0.0, 360.0, 40), rng.uniform(0.0, 90.0, 40))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gains = vbap_gains(above, layout)
    assert np.allclose(np.sum(gains**2, axis=1), 1.0)
    assert np.all(np.count_nonzero(gains, axis=1) <= 3)
    below = np.array([az_el_to_vec(30.0, -20.0), [0.0, 0.0, -1.0]])
    with pytest.warns(RuntimeWarning, match="2 of 2 directions"):
        gains = vbap_gains(below, layout)
    assert np.allclose(np.sum(gains**2, axis=1), 1.0)


def test_vbap_sends_a_direction_below_a_hemisphere_to_the_nearest_speaker():
    # all three gains of the nearest triangle clip to 0 for these directions
    layout = _upper_hemisphere(0.0)
    below = np.array([az_el_to_vec(10.0, -30.0), az_el_to_vec(30.0, -45.0),
                      az_el_to_vec(180.0, -60.0)])
    with pytest.warns(RuntimeWarning, match="3 of 3 directions") as caught:
        gains = vbap_gains(below, layout)
    assert len(caught) == 1
    nearest = np.argmax(below @ layout.directions.T, axis=1)
    assert np.array_equal(gains, np.eye(layout.n_speakers)[nearest])


@pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 4991])
def test_vbap_gains_in_chunks_equal_one_gains_call(k):
    # 256 directions at a time; on the hemisphere some fall outside coverage
    dirs = np.random.default_rng(k).standard_normal((k, 3))
    for layout in (_ARRAY, _upper_hemisphere(10.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = vbap_gains(dirs, layout)
        want = vbap_gains_one_call(dirs, layout)
        assert got.shape == want.shape == (k, layout.n_speakers)
        assert got.tobytes() == want.tobytes()


def test_vbap_warns_once_per_call_over_many_chunks():
    # 600 directions in three chunks, every other one below the hemisphere
    layout = _upper_hemisphere(10.0)
    rng = np.random.default_rng(9)
    el = np.where(np.arange(600) % 2, rng.uniform(-80.0, -1.0, 600), rng.uniform(11.0, 89.0, 600))
    dirs = np.array([az_el_to_vec(az, e) for az, e in zip(rng.uniform(0.0, 360.0, 600), el)])
    with pytest.warns(RuntimeWarning) as caught:
        vbap_gains(dirs, layout)
    assert len(caught) == 1
    assert "300 of 600 directions" in str(caught[0].message)


def test_vbap_gains_of_an_ism_15_tap_count_stay_under_5_mb():
    # the (168, k, 3) test of every triangle against all 4991 directions at
    # once peaked at 33.7 MB; the gains themselves take 3.4 MB
    dirs = np.random.default_rng(0).standard_normal((4991, 3))
    tracemalloc.start()
    try:
        gains = vbap_gains(dirs, _ARRAY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gains.shape == (4991, 86)
    assert peak < 5e6, f"peak {peak} B"


@pytest.mark.parametrize("profile", ["ism-15", "razr-full"])
@pytest.mark.parametrize("scene", ["pub", "living-room", "underground"])
def test_presets_render_to_a_hemispherical_layout(scene, profile):
    layout = _upper_hemisphere(0.0)
    with pytest.warns(RuntimeWarning, match="outside triangulated coverage"):
        result = simulate(preset(scene), profile_preset(profile), output_mode="array",
                          layout=layout)
    assert result.ir.n_channels == layout.n_speakers
    assert np.all(np.isfinite(result.ir.channels)) and np.any(result.ir.channels)


_COORD = st.floats(-1.0, 1.0)
_DIRECTION = st.tuples(_COORD, _COORD, _COORD).filter(
    lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > 1e-2)


@st.composite
def _layouts(draw):
    """Random speaker sets, or upper-hemisphere rings plus the zenith."""
    if draw(st.booleans()):
        dirs = np.array(draw(st.lists(_DIRECTION, min_size=4, max_size=16)))
    else:
        rings = draw(st.lists(st.tuples(st.floats(0.0, 80.0), st.integers(3, 12),
                                        st.floats(0.0, 360.0)), min_size=1, max_size=3))
        dirs = np.array([az_el_to_vec(offset + 360.0 * i / count, el)
                         for el, count, offset in rings for i in range(count)]
                        + [[0.0, 0.0, 1.0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    try:
        return LoudspeakerLayout(positions=2.0 * dirs, center=np.zeros(3))
    except SceneValidationError:  # no 3-D hull, or two speakers in one direction
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_layouts(), st.lists(_DIRECTION, min_size=1, max_size=20))
def test_vbap_gains_on_random_layouts(layout, directions):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gains = vbap_gains(np.array(directions), layout)
    assert all("outside triangulated coverage" in str(w.message) for w in caught)
    assert len(caught) <= 1
    assert np.all(np.isfinite(gains))
    assert np.all(np.abs(np.sum(gains**2, axis=1) - 1.0) <= 1e-12)
    assert np.all(np.count_nonzero(gains, axis=1) <= 3)


def test_vbap_rejects_a_layout_in_one_plane():
    # a horizontal ring around the listener spans no 3-D hull
    dirs = [az_el_to_vec(360.0 * i / 8, 0.0) for i in range(8)]
    with pytest.raises(SceneValidationError, match="3-D hull"):
        LoudspeakerLayout(positions=2.0 * np.array(dirs), center=np.zeros(3))


def test_layout_rejects_a_ring_off_the_listener_plane():
    # one plane that misses the listener: the hull is still flat
    dirs = [az_el_to_vec(360.0 * i / 8, 30.0) for i in range(8)]
    with pytest.raises(SceneValidationError, match="3-D hull"):
        LoudspeakerLayout(positions=2.0 * np.array(dirs), center=np.zeros(3))


@pytest.mark.parametrize("count", [1, 2, 3])
def test_layout_rejects_fewer_than_four_speakers(count):
    dirs = np.eye(3)[:count] + [0.0, 0.0, 0.5]
    with pytest.raises(SceneValidationError, match="at least 4 are needed"):
        LoudspeakerLayout(positions=2.0 * dirs, center=np.zeros(3))


def test_layout_rejects_two_speakers_in_one_direction():
    positions = np.vstack([np.eye(3), -np.eye(3), [[3.0, 0.0, 0.0]]])
    with pytest.raises(SceneValidationError, match="one direction"):
        LoudspeakerLayout(positions=positions, center=np.zeros(3))


# The hull is checked against scipy's Qhull, kept as a test-only oracle.

def _triangle_set(triangles) -> set:
    return {tuple(sorted(t)) for t in np.asarray(triangles).tolist()}


def _face_normals(dirs, triangles):
    a, b, c = (dirs[triangles[:, i]] for i in range(3))
    return np.cross(b - a, c - a)


def _assert_outward(dirs, triangles):
    # the mean of the hull's vertices lies strictly inside it
    inward = dirs.mean(axis=0) - dirs[triangles[:, 0]]
    assert np.all(np.einsum("ij,ij->i", _face_normals(dirs, triangles), inward) < 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_DIRECTION, min_size=4, max_size=24))
def test_hull_of_a_layout_in_general_position_is_qhulls(points):
    dirs = np.array(points)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    try:
        hull = ConvexHull(dirs)
    except QhullError:  # flat
        assume(False)
    # general position: no point within 1e-6 of a facet it is not on
    off = np.abs(hull.equations @ np.hstack([dirs, np.ones((len(dirs), 1))]).T)
    off[np.arange(len(hull.simplices))[:, None], hull.simplices] = np.inf
    assume(off.min() > 1e-6 and len(hull.vertices) == len(dirs))
    triangles = _hull_triangles(dirs)
    assert _triangle_set(triangles) == _triangle_set(hull.simplices)
    _assert_outward(dirs, triangles)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-80.0, 80.0), st.integers(3, 16), st.floats(0.0, 360.0)),
                min_size=1, max_size=3, unique_by=lambda ring: round(ring[0], 3)))
def test_hull_of_rings_and_the_zenith_covers_qhulls_area(rings):
    # each ring is one plane, so its faces hold more than three points and
    # may be split into triangles either way
    dirs = np.array([az_el_to_vec(offset + 360.0 * i / count, el)
                     for el, count, offset in rings for i in range(count)]
                    + [[0.0, 0.0, 1.0]])
    hull = ConvexHull(dirs)
    triangles = _hull_triangles(dirs)
    assert len(triangles) == len(hull.simplices) == 2 * len(dirs) - 4
    area = 0.5 * np.linalg.norm(_face_normals(dirs, triangles), axis=1).sum()
    assert area == pytest.approx(hull.area, rel=1e-12)
    _assert_outward(dirs, triangles)


def test_hull_of_the_86_speaker_array():
    dirs = array_preset_86().directions
    triangles = _hull_triangles(dirs)
    assert len(triangles) == 168
    assert _triangle_set(triangles) == _triangle_set(ConvexHull(dirs).simplices)


@pytest.mark.parametrize("layout", [array_preset_86, lambda: _upper_hemisphere(0.0)],
                         ids=["array-86", "hemisphere"])
def test_vbap_gains_do_not_depend_on_the_order_of_triangles(layout):
    layout = layout()
    rng = np.random.default_rng(11)
    dirs = np.vstack([rng.standard_normal((500, 3)), az_el_to_vec(10.0, -30.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = vbap_gains(dirs, layout)
        tri = layout._triangulation
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rows = tri.triangles[rng.permutation(len(tri.triangles))]
            tri.triangles = np.take_along_axis(rows, rng.permuted(
                np.tile([0, 1, 2], (len(rows), 1)), axis=1), axis=1)
            tri.inverses = np.linalg.inv(layout.directions[tri.triangles])
            assert np.allclose(vbap_gains(dirs, layout), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("field", ["positions", "center", "calibration_gains",
                                   "calibration_delays"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_layout_rejects_non_finite_values(field, bad):
    base = array_preset_86()
    values = dict(positions=base.positions.copy(), center=base.center.copy(),
                  calibration_gains=np.ones(base.n_speakers),
                  calibration_delays=np.zeros(base.n_speakers))
    values[field].flat[0] = bad
    with pytest.raises(SceneValidationError, match="finite"):
        LoudspeakerLayout(**values)


def test_array_preset_86_layout():
    layout = array_preset_86()
    assert layout.n_speakers == 86
    # main ring: 48 speakers at listener height
    heights = layout.positions[:, 2]
    assert np.count_nonzero(np.abs(heights - 1.8) < 1e-9) == 48
    assert frontal_speaker_index(layout) == 0
    assert np.allclose(layout.directions[0], [1.0, 0.0, 0.0])


def test_render_array_routes_energy_to_vbap_channels():
    layout = array_preset_86()
    ir = _render(_single_tap_ir(layout.directions[3]), "array", layout=layout)
    assert ir.n_channels == 86
    energies = np.sum(ir.channels**2, axis=1)
    assert np.argmax(energies) == 3
    assert energies[3] > 0.99 * energies.sum()


def test_render_array_scales_then_shifts_each_channel_by_its_calibration():
    # one tap on each speaker, 5..13.5 ms; odd channels move 3 ms (132
    # samples) earlier, even ones 1 ms (44 samples) later, with zero fill
    k = _ARRAY.n_speakers
    taps = Taps(delay=0.005 + 1e-4 * np.arange(k), amplitude=np.full((k, 8), 0.5),
                doa=_ARRAY.directions, order=np.ones(k, dtype=int))
    ir = SpatialIR(taps=taps, sample_rate=FS)
    plain = _render(ir, "array", layout=_ARRAY).channels
    gains = np.linspace(0.5, 2.0, k)
    delays = np.where(np.arange(k) % 2, -3e-3, 1e-3)
    layout = LoudspeakerLayout(positions=_ARRAY.positions, center=_ARRAY.center,
                               calibration_gains=gains, calibration_delays=delays)
    got = _render(ir, "array", layout=layout).channels
    n = plain.shape[1]
    for i, shift in enumerate(np.rint(delays * FS).astype(int)):
        padded = np.concatenate([np.zeros(max(shift, 0)), gains[i] * plain[i],
                                 np.zeros(max(-shift, 0))])
        assert np.array_equal(got[i], padded[max(-shift, 0):][:n])
    assert np.all(np.abs(plain).max(axis=1) > 0)  # every channel carries its tap


def test_calibrated_layout_renders_as_the_per_row_oracle():
    # gains, and delays of 0, +-1, +-132 samples, +-(n - 1), +-n and beyond
    # +-n, each row shifted in place where the oracle reads it sample by sample
    ir = _short_ir()
    n = spatial_ir_length(ir)
    k = _ARRAY.n_speakers
    shifts = np.resize([0, 1, -1, 132, -132, n - 1, 1 - n, n, -n, n + 5, -n - 5, 3 * n], k)
    layout = LoudspeakerLayout(positions=_ARRAY.positions, center=_ARRAY.center,
                               calibration_gains=np.linspace(0.5, 2.0, k),
                               calibration_delays=shifts / FS)
    for orientation in (FRONT, TURNED):
        plain = _render(ir, "array", orientation, layout=_ARRAY).channels
        got = _render(ir, "array", orientation, layout=layout).channels
        assert got.tobytes() == calibrated(plain, layout, FS).tobytes()
        assert np.all(np.abs(got[np.abs(shifts) >= n]) == 0.0)


@pytest.mark.parametrize("scene, profile", [("pub", "razr-full"), ("pub", "ism-15"),
                                            ("living-room", "razr-full"),
                                            ("living-room", "razr-1st")])
def test_render_array_matches_the_block_oracle(scene, profile):
    # waves now go straight into the output rows before the impulse taps:
    # where two taps meet a wave on one sample, the sum's order changes
    calibration = np.linspace(0.8, 1.2, _ARRAY.n_speakers)
    layout = LoudspeakerLayout(positions=_ARRAY.positions, center=_ARRAY.center,
                               calibration_gains=calibration,
                               calibration_delays=np.rint(40 * calibration - 40) / FS)
    for part in build_spatial_ir(preset(scene), profile_preset(profile)):
        for lay in (_ARRAY, layout):
            got = _render(replace(part, signature=None), "array", TURNED, layout=lay).channels
            assert _error_of_peak(got, render_array_block(part, lay, TURNED).channels) <= 1e-15


def test_a_pub_array_render_holds_its_output_and_bounded_scratch():
    # a second full-length row beside each reached loudspeaker's output row
    # and the (168, k, 3) VBAP scratch once took the traced peak to 2.07 x
    # the output
    scene, profile = preset("pub"), profile_preset("razr-full")
    _noise_table(FS)  # built once per sample rate, outside any render
    tracemalloc.start()
    try:
        out = simulate(scene, profile, output_mode="array", layout=_ARRAY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.ir.n_channels == 86
    assert peak < 1.5 * out.ir.channels.nbytes, f"{peak / out.ir.channels.nbytes:.2f} x"


# ---------------------------------------------------------------------------
# diotic and mono contracts
# ---------------------------------------------------------------------------

def test_diotic_channels_bit_identical():
    hrtf = synthetic_hrtf()
    ir = _render(_single_tap_ir([0.0, 1.0, 0.0]), "diotic", hrtf=hrtf)
    assert ir.n_channels == 2
    assert np.array_equal(ir.channels[0], ir.channels[1])


def test_diotic_array_uses_only_frontal_speaker():
    layout = array_preset_86()
    mono = _render(_single_tap_ir([0.0, 1.0, 0.0]), "mono")
    out = diotic_array(mono, layout)
    active = np.nonzero(np.sum(out.channels**2, axis=1))[0]
    assert list(active) == [frontal_speaker_index(layout)]


def test_diotic_array_rejects_a_multichannel_ir():
    # it routes a mono IR; an array render's channel 0 is speaker 0's feed
    layout = array_preset_86()
    arr = _render(_single_tap_ir([0.0, 1.0, 0.0]), "array", layout=layout)
    with pytest.raises(SceneValidationError):
        diotic_array(arr, layout)


def test_render_mono_places_tap_at_delay():
    ir = _render(_single_tap_ir([1.0, 0.0, 0.0]), "mono")
    peak = int(np.argmax(np.abs(ir.channels[0])))
    assert peak == int(round(0.01 * FS))
    assert ir.channels[0][peak] == pytest.approx(0.5, rel=1e-6)


def test_signature_applies_to_rendered_channels():
    tap = _tap([1.0, 0.0, 0.0])
    sig = np.array([0.0, 2.0])  # one-sample shift, gain 2
    plain = _render(SpatialIR(taps=tap, sample_rate=FS), "mono")
    with_sig = _render(SpatialIR(taps=tap, sample_rate=FS, signature=sig), "mono")
    n = plain.n_samples
    assert np.allclose(with_sig.channels[0][1:n + 1], 2.0 * plain.channels[0],
                       atol=1e-12)


@pytest.mark.parametrize("mode", ["mono", "binaural", "diotic", "array"])
def test_render_output_convolves_each_channel_once_with_the_signature(mode):
    # the renderers make the taps and tail alone; a second convolution with
    # [0, 0.5] would delay the render by two samples and scale it by 0.25
    part = _short_ir()
    if mode == "mono":
        plain = synthesize_mono(part)[None, :]
    elif mode == "diotic":  # the left ear of the binaural render, twice
        plain = _render(part, "binaural", hrtf=_HRTF).channels[[0, 0]]
    else:
        plain = _render(part, mode, hrtf=_HRTF, layout=_ARRAY).channels
    want = np.zeros((len(plain), plain.shape[1] + 1))
    want[:, 1:] = 0.5 * plain
    ir = replace(part, signature=np.array([0.0, 0.5]))
    got = _render(ir, mode, hrtf=_HRTF, layout=_ARRAY).channels
    assert _error_of_peak(got, want) <= 1e-12


@pytest.mark.parametrize("mode", ["mono", "binaural", "diotic", "array"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["tap amplitude", "signature"])
def test_a_non_finite_sample_before_the_signature_ends_as_an_error(mode, bad, where):
    # the renderer's channels are checked only after the door convolution,
    # which leaves a non-finite sample non-finite
    part = replace(_short_ir(), signature=np.array([0.0, 0.5, 0.25]))
    if where == "tap amplitude":
        amplitude = part.taps.amplitude.copy()
        amplitude[1] = bad
        part = replace(part, taps=replace(part.taps, amplitude=amplitude))
    else:
        part.signature[1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(SceneValidationError, match="non-finite"):
        _render(part, mode, hrtf=_HRTF, layout=_ARRAY)


@pytest.mark.parametrize("mode", ["mono", "binaural", "diotic", "array"])
def test_render_output_scans_the_channels_of_a_part_once(monkeypatch, mode):
    # with a door signature too: only the convolved channels are scanned
    scanned, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x, *args, **kwargs: scanned.append(
        np.shape(x)) or isfinite(x, *args, **kwargs))
    for signature in (None, np.array([0.0, 0.5, 0.25])):
        scanned.clear()
        ir = _render(replace(_short_ir(), signature=signature), mode, hrtf=_HRTF, layout=_ARRAY)
        assert [shape for shape in scanned if len(shape) == 2] == [ir.channels.shape]


def test_binauralize_matches_per_unit_convolution():
    # an FDN tail, a coupling signature and a turned head
    ir, _ = build_spatial_ir(preset("living-room"), profile_preset("razr-full"))  # through the door
    assert ir.tail and ir.signature is not None
    hrtf = synthetic_hrtf()
    orientation = TURNED
    got = _render(ir, "binaural", orientation, hrtf=hrtf)
    want = binauralize_per_unit(ir, hrtf, orientation)
    assert got.channels.shape == want.channels.shape
    peak = np.max(np.abs(want.channels))
    assert np.max(np.abs(got.channels - want.channels)) <= 1e-12 * peak


def _small_tail(rng, n, energy, start=0):
    """An n-sample tail of a 4-line FDN with a seeded matrix and short delays,
    from sample ``start``."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    config = FdnConfig(delays=np.array([13, 17, 19, 23]), feedback_matrix=q * np.sign(np.diag(r)),
                       line_gains=np.full((4, 8), 0.95), sample_rate=FS, input_gain=0.5)
    return Tail(configs=(config,), length=n, energy=energy, start=start)


def _unit_vectors(rng, k):
    v = rng.standard_normal((k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@st.composite
def _spatial_irs(draw):
    """Random SpatialIRs of burst-free taps with equal bands, and, when
    drawn, taps with bursts, band-dependent taps, a tail and a coupling
    signature; with a random head orientation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_flat = draw(st.integers(1, 40))
    n_burst, n_banded = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    k = n_flat + n_burst + n_banded
    amplitude = np.repeat(rng.uniform(-1.0, 1.0, (k, 1)), 8, axis=1)
    amplitude[n_flat + n_burst:] = rng.uniform(0.0, 1.0, (n_banded, 8))
    burst = np.arange(k) >= n_flat
    burst[n_flat + n_burst:] = False
    taps = Taps(delay=rng.uniform(0.0, 0.05, k), amplitude=amplitude,
                doa=_unit_vectors(rng, k), order=rng.integers(1, 4, k))
    energy, seeds = rng.uniform(0.0, 1e-3, (k, 8)), rng.integers(0, 1000, k)
    bursts = Bursts(tap=np.flatnonzero(burst), energy=energy[burst],
                    offset=seeded_offsets(seeds[burst]))
    tail = None
    if draw(st.booleans()):
        n = int(rng.integers(1, 3000))
        tail = _small_tail(rng, n, energy=1e-4 * n)
        tail = replace(tail, start=round(rng.uniform(0.0, 0.06) * FS))
    signature = rng.standard_normal(rng.integers(1, 50)) if draw(st.booleans()) else None
    ir = SpatialIR(taps=taps, sample_rate=FS, tail=tail, signature=signature, bursts=bursts)
    return ir, _unit_vectors(rng, 1)[0]


_ARRAY = array_preset_86()
_HRTF = synthetic_hrtf()


def _error_of_peak(got, want):
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_spatial_irs())
def test_impulse_taps_scatter_as_the_per_unit_and_per_tap_oracles(case):
    # the oracles add each impulse tap into a full-length unit wave and
    # render that wave; waves of bursts and band-dependent taps are shared
    ir, orientation = case
    got = _render(ir, "binaural", orientation, hrtf=_HRTF).channels
    assert _error_of_peak(got, binauralize_per_unit(ir, _HRTF, orientation).channels) <= 1e-12
    got = _render(ir, "array", orientation, layout=_ARRAY).channels
    assert _error_of_peak(got, render_array_per_tap(ir, _ARRAY, orientation).channels) <= 1e-12
    want = render_units_whole(ir, lambda d: np.ones((len(d), 1)))[0]
    if ir.signature is not None:
        want = np.convolve(want, ir.signature)
    assert _error_of_peak(_render(ir, "mono", orientation).channels[0], want) <= 1e-12


@pytest.fixture(scope="module")
def living_full_ir():
    return build_spatial_ir(preset("living-room"), profile_preset("razr-full"))[0]


def _short_ir():
    """20 ms of a 4-line tail and two impulse taps."""
    rng = np.random.default_rng(5)
    n = int(0.02 * FS)
    tail = _small_tail(rng, n, energy=1e-4 * n)
    taps = Taps(delay=np.array([0.004, 0.011]), amplitude=np.full((2, 8), 0.5),
                doa=_unit_vectors(rng, 2), order=np.zeros(2, dtype=int))
    return SpatialIR(taps=taps, sample_rate=FS, tail=tail)


@pytest.mark.parametrize("taps", [1, 64, 512, 3000])
@pytest.mark.parametrize("ir", ["living-room razr-full", "20 ms"])
def test_binauralize_matches_per_unit_convolution_at_any_hrtf_length(living_full_ir, ir, taps):
    # the partitions follow the HRTF length; the 20 ms IR is shorter than
    # one partition, which is at least 2048 samples
    ir = living_full_ir if ir == "living-room razr-full" else _short_ir()
    assert ir is living_full_ir or spatial_ir_length(ir) < 2048
    base = synthetic_hrtf()
    rng = np.random.default_rng(taps)
    filters = rng.standard_normal(base.filters.shape[:2] + (taps,)) * np.exp(-np.arange(taps) / 50)
    hrtf = HrtfSet(directions=base.directions, filters=filters, sample_rate=FS)
    orientation = TURNED
    got = _render(ir, "binaural", orientation, hrtf=hrtf).channels
    assert _error_of_peak(got, binauralize_per_unit(ir, hrtf, orientation).channels) <= 1e-12


def test_pub_binaural_render_makes_no_transform_longer_than_two_partitions(monkeypatch):
    # the pub has no door signature, so the HRTF partitions (2048 samples for
    # the synthetic set's 64 taps) are the longest transforms of its render;
    # the unit waves span the whole IR, about 53 000 samples
    _noise_table(FS)  # built once per sample rate, outside any render
    lengths, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, *args, **kwargs: lengths.append(
        np.shape(a)[-1] if n is None else n) or rfft(a, n, *args, **kwargs))
    out = simulate(preset("pub"), profile_preset("razr-full"), output_mode="binaural")
    assert np.any(out.ir.channels) and lengths
    assert max(lengths) <= 2 * 2048, max(lengths)


def test_the_tail_renders_at_its_onset():
    # each line's first output leaves it one line delay after the onset
    no_taps = Taps(delay=np.zeros(0), amplitude=np.zeros((0, 8)),
                   doa=np.zeros((0, 3)), order=np.zeros(0, dtype=int))
    start = round(0.05 * FS)
    spatial = SpatialIR(taps=no_taps, sample_rate=FS, tail=_small_tail(
        np.random.default_rng(0), 100, energy=1.0, start=start))
    ir = _render(spatial, "mono")
    assert ir.n_samples == start + 100
    assert np.all(ir.channels[0][:start + 13] == 0.0)
    assert ir.channels[0][start + 13] != 0.0
    want = np.zeros(start + 100)
    want[start:] = sum(samples for samples, _ in tail_lines(spatial.tail))
    assert _error_of_peak(ir.channels[0], want) <= 1e-12
