import copy
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from alodsim.errors import (
    AlodsimError,
    InfeasibleTargetError,
    SceneParseError,
    SceneValidationError,
)
from alodsim.scene import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SCATTERING,
    MAX_SAMPLES,
    ApertureSpec,
    DecayTarget,
    DirectivityGrid,
    PanelSpec,
    ReceiverSpec,
    RenderingProfile,
    RoomSpec,
    SceneSpec,
    SecondSlope,
    SourceSpec,
    fit_absorption,
    parse_scene,
    preset,
    preset_names,
    profile_names,
    profile_preset,
    sample_count,
    serialize_scene,
    surface_area,
    volume,
)


def _box(dims, absorption=0.3, **kw):
    return RoomSpec(id="r", dims=dims, absorption=absorption, scattering=0.3, **kw)


# ---------------------------------------------------------------------------
# geometry derivations
# ---------------------------------------------------------------------------

def test_surface_and_volume():
    room = _box((2.0, 3.0, 4.0))
    assert surface_area(room) == pytest.approx(2 * (6 + 8 + 12))
    assert volume(room) == pytest.approx(24.0)


def test_volume_override_wins():
    room = _box((2.0, 3.0, 4.0), volume_override=100.0)
    assert volume(room) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# absorption fitting (Eyring inverse; Eyring and Sabine in closed form here)
# ---------------------------------------------------------------------------

def test_fit_absorption_inverts_eyring_exactly():
    room = _box((4.97, 3.78, 2.71))
    target = DecayTarget(t30_bands=np.linspace(0.4, 0.9, 8))
    alpha = fit_absorption(room, target)
    # Eyring: T60 = 0.161 V / (-S ln(1 - alpha))
    t60 = 0.161 * volume(room) / (-surface_area(room) * np.log(1.0 - alpha))
    assert np.max(np.abs(t60 - target.t30_bands)) < 1e-12


def test_living_room_absorption_value():
    # independent arithmetic: alpha = 1 - exp(-0.161 V / (S T60))
    lx, ly, lz = 4.97, 3.78, 2.71
    v = lx * ly * lz
    s = 2 * (lx * ly + lx * lz + ly * lz)
    expected = 1.0 - math.exp(-0.161 * v / (s * 0.54))
    living = preset("living-room").room("living-room")
    assert living.absorption[0, 0] == pytest.approx(expected, abs=1e-12)


def test_sabine_bounds_eyring_from_above():
    room = _box((6.0, 5.0, 3.0))
    target = DecayTarget(t30_bands=np.full(8, 0.8))
    eyring = fit_absorption(room, target)
    # Sabine: alpha = 0.161 V / (S T60)
    sabine = 0.161 * volume(room) / (surface_area(room) * target.t30_bands)
    # 1 - exp(-x) < x: Eyring needs less absorption for the same T60
    assert np.all(eyring < sabine)
    assert np.all(sabine - eyring < sabine * 0.5)


def test_infeasible_target_raises():
    room = _box((50.0, 50.0, 50.0))
    with pytest.raises(InfeasibleTargetError):
        fit_absorption(room, DecayTarget(t30_bands=np.full(8, 0.01)))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_names():
    assert preset_names() == ("living-room", "pub", "underground")
    with pytest.raises(SceneParseError):
        preset("garage")


def test_living_room_occluded_path_geometry():
    scene = preset("living-room")
    assert scene.occluded_path_m == pytest.approx(5.7)
    door = scene.apertures[0]
    src = next(s for s in scene.sources if s.id == "target")
    rec = scene.receivers[0]
    via_door = (np.linalg.norm(src.position - door.center)
                + np.linalg.norm(door.center - rec.position))
    assert via_door == pytest.approx(5.7, abs=1e-9)
    # source sits in the kitchen, receiver in the living room
    assert scene.room_of(src.position).id == "kitchen"
    assert scene.room_of(rec.position).id == "living-room"


def test_pub_source_distance():
    scene = preset("pub")
    src = next(s for s in scene.sources if s.id == "target")
    rec = scene.receivers[0]
    assert np.linalg.norm(src.position - rec.position) == pytest.approx(0.97)
    assert len(scene.panels) == 2
    assert volume(scene.rooms[0]) == pytest.approx(442.0)


def test_underground_geometry_and_dual_slope_target():
    scene = preset("underground")
    src = next(s for s in scene.sources if s.id == "target")
    rec = scene.receivers[0]
    assert np.linalg.norm(src.position - rec.position) == pytest.approx(6.37)
    decay = scene.rooms[0].decay
    assert decay.broadband_t30 == pytest.approx(1.6)
    assert decay.second_slope is not None
    assert decay.second_slope.t30_2 == pytest.approx(3.2)
    assert decay.second_slope.onset_level_db == pytest.approx(-40.0)
    assert volume(scene.rooms[0]) == pytest.approx(11000.0)


def test_every_preset_has_masker_and_listener():
    for name in preset_names():
        scene = preset(name)
        assert any(s.id == "masker" for s in scene.sources)
        assert any(r.id == "listener" for r in scene.receivers)


# ---------------------------------------------------------------------------
# rendering profiles
# ---------------------------------------------------------------------------

def test_profile_presets():
    names = profile_names()
    assert names == ("anechoic", "diotic", "ism-15", "razr-1st",
                     "razr-full", "razr-simple")
    full = profile_preset("razr-full")
    assert full.ism_order == 3 and full.fdn_enabled and full.room_details
    first = profile_preset("razr-1st")
    assert first.ism_order == 1 and first.fdn_enabled
    simple = profile_preset("razr-simple")
    assert simple.fdn_enabled and not simple.room_details
    ism = profile_preset("ism-15")
    assert ism.ism_order == 15 and not ism.fdn_enabled and not ism.room_details
    assert profile_preset("diotic").output_mode == "diotic"
    ane = profile_preset("anechoic")
    assert ane.ism_order == 0 and not ane.fdn_enabled and not ane.room_details
    assert ane.direct_only
    assert not any(profile_preset(name).direct_only
                   for name in profile_names() if name != "anechoic")


def test_every_profile_field_is_set_by_some_preset():
    # a field that no preset moves off its default is an option without a caller
    default = RenderingProfile(name="default")
    presets = [profile_preset(name) for name in profile_names()]
    for f in fields(RenderingProfile):
        if f.name != "name":
            assert any(getattr(p, f.name) != getattr(default, f.name)
                       for p in presets), f.name


@pytest.mark.parametrize("order", [2.5, True, "3", -1])
def test_ism_order_must_be_a_whole_number(order):
    with pytest.raises(SceneValidationError):
        RenderingProfile(name="p", ism_order=order)


def test_ism_order_may_be_a_numpy_integer():
    assert RenderingProfile(name="p", ism_order=np.int64(4)).ism_order == 4


def test_unknown_profile_raises():
    with pytest.raises(SceneParseError):
        profile_preset("hybrid")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_source_outside_every_room_rejected():
    room = _box((2.0, 2.0, 2.0))
    with pytest.raises(SceneValidationError):
        SceneSpec(name="x", rooms=(room,),
                  sources=(SourceSpec(id="s", position=(5, 5, 5),
                                      orientation=(1, 0, 0)),),
                  receivers=(ReceiverSpec(id="r", position=(1, 1, 1),
                                          orientation=(1, 0, 0)),))


def test_duplicate_room_ids_rejected():
    room = _box((2.0, 2.0, 2.0))
    with pytest.raises(SceneValidationError):
        SceneSpec(name="x", rooms=(room, room),
                  sources=(SourceSpec(id="s", position=(1, 1, 1),
                                      orientation=(1, 0, 0)),),
                  receivers=(ReceiverSpec(id="r", position=(1, 1, 1),
                                          orientation=(1, 0, 0)),))


def test_absorption_range_validated():
    with pytest.raises(SceneValidationError):
        _box((2.0, 2.0, 2.0), absorption=1.0)


def test_second_slope_validation():
    with pytest.raises(SceneValidationError):
        SecondSlope(t30_2=-1.0)
    with pytest.raises(SceneValidationError):
        SecondSlope(t30_2=2.0, onset_level_db=5.0)


@pytest.mark.parametrize("t30_2", [1.0, 1.6, 1.6 + 1e-12])
def test_second_slope_must_be_slower_than_the_primary(t30_2):
    # the primary's broadband T30 is the geometric mean of its bands, 1.6 s
    with pytest.raises(SceneValidationError, match="must exceed the primary"):
        DecayTarget(t30_bands=[0.8, 3.2] * 4, second_slope=SecondSlope(t30_2=t30_2))
    assert DecayTarget(t30_bands=[0.8, 3.2] * 4,
                       second_slope=SecondSlope(t30_2=1.61)).second_slope.t30_2 == 1.61


# each builds a spec with one out-of-range value from a preset's parts
_OUT_OF_RANGE = {
    "sample_rate NaN": lambda s: replace(s, sample_rate=math.nan),
    "sample_rate 0": lambda s: replace(s, sample_rate=0),
    "speed_of_sound inf": lambda s: replace(s, speed_of_sound=math.inf),
    "speed_of_sound beyond float range": lambda s: replace(s, speed_of_sound=10**400),
    "occluded_path_m 0": lambda s: replace(s, occluded_path_m=0.0),
    "seed -1": lambda s: replace(s, rng_seed=-1),
    "level_db NaN": lambda s: replace(s.sources[0], level_db=math.nan),
    "level_db a string": lambda s: replace(s.sources[0], level_db="loud"),
    "level_db 4000": lambda s: replace(s.sources[0], level_db=4000.0),
    "volume_override NaN": lambda s: replace(s.rooms[0], volume_override=math.nan),
    "absorption NaN": lambda s: replace(s.rooms[0], absorption=math.nan),
    "scattering NaN": lambda s: replace(s.rooms[0], scattering=math.nan),
    "t30 inf": lambda s: replace(s.rooms[0].decay, t30_bands=math.inf),
    "t30 as one row of 8": lambda s: replace(s.rooms[0].decay, t30_bands=np.ones((1, 8))),
    "second-slope T30 NaN": lambda s: SecondSlope(t30_2=math.nan),
    "second-slope onset NaN": lambda s: SecondSlope(t30_2=2.0, onset_level_db=math.nan),
    "panel corners NaN": lambda s: replace(s.panels[0], corners=np.full((4, 3), np.nan)),
    "panel absorption 2": lambda s: replace(s.panels[0], absorption=2.0),
    "aperture width NaN": lambda s: ApertureSpec(connects=("a", "b"), center=(0, 0, 0),
                                                 width=math.nan, height=2.0),
    "aperture height inf": lambda s: ApertureSpec(connects=("a", "b"), center=(0, 0, 0),
                                                  width=1.0, height=math.inf),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_values_rejected(case):
    with pytest.raises(SceneValidationError):
        _OUT_OF_RANGE[case](preset("pub"))


def test_validation_accepts_numpy_scalars():
    scene = preset("pub")
    source = replace(scene.sources[0], level_db=np.float64(-3.0))
    scene = replace(scene, sources=(source,) + scene.sources[1:],
                    sample_rate=np.float32(48000.0), speed_of_sound=np.int64(340),
                    rng_seed=np.int64(7), occluded_path_m=np.float64(2.0))
    back = parse_scene(serialize_scene(scene))
    assert back.sources[0].level_db == -3.0
    assert (back.sample_rate, back.speed_of_sound, back.rng_seed) == (48000.0, 340, 7)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["living-room", "pub", "underground"])
def test_serialize_parse_round_trip(name):
    scene = preset(name)
    doc = serialize_scene(scene)
    back = parse_scene(doc)
    assert back.name == scene.name
    assert back.sample_rate == scene.sample_rate
    assert back.rng_seed == scene.rng_seed
    assert back.occluded_path_m == scene.occluded_path_m
    assert len(back.rooms) == len(scene.rooms)
    for a, b in zip(scene.rooms, back.rooms):
        assert a.id == b.id
        assert np.allclose(a.dims, b.dims)
        assert np.allclose(a.origin, b.origin)
        assert np.allclose(a.absorption, b.absorption)
        assert np.allclose(a.scattering, b.scattering)
        assert (a.volume_override is None) == (b.volume_override is None)
        if a.decay is not None:
            assert np.allclose(a.decay.t30_bands, b.decay.t30_bands)
            if a.decay.second_slope is not None:
                assert b.decay.second_slope.t30_2 == a.decay.second_slope.t30_2
    for a, b in zip(scene.sources, back.sources):
        assert a.id == b.id and np.allclose(a.position, b.position)
        assert np.allclose(a.orientation, b.orientation)
    for a, b in zip(scene.apertures, back.apertures):
        assert tuple(a.connects) == tuple(b.connects)
        assert np.allclose(a.center, b.center)
        assert a.width == b.width and a.height == b.height
    for a, b in zip(scene.panels, back.panels):
        assert a.id == b.id and np.allclose(a.corners, b.corners)
    # a second round trip is byte-identical (canonical form)
    assert serialize_scene(back) == doc


SCENES_DIR = Path(__file__).resolve().parent.parent / "scenes"


def test_scene_files_are_the_presets():
    assert sorted(p.stem for p in SCENES_DIR.glob("*.json")) == list(preset_names())


@pytest.mark.parametrize("name", ["living-room", "pub", "underground"])
def test_scene_file_is_the_serialized_preset(name):
    # what `alodsim presets --write-scenes scenes` writes
    text = (SCENES_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert text == serialize_scene(preset(name)) + "\n"


def test_parse_accepts_a_receiver_kind():
    # scene files written while receivers carried an unread "kind" still load
    doc = json.loads((SCENES_DIR / "living-room.json").read_text(encoding="utf-8"))
    doc["receivers"][0]["kind"] = "binaural"
    scene = parse_scene(json.dumps(doc, indent=2) + "\n")
    assert serialize_scene(scene) == serialize_scene(preset("living-room"))


def test_parse_rejects_garbage():
    with pytest.raises(SceneParseError):
        parse_scene("not json at all {")


def _where(path) -> str:
    """A document path as parse errors name it, e.g. ``sources[0].level_db``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _pub_doc_and_parent(path) -> tuple:
    """The pub document and the object holding the last key of ``path``."""
    doc = json.loads(serialize_scene(preset("pub")))
    node = doc
    for key in path[:-1]:
        node = node[key]
    return doc, node


@pytest.mark.parametrize("path, value", [
    (("sources", 0, "level_dB"), -20),
    (("rooms", 0, "volume_overide"), 1),
    (("rooms", 0, "decay", "second_slop"), None),
    (("seeds",), 1),
    (("sample_rate",), True),
    (("seed",), 1.5),
    (("receivers", 0, "id"), 7),
    (("rooms", 0, "dims"), "big"),
    (("rooms", 0, "dims"), [1, [2], 3]),
    (("rooms", 0, "dims"), [True, 10.0, 2.0]),
    (("panels",), {}),
    (("rooms", 0, "decay"), []),
    (("sources", 1, "level_db"), None),
], ids=lambda v: _where(v) if isinstance(v, tuple) else repr(v))
def test_parse_error_names_the_path(path, value):
    doc, parent = _pub_doc_and_parent(path)
    parent[path[-1]] = value
    with pytest.raises(SceneParseError, match=re.escape(_where(path))):
        parse_scene(json.dumps(doc))


@pytest.mark.parametrize("path", [("rooms",), ("rooms", 0, "dims"), ("sources", 1, "id"),
                                  ("rooms", 0, "decay", "t30_bands")], ids=_where)
def test_parse_names_a_missing_required_key(path):
    doc, parent = _pub_doc_and_parent(path)
    del parent[path[-1]]
    with pytest.raises(SceneParseError, match=re.escape(f"{_where(path)}: missing")):
        parse_scene(json.dumps(doc))


def test_parse_takes_defaults_from_the_dataclasses():
    at = {"position": [1, 1, 1], "orientation": [1, 0, 0]}
    scene = parse_scene(json.dumps({
        "rooms": [{"id": "r", "dims": [2, 2, 2], "absorption": 0.2}],
        "sources": [{"id": "s", **at}],
        "receivers": [{"id": "l", **at}],
    }))
    assert scene.name == "scene" and scene.sample_rate == DEFAULT_SAMPLE_RATE
    assert scene.rng_seed == 0 and scene.occluded_path_m is None
    assert scene.apertures == () and scene.panels == ()
    room = scene.rooms[0]
    assert np.all(room.scattering == DEFAULT_SCATTERING) and np.all(room.origin == 0)
    assert room.decay is None and room.volume_override is None
    assert scene.sources[0].level_db == 0.0 and scene.sources[0].directivity is None


# ---------------------------------------------------------------------------
# property tests: random valid scenes round-trip, random edits fail cleanly
# ---------------------------------------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _per_band(lo, hi):
    return _floats(lo, hi) | st.lists(_floats(lo, hi), min_size=8, max_size=8)


@st.composite
def _unit_vectors(draw):
    az, el = draw(_floats(-np.pi, np.pi)), draw(_floats(-1.5, 1.5))
    return [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]


@st.composite
def _rooms(draw, room_id, dims, origin):
    decay = None
    if draw(st.booleans()):
        bands, second = draw(_per_band(0.2, 3.0)), None
        if draw(st.booleans()):  # slower than the primary, from below -20 dB
            primary = DecayTarget(t30_bands=bands).broadband_t30
            second = SecondSlope(t30_2=primary + draw(_floats(0.01, 3.0)),
                                 onset_level_db=draw(_floats(-60.0, -20.5)))
        decay = DecayTarget(t30_bands=bands, second_slope=second)
    walls = st.lists(st.lists(_floats(0.0, 0.95), min_size=8, max_size=8),
                     min_size=6, max_size=6)
    return RoomSpec(id=room_id, dims=dims, origin=origin,
                    absorption=draw(_per_band(0.0, 0.95) | walls),
                    scattering=draw(_per_band(0.0, 1.0)), decay=decay,
                    volume_override=draw(st.none() | _floats(1.0, 1e4)))


@st.composite
def _panels(draw, dims):
    x, y = draw(_floats(0.0, dims[0] - 0.5)), draw(_floats(0.0, dims[1] - 0.5))
    z = draw(_floats(0.0, dims[2]))
    w, d = draw(_floats(0.1, 0.5)), draw(_floats(0.1, 0.5))
    return PanelSpec(id=draw(st.text(max_size=6)),
                     corners=[[x, y, z], [x + w, y, z], [x + w, y + d, z], [x, y + d, z]],
                     absorption=draw(_per_band(0.0, 1.0)))


@st.composite
def _directivity(draw):
    n_az, n_el = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DirectivityGrid(azimuths_deg=np.arange(n_az) * 360.0 / n_az,
                           elevations_deg=np.linspace(-90.0, 90.0, n_el),
                           gains=rng.uniform(0.0, 2.0, (n_az, n_el, 8)))


@st.composite
def _valid_scenes(draw):
    dims = [draw(_floats(1.0, 30.0)) for _ in range(3)]
    rooms = [draw(_rooms("a", dims, [0.0, 0.0, 0.0]))]
    apertures = []
    if draw(st.booleans()):
        rooms.append(draw(_rooms("b", dims, [dims[0], 0.0, 0.0])))
        apertures.append(ApertureSpec(connects=("a", "b"),
                                      center=[dims[0], dims[1] / 2, dims[2] / 2],
                                      width=draw(_floats(0.1, 2.0)),
                                      height=draw(_floats(0.1, 2.0))))

    def inside():
        return [draw(_floats(0.0, 1.0)) * d for d in dims]

    sources = [SourceSpec(id=f"s{i}", position=inside(), orientation=draw(_unit_vectors()),
                          level_db=draw(_floats(-60.0, 20.0)),
                          directivity=draw(st.none() | _directivity()))
               for i in range(draw(st.integers(1, 2)))]
    return SceneSpec(
        name=draw(st.text(max_size=8)), rooms=rooms, apertures=apertures,
        panels=draw(st.lists(_panels(dims), max_size=2)), sources=sources,
        receivers=[ReceiverSpec(id="l", position=inside(), orientation=draw(_unit_vectors()))],
        sample_rate=draw(_floats(8000.0, 96000.0)), speed_of_sound=draw(_floats(300.0, 360.0)),
        rng_seed=draw(st.integers(0, 2**64)), occluded_path_m=draw(st.none() | _floats(0.1, 50.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_valid_scenes())
def test_random_scenes_round_trip_through_json(scene):
    text = serialize_scene(scene)
    assert serialize_scene(parse_scene(text)) == text


def _paths(node, path=()):
    """Every key and index path in a JSON document, the root's () first."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


_PRESET_DOCS = {name: json.loads(serialize_scene(preset(name))) for name in preset_names()}
_EDIT_SITES = [(name, path) for name, doc in _PRESET_DOCS.items() for path in _paths(doc)]
_EDITS = ["delete", "add"] + [("set", v) for v in ("x", None, [], math.nan, True, False)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_EDIT_SITES), st.sampled_from(_EDITS))
def test_edited_preset_documents_parse_or_raise_an_alodsim_error(site, edit):
    name, path = site
    doc = copy.deepcopy(_PRESET_DOCS[name])
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    if edit == "delete":
        assume(parent is not None)
        del parent[path[-1]]
    elif edit == "add":
        assume(isinstance(node, dict))
        node["unexpected"] = 1
    elif parent is None:
        doc = edit[1]
    else:
        parent[path[-1]] = edit[1]
    try:
        parse_scene(json.dumps(doc))
    except AlodsimError:
        pass


# ---------------------------------------------------------------------------
# sample_count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seconds, fs, n", [
    (1.0 / 44100.0, 44100.0, 1),  # one sample
    (0.6 / 44100.0, 44100.0, 1),  # rounds up to one sample
    (0.50003, 44100.0, 22051),
    (MAX_SAMPLES / 44100.0, 44100.0, MAX_SAMPLES),  # the bound itself
    (MAX_SAMPLES / 8000.0, 8000.0, MAX_SAMPLES),
])
def test_sample_count_rounds_within_the_bound(seconds, fs, n):
    assert sample_count(seconds, fs, "duration") == n


@pytest.mark.parametrize("seconds, fs, named", [
    (0.0, 44100.0, "duration must be a finite positive number"),
    (-1.0, 44100.0, "duration must be a finite positive number"),
    (math.nan, 44100.0, "duration must be a finite positive number"),
    (math.inf, 44100.0, "duration must be a finite positive number"),
    (1.0, 0.0, "sample rate must be a finite positive number"),
    (1.0, math.nan, "sample rate must be a finite positive number"),
    (1.0, math.inf, "sample rate must be a finite positive number"),
    (0.4 / 44100.0, 44100.0, f"must come to 1 .. {MAX_SAMPLES} samples"),  # rounds to 0
    ((MAX_SAMPLES + 1) / 44100.0, 44100.0, f"must come to 1 .. {MAX_SAMPLES} samples"),
    (1e200, 1e200, f"must come to 1 .. {MAX_SAMPLES} samples"),  # the product is inf
])
def test_sample_count_rejects_what_is_not_one_sample_to_the_bound(seconds, fs, named):
    with pytest.raises(SceneValidationError, match=re.escape(named)):
        sample_count(seconds, fs, "duration")
