import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from alodsim.errors import (
    InfeasibleTargetError,
    SceneParseError,
    SceneValidationError,
)
from alodsim.scene import (
    DecayTarget,
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
