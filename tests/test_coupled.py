from dataclasses import replace

import numpy as np
import pytest

from alodsim import coupled, pipeline, synth
from alodsim.analysis import schroeder_edc, t30
from alodsim.coupled import (
    _door_source,
    coupled_parts,
    coupling_gain,
    occluded_direct_ir,
    single_room_ir,
    splice,
)
from alodsim.errors import InfeasibleTargetError, SceneValidationError
from alodsim.fdn import N_LINES, design_fdn
from alodsim.ism import SpatialIR, Tail, Taps
from alodsim.pipeline import build_spatial_ir, render_output, simulate
from alodsim.scene import (
    ApertureSpec,
    DecayTarget,
    RoomSpec,
    SecondSlope,
    preset,
    profile_preset,
)
from alodsim.spatial import ImpulseResponse, array_preset_86, synthetic_hrtf
from alodsim.synth import synthesize_mono

from oracles import render_units_block, two_stage


@pytest.fixture(scope="module")
def living():
    return preset("living-room")


def _target(scene):
    return next(s for s in scene.sources if s.id == "target")


def _mono(part, receiver):
    """A part's mono render, convolved with its door signature if it has one."""
    return render_output(part, "mono", receiver).channels[0]


def test_coupling_gain_is_area_ratio(living):
    k = coupling_gain(living, living.apertures[0])
    # door 0.8 x 2.0 m in the 4.97 x 2.71 m shared wall
    expected = (0.8 * 2.0) / (4.97 * 2.71)
    assert k == pytest.approx(expected, rel=1e-12)
    assert k == pytest.approx(0.1188, abs=5e-4)


def test_unit_door_signature_reduces_to_receiver_room(living):
    """The part through the door with a unit-impulse signature must equal the
    plain receiver-room simulation run from a source at the door."""
    profile = profile_preset("razr-simple")
    src = _target(living)
    rec = living.receivers[0].position
    duration = 0.8

    root_a = np.random.SeedSequence([42])
    through = coupled_parts(living, profile, src, living.receivers[0], duration, root_a)[0]
    unit = replace(through, signature=np.array([1.0]))

    root_b = np.random.SeedSequence([42])
    _, stage2_seed = root_b.spawn(2)
    door = _door_source(living.apertures[0], rec)
    rec_room = living.room_of(rec)
    reference = single_room_ir(living, profile, door, rec, rec_room,
                               duration, stage2_seed)

    a = _mono(unit, living.receivers[0])
    b = _mono(reference, living.receivers[0])
    n = min(a.size, b.size)
    assert np.max(np.abs(a[:n] - b[:n])) < 1e-10
    assert float(np.sum(a[n:] ** 2)) < 1e-20
    assert float(np.sum(b[n:] ** 2)) < 1e-20


def test_two_stage_signature_is_stage_one_response(living):
    profile = profile_preset("razr-simple")
    src = _target(living)
    rec = living.receivers[0].position
    duration = 0.6

    root = np.random.SeedSequence([7])
    coupled = coupled_parts(living, profile, src, living.receivers[0], duration, root)[0]

    root_b = np.random.SeedSequence([7])
    stage1_seed, _ = root_b.spawn(2)
    src_room = living.room_of(src.position)
    stage1 = single_room_ir(living, profile, src, living.apertures[0].center,
                            src_room, duration, stage1_seed,
                            include_panels=False)
    assert np.array_equal(coupled.signature, synthesize_mono(stage1))


def test_full_coupling_without_fdn_equals_two_stage(living):
    profile = replace(profile_preset("razr-full"), fdn_enabled=False)
    src, rec = _target(living), living.receivers[0]
    a, beside = coupled_parts(living, profile, src, rec, 0.5, np.random.SeedSequence([1]))
    # coupled_parts spawns 3 children, and the first two are spawn(2)'s
    b = two_stage(living, profile, src, rec.position, 0.5, np.random.SeedSequence([1]))
    assert np.array_equal(_mono(a, rec), _mono(b, rec))
    assert beside.tail is None


def test_full_coupling_without_a_receiver_room_decay_equals_two_stage(living):
    # no receiver-room tail for the source room's tail to feed: the
    # cross-feed is skipped instead of designing an FDN without a target
    rooms = tuple(replace(r, decay=None) if r.id == "living-room" else r
                  for r in living.rooms)
    scene = replace(living, rooms=rooms)
    profile = profile_preset("razr-full")
    src, rec = _target(scene), scene.receivers[0]
    a, beside = coupled_parts(scene, profile, src, rec, 0.5, np.random.SeedSequence([1]))
    b = two_stage(scene, profile, src, rec.position, 0.5, np.random.SeedSequence([1]))
    assert a.tail is None and b.tail is None and beside.tail is None
    assert np.array_equal(_mono(a, rec), _mono(b, rec))
    assert np.array_equal(a.signature, b.signature)
    result = simulate(scene, profile, source_id=src.id, output_mode="mono")
    assert np.all(np.isfinite(result.ir.channels)) and result.ir.n_samples > 0


def test_full_coupling_adds_cross_fed_tail(living):
    profile = profile_preset("razr-full")
    src, rec = _target(living), living.receivers[0]
    through, beside = coupled_parts(living, profile, src, rec, 0.6, np.random.SeedSequence([1]))
    base = two_stage(living, profile, src, rec.position, 0.6, np.random.SeedSequence([1]))
    direct = occluded_direct_ir(living, src, rec)
    assert direct.tail is None and len(beside.tail.configs) == 1
    # the part through the door is two-stage coupling's IR, unchanged
    assert np.array_equal(_mono(through, rec), _mono(base, rec))


def test_cross_feed_into_a_dual_slope_room_drives_its_dual_slope_pair(living):
    # the receiver room's cross-fed tail comes from the same model as its own
    # tail: with a second slope, both are the dual-slope pair of FDNs
    slope = SecondSlope(t30_2=1.2, onset_level_db=-40.0)
    rooms = tuple(replace(r, decay=replace(r.decay, second_slope=slope))
                  if r.id == "living-room" else r for r in living.rooms)
    scene = replace(living, rooms=rooms)
    profile = profile_preset("razr-full")
    src, rec = _target(scene), scene.receivers[0]
    base, beside = coupled_parts(scene, profile, src, rec, 0.3, np.random.SeedSequence([1]))
    for tail in (base.tail, beside.tail):
        assert [config.n_lines for config in tail.configs] == [N_LINES, N_LINES]


@pytest.mark.parametrize("longer", ["first", "second"])
def test_parts_mix_into_the_longer_render(longer):
    short = ImpulseResponse(channels=np.array([[1.0, 2.0], [3.0, 4.0]]), sample_rate=44100.0)
    long = ImpulseResponse(channels=np.arange(6.0).reshape(2, 3), sample_rate=44100.0)
    pair = (long, short) if longer == "first" else (short, long)
    mixed = pipeline._mix(*pair)
    assert np.array_equal(mixed.channels, [[1.0, 3.0, 2.0], [6.0, 8.0, 5.0]])


def test_beside_part_carries_no_signature(living):
    # the cross-fed tail is driven by stage 1's tail, so it must not pass
    # through the door signature, which holds that tail as well
    src, rec = _target(living), living.receivers[0]
    through, beside = build_spatial_ir(living, profile_preset("razr-full"), src.id, rec.id)
    assert through.signature is not None and through.tail
    assert beside.signature is None and beside.tail
    direct = occluded_direct_ir(living, src, rec)
    assert np.array_equal(beside.taps.delay, direct.taps.delay)
    assert np.array_equal(beside.taps.amplitude, direct.taps.amplitude)


@pytest.mark.parametrize("factor", [0.5, 3.0, "1/k"])
def test_the_cross_feed_drive_level_cancels_in_its_scale_step(living, factor):
    # the cross tail is scaled to its target energy, so the level of its
    # drive leaves the beside part's render unchanged but for rounding
    src, rec = _target(living), living.receivers[0]
    _, beside = build_spatial_ir(living, profile_preset("razr-full"), src.id, rec.id)
    if factor == "1/k":
        factor = 1.0 / coupling_gain(living, living.apertures[0])
    scaled = replace(beside, tail=replace(beside.tail, drive=factor * beside.tail.drive))
    want = _mono(beside, rec)
    assert np.max(np.abs(_mono(scaled, rec) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name, runs", [("underground", 2), ("living-room", 3), ("pub", 1)])
def test_a_razr_full_render_runs_each_recurrence_once(monkeypatch, name, runs):
    # underground: its dual-slope pair; living room: stage 1, stage 2 and
    # the cross-feed, whose drive is stage 1's tail from the run that also
    # makes the door signature; pub: its one FDN
    calls = []
    run = synth.line_blocks
    monkeypatch.setattr(synth, "line_blocks", lambda *a, **kw: calls.append(1) or run(*a, **kw))
    scene = preset(name)
    simulate(scene, profile_preset("razr-full"), source_id=_target(scene).id,
             output_mode="mono", duration=0.3)
    assert len(calls) == runs


def test_coupling_gain_divides_by_the_wall_the_two_rooms_share(living):
    # a 3 x 2 x 2.71 m hall on the living room's x = 0 wall: the shared wall
    # is the hall's 2 x 2.71 m face, whichever room the door lists first
    hall = RoomSpec(id="hall", dims=(3.0, 2.0, 2.71), origin=(-3.0, 1.0, 0.0),
                    absorption=0.3, decay=DecayTarget(t30_bands=0.8))
    scene = replace(living, rooms=living.rooms + (hall,))
    for connects in (("hall", "living-room"), ("living-room", "hall")):
        door = ApertureSpec(connects=connects, center=(0.0, 2.0, 1.0), width=0.8, height=2.0)
        assert coupling_gain(scene, door) == pytest.approx((0.8 * 2.0) / (2.0 * 2.71), rel=1e-12)


def _with_hall(scene):
    """``scene`` with a hall beside the living room, whose door is listed first."""
    hall = RoomSpec(id="hall", dims=(3.0, 3.78, 2.71), origin=(-3.0, 0.0, 0.0),
                    absorption=0.3, decay=DecayTarget(t30_bands=0.8))
    door = ApertureSpec(connects=("hall", "living-room"), center=(0.0, 2.0, 1.0),
                        width=0.8, height=2.0)
    return replace(scene, rooms=scene.rooms + (hall,), apertures=(door,) + scene.apertures)


@pytest.mark.parametrize("profile", ["razr-full", "razr-simple", "anechoic"])
def test_coupling_uses_the_aperture_between_the_two_rooms(living, profile):
    # a door to another room, listed first, changes nothing: the stage
    # checks, the coupling gain and the occluded tap's DOA use the kitchen door
    hrtf = synthetic_hrtf(fs=living.sample_rate)
    got, want = (simulate(scene, profile_preset(profile), source_id="target",
                          output_mode="binaural", duration=0.3, hrtf=hrtf)
                 for scene in (_with_hall(living), living))
    assert np.array_equal(got.ir.channels, want.ir.channels)


def test_coupling_requires_an_aperture_between_the_two_rooms(living):
    scene = _with_hall(living)
    listener = replace(scene.receivers[0], position=np.array([-1.5, 2.0, 1.2]))
    scene = replace(scene, receivers=(listener,))  # in the hall, no door to the kitchen
    for profile in ("razr-full", "razr-simple", "anechoic"):
        with pytest.raises(SceneValidationError, match="share no aperture"):
            build_spatial_ir(scene, profile_preset(profile), "target", duration=0.3)


def test_coupling_requires_different_rooms(living):
    profile = profile_preset("razr-full")
    masker = next(s for s in living.sources if s.id == "masker")
    rec = living.receivers[0]  # same room as the masker
    with pytest.raises(SceneValidationError):
        coupled_parts(living, profile, masker, rec, 0.5,
                      np.random.SeedSequence([0]))


def test_array_render_sums_coupled_part_and_occluded_direct(living):
    # the pipeline renders the part through the door and the part beside it
    # (the blocked direct sound and the cross-fed tail) apart and mixes the
    # channels; the mix must be the plain zero-padded sum
    profile = profile_preset("razr-full")
    layout = array_preset_86()
    src, rec = _target(living), living.receivers[0]
    result = simulate(living, profile, source_id=src.id, receiver_id=rec.id,
                      output_mode="array", layout=layout)
    parts = [render_output(part, "array", rec, layout=layout)
             for part in build_spatial_ir(living, profile, src.id, rec.id)]
    assert len(parts) == 2
    want = np.zeros((layout.n_speakers, max(p.n_samples for p in parts)))
    for part in parts:
        want[:, : part.n_samples] += part.channels
    assert np.array_equal(result.ir.channels, want)


@pytest.mark.parametrize("mode", ["mono", "binaural"])
def test_direct_only_profile_renders_the_occluded_direct_path_alone(living, mode):
    # no reflection and no tail: the chain through the door is dropped, so
    # only the blocked direct sound is left
    profile = profile_preset("anechoic")
    src, rec = _target(living), living.receivers[0]
    result = simulate(living, profile, source_id=src.id, output_mode=mode)
    want = render_output(occluded_direct_ir(living, src, rec), mode, rec,
                         hrtf=synthetic_hrtf(fs=living.sample_rate))
    assert np.array_equal(result.ir.channels, want.channels)


def test_direct_only_with_room_details_renders_the_occluded_direct_path_alone(living):
    # room details add nothing once there is no reflection and no tail
    profile = replace(profile_preset("razr-full"), ism_order=0, fdn_enabled=False)
    assert profile.room_details and profile.direct_only
    src, rec = _target(living), living.receivers[0]
    result = simulate(living, profile, source_id=src.id, output_mode="mono")
    want = render_output(occluded_direct_ir(living, src, rec), "mono", rec)
    assert np.array_equal(result.ir.channels, want.channels)


def test_anechoic_same_room_render_is_the_direct_tap_alone():
    # ISM order 0 with the FDN, panels and smearing off needs no special case
    spatial, = build_spatial_ir(preset("pub"), profile_preset("anechoic"))
    assert len(spatial.taps) == 1 and spatial.taps.order[0] == 0
    assert spatial.tail is None and spatial.signature is None
    assert len(spatial.bursts.tap) == 0


def test_occluded_direct_tap(living):
    aperture = living.apertures[0]
    rec = living.receivers[0].position
    spatial = occluded_direct_ir(living, _target(living), living.receivers[0])
    assert spatial.tail is None and spatial.signature is None
    taps = spatial.taps
    assert len(taps) == 1
    assert taps.delay[0] == pytest.approx(5.7 / 343.0, rel=1e-12)
    # -6 dB broadband loss on top of 1/r spreading, then a first-order
    # lowpass at 2 kHz: the lowest band is close to the unfiltered level,
    # the highest bands clearly below it
    base = 10.0 ** (-6.0 / 20.0) / 5.7
    assert taps.amplitude[0][0] == pytest.approx(base, rel=0.01)
    assert taps.amplitude[0][-1] < 0.2 * taps.amplitude[0][0]
    assert np.all(np.diff(taps.amplitude[0]) <= 1e-15)
    # DOA points from the receiver toward the door (the apparent source)
    door_dir = aperture.center - rec
    door_dir = door_dir / np.linalg.norm(door_dir)
    assert np.dot(taps.doa[0], door_dir) > 0.99



def test_coupled_array_render_builds_the_default_layout_once(living, monkeypatch):
    # one layout for the coupled part and the occluded direct sound
    calls = []
    build = pipeline.array_preset_86
    monkeypatch.setattr(pipeline, "array_preset_86", lambda: calls.append(1) or build())
    result = simulate(living, profile_preset("ism-15"), source_id="target",
                      output_mode="array", duration=0.3)
    assert len(calls) == 1 and result.ir.n_channels == 86


# ---------------------------------------------------------------------------
# splice
# ---------------------------------------------------------------------------

def test_splice_scales_tail_to_the_decay_curve():
    fs = 44100.0
    direct_delay = 0.01
    onset = 0.04
    t60 = 0.5
    tap = Taps(delay=np.array([direct_delay]), amplitude=np.full((1, 8), 0.5),
               doa=np.array([[1.0, 0.0, 0.0]]), order=np.zeros(1, dtype=int))
    early = SpatialIR(taps=tap, sample_rate=fs)
    room = preset("living-room").rooms[0]
    out = splice(early, (design_fdn(room, room.decay, fs),), length=4000, onset=onset,
                 t60=t60, direct_delay=direct_delay)

    e_early = float(np.sum(synthesize_mono(early) ** 2))
    # the tail rendered alone, each line into a unit of its own
    lines, _ = render_units_block(replace(out, taps=tap._rows(slice(0))), lambda d: np.eye(len(d)))
    assert len(lines) == N_LINES
    e_tail = sum(float(np.dot(row, row)) for row in lines.values())
    rho = 10.0 ** (-60.0 * (onset - direct_delay) / t60 / 10.0)
    assert e_tail == pytest.approx(rho / (1.0 - rho) * e_early, rel=1e-9)
    assert out.tail.start == round(onset * fs) and out.tail.length == 4000


def test_splice_rejects_a_tail_onset_at_the_direct_sound():
    # a source 22 m down a 2 m wide corridor: the direct sound arrives after
    # four mean free paths, so the tail onset is clamped to it, where the
    # ideal decay would leave the early part no energy
    pub = preset("pub")
    room = replace(pub.rooms[0], dims=np.array([30.0, 2.0, 2.5]), volume_override=None)
    target = replace(pub.sources[0], position=np.array([25.0, 1.0, 1.2]),
                     orientation=np.array([-1.0, 0.0, 0.0]))
    masker = replace(pub.sources[1], position=np.array([3.0, 0.5, 1.2]))
    listener = replace(pub.receivers[0], position=np.array([3.0, 1.0, 1.2]),
                       orientation=np.array([1.0, 0.0, 0.0]))
    scene = replace(pub, rooms=(room,), panels=(), sources=(target, masker),
                    receivers=(listener,))
    with pytest.raises(InfeasibleTargetError, match=r"onset 64\.140 ms .* \(64\.140 ms\)"):
        simulate(scene, profile_preset("razr-full"), output_mode="mono")


def test_splice_junction_is_continuous(living_masker_mono):
    """EDC around the early/tail junction stays near the ideal decay line."""
    ir = living_masker_mono.ir.channels[0]
    fs = living_masker_mono.ir.sample_rate
    edc = schroeder_edc(ir, fs)
    # ideal: -60/T30 dB/s through the -5 dB point
    est = t30(edc)
    v = edc.values
    i5 = int(np.argmax(v <= -5.0))
    t = np.arange(v.size) / fs
    ideal = -5.0 - 60.0 / est * (t - t[i5])
    sel = (v >= -35.0) & (v <= -5.0)
    dev = np.max(np.abs(v[sel] - ideal[sel]))
    assert dev <= 1.5, f"EDC deviates {dev:.2f} dB from the single-slope line"
