"""Coupled-volume rendering through a rectangular aperture.

A coupled pair renders as two parts whose renders are summed
(``coupled_parts``). Through the door: the source room is simulated to an
omnidirectional receiver at the door center (stage 1), and its mono response
is the door signature of an omni source there in the receiver room (stage
2); ``pipeline.render_output`` convolves it into each channel of the part.
Beside the door: the occluded direct path and, with room details, the
receiver room's FDN driven by stage 1's own tail through the area-ratio
coupling gain, an explicit approximation of true coupled-FDN topologies.
This part has no signature, so stage 1's tail enters it once.

Each tail junction is decided here: ``splice`` (beside ``_fdn_onset``) and
the cross-feed each build a whole ``Tail``, with its start sample and its
target energy, which the renderer meets with one scale step. Stage 1's tail
drives the cross-feed.

The occluded direct path (edge diffraction around the door frame) is
replaced by a documented stand-in: a single tap at the known path length
with a broadband attenuation and a first-order lowpass.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .errors import InfeasibleTargetError, SceneValidationError
from .fdn import design_dual_slope, design_fdn
from .ism import SpatialIR, Tail, Taps, early_spatial_ir
from .scene import (
    ApertureSpec,
    BAND_CENTERS,
    ReceiverSpec,
    RenderingProfile,
    SceneSpec,
    SourceSpec,
    mean_free_path,
    sample_count,
)
from .synth import spatial_ir_length, synthesize_mono

OCCLUSION_ATTEN_DB = 6.0  # broadband stand-in loss around the door frame
OCCLUSION_CORNER_HZ = 2000.0  # first-order lowpass corner of the stand-in


def _door(scene: SceneSpec, source: SourceSpec, receiver_pos: np.ndarray) -> tuple:
    """(source room, receiver room, the aperture that joins the two)."""
    src_room = scene.room_of(source.position)
    rec_room = scene.room_of(receiver_pos)
    if src_room is None or rec_room is None or src_room.id == rec_room.id:
        raise SceneValidationError("coupling requires source and receiver in different rooms")
    for aperture in scene.apertures:
        if set(aperture.connects) == {src_room.id, rec_room.id}:
            return src_room, rec_room, aperture
    raise SceneValidationError(f"rooms {src_room.id!r} and {rec_room.id!r} share no aperture")


def occluded_direct_ir(scene: SceneSpec, source: SourceSpec,
                       receiver: ReceiverSpec) -> SpatialIR:
    """The stand-in direct tap for a blocked line of sight, alone.

    Inverse-square amplitude over the scene's occluded path length,
    attenuated and lowpassed by the occlusion filter and scaled by the source
    level; the DOA points toward the aperture between the two rooms. It is
    rendered beside the door: it must not pass through the door signature.
    """
    r = scene.occluded_path_m
    if r is None:
        raise SceneValidationError("no occluded path length available")
    _, _, aperture = _door(scene, source, receiver.position)
    lowpass = 1.0 / np.sqrt(1.0 + (BAND_CENTERS / OCCLUSION_CORNER_HZ) ** 2)
    amp = (1.0 / r) * 10.0 ** (-OCCLUSION_ATTEN_DB / 20.0) * lowpass
    amp = amp * 10.0 ** (source.level_db / 20.0)
    d = aperture.center - np.asarray(receiver.position, dtype=float)
    taps = Taps(delay=np.array([r / scene.speed_of_sound]), amplitude=amp[None, :],
                doa=(d / np.linalg.norm(d))[None, :], order=np.zeros(1, dtype=np.int64))
    return SpatialIR(taps=taps, sample_rate=scene.sample_rate)


def _fdn_onset(room, profile: RenderingProfile, scene: SceneSpec,
               direct_delay: float) -> float:
    """Tail onset: arrival time of the first order beyond the ISM.

    Estimated by mean free path: reflections of order n cluster around
    n * mfp / c, so the tail starts at (ism_order + 1) * mfp / c.
    """
    mfp = mean_free_path(room)
    return max((profile.ism_order + 1) * mfp / scene.speed_of_sound, direct_delay)


def splice(early: SpatialIR, configs: tuple, *, length: int, onset: float, t60: float,
           direct_delay: float) -> SpatialIR:
    """Attach the ``length``-sample tail of FDNs ``configs`` to the early
    SpatialIR with a continuous EDC.

    The tail's target is set so that the combined Schroeder curve at the
    junction sits on the ideal decay anchored at the direct sound: with rho
    being the linear EDC level -60 (onset - t_direct) / T60 dB, the tail's
    lines carry rho / (1 - rho) times the early energy, and the tail
    starts at the sample nearest ``onset`` seconds. An onset at the direct
    sound leaves the early part no share of the decay (rho -> 1), so it is
    an ``InfeasibleTargetError``. The early IR carries no signature:
    ``coupled_parts`` sets one on a part through the door after the splice.
    """
    level_db = -60.0 * max(onset - direct_delay, 0.0) / t60
    rho = 10.0 ** (level_db / 10.0)
    if rho >= 1.0 - 1e-9:
        raise InfeasibleTargetError(
            f"tail onset {onset * 1e3:.3f} ms is at the direct sound "
            f"({direct_delay * 1e3:.3f} ms): the tail would hold the whole decay")
    mono = synthesize_mono(early)
    e_early = float(np.dot(mono, mono))
    return replace(early, tail=Tail(configs=configs, length=length,
                                    energy=rho / (1.0 - rho) * e_early,
                                    start=round(onset * early.sample_rate)))


def _room_fdns(scene: SceneSpec, profile: RenderingProfile, room,
               seed_seq: np.random.SeedSequence) -> Optional[tuple]:
    """The FDN of one room, or its dual-slope pair when the profile renders a
    second slope; None without an FDN."""
    if not profile.fdn_enabled or room.decay is None:
        return None
    fs = scene.sample_rate
    seed = int(seed_seq.generate_state(1)[0] % (2**31))
    if profile.second_slope(room) is not None:
        return design_dual_slope(room, room.decay, fs, c=scene.speed_of_sound, seed=seed)
    return (design_fdn(room, room.decay, fs, c=scene.speed_of_sound, seed=seed),)


def single_room_ir(scene: SceneSpec, profile: RenderingProfile,
                   source: SourceSpec, receiver_pos: np.ndarray, room,
                   duration: float, seed_seq: np.random.SeedSequence,
                   include_panels: bool = True) -> SpatialIR:
    """Early + spliced tail for a source and receiver in the same room."""
    early_seed, tail_seed = seed_seq.spawn(2)
    early = early_spatial_ir(scene, profile, source, receiver_pos, room,
                             early_seed, include_panels=include_panels)
    configs = _room_fdns(scene, profile, room, tail_seed)
    if configs is None:
        return early
    direct_delay = float(np.linalg.norm(source.position - receiver_pos)) / scene.speed_of_sound
    onset = _fdn_onset(room, profile, scene, direct_delay)
    return splice(early, configs, length=sample_count(duration, scene.sample_rate, "duration"),
                  onset=onset, t60=room.decay.broadband_t30, direct_delay=direct_delay)


def _door_source(aperture: ApertureSpec, toward: np.ndarray) -> SourceSpec:
    d = np.asarray(toward, dtype=float) - aperture.center
    d = d / np.linalg.norm(d)
    return SourceSpec(id="door", position=aperture.center, orientation=d)


def coupling_gain(scene: SceneSpec, aperture: ApertureSpec) -> float:
    """k = aperture area / shared wall area (area-ratio coupling rule).

    The shared wall is the overlap of the two rooms' faces in the plane that
    holds the aperture center, so k does not depend on which room
    ``aperture.connects`` lists first.
    """
    a, b = (scene.room(room_id) for room_id in aperture.connects)
    lo = np.maximum(a.origin, b.origin)
    extent = np.minimum(a.origin + a.dims, b.origin + b.dims) - lo
    for axis in range(3):
        if abs(extent[axis]) < 1e-6 and abs(aperture.center[axis] - lo[axis]) < 1e-6:
            shared = float(np.prod(np.delete(extent, axis)))
            if shared > 0.0:
                return aperture.area / shared
    raise SceneValidationError("aperture center does not lie on a wall the two rooms share")


def coupled_parts(scene: SceneSpec, profile: RenderingProfile,
                  source: SourceSpec, receiver: ReceiverSpec, duration: float,
                  seed_seq: np.random.SeedSequence) -> tuple:
    """A coupled pair's IR in parts: through the door, then beside it.

    Through the door is stage 2, carrying stage 1's mono response as its
    signature; stage 1 renders the source room without panels. Beside the
    door is the occluded direct tap. With room details, the beside part also
    holds the receiver room's FDN (or its dual-slope pair) driven by k times
    stage 1's scaled mono tail, scaled to k^2 E(stage-2 tail) E(signature):
    the stage-2 tail's target energy after the signature, for noise-like
    content. It starts at the stage-2 tail's start. A direct-only profile
    gets the direct tap alone, as the door would relay nothing else.
    """
    if profile.direct_only:
        return (occluded_direct_ir(scene, source, receiver),)
    src_room, rec_room, aperture = _door(scene, source, receiver.position)
    stage1_seed, stage2_seed, cross_seed = seed_seq.spawn(3)
    stage1 = single_room_ir(scene, profile, source, aperture.center, src_room,
                            duration, stage1_seed, include_panels=False)
    stage2 = single_room_ir(scene, profile, _door_source(aperture, receiver.position),
                            receiver.position, rec_room, duration, stage2_seed)
    if not (profile.room_details and stage1.tail and stage2.tail):
        return (replace(stage2, signature=synthesize_mono(stage1)),
                occluded_direct_ir(scene, source, receiver))
    k = coupling_gain(scene, aperture)
    # stage 1's tail first and alone: one run of its FDNs, for the drive too
    signature = synthesize_mono(replace(stage1, taps=stage1.taps._rows(slice(0))),
                                out=np.zeros(spatial_ir_length(stage1)))
    drive = k * signature[stage1.tail.start:][:stage1.tail.length]
    synthesize_mono(replace(stage1, tail=None), out=signature)
    cross = Tail(configs=_room_fdns(scene, profile, rec_room, cross_seed),
                 length=stage2.tail.length, start=stage2.tail.start, drive=drive,
                 energy=k**2 * stage2.tail.energy * float(np.einsum("i,i->", signature, signature)))
    return (replace(stage2, signature=signature),
            replace(occluded_direct_ir(scene, source, receiver), tail=cross))
