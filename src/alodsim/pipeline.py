"""End-to-end simulation: scene + rendering profile -> impulse response.

``simulate`` is the single entry point used by the CLI. It resolves the
source/receiver rooms, picks the single-room or coupled-room path at the
profile's level of detail and spatializes the result according to the
requested output mode. All randomness descends from one SeedSequence rooted
at the scene seed, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coupled import (
    couple_full,
    couple_two_stage,
    occluded_direct,
    single_room_ir,
)
from .errors import SceneValidationError
from .ism import SpatialIR
from .scene import ReceiverSpec, RenderingProfile, RoomSpec, SceneSpec, SourceSpec
from .spatial import (
    HrtfSet,
    ImpulseResponse,
    LoudspeakerLayout,
    array_preset_86,
    binauralize,
    diotic,
    render_array,
    render_mono,
    synthetic_hrtf,
)

# Rendered tail length beyond the decay model, to absorb onsets and direct
# path delays.
_DURATION_PADDING_S = 0.25


@dataclass(frozen=True)
class SimulationResult:
    ir: ImpulseResponse
    spatial: SpatialIR
    source_id: str
    receiver_id: str
    duration: float
    output_mode: str


def _pick_source(scene: SceneSpec, source_id: Optional[str]) -> SourceSpec:
    if source_id is None:
        return scene.sources[0]
    for s in scene.sources:
        if s.id == source_id:
            return s
    raise SceneValidationError(f"unknown source id {source_id!r}")


def _pick_receiver(scene: SceneSpec, receiver_id: Optional[str]) -> ReceiverSpec:
    if receiver_id is None:
        return scene.receivers[0]
    for r in scene.receivers:
        if r.id == receiver_id:
            return r
    raise SceneValidationError(f"unknown receiver id {receiver_id!r}")


def default_duration(scene: SceneSpec, profile: RenderingProfile) -> float:
    """Tail length that lets the slowest decay in the scene reach the floor.

    Single-slope rooms get 1.3 T30; dual-slope rooms additionally run the
    secondary decay from its onset level down by another ~48 dB.
    """
    t = 0.1
    for room in scene.rooms:
        if room.decay is None:
            continue
        t1 = room.decay.broadband_t30
        ss = profile.second_slope(room)
        if ss is not None:
            knee = -ss.onset_level_db / 60.0 * t1
            t = max(t, knee + 0.8 * ss.t30_2)
        else:
            t = max(t, 1.3 * t1)
    return t + _DURATION_PADDING_S


def occluded_direct_ir(scene: SceneSpec, source: SourceSpec,
                       receiver: ReceiverSpec) -> SpatialIR:
    """The stand-in direct tap for a blocked line of sight, alone.

    Kept out of the coupled SpatialIR because the direct sound must not pass
    through the door signature; the pipeline renders it separately and mixes
    the channels.
    """
    aperture = scene.apertures[0] if scene.apertures else None
    taps = occluded_direct(aperture, scene.occluded_path_m, receiver.position,
                           scene.speed_of_sound)
    level = 10.0 ** (source.level_db / 20.0)
    if level != 1.0:
        taps = replace(taps, amplitude=taps.amplitude * level)
    return SpatialIR(taps=taps, sample_rate=scene.sample_rate)


def _spatial_ir(scene: SceneSpec, profile: RenderingProfile,
                source: SourceSpec, receiver: ReceiverSpec,
                src_room: RoomSpec, rec_room: RoomSpec,
                duration: float, seed: Optional[int]) -> SpatialIR:
    root = np.random.SeedSequence(
        [scene.rng_seed if seed is None else int(seed),
         scene.sources.index(source), scene.receivers.index(receiver)]
    )
    if src_room.id == rec_room.id:
        return single_room_ir(scene, profile, source, receiver.position,
                              src_room, duration, root)
    if profile.direct_only:
        return occluded_direct_ir(scene, source, receiver)
    couple = couple_full if profile.room_details else couple_two_stage
    return couple(scene, profile, source, receiver.position, duration, root)


def build_spatial_ir(scene: SceneSpec, profile: RenderingProfile,
                     source_id: Optional[str] = None,
                     receiver_id: Optional[str] = None,
                     duration: Optional[float] = None,
                     seed: Optional[int] = None) -> SpatialIR:
    """Directional impulse response for one source/receiver pair."""
    source = _pick_source(scene, source_id)
    receiver = _pick_receiver(scene, receiver_id)
    if duration is None:
        duration = default_duration(scene, profile)
    return _spatial_ir(scene, profile, source, receiver,
                       scene.room_of(source.position),
                       scene.room_of(receiver.position), duration, seed)


def render_output(spatial: SpatialIR, output_mode: str, receiver: ReceiverSpec,
                  hrtf: Optional[HrtfSet] = None,
                  layout: Optional[LoudspeakerLayout] = None) -> ImpulseResponse:
    """Spatialize a SpatialIR for the requested presentation."""
    if output_mode in ("binaural", "diotic"):
        if hrtf is None:
            hrtf = synthetic_hrtf(fs=spatial.sample_rate)
        ir = binauralize(spatial, hrtf, orientation=receiver.orientation)
        return diotic(ir) if output_mode == "diotic" else ir
    if output_mode == "array":
        if layout is None:
            layout = array_preset_86()
        return render_array(spatial, layout, orientation=receiver.orientation)
    if output_mode == "mono":
        return render_mono(spatial)
    raise SceneValidationError(f"unknown output mode {output_mode!r}")


def _mix(a: ImpulseResponse, b: ImpulseResponse) -> ImpulseResponse:
    """Sum of two fresh renders, added in place into the longer one."""
    if b.n_samples > a.n_samples:
        a, b = b, a
    a.channels[:, : b.n_samples] += b.channels
    return a


def simulate(scene: SceneSpec, profile: RenderingProfile,
             source_id: Optional[str] = None,
             receiver_id: Optional[str] = None,
             duration: Optional[float] = None,
             seed: Optional[int] = None,
             output_mode: Optional[str] = None,
             hrtf: Optional[HrtfSet] = None,
             layout: Optional[LoudspeakerLayout] = None) -> SimulationResult:
    """Simulate one source/receiver pair and spatialize the result."""
    receiver = _pick_receiver(scene, receiver_id)
    source = _pick_source(scene, source_id)
    src_room = scene.room_of(source.position)
    rec_room = scene.room_of(receiver.position)
    if duration is None:
        duration = default_duration(scene, profile)
    mode = output_mode if output_mode is not None else profile.output_mode
    spatial = _spatial_ir(scene, profile, source, receiver, src_room, rec_room,
                          duration, seed)
    ir = render_output(spatial, mode, receiver, hrtf=hrtf, layout=layout)
    if src_room.id != rec_room.id and not profile.direct_only:
        direct = occluded_direct_ir(scene, source, receiver)
        ir = _mix(ir, render_output(direct, mode, receiver,
                                    hrtf=hrtf, layout=layout))
    return SimulationResult(ir=ir, spatial=spatial, source_id=source.id,
                            receiver_id=receiver.id, duration=duration,
                            output_mode=mode)
