"""End-to-end simulation: scene + rendering profile -> impulse response.

``simulate`` is the single entry point used by the CLI. It resolves the
source/receiver rooms, picks the single-room or coupled-room path at the
profile's level of detail, spatializes each part of the result according to
the requested output mode and sums the renders. All randomness descends from
one SeedSequence rooted at the scene seed, so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coupled import coupled_parts, single_room_ir
from .errors import SceneValidationError
from .filterbank import fftconvolve
from .ism import SpatialIR
from .scene import ReceiverSpec, RenderingProfile, SceneSpec, sample_count
from .spatial import (
    HrtfSet,
    ImpulseResponse,
    LoudspeakerLayout,
    array_channels,
    array_preset_86,
    binaural_channels,
    synthetic_hrtf,
)
from .synth import synthesize_mono

# Rendered tail length beyond the decay model, to absorb onsets and direct
# path delays.
_DURATION_PADDING_S = 0.25


@dataclass(frozen=True)
class SimulationResult:
    ir: ImpulseResponse
    source_id: str
    receiver_id: str
    duration: float
    output_mode: str


def _pick(items: tuple, item_id: Optional[str], kind: str):
    """The item with ``item_id``, or the first one when it is None."""
    if item_id is None:
        return items[0]
    for item in items:
        if item.id == item_id:
            return item
    raise SceneValidationError(f"unknown {kind} id {item_id!r}")


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


def build_spatial_ir(scene: SceneSpec, profile: RenderingProfile,
                     source_id: Optional[str] = None,
                     receiver_id: Optional[str] = None,
                     duration: Optional[float] = None) -> tuple[SpatialIR, ...]:
    """The directional impulse response of one source/receiver pair, in parts.

    A render of the pair is the sum of its parts' renders. A same-room pair
    is one part. A coupled pair is ``coupled_parts``: the part through the
    door carries the door signature and no direct sound; the part beside it
    holds the occluded direct sound and any cross-fed tail. The tails last
    ``duration`` seconds (default ``default_duration``; ``sample_count`` checks it).
    """
    source = _pick(scene.sources, source_id, "source")
    receiver = _pick(scene.receivers, receiver_id, "receiver")
    if duration is None:
        duration = default_duration(scene, profile)
    sample_count(duration, scene.sample_rate, "duration")
    root = np.random.SeedSequence(
        [scene.rng_seed, scene.sources.index(source), scene.receivers.index(receiver)]
    )
    src_room = scene.room_of(source.position)
    if src_room.id == scene.room_of(receiver.position).id:
        return (single_room_ir(scene, profile, source, receiver.position,
                               src_room, duration, root),)
    return coupled_parts(scene, profile, source, receiver, duration, root)


def render_output(spatial: SpatialIR, output_mode: str, receiver: ReceiverSpec,
                  hrtf: Optional[HrtfSet] = None,
                  layout: Optional[LoudspeakerLayout] = None) -> ImpulseResponse:
    """A part's channels: the mode's render of its taps and tail with ``hrtf``
    (binaural, diotic) or ``layout`` (array), convolved once with the part's
    door signature if it has one; a diotic output copies the left ear, and
    the channels are then checked for finiteness once."""
    if output_mode in ("binaural", "diotic"):
        channels = binaural_channels(spatial, hrtf, receiver.orientation)
    elif output_mode == "array":
        channels = array_channels(spatial, layout, receiver.orientation)
    elif output_mode == "mono":
        channels = synthesize_mono(spatial)[None, :]
    else:
        raise SceneValidationError(f"unknown output mode {output_mode!r}")
    if spatial.signature is not None:  # a non-finite sample leaves non-finite ones
        channels = fftconvolve(channels, spatial.signature)
    if output_mode == "diotic":
        channels = channels[[0, 0]]
    return ImpulseResponse(channels, spatial.sample_rate)


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
             output_mode: Optional[str] = None,
             hrtf: Optional[HrtfSet] = None,
             layout: Optional[LoudspeakerLayout] = None) -> SimulationResult:
    """Simulate one source/receiver pair and spatialize the result.

    The defaults are the synthetic HRTF set and the 86-speaker layout.
    """
    source = _pick(scene.sources, source_id, "source")
    receiver = _pick(scene.receivers, receiver_id, "receiver")
    if duration is None:
        duration = default_duration(scene, profile)
    mode = output_mode if output_mode is not None else profile.output_mode
    if hrtf is None and mode in ("binaural", "diotic"):
        hrtf = synthetic_hrtf(fs=scene.sample_rate)
    if layout is None and mode == "array":
        layout = array_preset_86()
    parts = build_spatial_ir(scene, profile, source.id, receiver.id, duration)
    ir = functools.reduce(_mix, (render_output(part, mode, receiver, hrtf=hrtf, layout=layout)
                                 for part in parts))
    return SimulationResult(ir=ir, source_id=source.id, receiver_id=receiver.id,
                            duration=duration, output_mode=mode)
