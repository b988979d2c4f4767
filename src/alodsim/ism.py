"""Shoebox image-source enumeration and the early-reflection transforms.

Images are indexed the Allen-Berkley way: for parity q in {0,1}^3 and
integer lattice vector m, the image sits at (1 - 2q) * s + 2 m L (per axis,
room-local coordinates). The image hits the lower wall |m - q| times and the
upper wall |m| times along each axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateGeometryError, SceneValidationError
from .scene import (
    N_BANDS,
    PanelSpec,
    RenderingProfile,
    RoomSpec,
    SceneSpec,
    SourceSpec,
)

# Diffuse burst duration per reflection order (temporal smearing kernel).
BURST_SECONDS_PER_ORDER = 2e-3
# Burst envelope decays by 60 dB over its duration.
BURST_DECAY_DB = 60.0


@dataclass(frozen=True)
class ImageSource:
    position: np.ndarray
    order: int
    wall_hits: tuple  # (x0, x1, y0, y1, z0, z1) reflection counts
    band_gain: np.ndarray
    jittered: bool = False


@dataclass(frozen=True)
class DiffuseBurst:
    """Energy carried by the diffuse part of a smeared reflection."""

    duration: float
    seed: int
    band_energy: np.ndarray


@dataclass(frozen=True)
class ReflectionTap:
    delay: float
    amplitude: np.ndarray  # per-band linear gain
    doa: np.ndarray  # unit vector from receiver toward the apparent source
    order: int = 0
    diffuse_burst: Optional[DiffuseBurst] = None


@dataclass(frozen=True)
class TailStream:
    """One direction-labeled stream of the diffuse tail."""

    samples: np.ndarray
    onset: float  # seconds
    direction: np.ndarray  # unit vector (apparent incidence)


@dataclass(frozen=True)
class SpatialIR:
    """Directional impulse response before spatialization."""

    taps: tuple
    sample_rate: float
    tail: tuple = ()
    # Optional mono kernel convolved into every rendered channel (used by the
    # two-stage room coupling to inject the source-room response).
    signature: Optional[np.ndarray] = None

    def __post_init__(self):
        taps = tuple(sorted(self.taps, key=lambda t: t.delay))
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "tail", tuple(self.tail))


def enumerate_images(room: RoomSpec, source_pos: np.ndarray, max_order: int):
    """All mirror images with total reflection order <= max_order.

    Ordering is deterministic: by order, then lexicographic wall_hits.
    Per-band gain is the product of sqrt(1 - alpha) over all wall hits.
    """
    source_pos = np.asarray(source_pos, dtype=float)
    if not room.contains(source_pos):
        raise SceneValidationError(f"source {source_pos} outside room {room.id}")
    if max_order < 0:
        raise SceneValidationError("max_order must be >= 0")

    local = source_pos - room.origin
    dims = room.dims
    # sqrt(1 - alpha) per wall: energy-consistent amplitude per bounce
    wall_amp = np.sqrt(1.0 - room.absorption)  # (6, n_bands)
    log_wall_amp = np.log(wall_amp)

    per_axis = []
    for axis in range(3):
        entries = []
        for q in (0, 1):
            for m in range(-max_order, max_order + 2):
                lo = abs(m - q)
                hi = abs(m)
                if lo + hi > max_order:
                    continue
                coord = (1 - 2 * q) * local[axis] + 2 * m * dims[axis]
                entries.append((lo + hi, lo, hi, coord))
        per_axis.append(entries)

    images = []
    for ox, lox, hix, cx in per_axis[0]:
        for oy, loy, hiy, cy in per_axis[1]:
            if ox + oy > max_order:
                continue
            for oz, loz, hiz, cz in per_axis[2]:
                order = ox + oy + oz
                if order > max_order:
                    continue
                hits = (lox, hix, loy, hiy, loz, hiz)
                log_gain = (
                    lox * log_wall_amp[0] + hix * log_wall_amp[1]
                    + loy * log_wall_amp[2] + hiy * log_wall_amp[3]
                    + loz * log_wall_amp[4] + hiz * log_wall_amp[5]
                )
                images.append(ImageSource(
                    position=np.array([cx, cy, cz]) + room.origin,
                    order=order,
                    wall_hits=hits,
                    band_gain=np.exp(log_gain),
                ))
    images.sort(key=lambda im: (im.order, im.wall_hits))
    return images


def apply_jitter(images, profile: RenderingProfile, rng: np.random.Generator):
    """Displace images of order >= 2 by Gaussian jitter.

    Standard deviation is sigma_per_order * order per axis; direct sound and
    first-order images keep their exact positions to preserve localization.
    """
    if not profile.jitter_enabled or profile.jitter_sigma_per_order == 0.0:
        return list(images)
    out = []
    for im in images:
        if im.order < 2:
            out.append(im)
            continue
        sigma = profile.jitter_sigma_per_order * im.order
        offset = rng.normal(0.0, sigma, size=3)
        out.append(replace(im, position=im.position + offset, jittered=True))
    return out


def _emission_direction(image: ImageSource, receiver_pos: np.ndarray) -> np.ndarray:
    """Direction the ray leaves the real source, found by unfolding mirrors."""
    d = np.asarray(receiver_pos) - image.position
    n = np.linalg.norm(d)
    d = d / n
    hits = image.wall_hits
    for axis in range(3):
        if (hits[2 * axis] + hits[2 * axis + 1]) % 2 == 1:
            d[axis] = -d[axis]
    return d


def taps_from_images(images, receiver_pos: np.ndarray, c: float,
                     directivity=None, source_orientation=None):
    """Reflection taps: delay r/c, amplitude band_gain / r, DOA toward image."""
    receiver_pos = np.asarray(receiver_pos, dtype=float)
    taps = []
    for im in images:
        diff = im.position - receiver_pos
        r = float(np.linalg.norm(diff))
        if r < 1e-12:
            raise DegenerateGeometryError("image source coincides with receiver")
        amp = im.band_gain / r
        if directivity is not None and source_orientation is not None:
            emit = _emission_direction(im, receiver_pos)
            amp = amp * directivity.gain(emit, source_orientation)
        taps.append(ReflectionTap(
            delay=r / c,
            amplitude=amp,
            doa=diff / r,
            order=im.order,
        ))
    taps.sort(key=lambda t: t.delay)
    return taps


def smear_taps(taps, profile: RenderingProfile, scattering: np.ndarray,
               seed_seq: np.random.SeedSequence):
    """Split reflections of order >= 1 into specular + diffuse-burst parts.

    The specular part keeps sqrt(1 - s) of the amplitude; the diffuse burst
    carries the remaining energy s * a^2 per band as an exponentially
    decaying noise burst of duration BURST_SECONDS_PER_ORDER * order. The
    split conserves per-band energy exactly.
    """
    if not profile.smearing_enabled:
        return list(taps)
    s = profile.specular_fraction if profile.specular_fraction is not None else scattering
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    seeds = seed_seq.generate_state(max(len(taps), 1))
    out = []
    for i, tap in enumerate(taps):
        if tap.order < 1 or tap.diffuse_burst is not None:
            out.append(tap)
            continue
        burst = DiffuseBurst(
            duration=BURST_SECONDS_PER_ORDER * tap.order,
            seed=int(seeds[i]),
            band_energy=s * tap.amplitude**2,
        )
        out.append(replace(tap, amplitude=np.sqrt(1.0 - s) * tap.amplitude,
                           diffuse_burst=burst))
    return out


def burst_samples(burst: DiffuseBurst, band: int, fs: float) -> np.ndarray:
    """Deterministic noise burst for one band, normalized to its energy."""
    n = max(int(round(burst.duration * fs)), 1)
    rng = np.random.default_rng(np.random.SeedSequence([burst.seed, band]))
    noise = rng.standard_normal(n)
    t = np.arange(n) / fs
    envelope = 10.0 ** (-BURST_DECAY_DB * t / (20.0 * burst.duration))
    shaped = noise * envelope
    energy = float(np.dot(shaped, shaped))
    if energy == 0.0:
        return shaped
    return shaped * math.sqrt(burst.band_energy[band] / energy)


def reflect_finite_panel(panel: PanelSpec, source_pos: np.ndarray,
                         receiver_pos: np.ndarray,
                         c: float = 343.0) -> Optional[ReflectionTap]:
    """First-order specular reflection off a finite rectangle, if visible.

    The source is mirrored across the panel plane; a tap is produced iff the
    segment mirror -> receiver crosses the rectangle interior.
    """
    source_pos = np.asarray(source_pos, dtype=float)
    receiver_pos = np.asarray(receiver_pos, dtype=float)
    origin = panel.corners[0]
    n = panel.normal
    d_src = float(np.dot(source_pos - origin, n))
    d_rec = float(np.dot(receiver_pos - origin, n))
    if d_src * d_rec <= 0:
        return None  # opposite sides (or on the plane): no specular path
    mirror = source_pos - 2.0 * d_src * n
    seg = receiver_pos - mirror
    denom = float(np.dot(seg, n))
    if abs(denom) < 1e-12:
        return None
    t = -float(np.dot(mirror - origin, n)) / denom
    if not (0.0 < t < 1.0):
        return None
    hit = mirror + t * seg
    e1 = panel.corners[1] - origin
    e2 = panel.corners[3] - origin
    u = float(np.dot(hit - origin, e1)) / float(np.dot(e1, e1))
    v = float(np.dot(hit - origin, e2)) / float(np.dot(e2, e2))
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        return None
    r = float(np.linalg.norm(seg))
    if r < 1e-12:
        raise DegenerateGeometryError("panel mirror coincides with receiver")
    amp = np.sqrt(1.0 - panel.absorption) / r
    return ReflectionTap(delay=r / c, amplitude=amp, doa=-seg / r, order=1)


def panel_taps(panels, source_pos, receiver_pos, c: float):
    """Taps for every visible panel reflection."""
    taps = []
    for panel in panels:
        tap = reflect_finite_panel(panel, source_pos, receiver_pos, c)
        if tap is not None:
            taps.append(tap)
    return taps


def early_spatial_ir(scene: SceneSpec, profile: RenderingProfile,
                     source: SourceSpec, receiver_pos: np.ndarray,
                     room: RoomSpec, seed_seq: np.random.SeedSequence,
                     include_panels: bool = True) -> SpatialIR:
    """Early reflections for one source/receiver pair inside one room.

    Composes enumerate -> jitter -> taps -> panels -> smear. Panels are only
    reflected when both endpoints lie in this room.
    """
    jitter_seed, smear_seed = seed_seq.spawn(2)
    images = enumerate_images(room, source.position, profile.ism_order)
    images = apply_jitter(images, profile, np.random.default_rng(jitter_seed))
    taps = taps_from_images(images, receiver_pos, scene.speed_of_sound,
                            directivity=source.directivity,
                            source_orientation=source.orientation)
    if include_panels and profile.panels_enabled:
        relevant = [p for p in scene.panels
                    if room.contains(p.corners.mean(axis=0))]
        taps.extend(panel_taps(relevant, source.position, receiver_pos,
                               scene.speed_of_sound))
    taps = smear_taps(taps, profile, room.scattering, smear_seed)
    level = 10.0 ** (source.level_db / 20.0)
    if level != 1.0:
        taps = [replace(t, amplitude=t.amplitude * level,
                        diffuse_burst=None if t.diffuse_burst is None else replace(
                            t.diffuse_burst,
                            band_energy=t.diffuse_burst.band_energy * level**2))
                for t in taps]
    return SpatialIR(taps=tuple(taps), sample_rate=scene.sample_rate)
