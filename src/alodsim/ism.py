"""Shoebox image sources and the early-reflection chain, carried as arrays.

Images are indexed the Allen-Berkley way: for parity q in {0,1}^3 and
integer lattice vector m, the image sits at (1 - 2q) * s + 2 m L (per axis,
room-local coordinates). The image hits the lower wall |m - q| times and the
upper wall |m| times along each axis.

The chain enumerate -> jitter -> taps -> panels -> smear passes blocks of
rows: ``Images`` (one per image source), then ``Taps`` (one per specular
reflection) and ``Bursts`` (one per diffuse burst, naming its tap's row).
Taps are sorted by delay once, before smearing, so bursts follow tap order.
Each step transforms a whole block with array operations.
A ``SpatialIR``'s tail is a recipe: no tail sample exists until it is rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Optional

import numpy as np

from .errors import DegenerateGeometryError, SceneValidationError
from .filterbank import OCTAVE_CENTERS_8, band_energies, band_split
from .scene import N_BANDS, RenderingProfile, RoomSpec, SceneSpec, SourceSpec, check_order

# Diffuse burst duration per reflection order (temporal smearing kernel).
BURST_SECONDS_PER_ORDER = 2e-3
# Burst envelope decays by 60 dB over its duration.
BURST_DECAY_DB = 60.0
# A burst's part in band b outlasts it by 3 periods of the band's lower edge.
BURST_EXTENSION_S = 3.0 * math.sqrt(2.0) / np.array(OCTAVE_CENTERS_8)
NOISE_TABLE_LEN = 8192  # samples per band of the bursts' noise table (512 KiB)
_BURST_CHUNK = 1 << 16  # samples per array of one chunk of burst draws (512 KiB)
# Jitter standard deviation per reflection order, meters per axis.
JITTER_SIGMA_PER_ORDER = 0.1


@dataclass(frozen=True)
class Images:
    """Image sources, one row each, ordered by order and then wall hits."""

    position: np.ndarray  # (N, 3) world coordinates
    order: np.ndarray  # (N,) total reflection order
    wall_hits: np.ndarray  # (N, 6) reflection counts on x0, x1, y0, y1, z0, z1
    band_gain: np.ndarray  # (N, n_bands) product of the wall amplitudes

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Taps:
    """Specular reflection taps, one row each."""

    delay: np.ndarray  # (N,) seconds
    amplitude: np.ndarray  # (N, n_bands) linear gain
    doa: np.ndarray  # (N, 3) unit vectors from the receiver toward the apparent source
    order: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.delay)

    def _rows(self, index) -> "Taps":
        return Taps(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def _stack(*blocks: Taps) -> Taps:
    return Taps(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks])
                   for f in fields(Taps)})


@dataclass(frozen=True)
class Bursts:
    """Diffuse bursts, one row each: a noise wave (``burst_waves``) at its tap's delay and DOA."""

    tap: np.ndarray  # (M,) the row of the specular tap the burst split from
    energy: np.ndarray  # (M, n_bands)
    offset: np.ndarray  # (M, n_bands) noise-table offset of each band's slice


def _no_bursts() -> Bursts:
    return Bursts(tap=np.zeros(0, dtype=np.int64), energy=np.zeros((0, N_BANDS)),
                  offset=np.zeros((0, N_BANDS), dtype=np.int64))


def burst_duration(order) -> np.ndarray:
    """Burst wave length in seconds of a reflection of each order."""
    return BURST_SECONDS_PER_ORDER * np.asarray(order) + BURST_EXTENSION_S.max()


@dataclass(frozen=True)
class Tail:
    """The diffuse tail as a recipe: each FDN in ``configs`` runs ``length`` samples on
    ``drive`` (a unit impulse when None) from IR sample ``start``; all lines together
    carry ``energy``."""

    configs: tuple  # fdn.FdnConfig each; its lines arrive from its directions
    length: int  # samples
    energy: float  # the junction's target for the lines' summed energy
    start: int  # the IR sample at which every line starts
    drive: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SpatialIR:
    """Directional impulse response before spatialization."""

    taps: Taps
    sample_rate: float
    tail: Optional[Tail] = None
    # Optional door signature that ``coupled_parts`` sets on a part through a
    # door; ``pipeline.render_output`` convolves it into each rendered channel.
    signature: Optional[np.ndarray] = None
    bursts: Bursts = field(default_factory=_no_bursts)


def enumerate_images(room: RoomSpec, source_pos: np.ndarray, max_order: int) -> Images:
    """All mirror images with total reflection order <= max_order.

    Builds only the rows that fit: of the per-axis entries (q, m), q outer and
    m ascending, the combinations whose orders sum to at most max_order. Rows
    run by order, then lexicographic wall_hits; rows of equal wall_hits (q = 0,
    m = +-k) keep lattice order, which the jitter draws follow. Per-band gain
    is the product of sqrt(1 - alpha) over all wall hits.
    """
    source_pos = np.asarray(source_pos, dtype=float)
    if not room.contains(source_pos):
        raise SceneValidationError(f"source {source_pos} outside room {room.id}")
    n = check_order(max_order, "max_order")
    q, m = np.array([(q, m) for q in (0, 1) for m in range(-n, n + 2)
                     if abs(m - q) + abs(m) <= n], dtype=np.int64).T
    hits = np.stack([np.abs(m - q), np.abs(m)], axis=1)  # (lower, upper) wall hits
    own = hits.sum(axis=1)  # the order of each entry on its own
    rows = np.nonzero(own[:, None, None] + own[:, None] + own <= n)  # in lattice order
    order = sum(own[axis] for axis in rows)
    rank = 2 * hits[:, 0] + hits[:, 1]  # sorts as (lower, upper) does: they differ by <= 1
    keep = np.argsort(np.ravel_multi_index(  # an int64 key per row: raises past int64, never wraps
        (order, *(rank[axis] for axis in rows)), (n + 1,) + (2 * n + 1,) * 3), kind="stable")
    rows = [axis[keep] for axis in rows]
    # sqrt(1 - alpha) per wall: energy-consistent amplitude per bounce
    log_wall_amp = np.log(np.sqrt(1.0 - room.absorption))  # (6, n_bands)
    log_gain = sum(np.take(hits[:, wall % 2, None] * log_wall_amp[wall], rows[wall // 2], axis=0)
                   for wall in range(6))  # walls in turn: the sum's bits depend on its order
    coord = (1 - 2 * q)[:, None] * (source_pos - room.origin) + 2 * m[:, None] * room.dims
    position = np.stack([np.take(coord[:, axis], rows[axis]) for axis in range(3)], axis=1)
    return Images(position=position + room.origin, order=order[keep], band_gain=np.exp(log_gain),
                  wall_hits=np.concatenate([np.take(hits, axis, axis=0) for axis in rows], axis=1))


def apply_jitter(images: Images, profile: RenderingProfile,
                 rng: np.random.Generator) -> Images:
    """Displace images of order >= 2 by Gaussian jitter.

    Standard deviation is JITTER_SIGMA_PER_ORDER * order per axis; direct
    sound and first-order images keep their exact positions to preserve
    localization. Part of RAZR's diffuse model, so it follows the FDN switch.
    """
    if not profile.fdn_enabled:
        return images
    moved = np.flatnonzero(images.order >= 2)
    sigma = JITTER_SIGMA_PER_ORDER * images.order[moved]
    position = images.position.copy()
    position[moved] += rng.normal(0.0, sigma[:, None], size=(len(moved), 3))
    return replace(images, position=position)


def _emission_direction(images: Images, receiver_pos: np.ndarray) -> np.ndarray:
    """(N, 3) directions the rays leave the real source, found by unfolding mirrors."""
    d = np.asarray(receiver_pos, dtype=float) - images.position
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    odd = (images.wall_hits[:, 0::2] + images.wall_hits[:, 1::2]) % 2 == 1
    return np.where(odd, -d, d)


def taps_from_images(images: Images, receiver_pos: np.ndarray, c: float,
                     directivity=None, source_orientation=None) -> Taps:
    """One tap per image: delay r/c, amplitude band_gain / r, DOA toward image."""
    receiver_pos = np.asarray(receiver_pos, dtype=float)
    diff = images.position - receiver_pos
    r = np.linalg.norm(diff, axis=1)
    if np.any(r < 1e-12):
        raise DegenerateGeometryError("image source coincides with receiver")
    amplitude = images.band_gain / r[:, None]
    if directivity is not None and source_orientation is not None:
        emit = _emission_direction(images, receiver_pos)
        amplitude = amplitude * directivity.gain(emit, source_orientation)
    return Taps(delay=r / c, amplitude=amplitude, doa=diff / r[:, None], order=images.order)


def smear_taps(taps: Taps, profile: RenderingProfile, scattering: np.ndarray,
               seed_seq: np.random.SeedSequence) -> tuple:
    """Split reflections of order >= 1 into specular + diffuse-burst parts: (taps, bursts).

    With s the room's scattering, the specular part keeps sqrt(1 - s) of the
    amplitude; the diffuse burst carries the remaining energy s * a^2 per band,
    if some band of it is > 0, as one broadband wave of BURST_SECONDS_PER_ORDER
    * order seconds (``burst_waves``), at noise offsets one generator draws here.
    The split conserves per-band energy exactly. Part of RAZR's diffuse model,
    so it follows the FDN switch.
    """
    if not profile.fdn_enabled:
        return taps, _no_bursts()
    s = np.clip(np.asarray(scattering, dtype=float), 0.0, 1.0)
    split = (taps.order >= 1)[:, None]
    energy = np.where(split, s * taps.amplitude**2, 0.0)
    tap = np.flatnonzero(np.any(energy > 0.0, axis=1))
    offset = np.random.default_rng(seed_seq).integers(NOISE_TABLE_LEN, size=(len(tap), N_BANDS))
    amplitude = np.where(split, np.sqrt(1.0 - s) * taps.amplitude, taps.amplitude)
    return replace(taps, amplitude=amplitude), Bursts(tap=tap, energy=energy[tap], offset=offset)


@cache
def _noise_table(fs: float) -> tuple:
    """Read-only (n_bands, NOISE_TABLE_LEN) noise, row b one fixed white noise under band
    b's mask (stationary, periodic), and the share of white noise each mask passes."""
    white = np.random.default_rng(0).standard_normal(NOISE_TABLE_LEN)
    table = band_split(white, fs, NOISE_TABLE_LEN)  # circular: the table wraps
    table.flags.writeable = False
    return table, band_energies(np.eye(1, NOISE_TABLE_LEN)[0], fs)  # a unit impulse's


def burst_waves(taps: Taps, bursts: Bursts, rows: np.ndarray, fs: float):
    """Yield ``(tap, wave)`` per burst of ``rows`` in turn: the row of its tap, and
    its diffuse burst as one wave, with no FFT.

    Band b adds a slice of noise-table row b, at the burst's band-b offset,
    decaying by BURST_DECAY_DB over the burst plus BURST_EXTENSION_S[b]:
    the energy band b's mask passes of white noise with the burst's band-b energy.
    Per chunk of rows (_BURST_CHUNK samples), each band is one gather per order."""
    table, share = _noise_table(float(fs))
    orders = taps.order[bursts.tap[rows]]
    size = np.maximum(np.rint(burst_duration(orders) * fs).astype(np.int64), 1)
    step = max(1, _BURST_CHUNK // int(size.max(initial=1)))
    for first in range(0, len(rows), step):
        chunk, sizes, chunk_orders = (a[first:first + step] for a in (rows, size, orders))
        offset = bursts.offset[chunk]
        waves = np.zeros((len(chunk), sizes.max()))
        for order in np.unique(chunk_orders):
            at = np.flatnonzero(chunk_orders == order)
            span = (BURST_SECONDS_PER_ORDER * order + BURST_EXTENSION_S) * fs  # samples
            n, rate = np.rint(span).astype(np.int64), -BURST_DECAY_DB / 20.0 * math.log(10.0) / span
            for b, t in enumerate(map(np.arange, n)):
                part = np.take(table[b], t + offset[at, b, None], mode="wrap") * np.exp(rate[b] * t)
                energy = np.matmul(part[:, None], part[..., None])[:, 0, 0]  # part @ part per row
                scale = np.divide(bursts.energy[chunk[at], b] * share[b], energy,
                                  out=np.zeros_like(energy), where=energy > 0.0)
                waves[at, :t.size] += np.sqrt(scale)[:, None] * part
        yield from zip(bursts.tap[chunk].tolist(), map(lambda wave, m: wave[:m], waves, sizes))


def reflect_finite_panels(panels, source_pos: np.ndarray, receiver_pos: np.ndarray,
                          c: float = 343.0) -> Taps:
    """First-order specular reflections off finite rectangles, where visible.

    The source is mirrored across each panel plane; a panel gives a tap iff
    the segment mirror -> receiver crosses the rectangle interior.
    """
    source_pos = np.asarray(source_pos, dtype=float)
    receiver_pos = np.asarray(receiver_pos, dtype=float)
    delay, amplitude, doa = [], [], []
    for panel in panels:
        origin = panel.corners[0]
        n = panel.normal
        d_src = float(np.dot(source_pos - origin, n))
        d_rec = float(np.dot(receiver_pos - origin, n))
        if d_src * d_rec <= 0:
            continue  # opposite sides (or on the plane): no specular path
        mirror = source_pos - 2.0 * d_src * n
        seg = receiver_pos - mirror
        denom = float(np.dot(seg, n))
        if abs(denom) < 1e-12:
            continue
        t = -float(np.dot(mirror - origin, n)) / denom
        if not (0.0 < t < 1.0):
            continue
        hit = mirror + t * seg
        e1 = panel.corners[1] - origin
        e2 = panel.corners[3] - origin
        u = float(np.dot(hit - origin, e1)) / float(np.dot(e1, e1))
        v = float(np.dot(hit - origin, e2)) / float(np.dot(e2, e2))
        if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
            continue
        r = float(np.linalg.norm(seg))
        if r < 1e-12:
            raise DegenerateGeometryError("panel mirror coincides with receiver")
        delay.append(r / c)
        amplitude.append(np.sqrt(1.0 - panel.absorption) / r)
        doa.append(-seg / r)
    return Taps(delay=np.array(delay), amplitude=np.reshape(amplitude, (-1, N_BANDS)),
                doa=np.reshape(doa, (-1, 3)), order=np.ones(len(delay), dtype=np.int64))


def early_spatial_ir(scene: SceneSpec, profile: RenderingProfile,
                     source: SourceSpec, receiver_pos: np.ndarray,
                     room: RoomSpec, seed_seq: np.random.SeedSequence,
                     include_panels: bool = True) -> SpatialIR:
    """Early reflections for one source/receiver pair inside one room.

    Composes enumerate -> jitter -> taps -> panels -> sort by delay -> smear.
    Panels are only reflected when both endpoints lie in this room.
    """
    jitter_seed, smear_seed = seed_seq.spawn(2)
    images = enumerate_images(room, source.position, profile.ism_order)
    images = apply_jitter(images, profile, np.random.default_rng(jitter_seed))
    taps = taps_from_images(images, receiver_pos, scene.speed_of_sound,
                            directivity=source.directivity,
                            source_orientation=source.orientation)
    if include_panels and profile.room_details:
        relevant = [p for p in scene.panels
                    if room.contains(p.corners.mean(axis=0))]
        taps = _stack(taps, reflect_finite_panels(relevant, source.position,
                                                  receiver_pos, scene.speed_of_sound))
    taps = taps._rows(np.argsort(taps.delay, kind="stable"))
    taps, bursts = smear_taps(taps, profile, room.scattering, smear_seed)
    level = 10.0 ** (source.level_db / 20.0)
    if level != 1.0:
        taps = replace(taps, amplitude=taps.amplitude * level)
        bursts = replace(bursts, energy=bursts.energy * level**2)
    return SpatialIR(taps=taps, sample_rate=scene.sample_rate, bursts=bursts)
