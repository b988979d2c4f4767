"""Spatialization: binaural (HRTF), loudspeaker array (VBAP) and diotic.

Directions are expressed in the listener's head frame: x front, y left,
z up. Azimuth is counterclockwise from front (positive = left), elevation
positive upward.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import RateMismatchError, SceneParseError, SceneValidationError
from .filterbank import partitioned_convolve
from .ism import SpatialIR
from .scene import head_frame, read_text
from .synth import render_units, spatial_ir_length


@dataclass(frozen=True)
class ImpulseResponse:
    channels: np.ndarray  # (n_channels, n_samples)
    sample_rate: float

    def __post_init__(self):
        ch = np.atleast_2d(np.asarray(self.channels, dtype=float))
        if not np.all(np.isfinite(ch)):
            raise SceneValidationError("impulse response contains non-finite samples")
        object.__setattr__(self, "channels", ch)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


# ---------------------------------------------------------------------------
# HRTF sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HrtfSet:
    directions: np.ndarray  # (m, 3) unit vectors, head frame
    filters: np.ndarray  # (m, 2, taps) FIR pairs (left, right)
    sample_rate: float

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        f = np.asarray(self.filters, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3 or d.shape[0] < 4:
            raise SceneValidationError("HRTF set needs >= 4 directions")
        if not (np.isfinite(d).all() and np.isfinite(f).all()):
            raise SceneValidationError("HRTF directions and filters must be finite")
        if np.linalg.matrix_rank(d) < 3:
            raise SceneValidationError("HRTF directions must be non-coplanar")
        if f.ndim != 3 or f.shape[:2] != (d.shape[0], 2) or f.shape[2] < 1:
            raise SceneValidationError("HRTF filters must be (n_dirs, 2, taps), at least 1 tap")
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        object.__setattr__(self, "directions", d / norms)
        object.__setattr__(self, "filters", f)

    def nearest(self, direction: np.ndarray) -> np.ndarray:
        """Index of the angular nearest neighbor of each (..., 3) direction.

        Ties break to the lowest index.
        """
        dots = np.asarray(direction, dtype=float) @ self.directions.T
        return np.argmax(dots, axis=-1)


def az_el_to_vec(az_deg: float, el_deg: float) -> np.ndarray:
    az = math.radians(az_deg)
    el = math.radians(el_deg)
    return np.array([
        math.cos(el) * math.cos(az),
        math.cos(el) * math.sin(az),
        math.sin(el),
    ])


_HEAD_RADIUS_M = 0.0875


_HRTF_AZIMUTHS = 24  # per elevation ring, from 0 deg
_HRTF_ELEVATIONS = 7  # rings from -90 to +90 deg; each pole holds one direction
_HRTF_TAPS = 64


def synthetic_hrtf(fs: float = 44100.0) -> HrtfSet:
    """Crude spherical-head HRTF stand-in (ITD + first-order shadowing).

    Not a measured set; used as the default when no HRTF directory is given
    and by the tests.
    """
    c = 343.0
    azimuths = np.arange(_HRTF_AZIMUTHS) * 360.0 / _HRTF_AZIMUTHS
    elevations = np.linspace(-90.0, 90.0, _HRTF_ELEVATIONS)
    dirs = []
    filters = []
    t = np.arange(_HRTF_TAPS)
    half = _HRTF_TAPS // 4  # fractional-delay kernel half width

    def frac_delay(d: float) -> np.ndarray:
        # windowed sinc centered on the delay (a raised cosine centered at
        # t = 0 would crush near-ear kernels pushed toward the buffer start)
        x = t - d
        w = np.where(np.abs(x) < half, 0.5 + 0.5 * np.cos(np.pi * x / half), 0.0)
        return np.sinc(x) * w

    for el in elevations:
        for az in azimuths:
            v = az_el_to_vec(az, el)
            # Woodworth-style ITD from the lateral angle
            sin_lat = float(v[1])  # +1 = fully left
            itd = _HEAD_RADIUS_M / c * (math.asin(np.clip(sin_lat, -1, 1))
                                        + sin_lat)
            base_delay = _HRTF_TAPS // 2
            dl = base_delay - itd * fs / 2.0
            dr = base_delay + itd * fs / 2.0
            gl = math.sqrt(1.0 + 0.6 * sin_lat)
            gr = math.sqrt(1.0 - 0.6 * sin_lat)
            hl = gl * frac_delay(dl)
            hr = gr * frac_delay(dr)
            dirs.append(v)
            filters.append([hl, hr])
            if abs(el) == 90.0:
                break  # poles once
    return HrtfSet(directions=np.array(dirs), filters=np.array(filters),
                   sample_rate=fs)


def hrtf_index(path: str) -> tuple:
    """The path of the ``index.txt`` in the HRTF directory ``path`` and its
    rows, each (azimuth_deg, elevation_deg, the row's file joined to ``path``)."""
    index_path = os.path.join(path, "index.txt")
    rows = []
    for number, line in enumerate(read_text(index_path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            az_s, el_s, name = line.split()
            az, el = float(az_s), float(el_s)
            if not math.isfinite(az + el):
                raise ValueError
        except ValueError:  # too few or many fields, or not finite numbers
            raise SceneParseError(f"{index_path}, line {number}: expected "
                                  "'azimuth_deg elevation_deg filename' with "
                                  f"finite angles, got {line!r:.60}") from None
        rows.append((az, el, os.path.join(path, name)))
    if not rows:
        raise SceneParseError(f"{index_path} lists no HRTF files")
    return index_path, rows


def load_hrtf_dir(path: str) -> HrtfSet:
    """Load an HRTF set from a directory with an ``index.txt``.

    Each index row: ``azimuth_deg elevation_deg filename``; each file is a
    stereo WAV (left, right) at the set's common sample rate.
    """
    from .wavio import read_wav

    dirs, filters, fs = [], [], None
    for az, el, name in hrtf_index(path)[1]:
        data, rate = read_wav(name)
        if data.ndim != 2 or data.shape[1] != 2:
            raise SceneValidationError(f"HRTF file {name!r} is not stereo")
        if fs is None:
            fs = rate
        elif rate != fs:
            raise RateMismatchError("HRTF files disagree on sample rate")
        dirs.append(az_el_to_vec(az, el))
        filters.append(data.T)
    lengths = {f.shape[1] for f in filters}
    if len(lengths) != 1:
        raise SceneValidationError("HRTF filter lengths differ")
    return HrtfSet(directions=np.array(dirs), filters=np.array(filters),
                   sample_rate=fs)


# ---------------------------------------------------------------------------
# Loudspeaker layouts and VBAP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoudspeakerLayout:
    """Speaker positions around a listener, triangulated when built: the
    directions must span a 3-D hull (at least 4, not all in one plane), and
    no two speakers may lie in one direction."""
    positions: np.ndarray  # (n, 3) meters
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))  # listener
    calibration_gains: Optional[np.ndarray] = None  # (n,) linear
    calibration_delays: Optional[np.ndarray] = None  # (n,) seconds

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        center = np.asarray(self.center, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3 or center.shape != (3,):
            raise SceneValidationError("loudspeaker positions must be [x, y, z] "
                                       "rows and the center one [x, y, z]")
        for name in ("calibration_gains", "calibration_delays"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                if value.shape != (len(p),):
                    raise SceneValidationError(f"{name} must hold one number per "
                                               f"loudspeaker ({len(p)})")
                object.__setattr__(self, name, value)
        calibration = (self.calibration_gains, self.calibration_delays)
        if not all(np.isfinite(a).all() for a in (p, center, *calibration) if a is not None):
            raise SceneValidationError("loudspeaker positions, center and "
                                       "calibration values must be finite")
        if np.any(np.all(np.abs(p - center) < 1e-9, axis=1)):
            raise SceneValidationError("loudspeaker at the listener position")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "center", center)
        if len(np.unique(np.round(self.directions, 9), axis=0)) != p.shape[0]:
            raise SceneValidationError("two loudspeakers in one direction from "
                                       "the listener")
        # kept on the layout itself, so it is freed with it and can never be
        # handed to another layout
        object.__setattr__(self, "_triangulation", _Triangulation(self))

    @property
    def directions(self) -> np.ndarray:
        d = self.positions - self.center
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    @property
    def n_speakers(self) -> int:
        return self.positions.shape[0]


_RING_LAYOUT = (
    # (elevation degrees, count)
    (0.0, 48), (30.0, 12), (-30.0, 12), (60.0, 6), (-60.0, 6),
    (90.0, 1), (-90.0, 1),
)


_RING_RADIUS_M = 2.4
_LISTENER_HEIGHT_M = 1.8


def array_preset_86() -> LoudspeakerLayout:
    """The 86-speaker array: a 48-speaker main ring plus elevated rings.

    Rings of 12 at +/-30 deg and 6 at +/-60 deg elevation, single speakers
    at the poles, all 2.4 m from a listener 1.8 m above the floor; azimuths
    uniformly spaced starting at 0 deg (front).
    """
    center = np.array([0.0, 0.0, _LISTENER_HEIGHT_M])
    positions = []
    for el, count in _RING_LAYOUT:
        for i in range(count):
            az = 360.0 * i / count
            positions.append(center + _RING_RADIUS_M * az_el_to_vec(az, el))
    return LoudspeakerLayout(positions=np.array(positions), center=center)


_NO_HULL = ("loudspeaker directions do not span a 3-D hull: at least 4 are "
            "needed, not all in one plane")


def _hull_triangles(dirs: np.ndarray) -> np.ndarray:
    """Outward-facing (T, 3) triangles of the convex hull of distinct unit
    vectors.

    Gift wrapping of whole faces. Points in one plane lie on one circle of
    the sphere, so each of them is a vertex of its face's polygon: no point
    is inside a face and no three are collinear. The first edge joins point
    0 to its nearest neighbour. A plane is pivoted about each open edge
    until it meets a point; every point within 1e-9 of that plane is the
    face, which is sorted by angle and fanned from its lowest index. A face
    that brings no new directed edge was found before, across another edge
    (rounding can do that near points almost in one plane), and is dropped.
    """
    def unit(v):
        return v / np.linalg.norm(v)

    def face(a, b, normal):
        # pivot the plane through edge a -> b with outward normal ``normal``
        # away from the face it bounds: the first point met has the smallest
        # pivot angle, so the largest cotangent x / -y
        e = unit(dirs[b] - dirs[a])
        normal = unit(normal - (normal @ e) * e)
        # e x normal, written out: np.cross costs ~20 us on two 3-vectors
        away = e[[1, 2, 0]] * normal[[2, 0, 1]] - e[[2, 0, 1]] * normal[[1, 2, 0]]
        w = dirs - dirs[a]
        x, y = w @ away, w @ normal
        below = y < -1e-9
        if not below.any():  # this plane holds every point
            raise SceneValidationError(_NO_HULL)
        q = np.argmax(np.where(below, x / np.where(below, -y, 1.0), -np.inf))
        h = math.hypot(x[q], y[q])
        inward = (x[q] * away + y[q] * normal) / h  # from the edge toward q
        normal = (x[q] * normal - y[q] * away) / h
        on = np.flatnonzero(np.abs(w @ normal) <= 1e-9)
        # angles about the circle's centre, counterclockwise seen from
        # outside: (inward, e, normal) is right-handed
        loop = on[np.argsort(np.arctan2(dirs[on] @ e, dirs[on] @ inward))].tolist()
        first = loop.index(min(loop))
        return loop[first:] + loop[:first], normal

    if len(dirs) < 4:
        raise SceneValidationError(_NO_HULL)
    # the plane through 0 and its nearest neighbour b, normal to their sum,
    # touches no other point
    b = 1 + int(np.argmax(dirs[1:] @ dirs[0]))
    faces, done, todo = [], set(), [(0, b, dirs[0] + dirs[b])]
    while todo:
        a, b, normal = todo.pop()
        if (b, a) in done:
            continue
        loop, normal = face(a, b, normal)
        edges = [edge for edge in zip(loop, loop[1:] + loop[:1]) if edge not in done]
        if not edges:
            continue
        done.update(edges)
        faces.append(loop)
        todo += [(a, b, normal) for a, b in edges]
    return np.array([(f[0], f[i], f[i + 1]) for f in faces for i in range(1, len(f) - 1)])


class _Triangulation:
    """Convex-hull triangulation of the layout directions, with cached inverses."""

    def __init__(self, layout: LoudspeakerLayout):
        dirs = layout.directions
        triangles = _hull_triangles(dirs)
        mats = dirs[triangles]  # (T, 3, 3): rows are speaker directions
        # a face through the listener (the open side of a hemispherical
        # layout) has no inverse; directions there fall back in vbap_gains
        keep = np.abs(np.linalg.det(mats)) > 1e-9
        self.triangles = triangles[keep]
        self.inverses = np.linalg.inv(mats[keep])

    def gains(self, directions: np.ndarray):
        """(speakers, gains, worst gain) of the best triangle per (k, 3) direction."""
        # barycentric-style gains for every direction and triangle at once
        g = directions @ self.inverses  # (T, k, 3)
        # elementwise minima over the three columns: min(axis=2) over a
        # length-3 axis is ~6x slower; out= keeps it to one (T, k) temporary
        worst = np.minimum(g[..., 0], g[..., 1])
        np.minimum(worst, g[..., 2], out=worst)
        best = np.argmax(worst, axis=0)
        rows = np.arange(len(directions))
        return self.triangles[best], g[best, rows], worst[best, rows]


def vbap_gains(direction: np.ndarray, layout: LoudspeakerLayout) -> np.ndarray:
    """Power-normalized VBAP gains of (..., 3) directions, as (..., n_speakers).

    At most 3 gains per direction are nonzero and their squares sum to 1.
    A direction outside the triangulated coverage (below the open side of a
    hemispherical layout) goes to its nearest loudspeaker alone; one
    RuntimeWarning per call counts them.
    """
    d = np.asarray(direction, dtype=float)
    flat = d.reshape(-1, 3)
    flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    # 256 directions at a time, each tested against every triangle at once
    idx, g, worst = map(np.concatenate, zip(*(layout._triangulation.gains(flat[i:i + 256])
                                              for i in range(0, max(len(flat), 1), 256))))
    g = np.clip(g, 0.0, None)
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    outside = worst < -1e-9
    if np.any(outside):
        warnings.warn(f"{np.count_nonzero(outside)} of {len(flat)} directions "
                      "outside triangulated coverage; using the nearest "
                      "loudspeaker", RuntimeWarning)
        idx[outside] = np.argmax(flat[outside] @ layout.directions.T, axis=1)[:, None]
        g[outside] = norm[outside] = 1.0
    gains = np.zeros((len(flat), layout.n_speakers))
    np.put_along_axis(gains, idx, g / norm, axis=1)
    return gains.reshape(d.shape[:-1] + (layout.n_speakers,))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def binaural_channels(spatial_ir: SpatialIR, hrtf: HrtfSet,
                      orientation: np.ndarray) -> np.ndarray:
    """Two ears, unchecked: nearest-direction HRTF pair per tap/tail stream,
    for a listener facing ``orientation``. An impulse tap adds its amplitude
    times its HRTF pair into the ears; the waves of the other units are
    convolved with their pairs block by block."""
    if hrtf.sample_rate != spatial_ir.sample_rate:
        raise RateMismatchError("HRTF and scene sample rates differ")
    frame = head_frame(orientation)
    one_hot = np.eye(hrtf.directions.shape[0])
    n = spatial_ir_length(spatial_ir)
    # HRTF units are not output channels: their waves fill one block of rows
    units, (unit, start, value) = render_units(
        spatial_ir, lambda d: one_hot[hrtf.nearest(d @ frame.T)],
        lambda waved: dict(zip(waved, np.zeros((len(waved), n)))))
    n_taps = hrtf.filters.shape[2]
    out = (partitioned_convolve(list(units.values()), hrtf.filters[list(units)]) if units
           else np.zeros((2, n + n_taps - 1)))
    at = (start[:, None] + np.arange(n_taps)).ravel()
    for ear in (0, 1):
        weights = (value[:, None] * hrtf.filters[unit, ear]).ravel()
        out[ear] += np.bincount(at, weights, minlength=out.shape[1])
    return out


def array_channels(spatial_ir: SpatialIR, layout: LoudspeakerLayout,
                   orientation: np.ndarray) -> np.ndarray:
    """Loudspeaker feeds, unchecked: VBAP of each tap/tail stream onto the
    layout, for a listener facing ``orientation``. Unit waves go straight
    into their channels, impulse taps add their gains times their amplitudes,
    then each channel is scaled and shifted by its calibration."""
    frame = head_frame(orientation)
    n = spatial_ir_length(spatial_ir)
    # every wave goes straight into these rows; made first, so the VBAP and
    # band scratch after them leaves one free region behind when freed
    out = np.zeros((layout.n_speakers, n))
    _, (unit, start, value) = render_units(
        spatial_ir, lambda d: vbap_gains(d @ frame.T, layout), lambda waved: out)
    np.add.at(out, (unit, start), value)
    if layout.calibration_gains is not None:
        out *= layout.calibration_gains[:, None]
    if layout.calibration_delays is not None:
        for row, d in zip(out, layout.calibration_delays):
            # clamped to +/- n: a channel shifted past the whole IR is silent
            k = min(max(int(round(d * spatial_ir.sample_rate)), -n), n)
            lo, hi = max(k, 0), n + min(k, 0)  # where the kept samples land
            row[lo:hi] = row[lo - k:hi - k]  # in place: numpy copies an overlapping source
            row[:lo] = row[hi:] = 0.0
    return out


def frontal_speaker_index(layout: LoudspeakerLayout) -> int:
    """Main-ring speaker at azimuth 0 (maximal dot product with front)."""
    front = np.array([1.0, 0.0, 0.0])
    return int(np.argmax(layout.directions @ front))


def diotic_array(ir: ImpulseResponse, layout: LoudspeakerLayout) -> ImpulseResponse:
    """Loudspeaker diotic: a mono IR routed to the frontal speaker alone."""
    if ir.n_channels != 1:
        raise SceneValidationError(
            f"a loudspeaker diotic IR is made from a mono IR, got {ir.n_channels} channels")
    out = np.zeros((layout.n_speakers, ir.n_samples))
    out[frontal_speaker_index(layout)] = ir.channels[0]
    return ImpulseResponse(channels=out, sample_rate=ir.sample_rate)
