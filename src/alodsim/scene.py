"""Scene description: rooms, apertures, panels, sources, receivers, profiles.

All types are immutable after construction and operations are pure, so scenes
can be shared freely across threads. Scene documents are UTF-8 JSON; the
schema mirrors the dataclass fields below (see README for an annotated
example).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import InfeasibleTargetError, SceneParseError, SceneValidationError
from .filterbank import OCTAVE_CENTERS_8

BAND_CENTERS = np.asarray(OCTAVE_CENTERS_8)
N_BANDS = len(OCTAVE_CENTERS_8)

DEFAULT_SAMPLE_RATE = 44100.0
DEFAULT_SPEED_OF_SOUND = 343.0
DEFAULT_SCATTERING = 0.3  # broadband scattering used by all presets
CONTAINS_TOL_M = 1e-9  # a point this far outside a room's walls is still in it
MAX_LEVEL_DB = 1000.0  # far beyond any sound; the squared linear gain stays finite
MAX_SAMPLES = 1 << 25  # samples per channel of any signal: 12.7 min at 44.1 kHz
OUTPUT_MODES = ("binaural", "array", "diotic", "mono")


def _set(spec, **values) -> None:
    """Store normalized field values on a frozen dataclass."""
    for name, value in values.items():
        object.__setattr__(spec, name, value)


def _finite(value, what: str, positive: bool = False) -> None:
    """Raise unless ``value`` is a finite real number (and > 0 if ``positive``)."""
    try:
        ok = math.isfinite(value) and (value > 0 or not positive)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        ok = False
    if not ok:
        raise SceneValidationError(
            f"{what} must be a finite{' positive' if positive else ''} number, got {value!r}")


def check_order(value, what: str) -> int:
    """``value`` as an int if it is a Python or numpy int >= 0 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise SceneValidationError(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


def sample_count(seconds: float, fs: float, what: str) -> int:
    """round(``seconds`` x ``fs``) for both finite and > 0, checked to lie in
    [1, MAX_SAMPLES] before anything that long exists."""
    _finite(fs, "sample rate", positive=True)
    _finite(seconds, what, positive=True)
    n = round(min(seconds * fs, MAX_SAMPLES + 1.0))
    if not 1 <= n <= MAX_SAMPLES:
        raise SceneValidationError(
            f"{what} of {seconds} s at {fs} Hz must come to 1 .. {MAX_SAMPLES} samples")
    return n


def _vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise SceneValidationError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SceneValidationError("vector components must be finite")
    return a


def _unit(v) -> np.ndarray:
    a = _vec(v)
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > 1e-9:
        raise SceneValidationError(f"expected a unit vector, norm was {n!r}")
    return a


def _bands(value, name: str) -> np.ndarray:
    """Broadcast a scalar or per-band list onto the octave-band grid."""
    a = np.atleast_1d(np.asarray(value, dtype=float))
    if a.size == 1:
        a = np.full(N_BANDS, float(a[0]))
    if a.shape != (N_BANDS,):
        raise SceneValidationError(
            f"{name}: expected scalar or {N_BANDS} band values, got shape {a.shape}"
        )
    return a


@dataclass(frozen=True)
class SecondSlope:
    """Secondary decay for coupled-volume (dual-slope) reverberation."""

    t30_2: float
    onset_level_db: float = -40.0

    def __post_init__(self):
        _finite(self.t30_2, "second-slope T30", positive=True)
        _finite(self.onset_level_db, "second-slope onset level")
        # the knee lies below the first 20 dB of the decay, set by the primary
        if self.onset_level_db >= -20.0:
            raise SceneValidationError("second-slope onset level must be below -20 dB")


@dataclass(frozen=True)
class DecayTarget:
    """Per-band reverberation-time target, optionally with a second slope."""

    t30_bands: np.ndarray
    second_slope: Optional[SecondSlope] = None

    def __post_init__(self):
        _set(self, t30_bands=_bands(self.t30_bands, "t30"))
        if not np.all((self.t30_bands > 0) & np.isfinite(self.t30_bands)):
            raise SceneValidationError("T30 targets must be finite and positive")
        second = self.second_slope
        # the second slope is the slower one; T30s within 1e-9 s count as equal
        if second is not None and not second.t30_2 > self.broadband_t30 + 1e-9:
            raise SceneValidationError(
                f"second-slope T30 {second.t30_2!r} s must exceed the primary "
                f"broadband T30 {self.broadband_t30:.6g} s")

    @property
    def broadband_t30(self) -> float:
        return float(np.exp(np.mean(np.log(self.t30_bands))))


@dataclass(frozen=True, kw_only=True)
class RoomSpec:
    """Shoebox room spanning ``origin`` .. ``origin + dims`` in world space."""

    id: str
    dims: np.ndarray
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    absorption: np.ndarray  # (6 walls: x=0, x=Lx, y=0, y=Ly, z=0, z=Lz; n_bands)
    scattering: np.ndarray = DEFAULT_SCATTERING  # (n_bands,)
    decay: Optional[DecayTarget] = None
    volume_override: Optional[float] = None

    def __post_init__(self):
        _set(self, dims=_vec(self.dims), origin=_vec(self.origin))
        if np.any(self.dims <= 0):
            raise SceneValidationError(f"room {self.id}: dims must be positive")
        absorption = np.asarray(self.absorption, dtype=float)
        if absorption.ndim == 0 or absorption.ndim == 1:
            absorption = np.tile(_bands(absorption, "absorption"), (6, 1))
        if absorption.shape != (6, N_BANDS):
            raise SceneValidationError(
                f"room {self.id}: absorption must be (6, {N_BANDS}), got {absorption.shape}"
            )
        if not np.all((absorption >= 0) & (absorption < 1)):
            raise SceneValidationError(f"room {self.id}: absorption must be in [0, 1)")
        scattering = _bands(self.scattering, "scattering")
        if not np.all((scattering >= 0) & (scattering <= 1)):
            raise SceneValidationError(f"room {self.id}: scattering must be in [0, 1]")
        _set(self, absorption=absorption, scattering=scattering)
        if self.volume_override is not None:
            _finite(self.volume_override, f"room {self.id}: volume_override", positive=True)

    def contains(self, point: np.ndarray) -> bool:
        local = np.asarray(point) - self.origin
        return bool(np.all(local >= -CONTAINS_TOL_M)
                    and np.all(local <= self.dims + CONTAINS_TOL_M))


@dataclass(frozen=True)
class ApertureSpec:
    """Rectangular opening in the shared wall of two rooms."""

    connects: tuple[str, ...]  # (room_id, room_id)
    center: np.ndarray
    width: float
    height: float

    def __post_init__(self):
        _set(self, center=_vec(self.center), connects=tuple(self.connects))
        if len(self.connects) != 2:
            raise SceneValidationError("aperture must connect exactly two rooms")
        _finite(self.width, "aperture width", positive=True)
        _finite(self.height, "aperture height", positive=True)

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class PanelSpec:
    """Finite rectangular reflector (table, chalkboard, ...)."""

    id: str
    corners: np.ndarray  # (4, 3), coplanar rectangle
    absorption: np.ndarray  # (n_bands,)

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=float)
        if corners.shape != (4, 3) or not np.all(np.isfinite(corners)):
            raise SceneValidationError(f"panel {self.id}: corners must be (4, 3) and finite")
        absorption = _bands(self.absorption, "panel absorption")
        if not np.all((absorption >= 0) & (absorption <= 1)):
            raise SceneValidationError(f"panel {self.id}: absorption must be in [0, 1]")
        _set(self, corners=corners, absorption=absorption)
        e1 = corners[1] - corners[0]
        e2 = corners[3] - corners[0]
        normal = np.cross(e1, e2)
        area = np.linalg.norm(normal)
        if area < 1e-9:
            raise SceneValidationError(f"panel {self.id}: degenerate rectangle")
        n = normal / area
        if abs(float(np.dot(corners[2] - corners[0], n))) > 1e-3:
            raise SceneValidationError(f"panel {self.id}: corners not coplanar within 1 mm")
        if abs(float(np.dot(e1, e2))) > 1e-6 * np.linalg.norm(e1) * np.linalg.norm(e2):
            raise SceneValidationError(f"panel {self.id}: corners do not form a rectangle")

    @property
    def normal(self) -> np.ndarray:
        n = np.cross(self.corners[1] - self.corners[0], self.corners[3] - self.corners[0])
        return n / np.linalg.norm(n)


def head_frame(orientation: np.ndarray) -> np.ndarray:
    """Rotation matrix whose rows map world vectors to (front, left, up)."""
    f = np.asarray(orientation, dtype=float)
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(f, up))) > 0.999:
        up = np.array([1.0, 0.0, 0.0])
    left = np.cross(up, f)
    left /= np.linalg.norm(left)
    return np.stack([f, left, np.cross(f, left)])


@dataclass(frozen=True)
class DirectivityGrid:
    """Sampled source directivity: gains per (azimuth, elevation) per band.

    Azimuths in degrees [0, 360), counterclockwise from the source's facing
    direction; elevations in degrees [-90, 90]. Lookup is nearest-neighbor.
    """

    azimuths_deg: np.ndarray
    elevations_deg: np.ndarray
    gains: np.ndarray  # (n_az, n_el, n_bands)

    def __post_init__(self):
        az = np.asarray(self.azimuths_deg, dtype=float)
        el = np.asarray(self.elevations_deg, dtype=float)
        g = np.asarray(self.gains, dtype=float)
        if g.shape != (az.size, el.size, N_BANDS):
            raise SceneValidationError("directivity gains must be (n_az, n_el, n_bands)")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise SceneValidationError("directivity gains must be finite and >= 0")
        if not (np.all(np.isfinite(az)) and np.all(np.abs(el) <= 90.0)):
            raise SceneValidationError(
                "directivity azimuths must be finite and elevations in [-90, 90]")
        if el.min() > -89.9 or el.max() < 89.9:
            raise SceneValidationError("directivity grid must cover the sphere in elevation")
        _set(self, azimuths_deg=az, elevations_deg=el, gains=g)

    def gain(self, direction: np.ndarray, forward: np.ndarray) -> np.ndarray:
        """Per-band gains (..., n_bands) for emission directions (..., 3)
        given the facing vector."""
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        f, left, up = head_frame(forward)
        x, y, z = d @ f, d @ left, d @ up
        az = np.degrees(np.arctan2(y, x)) % 360.0
        el = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
        da = np.abs(self.azimuths_deg - az[..., None])
        i = np.argmin(np.minimum(da, 360.0 - da), axis=-1)
        j = np.argmin(np.abs(self.elevations_deg - el[..., None]), axis=-1)
        return self.gains[i, j]


@dataclass(frozen=True)
class SourceSpec:
    id: str
    position: np.ndarray
    orientation: np.ndarray
    level_db: float = 0.0
    directivity: Optional[DirectivityGrid] = None

    def __post_init__(self):
        _set(self, position=_vec(self.position), orientation=_unit(self.orientation))
        _finite(self.level_db, f"source {self.id}: level_db")
        if abs(self.level_db) > MAX_LEVEL_DB:
            raise SceneValidationError(f"source {self.id}: level_db must lie within "
                                       f"+/-{MAX_LEVEL_DB:g} dB, got {self.level_db!r}")


@dataclass(frozen=True)
class ReceiverSpec:
    id: str
    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        _set(self, position=_vec(self.position), orientation=_unit(self.orientation))


@dataclass(frozen=True, kw_only=True)
class SceneSpec:
    name: str = "scene"
    sample_rate: float = DEFAULT_SAMPLE_RATE
    speed_of_sound: float = DEFAULT_SPEED_OF_SOUND
    rng_seed: int = 0
    # Explicit occluded direct-path length (m) for source->receiver routes
    # without line of sight (stored rather than computed via diffraction).
    occluded_path_m: Optional[float] = None
    rooms: tuple[RoomSpec, ...]
    apertures: tuple[ApertureSpec, ...] = ()
    panels: tuple[PanelSpec, ...] = ()
    sources: tuple[SourceSpec, ...]
    receivers: tuple[ReceiverSpec, ...]

    def __post_init__(self):
        _set(self, rooms=tuple(self.rooms), apertures=tuple(self.apertures),
             panels=tuple(self.panels), sources=tuple(self.sources),
             receivers=tuple(self.receivers))
        _finite(self.sample_rate, "sample_rate", positive=True)
        _finite(self.speed_of_sound, "speed_of_sound", positive=True)
        if self.rng_seed < 0:
            raise SceneValidationError(f"seed must be >= 0, got {self.rng_seed!r}")
        if self.occluded_path_m is not None:
            _finite(self.occluded_path_m, "occluded_path_m", positive=True)
        if not self.rooms or not self.sources or not self.receivers:
            raise SceneValidationError("scene needs at least one room, source and receiver")
        ids = [r.id for r in self.rooms]
        if len(set(ids)) != len(ids):
            raise SceneValidationError("duplicate room ids")
        for ap in self.apertures:
            for rid in ap.connects:
                if rid not in ids:
                    raise SceneValidationError(f"aperture references unknown room {rid!r}")
        for s in self.sources:
            if self.room_of(s.position) is None:
                raise SceneValidationError(f"source {s.id} lies outside every room")
        for r in self.receivers:
            if self.room_of(r.position) is None:
                raise SceneValidationError(f"receiver {r.id} lies outside every room")

    def room(self, room_id: str) -> RoomSpec:
        for r in self.rooms:
            if r.id == room_id:
                return r
        raise SceneValidationError(f"unknown room id {room_id!r}")

    def room_of(self, point: np.ndarray) -> Optional[RoomSpec]:
        for r in self.rooms:
            if r.contains(point):
                return r
        return None


@dataclass(frozen=True)
class RenderingProfile:
    """One acoustic level of detail (ALOD), plus the presentation.

    ``ism_order`` sets the number of image sources. ``fdn_enabled`` switches
    RAZR's diffuse model as a whole: image jitter, temporal smearing of the
    reflections and the FDN tail. ``room_details`` switches the details
    specific to each scene: finite panels, the dual-slope decay and the FDN
    cross-feed between coupled rooms.
    """

    name: str
    ism_order: int = 3
    fdn_enabled: bool = True
    room_details: bool = True
    output_mode: str = "binaural"  # one of OUTPUT_MODES

    def __post_init__(self):
        check_order(self.ism_order, "ism_order")
        if self.output_mode not in OUTPUT_MODES:
            raise SceneValidationError(f"unknown output_mode {self.output_mode!r}")

    @property
    def direct_only(self) -> bool:
        """No reflection and no tail: only the direct sound is rendered.

        A coupled scene then renders its occluded direct path alone, since
        the chain through the door would relay nothing but the direct sound.
        """
        return self.ism_order == 0 and not self.fdn_enabled

    def second_slope(self, room: RoomSpec) -> Optional[SecondSlope]:
        """The room's secondary decay if this profile renders it, else None."""
        if not self.room_details or room.decay is None:
            return None
        return room.decay.second_slope


_PROFILE_PRESETS = {
    # (1) all features: order-3 ISM, the diffuse model and the room details
    "razr-full": dict(ism_order=3),
    # (2) same feature set with first-order ISM
    "razr-1st": dict(ism_order=1),
    # (3) per-scene feature removal: two-stage coupling, no panels, no dual
    # slope -- each change only has an effect in the scene that owns the
    # feature
    "razr-simple": dict(ism_order=3, room_details=False),
    # (4) plain 15th-order ISM: no diffuse model and no room details
    "ism-15": dict(ism_order=15, fdn_enabled=False, room_details=False),
    # (5) diotic presentation of the full rendering
    "diotic": dict(ism_order=3, output_mode="diotic"),
    # (6) direct sound only (inverse-square law + occlusion stand-in)
    "anechoic": dict(ism_order=0, fdn_enabled=False, room_details=False),
}


def profile_preset(name: str) -> RenderingProfile:
    """One of the six named rendering conditions."""
    if name not in _PROFILE_PRESETS:
        raise SceneParseError(
            f"unknown profile {name!r}; known: {', '.join(sorted(_PROFILE_PRESETS))}"
        )
    return RenderingProfile(name=name, **_PROFILE_PRESETS[name])


def profile_names() -> tuple:
    return tuple(sorted(_PROFILE_PRESETS))


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def surface_area(room: RoomSpec) -> float:
    """Total inner surface area 2(LxLy + LxLz + LyLz) in m^2."""
    lx, ly, lz = room.dims
    return 2.0 * (lx * ly + lx * lz + ly * lz)


def volume(room: RoomSpec) -> float:
    """Room volume in m^3; honors ``volume_override`` when present."""
    if room.volume_override is not None:
        return float(room.volume_override)
    return float(np.prod(room.dims))


def mean_free_path(room: RoomSpec) -> float:
    """4 V / S, the average distance between reflections."""
    return 4.0 * volume(room) / surface_area(room)


def fit_absorption(room: RoomSpec, target: DecayTarget) -> np.ndarray:
    """Per-band uniform absorption that reproduces the target T60 (Eyring).

    alpha(f) = 1 - exp(-0.161 V / (S T60(f))). The closed-form inverse of
    Eyring's formula, so predicting T60 back from the result is exact.
    """
    v = volume(room)
    s = surface_area(room)
    alpha = 1.0 - np.exp(-0.161 * v / (s * target.t30_bands))
    if np.any(alpha >= 1.0 - 1e-12):
        raise InfeasibleTargetError(
            f"room {room.id}: T30 target too short for geometry (alpha -> 1)"
        )
    return alpha


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

LIVING_ROOM_DOOR = (0.8, 2.0)  # door width x height (m); not stated, documented
OCCLUDED_PATH_LIVING_ROOM = 5.7  # m, through the door


def _fitted_room(room_id, dims, t30, origin=(0, 0, 0), volume_override=None,
                 second_slope=None) -> RoomSpec:
    decay = DecayTarget(t30_bands=t30, second_slope=second_slope)
    shell = RoomSpec(id=room_id, dims=dims, absorption=0.5, origin=origin,
                     volume_override=volume_override)
    alpha = fit_absorption(shell, decay)
    return replace(shell, absorption=np.tile(alpha, (6, 1)), decay=decay)


def _listening_scene(name: str, listener, facing, target, target_facing,
                     **scene_fields) -> SceneSpec:
    """A preset's sources and listener: the target, and the masker 1 m to the
    listener's right, facing the listener."""
    listener, facing = np.asarray(listener, dtype=float), np.asarray(facing, dtype=float)
    masker = listener + np.cross(facing, np.array([0.0, 0.0, 1.0]))
    to_listener = listener - masker
    return SceneSpec(
        name=name,
        sources=(
            SourceSpec(id="target", position=target, orientation=target_facing),
            SourceSpec(id="masker", position=masker,
                       orientation=to_listener / np.linalg.norm(to_listener)),
        ),
        receivers=(ReceiverSpec(id="listener", position=listener, orientation=facing),),
        **scene_fields,
    )


def _living_room_scene() -> SceneSpec:
    # Living room spans y in [0, 3.78]; the kitchen adjoins at y = 3.78.
    living = _fitted_room("living-room", (4.97, 3.78, 2.71), 0.54)
    kitchen = _fitted_room("kitchen", (4.97, 2.00, 2.71), 0.66, origin=(0.0, 3.78, 0.0))
    door_center = np.array([4.0, 3.78, 1.0])
    door = ApertureSpec(connects=("kitchen", "living-room"), center=door_center,
                        width=LIVING_ROOM_DOOR[0], height=LIVING_ROOM_DOOR[1])
    receiver_pos = np.array([1.0, 1.0, 1.2])
    # Source placed so the path source -> door center -> receiver is exactly
    # the occluded path length of 5.7 m.
    d2 = float(np.linalg.norm(door_center - receiver_pos))
    d1 = OCCLUDED_PATH_LIVING_ROOM - d2
    source_pos = door_center + np.array([0.0, d1, 0.0])
    to_door = door_center - source_pos
    return _listening_scene(
        "living-room", receiver_pos, (0.0, 1.0, 0.0),  # facing the kitchen wall
        source_pos, to_door / np.linalg.norm(to_door),
        rooms=(living, kitchen), apertures=(door,),
        occluded_path_m=OCCLUDED_PATH_LIVING_ROOM,
    )


def _pub_scene() -> SceneSpec:
    # Stated volume (~442 m^3) is below the box product (floor plan is not
    # rectangular); kept as an override for reverb design.
    room = _fitted_room("pub", (17.76, 10.2, 2.9), 0.7, volume_override=442.0)
    table = PanelSpec(
        id="table",
        corners=np.array([
            [7.4, 5.085, 0.75], [8.6, 5.085, 0.75],
            [8.6, 5.885, 0.75], [7.4, 5.885, 0.75],
        ]),
        absorption=0.1,
    )
    chalkboard = PanelSpec(
        id="chalkboard",
        corners=np.array([
            [6.2, 4.5, 1.0], [6.2, 6.5, 1.0],
            [6.2, 6.5, 2.0], [6.2, 4.5, 2.0],
        ]),
        absorption=0.1,
    )
    # the target sits directly opposite, 0.97 m away
    return _listening_scene("pub", (8.0, 5.0, 1.2), (0.0, 1.0, 0.0),
                            (8.0, 5.97, 1.2), (0.0, -1.0, 0.0),
                            rooms=(room,), panels=(table, chalkboard))


def _underground_scene() -> SceneSpec:
    # Coupled tunnel volumes produce the dual-slope decay; they are modeled
    # through the secondary decay target, not through extra geometry.
    room = _fitted_room(
        "underground", (120.0, 15.7, 4.16), 1.6, volume_override=11000.0,
        second_slope=SecondSlope(t30_2=3.2, onset_level_db=-40.0),
    )
    receiver_pos = np.array([60.0, 7.85, 1.6])
    rec_look = np.array([1.0, 0.0, 0.0])
    # the target stands 6.37 m frontal, facing the listener
    return _listening_scene("underground", receiver_pos, rec_look,
                            receiver_pos + 6.37 * rec_look, -rec_look, rooms=(room,))


_SCENE_PRESETS = {
    "living-room": _living_room_scene,
    "pub": _pub_scene,
    "underground": _underground_scene,
}


def preset(name: str, seed: int = 0) -> SceneSpec:
    """One of the three scene presets: living-room, pub, underground."""
    if name not in _SCENE_PRESETS:
        raise SceneParseError(
            f"unknown preset {name!r}; known: {', '.join(sorted(_SCENE_PRESETS))}"
        )
    return replace(_SCENE_PRESETS[name](), rng_seed=seed)


def preset_names() -> tuple:
    return tuple(sorted(_SCENE_PRESETS))


# ---------------------------------------------------------------------------
# JSON (de)serialization: one key per dataclass field, in field order
# ---------------------------------------------------------------------------

_JSON_KEYS = {"rng_seed": "seed"}  # the one field whose key differs from its name
_IGNORED_KEYS = {ReceiverSpec: {"kind"}}  # read from older scene files, unused
_SCALARS = {float: "a number", int: "an integer", str: "a string"}


def _to_json(value):
    if is_dataclass(value):
        return {_JSON_KEYS.get(f.name, f.name): _to_json(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def serialize_scene(scene: SceneSpec) -> str:
    """The scene as JSON text, one key per dataclass field in field order."""
    return json.dumps(_to_json(scene), indent=2)


def _has_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _from_json(tp, value, path: str):
    """``value`` from a JSON document, checked against annotation ``tp``.

    ``path`` names the value in errors, e.g. ``sources[0].level_db``. Beyond
    the JSON kind of each value, the dataclasses validate what they are given.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise SceneParseError(f"{path or 'document'}: expected an object, "
                                  f"got {value!r:.40}")
        hints, prefix = get_type_hints(tp), f"{path}." if path else ""
        known, kwargs = set(_IGNORED_KEYS.get(tp, ())), {}
        for f in fields(tp):
            key = _JSON_KEYS.get(f.name, f.name)
            known.add(key)
            if key in value:
                kwargs[f.name] = _from_json(hints[f.name], value[key], prefix + key)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise SceneParseError(f"{prefix}{key}: missing required key")
        for key in value:
            if key not in known:
                raise SceneParseError(f"{prefix}{key}: unknown key")
        return tp(**kwargs)
    if get_origin(tp) is Union:  # Optional[X]
        return None if value is None else _from_json(get_args(tp)[0], value, path)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise SceneParseError(f"{path}: expected a list, got {value!r:.40}")
        return tuple(_from_json(get_args(tp)[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if tp is np.ndarray:
        try:
            array = np.asarray(value)
        except ValueError:  # ragged nesting
            array = None
        if array is None or array.dtype.kind not in "iuf" or _has_bool(value):
            raise SceneParseError(f"{path}: expected a number or nested lists of numbers")
        return array
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise SceneParseError(f"{path}: expected {_SCALARS[tp]}, got {value!r:.40}")
    return value


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``; other bytes are a SceneParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SceneParseError(f"{path}: byte {exc.start} is not UTF-8 text") from None


def parse_document(document: str, spec_type):
    """Parse a UTF-8 JSON document into the dataclass ``spec_type``: one key
    per field, checked by :func:`_from_json`, then by the dataclass."""
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise SceneParseError(f"invalid JSON: {exc}") from exc
    return _from_json(spec_type, doc, "")


def parse_scene(document: str) -> SceneSpec:
    """Parse and validate a UTF-8 JSON scene document."""
    return parse_document(document, SceneSpec)
