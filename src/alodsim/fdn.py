"""Feedback-delay-network late reverberation.

Delay times are physically based: the room's edge lengths, face diagonals
and space diagonal, converted to samples and nudged to pairwise coprime
integers. Per-line per-band attenuation realizes the decay target; the
feedback matrix is a seeded random orthogonal matrix, so the loop is
energy-preserving before attenuation. The loop runs once per distinct set
of band gains, so a broadband target costs one run and no band filtering.

The input enters each line at taps derived from the delays alone: the line
input, then about one per min(delay) samples, so long lines radiate from
their first pass as a diffuse field fills a room. Each tap is attenuated by
gain^(offset/delay), so every exit lands on the target decay curve.

The recurrence keeps no delay-line buffers. It runs inside its (lines, n)
output array: the input is written ahead to where it leaves each line, and
each block of min(delay) samples, once final, writes its feed through the
matrix ahead by each line's delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InfeasibleTargetError, SceneValidationError
from .filterbank import BandFilter, band_groups
from .ism import TailStream
from .scene import DecayTarget, RoomSpec, _set, volume

N_LINES = 12


@dataclass(frozen=True)
class FdnConfig:
    delays: np.ndarray  # samples per line, pairwise distinct integers
    feedback_matrix: np.ndarray  # orthogonal (n, n)
    line_gains: np.ndarray  # (n_lines, n_bands)
    sample_rate: float
    input_gain: float = 1.0

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=int)
        if np.any(delays < 1):
            raise SceneValidationError("FDN delays must be >= 1 sample")
        if len(set(delays.tolist())) != delays.size:
            raise SceneValidationError("FDN delays must be pairwise distinct")
        m = np.asarray(self.feedback_matrix, dtype=float)
        if np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) > 1e-9:
            raise SceneValidationError("FDN feedback matrix must be orthogonal")
        gains = np.asarray(self.line_gains, dtype=float)
        if not np.all((gains > 0.0) & (gains < 1.0)):
            raise InfeasibleTargetError("FDN line gains must lie in (0, 1); a decay "
                                        "target out of reach of the delays rounds them to 0 or 1")
        _set(self, delays=delays, feedback_matrix=m, line_gains=gains)

    @property
    def n_lines(self) -> int:
        return self.delays.size


def _coprime_delays(raw: np.ndarray) -> np.ndarray:
    """Round to integers, nudging upward until pairwise coprime and distinct."""
    chosen = []
    for value in raw:
        d = max(int(round(value)), 2)
        while any(math.gcd(d, c) != 1 for c in chosen):
            d += 1
        chosen.append(d)
    return np.asarray(chosen, dtype=int)


def _room_path_lengths(room: RoomSpec) -> np.ndarray:
    lx, ly, lz = room.dims
    return np.array([
        lx, ly, lz,
        math.hypot(lx, ly), math.hypot(lx, lz), math.hypot(ly, lz),
        math.sqrt(lx * lx + ly * ly + lz * lz),
    ])


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform unit directions (golden-angle spiral)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _random_orthogonal(n: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    # symmetrize the rounding: re-orthogonalize once for tight tolerance
    u, _, vt = np.linalg.svd(q)
    return u @ vt


def design_fdn(room: RoomSpec, target: DecayTarget, fs: float,
               c: float = 343.0, seed: int = 0) -> FdnConfig:
    """FDN whose per-line band gains realize the room's decay target.

    g_i(f) = 10^(-3 d_i / (fs T60(f))), i.e. -60 dB per T60 of recirculation.
    Path lengths are scaled by (V / V_box)^(1/3), so a room's volume override
    (non-box real geometry) stretches them; without one the factor is 1.
    """
    stretch = (volume(room) / float(np.prod(room.dims))) ** (1.0 / 3.0)
    paths = _room_path_lengths(room) * stretch
    # cycle the 7 physical paths with a golden-ratio-ish stretch for extra lines
    reps = int(math.ceil(N_LINES / paths.size))
    stretched = np.concatenate([paths * (1.0 + 0.31 * k) for k in range(reps)])
    raw = np.sort(stretched)[:N_LINES] * fs / c
    delays = _coprime_delays(raw)
    t60 = np.asarray(target.t30_bands, dtype=float)
    line_gains = 10.0 ** (-3.0 * delays[:, None] / (fs * t60[None, :]))
    try:
        return FdnConfig(delays=delays, feedback_matrix=_random_orthogonal(N_LINES, seed),
                         line_gains=line_gains, sample_rate=fs,
                         input_gain=1.0 / math.sqrt(N_LINES))
    except InfeasibleTargetError as err:
        raise InfeasibleTargetError(f"room {room.id}: T30 target: {err}") from None


def _input_taps(delays: np.ndarray) -> list:
    """Injection offsets per line: 0 (the line input), then k min(delay) for
    k = 1, 2, ... plus a golden-ratio jitter below 0.9 min(delay), so lines
    never fire in sync, while below the line's delay. Only offset 0 lies
    below the block size min(delay)."""
    d_min = int(delays.min())
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    taps = []
    for i, d in enumerate(delays.tolist()):
        line, k = [0], 1
        while (o := k * d_min + int(((i * 31 + k) * phi % 1.0) * 0.9 * d_min)) < d:
            line.append(o)
            k += 1
        taps.append(np.array(line))
    return taps


def _run_band(config: FdnConfig, gains: np.ndarray, n: int,
              input_signal: np.ndarray) -> np.ndarray:
    """Run the recurrence for one band; returns (n_lines, n) line outputs.

    Write-ahead recurrence inside the output array: `out` starts as the
    injected input, each sample u[t] landing at t + offset on its line (at
    t + delay for offset 0, the line input). Then, block by block with block
    size B = min(delay), the block's values are final; they are scaled by
    the line gains in place and their feed m @ y is added d_i samples ahead
    on line i, which is never inside the current block. Results match the
    per-sample recurrence to rounding (the matrix products are evaluated
    blockwise, which may round differently in the last ulp).
    """
    n_lines = config.n_lines
    delays = config.delays
    block = int(delays.min())
    m = config.feedback_matrix
    # equal amplitude per injection tap (the loop equilibrates toward equal
    # energy density per sample), decayed along the line and normalized so
    # the total injected energy matches one tap per line at its input; the
    # line input's weight is 1, so the total is at least n_lines
    offsets = _input_taps(delays)
    weights = [gains[i] ** (offsets[i] / delays[i]) for i in range(n_lines)]
    total = sum(float(np.dot(w, w)) for w in weights)
    scale = config.input_gain * math.sqrt(n_lines / total)
    out = np.zeros((n_lines, n))
    for i, d in enumerate(delays):
        for off, w in zip(offsets[i], weights[i]):
            ahead = out[i, off or d:][: len(input_signal)]
            ahead += (scale * w) * input_signal[: ahead.size]
    for pos in range(0, n, block):
        # tap the output after the absorption gain, so even the very first
        # pass of a long line lands on the target decay curve
        y = out[:, pos:pos + block]
        y *= gains[:, None]
        x = m @ y
        for i, d in enumerate(delays):
            ahead = out[i, pos + d:pos + d + block]
            ahead += x[i, : ahead.size]
    return out


_SHAPE_CLAMP_DB = 12.0
_SHAPE_WINDOW_S = 0.03


def _moving_average(x: np.ndarray, win: int) -> np.ndarray:
    """Mean of ``x`` over a centered window of ``win`` samples, zero outside.

    A running sum, as ``scipy.ndimage.uniform_filter1d(x, win,
    mode="constant")`` keeps it, with the same roundings: the first window
    summed in order, then each step adds the entering sample minus the
    leaving one, and each output is the sum divided by ``win``.
    """
    n, before = len(x), win // 2
    pad = np.zeros(n + win - 1)
    pad[before:before + n] = x
    sums = np.empty_like(pad)
    sums[:win] = pad[:win]
    np.subtract(pad[win:], pad[:n - 1], out=sums[win:])
    np.cumsum(sums, out=sums)  # in order, where np.sum adds pairwise
    means = sums[win - 1:]
    means /= win
    return means


def _shape_decay(lines: np.ndarray, fs: float, t60: float) -> np.ndarray:
    """Regularize the summed power envelope toward the target exponential, in place.

    Widely spread delay lines make the output flux oscillate around the
    ideal decay (energy parks in long lines for a full recirculation). The
    correction gain is smoothed over 30 ms and clamped to +/- 12 dB, so it
    removes the gross wobble without touching the fine structure.
    """
    n = lines.shape[1]
    power = np.einsum("ij,ij->j", lines, lines)  # no (lines, n) temporary
    total = float(power.sum())
    if total <= 0.0:
        return lines
    win = max(int(_SHAPE_WINDOW_S * fs), 1) | 1  # odd: keeps the mean centered
    # the running-sum filter can round to tiny negatives on signals spanning
    # many orders of magnitude, so clamp both envelopes at zero
    actual = np.maximum(_moving_average(power, win), 0.0)
    ideal = 10.0 ** (-6.0 * np.arange(n) / (fs * t60))
    ideal *= total / float(ideal.sum())
    target = np.maximum(_moving_average(ideal, win), 0.0)
    clamp = 10.0 ** (_SHAPE_CLAMP_DB / 20.0)
    floor = float(actual.max()) * 1e-20
    gain = np.sqrt(target / np.maximum(actual, floor))
    gain = np.clip(gain, 1.0 / clamp, clamp)
    gain[actual <= floor] = 1.0
    return np.multiply(lines, gain, out=lines)


def _t60_of(config: FdnConfig, gains: np.ndarray) -> float:
    return -3.0 * float(config.delays[0]) / (config.sample_rate * math.log10(float(gains[0])))


def run_fdn(config: FdnConfig, duration: float,
            input_signal: Optional[np.ndarray] = None) -> list:
    """Direction-labeled tail streams of the FDN response.

    Bands whose line gains are exactly equal share one run of the loop. Each
    distinct gain set runs once; its line outputs are band-limited with the
    sum of its bands' zero-phase masks, and the groups are summed per line.
    When every band has the same gains the masks sum to 1 and no filtering
    is needed. Default input is a unit impulse at t = 0, in which case each
    group's envelope is regularized toward its target decay.
    """
    fs = config.sample_rate
    n = int(round(duration * fs))
    if n <= 0:
        raise SceneValidationError("duration must cover at least one sample")
    impulse_driven = input_signal is None
    if input_signal is None:
        input_signal = np.array([1.0])
    directions = _fibonacci_sphere(config.n_lines)
    groups, weights = band_groups(config.line_gains.T)
    lines = None
    for g, gains in enumerate(groups):
        out = _run_band(config, gains, n, input_signal)
        if impulse_driven:
            out = _shape_decay(out, fs, _t60_of(config, gains))
        if len(groups) > 1:
            out = BandFilter(n, fs, weights[g:g + 1]).apply(out[None])
        lines = out if lines is None else lines + out
    return [
        TailStream(samples=lines[i], onset=0.0, direction=directions[i])
        for i in range(config.n_lines)
    ]


def design_dual_slope(room: RoomSpec, target: DecayTarget, fs: float,
                      c: float = 343.0, seed: int = 0) -> tuple:
    """(primary, secondary) FDNs whose EDC asymptotes cross at the onset level.

    The target's second slope is slower than its primary and starts below
    -20 dB (``DecayTarget`` and ``SecondSlope`` check both). The secondary
    input gain follows from the two exponential decay rates: with
    EDC_i(t) = a_i^2 (T_i / k) 10^(-60 t / (10 T_i)), requiring the crossing
    at level L places it at t* = -L T1 / 60 and gives
    20 log10(a2/a1) = L (1 - T1/T2) + 10 log10(T1/T2).
    """
    t1 = target.broadband_t30
    t2 = target.second_slope.t30_2
    level = target.second_slope.onset_level_db
    primary = design_fdn(room, target, fs, c=c, seed=seed)
    secondary_target = DecayTarget(t30_bands=np.full_like(target.t30_bands, t2))
    secondary = design_fdn(room, secondary_target, fs, c=c, seed=seed + 1)
    rel_db = level * (1.0 - t1 / t2) + 10.0 * math.log10(t1 / t2)
    gain_ratio = 10.0 ** (rel_db / 20.0)
    secondary = replace(secondary, input_gain=primary.input_gain * gain_ratio)
    return primary, secondary
