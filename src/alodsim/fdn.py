"""Feedback-delay-network late reverberation.

Delay times are physically based: 12 lengths spread geometrically from the
room's shortest edge to its space diagonal, with the longest capped at
``MAX_DELAY_MFP`` mean free paths, converted to samples and nudged to
pairwise coprime integers. A line holds its energy for one whole pass before
it comes back out; the cap keeps that pass short against the decay, so the
summed envelope follows the target exponential with no reshaping. Per-line
per-band attenuation realizes the decay target; the feedback matrix is a
seeded random orthogonal matrix, so the loop is energy-preserving before
attenuation. The loop runs once per distinct set of band gains, on its
input band-limited to those bands, so a broadband target costs one run and
no band filtering.

The input enters each line at its input, scaled by ``input_gain``.

The recurrence streams: ``line_blocks`` keeps a ring of a few line delays
per line and band group and yields the line outputs block by block, so the
memory of a tail does not grow with its length. Each step of min(delay)
samples, once final, writes its feed through the matrix ahead by each
line's delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InfeasibleTargetError, SceneValidationError
from .filterbank import band_kernels, fftconvolve
from .scene import DecayTarget, RoomSpec, _set, mean_free_path, volume

N_LINES = 12
# the longest line holds a pass of its energy for at most this many mean
# free paths, so no line parks energy far longer than the room's own echoes
MAX_DELAY_MFP = 4.0
_BLOCK_SAMPLES = 8192  # line output samples per block that the recurrence yields, at least


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

    @property
    def directions(self) -> np.ndarray:  # (lines, 3): the incidence of each line
        return _fibonacci_sphere(self.n_lines)


def _coprime_delays(raw: np.ndarray) -> np.ndarray:
    """Round to integers, nudging upward until pairwise coprime and distinct."""
    chosen = []
    for value in raw:
        d = max(int(round(value)), 2)
        while any(math.gcd(d, c) != 1 for c in chosen):
            d += 1
        chosen.append(d)
    return np.asarray(chosen, dtype=int)


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

    The 12 delays are spread geometrically from the room's shortest edge to
    its space diagonal, or to ``MAX_DELAY_MFP`` mean free paths where that is
    shorter; the coprime nudges add a few samples at most. Lengths are
    scaled by (V / V_box)^(1/3), so a room's volume override (non-box real
    geometry) stretches them; without one the factor is 1.
    g_i(f) = 10^(-3 d_i / (fs T60(f))), i.e. -60 dB per T60 of recirculation.
    """
    stretch = (volume(room) / float(np.prod(room.dims))) ** (1.0 / 3.0)
    longest = min(float(np.linalg.norm(room.dims)) * stretch,
                  MAX_DELAY_MFP * mean_free_path(room))
    shortest = min(float(np.min(room.dims)) * stretch, longest)
    delays = _coprime_delays(np.geomspace(shortest, longest, N_LINES) * fs / c)
    t60 = np.asarray(target.t30_bands, dtype=float)
    line_gains = 10.0 ** (-3.0 * delays[:, None] / (fs * t60[None, :]))
    try:
        return FdnConfig(delays=delays, feedback_matrix=_random_orthogonal(N_LINES, seed),
                         line_gains=line_gains, sample_rate=fs,
                         input_gain=1.0 / math.sqrt(N_LINES))
    except InfeasibleTargetError as err:
        raise InfeasibleTargetError(f"room {room.id}: T30 target: {err}") from None


def line_blocks(config: FdnConfig, n: int, drive: Optional[np.ndarray] = None):
    """The first ``n`` samples of the line outputs, as (start, (lines, b)) blocks in order.

    Bands whose line gains are exactly equal share one run of the loop, so a
    broadband target runs it once, unfiltered. Otherwise each gain set runs,
    in step with the others, h samples longer on ``drive`` convolved with
    its bands' ``band_kernels`` (the loop is linear and time-invariant), and
    drops the first h. The drive (default: a unit impulse) starts at t = 0.

    Write-ahead recurrence in a ring of L samples per line, L the first
    multiple of B = min(delay) at or above max(delay) + B: each step of B
    samples is one final slice, scaled by the line gains in place and copied
    out; its feed m @ y plus the drive of those B samples is written d_i
    samples ahead on line i (wrapping at most once), where nothing else
    lands before it is read. Steps gather into blocks of at least
    ``_BLOCK_SAMPLES``, each the caller's until the next is asked for.
    """
    u = np.array([1.0]) if drive is None else drive
    groups, band_group = np.unique(config.line_gains.T, axis=0, return_inverse=True)
    h, inputs = 0, u[None, None, :]
    if len(groups) > 1:
        kernels = band_kernels(config.sample_rate)
        h = kernels.shape[1] // 2
        inputs = np.stack([fftconvolve(u, kernels[band_group.ravel() == g].sum(axis=0))
                           for g in range(len(groups))])[:, None, :]
    inputs = config.input_gain * inputs
    delays, m, lines = config.delays.tolist(), config.feedback_matrix, config.n_lines
    step = min(delays)
    size = step * (-(-max(delays) // step) + 1)
    ring, gains = np.zeros((len(groups) * lines, size)), groups.reshape(-1, 1)  # group-major rows
    out, done, fill = np.empty((lines, _BLOCK_SAMPLES + step)), 0, 0
    for pos in range(0, n + h, step):
        slot, b = pos % size, min(step, n + h - pos)
        # tap the output after the absorption gain, so even the very first
        # pass of a line lands on the target decay curve
        y = ring[:, slot:slot + b]
        y *= gains
        x = m @ y.reshape(-1, lines, b)
        if pos < inputs.shape[-1]:  # the drive enters each line with the feed
            x[..., :inputs.shape[-1] - pos] += inputs[..., pos:pos + b]
        keep = y[:, max(h - pos, 0):]  # the step's samples past the first h
        out[:, fill:fill + keep.shape[1]] = keep.reshape(len(groups), lines, -1).sum(axis=0) \
            if len(groups) > 1 else keep
        fill += keep.shape[1]
        for row, d, feed in zip(ring, delays * len(groups), x.reshape(y.shape)):
            at = (slot + d) % size  # no other feed lands there before it is read
            row[at:at + b] = feed[:size - at]
            if at + b > size:
                row[:at + b - size] = feed[size - at:]
        if fill >= _BLOCK_SAMPLES:
            yield done, out[:, :fill]
            done, fill = done + fill, 0
    if fill:
        yield done, out[:, :fill]


def design_dual_slope(room: RoomSpec, target: DecayTarget, fs: float,
                      c: float = 343.0, seed: int = 0) -> tuple:
    """(primary, secondary) FDNs whose EDC asymptotes cross at the onset level.

    The target's second slope is slower than its primary and starts below
    -20 dB (``DecayTarget`` and ``SecondSlope`` check both). The secondary
    FDN's band T30s are the primary's scaled by t30_2 / broadband T30, so
    every band crosses at the same level and one input gain serves them all.
    That gain follows from the two exponential decay rates: with
    EDC_i(t) = a_i^2 (T_i / k) 10^(-60 t / (10 T_i)), requiring the crossing
    at level L places it at t* = -L T1 / 60 and gives
    20 log10(a2/a1) = L (1 - T1/T2) + 10 log10(T1/T2).
    """
    t1 = target.broadband_t30
    t2 = target.second_slope.t30_2
    level = target.second_slope.onset_level_db
    primary = design_fdn(room, target, fs, c=c, seed=seed)
    secondary_target = DecayTarget(t30_bands=target.t30_bands * (t2 / t1))
    secondary = design_fdn(room, secondary_target, fs, c=c, seed=seed + 1)
    rel_db = level * (1.0 - t1 / t2) + 10.0 * math.log10(t1 / t2)
    gain_ratio = 10.0 ** (rel_db / 20.0)
    secondary = replace(secondary, input_gain=primary.input_gain * gain_ratio)
    return primary, secondary
