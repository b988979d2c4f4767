"""Sample-domain synthesis of a SpatialIR.

A render unit is an HRTF index, a loudspeaker channel or the single mono
unit; directions reach the units through one gain matrix, ``unit_gains``
(k, 3) -> (k, n_units), shared by the binaural, array and mono paths. A
specular tap whose bands carry equal amplitudes passes the band masks
unchanged, since they sum to 1: it stays an impulse, which the caller
scatters straight into its output channels; every other wave goes into the
caller's row of its unit. The tail comes first: each FDN's line outputs
stream block by block (``fdn.line_blocks``) into the rows, which are then
scaled once to the tail's target energy. Each diffuse burst is one
broadband wave, drawn once, in a chunk of bursts, and added in tap order
into every unit it reaches. Only band-dependent specular taps are
band-filtered, through one buffer per band and unit over the early extent.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from .errors import SceneValidationError
from .fdn import line_blocks
from .filterbank import OCTAVE_CENTERS_8, band_masks, padded_len
from .ism import SpatialIR, burst_waves
from .scene import MAX_SAMPLES


def _kernel_margin(fs: float) -> int:
    return max(int(0.15 * fs), 4096)  # the band kernels' decay; the lowest edge sets it


def _band_filtered(taps) -> np.ndarray:
    """Per tap: its specular bands differ, so the masks shape it."""
    return np.any(taps.amplitude != taps.amplitude[:, :1], axis=1)


def spatial_ir_length(spatial_ir: SpatialIR) -> int:
    """Sample count needed to hold every tap, burst and the tail; taps with
    band-dependent amplitudes are followed by the kernel margin. A count
    above ``MAX_SAMPLES`` is rejected before any wave is allocated."""
    fs = spatial_ir.sample_rate
    taps = spatial_ir.taps
    t_end = np.max(taps.delay + taps.burst_duration, initial=0.0)
    n = int(math.ceil(t_end * fs)) + 1
    if _band_filtered(taps).any():
        n += _kernel_margin(fs)
    if spatial_ir.tail is not None:
        n = max(n, spatial_ir.tail.start + spatial_ir.tail.length)
    if n > MAX_SAMPLES:
        raise SceneValidationError(f"the IR would hold {n} samples, more than {MAX_SAMPLES}")
    return n


def render_units(spatial_ir: SpatialIR,
                 unit_gains: Callable[[np.ndarray], np.ndarray],
                 rows: Callable[[List[int]], Any]) -> Tuple[Any, Tuple[np.ndarray, ...]]:
    """Broadband waveform per render unit that needs one, and the impulses.

    Returns ``(R, (unit, start, value))``. ``R = rows(waved)``, called before
    any wave exists, with every unit that a diffuse burst, a band-dependent
    tap or a tail line reaches with a nonzero gain; each such unit's wave
    is added into the caller's zeroed row ``R[unit]`` of
    ``spatial_ir_length`` samples, the scaled tail first. Bursts are drawn
    in chunks (``ism.burst_waves``), each once, and added in tap order into
    each unit they reach, times the gain there. A specular tap with equal
    band amplitudes stays an impulse: the three arrays hold one entry per
    such (tap, unit) pair with a nonzero gain, in tap order, for the caller
    to add into its output channels.
    """
    fs = spatial_ir.sample_rate
    n = spatial_ir_length(spatial_ir)

    # n holds every tap, burst and the tail, so none of them is clipped
    taps = spatial_ir.taps
    starts = np.rint(taps.delay * fs).astype(np.int64)
    tail = spatial_ir.tail
    configs = tail.configs if tail is not None else ()
    gains = unit_gains(np.concatenate([taps.doa, *(config.directions for config in configs)]))
    tap_gains, line_gains = gains[: len(taps)], gains[len(taps):]

    filtered = _band_filtered(taps)
    tap, unit = np.nonzero(tap_gains)  # (tap, unit) pairs in tap order
    keep = ~filtered[tap]
    banded = np.unique(unit[~keep])
    tap, unit = tap[keep], unit[keep]
    impulses = unit, starts[tap], tap_gains[tap, unit] * taps.amplitude[tap, 0]

    bursts = np.flatnonzero(taps.has_burst & np.any(tap_gains != 0.0, axis=1))
    reached = np.any(tap_gains[bursts] != 0.0, axis=0) | np.any(line_gains != 0.0, axis=0)
    # the rows exist before the loop's first short-lived array, so none of
    # those lands between two rows and splits the space they leave when freed
    units = rows(np.union1d(banded, np.flatnonzero(reached)).tolist())
    if tail is not None:  # first, so that its one scale step touches no other wave
        offset, first, raw = tail.start, 0, 0.0
        waved = np.flatnonzero(np.any(line_gains != 0.0, axis=0)).tolist()
        for config in tail.configs:  # one product of the waved units' line gains per block
            mix = line_gains[first:first + config.n_lines, waved].T
            first += config.n_lines
            for start, y in line_blocks(config, tail.length, tail.drive):
                raw += np.einsum("ij,ij->", y, y)  # no BLAS: its threads cost more here
                for unit, wave in zip(waved, mix @ y):
                    units[unit][offset + start:offset + start + wave.size] += wave
        scale = math.sqrt(tail.energy / raw) if raw > 0 else 0.0
        for unit in waved:
            units[unit][offset:offset + tail.length] *= scale

    # the band buffers and their transform span the taps plus the kernel margin
    m = min(n, int(np.max(starts, initial=-1)) + 1 + _kernel_margin(fs))
    n_fft = padded_len(m)
    masks = band_masks(n_fft, fs) if banded.size else None
    for unit in banded.tolist():
        hit = np.flatnonzero((tap_gains[:, unit] != 0.0) & filtered)
        buf = np.zeros((len(OCTAVE_CENTERS_8), m))
        np.add.at(buf.T, starts[hit], tap_gains[hit, unit][:, None] * taps.amplitude[hit])
        units[unit][:m] += np.fft.irfft((np.fft.rfft(buf, n_fft) * masks).sum(axis=0), n_fft)[:m]
    for k, wave in burst_waves(taps, bursts, fs):
        for unit in np.flatnonzero(tap_gains[k]).tolist():
            units[unit][starts[k]:starts[k] + wave.size] += tap_gains[k, unit] * wave
    return units, impulses


def synthesize_mono(spatial_ir: SpatialIR, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Omnidirectional (direction-discarding) rendering of a SpatialIR's taps
    and tail, added into ``out`` (default: zeros of ``spatial_ir_length``)
    and returned; its door signature is left to ``pipeline.render_output``.
    With a tail, ``out`` must be all zeros: the tail's scale step scales
    the row's whole tail span, whatever it held before."""
    if out is None:
        out = np.zeros(spatial_ir_length(spatial_ir))
    elif spatial_ir.tail is not None and out.any():
        raise ValueError("a tail renders only into a zeroed row, which its scale step scales")
    _, (_, start, value) = render_units(spatial_ir, lambda d: np.ones((len(d), 1)), lambda _: [out])
    np.add.at(out, start, value)
    return out
