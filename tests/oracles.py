"""Slow reference implementations kept as test oracles.

``run_band`` runs the FDN recurrence for one set of band gains inside a
(lines, n) output array, and ``fdn_lines`` runs it once per band group,
each group's (lines, n + h) block written whole, then sums the groups:
``alodsim.fdn.line_blocks`` streams the same lines through a ring of a few
thousand samples. ``tail_lines`` renders a ``Tail`` recipe that way and
scales its lines in place to their target, as the tail was held before the
renderer ran it. ``per_band_run_fdn`` runs the FDN loop once per octave
band and filters every band at FFT length 2n; ``render_units_2m``
allocates full-length band buffers for every specular tap, spreads one
tap, burst or tail line direction at a time and filters at FFT length 2m.
Both are the straightforward forms of what ``alodsim.fdn.line_blocks`` and
``alodsim.synth.render_units`` compute with band grouping, early-extent
buffers, fast FFT lengths and one gain matrix.
``render_units_block`` gives ``render_units`` a (units, n) block of rows
of its own. ``render_units_whole`` adds every impulse tap that
``render_units`` returns beside its waves into a full-length unit wave, one
tap at a time.
``binauralize_per_unit`` convolves each such wave with each ear's HRTF
separately at the full length, and ``render_array_per_tap`` pans each tap
with its own ``vbap_gains`` call, where ``alodsim.spatial`` scatters impulse
taps straight into the output channels and, in binaural renders, convolves
the remaining unit waves block by block, summed over the units. Both then
convolve each channel with the part's door signature through
``scipy.signal.fftconvolve``, as ``alodsim.pipeline.render_output`` does
once after the renderer.

``render_array_block`` renders an array as ``alodsim.spatial`` did before
its unit waves went straight into the output rows: every wave in a block
row of its own, added whole into its channel after the impulse taps.
``vbap_gains_one_call`` tests every direction against every triangle in
one call, where ``alodsim.spatial.vbap_gains`` takes 256 directions at a
time; ``fftconvolve_one_shot`` transforms every row at once, where
``alodsim.filterbank.fftconvolve`` transforms 8 rows at a time.
``calibrated`` scales and shifts each channel by its loudspeaker's
calibration, one output sample at a time, where ``alodsim.spatial`` shifts
each row in place.

``burst_samples`` draws one diffuse burst at a time, where
``alodsim.ism.burst_waves`` draws a chunk of rows per gather.
``seeded_offsets`` draws each burst's noise-table offsets from a generator
of its own seed, as the renderer did per burst before ``alodsim.ism.smear_taps``
drew every burst's offsets at once.

``envelope_db`` is ``alodsim.stimuli._envelope_db`` computed with
``scipy.signal.hilbert`` and a "same"-mode ``fftconvolve``.

``enumerate_images_grid`` builds every row of the lattice grid of image
sources and keeps those whose order fits, where
``alodsim.ism.enumerate_images`` builds the kept rows only.

``directivity_gain``, ``emission_direction`` and ``early_taps_per_tap``
handle one direction, image or tap at a time, as the early chain in
``alodsim.ism`` did before it carried images and taps as arrays.

``two_stage`` chains two single-room renders through the door: stage 1 to
the door center without panels, stage 2 from an omni source there carrying
stage 1's mono response as its signature, with ``spawn(2)``'s seeds. It is
the part through the door of ``alodsim.coupled.coupled_parts``, whose first
two seeds are ``spawn(3)``'s first two.

``dual_slope_fit_per_knee`` solves one ``lstsq`` over the whole span per
knee level, where ``alodsim.analysis.dual_slope_fit`` scores the knees from
suffix sums and solves once. ``ned_per_frame`` measures one frame at a
time. ``write_analysis_csv`` formats one row at a time through
``csv.writer``, as ``alodsim analyze`` wrote its CSVs before it formatted
whole columns. ``write_columns_percent`` formats each block of rows with
one ``%``, as ``alodsim.cli._write_columns`` did before it took the digits
from the values by array arithmetic.
"""

import csv
import math
from dataclasses import replace
from itertools import chain

import numpy as np
from scipy.signal import fftconvolve, hilbert

from alodsim.analysis import (
    DUAL_SLOPE_SPAN_DB,
    NED_GAUSSIAN_FRACTION,
    NED_HOP,
    NED_WINDOW_S,
    DualSlopeFit,
    NedProfile,
    drr,
    schroeder_edc,
    t30,
)
from alodsim.coupled import _door_source, single_room_ir
from alodsim.errors import InsufficientDecayError, SceneValidationError
from alodsim.filterbank import OCTAVE_CENTERS_8, band_kernels, band_masks, next_fast_len
from alodsim.ism import (
    BURST_DECAY_DB,
    BURST_EXTENSION_S,
    BURST_SECONDS_PER_ORDER,
    JITTER_SIGMA_PER_ORDER,
    NOISE_TABLE_LEN,
    Images,
    _noise_table,
    enumerate_images,
    reflect_finite_panels,
)
from alodsim.spatial import ImpulseResponse, head_frame, vbap_gains
from alodsim.synth import render_units, spatial_ir_length, synthesize_mono


def run_band(config, gains, n, input_signal):
    """Run the recurrence for one band; returns (n_lines, n) line outputs.

    Write-ahead recurrence inside the output array: `out` starts as the
    input scaled by ``input_gain``, each sample u[t] landing at t + d_i on
    line i, where it leaves the line. Then, block by block with block size
    B = min(delay), the block's values are final; they are scaled by the
    line gains in place and their feed m @ y is added d_i samples ahead on
    line i, which is never inside the current block.
    """
    delays = config.delays
    block = int(delays.min())
    m = config.feedback_matrix
    out = np.zeros((config.n_lines, n))
    for i, d in enumerate(delays):
        ahead = out[i, d:d + len(input_signal)]
        ahead += config.input_gain * input_signal[: ahead.size]
    for pos in range(0, n, block):
        y = out[:, pos:pos + block]
        y *= gains[:, None]
        x = m @ y
        for i, d in enumerate(delays):
            ahead = out[i, pos + d:pos + d + block]
            ahead += x[i, : ahead.size]
    return out


def fdn_lines(config, n, input_signal=None, run=run_band):
    """(n_lines, n) line outputs: ``run`` (config, gains, n, input) once per
    set of equal band gains, on the input convolved with the set's band
    kernels for h samples more, the first h dropped, and the sets summed."""
    if input_signal is None:
        input_signal = np.array([1.0])
    groups, band_group = np.unique(config.line_gains.T, axis=0, return_inverse=True)
    if len(groups) == 1:
        return run(config, groups[0], n, input_signal)
    kernels = band_kernels(config.sample_rate)
    h = kernels.shape[1] // 2
    return sum(run(config, gains, n + h, fftconvolve(
        input_signal, kernels[band_group.ravel() == g].sum(axis=0)))[:, h:]
        for g, gains in enumerate(groups))


def tail_lines(tail):
    """[(samples, direction)] of every line of a ``Tail`` recipe: each FDN's
    ``fdn_lines``, all scaled in place so that they carry ``tail.energy``."""
    lines = [(row, d) for config in tail.configs
             for row, d in zip(fdn_lines(config, tail.length, tail.drive), config.directions)]
    raw = sum(float(np.dot(row, row)) for row, _ in lines)
    scale = math.sqrt(tail.energy / raw) if raw > 0 else 0.0
    for row, _ in lines:
        row *= scale
    return lines


def per_band_run_fdn(config, duration, input_signal=None,
                     band_centers=OCTAVE_CENTERS_8) -> np.ndarray:
    """(n_lines, n) line outputs: one loop run and one masked FFT per band."""
    fs = config.sample_rate
    n = int(round(duration * fs))
    if input_signal is None:
        input_signal = np.array([1.0])
    masks = band_masks(2 * n, fs, band_centers)
    spectra = None
    for b in range(config.line_gains.shape[1]):
        lines = run_band(config, config.line_gains[:, b], n, input_signal)
        contrib = np.fft.rfft(lines, n=2 * n, axis=1) * masks[b][None, :]
        spectra = contrib if spectra is None else spectra + contrib
    return np.fft.irfft(spectra, n=2 * n, axis=1)[:, :n]


def seeded_offsets(seeds):
    """(len(seeds), 8) noise-table offsets, row i drawn by a generator seeded with seeds[i]."""
    rows = [np.random.default_rng(seed).integers(NOISE_TABLE_LEN, size=8) for seed in seeds]
    return np.array(rows, dtype=np.int64).reshape(-1, 8)


def burst_samples(taps, bursts, row, fs):
    """Burst ``row``'s diffuse burst, as ``alodsim.ism.burst_waves`` yields it:
    one gather, envelope and ``part @ part`` per band."""
    table, share = _noise_table(float(fs))
    length = (BURST_SECONDS_PER_ORDER * taps.order[bursts.tap[row]] + BURST_EXTENSION_S) * fs
    n, rate = np.rint(length).astype(np.int64), -BURST_DECAY_DB / 20.0 * math.log(10.0) / length
    offset = bursts.offset[row]
    t = np.arange(max(n.max(), 1))
    wave = np.zeros(t.size)
    for b, target in enumerate(bursts.energy[row] * share):
        part = np.take(table[b], t[:n[b]] + offset[b], mode="wrap") * np.exp(rate[b] * t[:n[b]])
        energy = part @ part
        if energy > 0.0:
            wave[:n[b]] += math.sqrt(target / energy) * part
    return wave


def render_units_2m(spatial_ir, unit_gains, n_samples=0, centers=OCTAVE_CENTERS_8):
    """{unit: waveform}: every specular tap in (n_bands, n) buffers filtered
    at length 2m, then each tap's burst wave and each tail line added."""
    fs = spatial_ir.sample_rate
    n = max(n_samples, spatial_ir_length(spatial_ir))
    n_bands = len(centers)
    taps = spatial_ir.taps
    band_bufs = {}
    extent = 0
    for i in range(len(taps)):
        idx = int(round(taps.delay[i] * fs))
        if idx >= n:
            continue
        extent = max(extent, idx + 1)
        gains = unit_gains(taps.doa[i][None, :])[0]
        for unit in np.flatnonzero(gains):
            buf = band_bufs.setdefault(int(unit), np.zeros((n_bands, n)))
            buf[:, idx] += gains[unit] * taps.amplitude[i]
    m = min(n, extent + max(int(0.15 * fs), 4096))
    masks = band_masks(2 * m, fs, centers)
    units = {}
    for unit, buf in band_bufs.items():
        spec = np.einsum("bk,bk->k", masks, np.fft.rfft(buf[:, :m], n=2 * m, axis=1))
        wave = np.zeros(n)
        wave[:m] = np.fft.irfft(spec, n=2 * m)[:m]
        units[unit] = wave
    for row, i in enumerate(spatial_ir.bursts.tap):
        idx = int(round(taps.delay[i] * fs))
        noise = burst_samples(taps, spatial_ir.bursts, row, fs)
        stop = min(idx + noise.size, n)
        gains = unit_gains(taps.doa[i][None, :])[0]
        for unit in np.flatnonzero(gains):
            units[int(unit)][idx:stop] += gains[unit] * noise[: stop - idx]
    offset = spatial_ir.tail.start if spatial_ir.tail else 0
    for samples, direction in tail_lines(spatial_ir.tail) if spatial_ir.tail else ():
        stop = min(offset + len(samples), n)
        if stop <= offset:
            continue
        gains = unit_gains(direction[None, :])[0]
        for unit in np.flatnonzero(gains):
            wave = units.setdefault(int(unit), np.zeros(n))
            wave[offset:stop] += gains[unit] * samples[: stop - offset]
    return units


def render_units_block(spatial_ir, unit_gains):
    """``render_units`` into one (units, n) block of its own rows:
    ({unit: waveform}, impulses)."""
    n = spatial_ir_length(spatial_ir)
    return render_units(spatial_ir, unit_gains,
                        lambda waved: dict(zip(waved, np.zeros((len(waved), n)))))


def render_units_whole(spatial_ir, unit_gains):
    """{unit: full-length waveform} holding every tap: the waves of
    ``render_units`` plus the impulse taps it returns, added one at a time."""
    units, impulses = render_units_block(spatial_ir, unit_gains)
    n = spatial_ir_length(spatial_ir)
    for u, k, v in zip(*(a.tolist() for a in impulses)):
        units.setdefault(u, np.zeros(n))[k] += v
    return units


def _with_signature(out, spatial_ir):
    """``out`` as an IR, each channel convolved with the door signature, if any."""
    if spatial_ir.signature is not None:
        out = fftconvolve(out, spatial_ir.signature[None, :])
    return ImpulseResponse(channels=out, sample_rate=spatial_ir.sample_rate)


def binauralize_per_unit(spatial_ir, hrtf, orientation):
    """Binaural render of a part with one ``fftconvolve`` per render unit and
    ear, then one per ear with its door signature."""
    frame = head_frame(orientation)
    one_hot = np.eye(hrtf.directions.shape[0])
    units = render_units_whole(spatial_ir, lambda d: one_hot[hrtf.nearest(d @ frame.T)])
    n = spatial_ir_length(spatial_ir)
    out = np.zeros((2, n + hrtf.filters.shape[2] - 1))
    for idx in sorted(units):
        out[0] += fftconvolve(units[idx], hrtf.filters[idx, 0])
        out[1] += fftconvolve(units[idx], hrtf.filters[idx, 1])
    return _with_signature(out, spatial_ir)


def render_array_per_tap(spatial_ir, layout, orientation):
    """Array render of a layout without calibration: one ``vbap_gains``
    call per tap and stream direction, every tap in a full-length unit wave,
    then each channel convolved with the door signature."""
    assert layout.calibration_gains is None and layout.calibration_delays is None
    frame = head_frame(orientation)
    units = render_units_whole(spatial_ir, lambda d: np.reshape(
        [vbap_gains(v @ frame.T, layout) for v in d], (len(d), layout.n_speakers)))
    out = np.zeros((layout.n_speakers, spatial_ir_length(spatial_ir)))
    for unit, wave in units.items():
        out[unit] += wave
    return _with_signature(out, spatial_ir)


def vbap_gains_one_call(direction, layout):
    """``alodsim.spatial.vbap_gains`` with every direction in one
    ``_Triangulation.gains`` call, and no warning."""
    d = np.asarray(direction, dtype=float)
    flat = d.reshape(-1, 3)
    flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    idx, g, worst = layout._triangulation.gains(flat)
    g = np.clip(g, 0.0, None)
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    outside = worst < -1e-9
    idx[outside] = np.argmax(flat[outside] @ layout.directions.T, axis=1)[:, None]
    g[outside] = norm[outside] = 1.0
    gains = np.zeros((len(flat), layout.n_speakers))
    np.put_along_axis(gains, idx, g / norm, axis=1)
    return gains.reshape(d.shape[:-1] + (layout.n_speakers,))


def fftconvolve_one_shot(a, b):
    """``alodsim.filterbank.fftconvolve`` as one rfft of all of ``a``, one
    product and one irfft at the full FFT length, cut to the output."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    size = a.shape[-1] + b.shape[-1] - 1
    n_fft = next_fast_len(size)
    return np.fft.irfft(np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft), n_fft)[..., :size]


def calibrated(channels, layout, fs):
    """``channels`` (speakers, n) with each row times its calibration gain,
    then read at its calibration delay: out[j] = row[j - k] for
    k = round(delay * fs), zero where j - k falls outside the row."""
    out = np.array(channels, dtype=float)
    n = out.shape[1]
    if layout.calibration_gains is not None:
        out *= layout.calibration_gains[:, None]
    if layout.calibration_delays is not None:
        for i, delay in enumerate(layout.calibration_delays):
            source = np.arange(n) - int(round(delay * fs))
            inside = (source >= 0) & (source < n)
            out[i] = np.where(inside, out[i][np.clip(source, 0, n - 1)], 0.0)
    return out


def render_array_block(spatial_ir, layout, orientation):
    """Array render with every unit wave in a (units, n) block of its own:
    the impulse taps are scattered into the channels first, then each wave
    is added whole into its channel, then the calibration is applied."""
    frame = head_frame(orientation)
    fs = spatial_ir.sample_rate
    units, (unit, start, value) = render_units_block(
        spatial_ir, lambda d: vbap_gains(d @ frame.T, layout))
    out = np.zeros((layout.n_speakers, spatial_ir_length(spatial_ir)))
    np.add.at(out, (unit, start), value)
    for idx, wave in units.items():
        out[idx] += wave
    return ImpulseResponse(channels=calibrated(out, layout, fs), sample_rate=fs)


def envelope_db(x, fs, smooth_s=1e-3):
    """Smoothed Hilbert envelope of ``x`` in dB re its peak."""
    env = np.abs(hilbert(x))
    k = max(int(round(smooth_s * fs)), 1)
    env = np.sqrt(fftconvolve(env**2, np.ones(k) / k, mode="same"))
    peak = np.max(env)
    return 20.0 * np.log10(np.maximum(env, 1e-12 * peak) / peak)


def enumerate_images_grid(room, source_pos, max_order):
    """``alodsim.ism.enumerate_images`` from the whole lattice grid: every
    row of the (2N + 1)^3 grid of per-axis entries with its six hit counts,
    the rows of order <= N kept and put in order by one ``np.lexsort``."""
    local = np.asarray(source_pos, dtype=float) - room.origin
    dims = room.dims
    log_wall_amp = np.log(np.sqrt(1.0 - room.absorption))  # (6, n_bands)
    hits, coords = [], []
    for axis in range(3):
        entries = [(abs(m - q), abs(m), (1 - 2 * q) * local[axis] + 2 * m * dims[axis])
                   for q in (0, 1) for m in range(-max_order, max_order + 2)
                   if abs(m - q) + abs(m) <= max_order]
        hits.append(np.array([e[:2] for e in entries], dtype=np.int64))
        coords.append(np.array([e[2] for e in entries]))
    grid = [g.ravel() for g in np.meshgrid(*(np.arange(len(c)) for c in coords),
                                           indexing="ij")]
    wall_hits = np.concatenate([h[g] for h, g in zip(hits, grid)], axis=1)
    order = wall_hits.sum(axis=1)
    keep = np.flatnonzero(order <= max_order)
    keep = keep[np.lexsort((*wall_hits[keep].T[::-1], order[keep]))]
    wall_hits = wall_hits[keep]
    log_gain = sum(wall_hits[:, [wall]] * log_wall_amp[wall] for wall in range(6))
    position = np.stack([c[g[keep]] for c, g in zip(coords, grid)], axis=1)
    return Images(position=position + room.origin, order=order[keep],
                  wall_hits=wall_hits, band_gain=np.exp(log_gain))


def directivity_gain(grid, direction, forward):
    """Per-band gain of a DirectivityGrid for one emission direction."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    f = np.asarray(forward, dtype=float)
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(f, up)) > 0.999:
        up = np.array([1.0, 0.0, 0.0])
    left = np.cross(up, f)
    left /= np.linalg.norm(left)
    up2 = np.cross(f, left)
    x, y, z = np.dot(d, f), np.dot(d, left), np.dot(d, up2)
    az = math.degrees(math.atan2(y, x)) % 360.0
    el = math.degrees(math.asin(np.clip(z, -1.0, 1.0)))
    i = int(np.argmin(np.minimum(np.abs(grid.azimuths_deg - az),
                                 360.0 - np.abs(grid.azimuths_deg - az))))
    j = int(np.argmin(np.abs(grid.elevations_deg - el)))
    return grid.gains[i, j]


def emission_direction(position, wall_hits, receiver_pos):
    """Direction one ray leaves the real source, found by unfolding mirrors."""
    d = np.asarray(receiver_pos, dtype=float) - position
    d = d / np.linalg.norm(d)
    for axis in range(3):
        if (wall_hits[2 * axis] + wall_hits[2 * axis + 1]) % 2 == 1:
            d[axis] = -d[axis]
    return d


def early_taps_per_tap(scene, profile, source, receiver_pos, room, seed_seq):
    """The early chain of ``alodsim.ism.early_spatial_ir``, one image and
    one tap at a time: a list of tap dicts sorted by delay, and a list of
    burst dicts in tap order, each naming its tap's index."""
    jitter_seed, smear_seed = seed_seq.spawn(2)
    images = enumerate_images(room, source.position, profile.ism_order)
    rng = np.random.default_rng(jitter_seed)
    c = scene.speed_of_sound
    taps = []
    for i in range(len(images)):
        position = images.position[i]
        order = int(images.order[i])
        if profile.fdn_enabled and order >= 2:
            position = position + rng.normal(0.0, JITTER_SIGMA_PER_ORDER * order, size=3)
        diff = position - receiver_pos
        r = float(np.linalg.norm(diff))
        amp = images.band_gain[i] / r
        if source.directivity is not None:
            emit = emission_direction(position, images.wall_hits[i], receiver_pos)
            amp = amp * directivity_gain(source.directivity, emit, source.orientation)
        taps.append(dict(delay=r / c, amplitude=amp, doa=diff / r, order=order))
    if profile.room_details:
        relevant = [p for p in scene.panels if room.contains(p.corners.mean(axis=0))]
        panels = reflect_finite_panels(relevant, source.position, receiver_pos, c)
        taps += [dict(delay=panels.delay[k], amplitude=panels.amplitude[k],
                      doa=panels.doa[k], order=1) for k in range(len(panels))]
    taps.sort(key=lambda t: t["delay"])
    s = np.clip(room.scattering, 0.0, 1.0)
    level = 10.0 ** (source.level_db / 20.0)
    bursts = []
    for i, tap in enumerate(taps):
        if profile.fdn_enabled and tap["order"] >= 1:
            energy = s * tap["amplitude"] ** 2
            if np.any(energy > 0.0):
                bursts.append(dict(tap=i, energy=energy * level**2))
            tap["amplitude"] = np.sqrt(1.0 - s) * tap["amplitude"]
        tap["amplitude"] = tap["amplitude"] * level
    offsets = np.random.default_rng(smear_seed).integers(NOISE_TABLE_LEN, size=(len(bursts), 8))
    for burst, offset in zip(bursts, offsets):
        burst["offset"] = offset
    return taps, bursts


def two_stage(scene, profile, source, receiver_pos, duration, seed_seq):
    """The two-stage chain through the scene's first door, as one SpatialIR."""
    aperture = scene.apertures[0]
    stage1_seed, stage2_seed = seed_seq.spawn(2)
    stage1 = single_room_ir(scene, profile, source, aperture.center,
                            scene.room_of(source.position), duration, stage1_seed,
                            include_panels=False)
    stage2 = single_room_ir(scene, profile, _door_source(aperture, receiver_pos),
                            receiver_pos, scene.room_of(receiver_pos), duration, stage2_seed)
    return replace(stage2, signature=synthesize_mono(stage1))


def dual_slope_fit_per_knee(edc):
    """``alodsim.analysis.dual_slope_fit`` with one ``lstsq`` per knee level."""
    v = edc.values
    if v.min() > -50.0:
        raise InsufficientDecayError("EDC must span at least 50 dB")
    floor = max(-DUAL_SLOPE_SPAN_DB, float(v.min()) + 5.0)
    start = int(np.argmax(v <= -5.0))
    stop = int(np.argmax(v <= floor))
    t = np.arange(start, stop + 1) / edc.sample_rate
    y = v[start:stop + 1]
    best = None
    for level in np.arange(-10.0, floor + 10.0, -0.5):
        k = int(np.argmax(y <= level))
        if y[k] > level or k < 2 or k > y.size - 3:
            continue
        tk = t[k]
        basis = np.stack([np.ones_like(t), t - t[0], np.maximum(t - tk, 0.0)], axis=1)
        coef, _, _, _ = np.linalg.lstsq(basis, y, rcond=None)
        resid = float(np.mean((basis @ coef - y) ** 2))
        if best is None or resid < best[0]:
            best = (resid, coef, tk)
    if best is None:
        raise InsufficientDecayError("no admissible knee position")
    resid, coef, tk = best
    knee_level = float(coef[0] + coef[1] * (tk - t[0]))
    return DualSlopeFit(slope1=float(coef[1]), slope2=float(coef[1] + coef[2]),
                        knee_time=float(tk), knee_level=min(knee_level, 0.0),
                        residual=resid)


def ned_per_frame(ir, fs):
    """``alodsim.analysis.ned`` measured one frame at a time."""
    h = np.asarray(ir, dtype=float)
    w = int(round(NED_WINDOW_S * fs))
    w += (w + 1) % 2  # odd length
    if w > h.size:
        raise SceneValidationError("window longer than impulse response")
    half = w // 2
    centers = np.arange(half, h.size - half, NED_HOP)
    values = np.empty(centers.size)
    for i, c in enumerate(centers):
        frame = h[c - half: c + half + 1]
        sigma = float(np.sqrt(np.mean(frame**2)))
        if sigma == 0.0:
            values[i] = 0.0
        else:
            values[i] = np.count_nonzero(np.abs(frame) > sigma) / frame.size
    return NedProfile(times=centers / fs, values=values / NED_GAUSSIAN_FRACTION,
                      window=w / fs)


def write_columns_percent(path, header, formats, columns, block_rows=4096):
    """``alodsim.cli._write_columns`` with one ``%`` per block of rows."""
    row = ",".join(formats) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), block_rows):
            block = [c[lo:lo + block_rows].tolist() for c in columns]
            fh.write((row * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


def write_analysis_csv(metric, channels, fs, path):
    """The CSV ``alodsim analyze`` writes for one metric, row by row.

    A silent channel beside heard ones reads nan in t30, drr, edc and
    dual-slope.
    """
    n_ch = channels.shape[0]
    heard = channels.any()

    def each(measure, ch):
        return measure(channels[ch]) if channels[ch].any() or not heard else None

    def fixed(value, fmt):
        return "nan" if value is None else format(value, fmt)

    if metric == "t30":
        header = ("channel", "t30_s")
        rows = [(ch, fixed(each(lambda h: t30(schroeder_edc(h, fs)), ch), ".6f"))
                for ch in range(n_ch)]
    elif metric == "drr":
        header = ("channel", "drr_db")
        rows = [(ch, fixed(each(lambda h: drr(h, fs), ch), ".4f")) for ch in range(n_ch)]
    elif metric == "edc":
        curves = [each(lambda h: schroeder_edc(h, fs).values, ch) for ch in range(n_ch)]
        n = channels.shape[1]
        header = ("time_s", *(f"edc_db_ch{ch}" for ch in range(n_ch)))
        rows = [[f"{i / fs:.6f}"] + [fixed(None if c is None else c[i], ".4f") for c in curves]
                for i in range(n)]
    elif metric == "ned":
        profiles = [ned_per_frame(channels[ch], fs) for ch in range(n_ch)]
        times = profiles[0].times
        header = ("time_s", *(f"ned_ch{ch}" for ch in range(n_ch)))
        rows = [[f"{times[i]:.6f}"] + [f"{p.values[i]:.5f}" for p in profiles]
                for i in range(times.size)]
    elif metric == "dual-slope":
        header = ("channel", "slope1_db_per_s", "slope2_db_per_s",
                  "knee_time_s", "knee_level_db")
        rows = []
        for ch in range(n_ch):
            fit = each(lambda h: dual_slope_fit_per_knee(schroeder_edc(h, fs)), ch)
            values = (None,) * 4 if fit is None else (
                fit.slope1, fit.slope2, fit.knee_time, fit.knee_level)
            rows.append((ch, *(fixed(v, f) for v, f in zip(values, (".3f", ".3f", ".5f", ".2f")))))
    else:
        raise ValueError(metric)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
