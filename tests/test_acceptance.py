"""End-to-end acceptance checks.

Each test covers one numbered criterion and writes a single PASS/FAIL line
with the measured values directly to the terminal (capture suspended), so a
plain ``pytest -v`` run shows the full scorecard.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from alodsim import preset, profile_preset, simulate
from alodsim.analysis import dual_slope_fit, ned, schroeder_edc, t30
from alodsim.coupled import _door_source, coupled_parts, single_room_ir
from alodsim.filterbank import OCTAVE_CENTERS_8, band_energies, band_masks
from alodsim.ism import enumerate_images
from alodsim.pipeline import render_output
from alodsim.postproc import match_spectrum
from alodsim.scene import RoomSpec
from alodsim.spatial import (
    ImpulseResponse,
    array_preset_86,
    diotic_array,
    frontal_speaker_index,
    vbap_gains,
)
from alodsim.stimuli import _envelope_db, ess_deconvolve, ess_generate, pink_pulse

from conftest import RENDER_TIMES, first_arrival

FS = 44100.0


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True, end="")


# ---------------------------------------------------------------------------
# 1. image-source positions and counts vs a brute-force mirror oracle
# ---------------------------------------------------------------------------

def _mirror_oracle(dims, source, max_order):
    """Breadth-first reflection across the six wall planes."""
    dims = np.asarray(dims, float)
    found = {tuple(np.round(np.asarray(source, float), 9)): 0}
    frontier = [np.asarray(source, float)]
    for depth in range(1, max_order + 1):
        nxt = []
        for pos in frontier:
            for axis in range(3):
                for plane in (0.0, dims[axis]):
                    p = pos.copy()
                    p[axis] = 2.0 * plane - p[axis]
                    key = tuple(np.round(p, 9))
                    if key not in found:
                        found[key] = depth
                        nxt.append(p)
        frontier = nxt
    return found


def test_criterion_01_image_source_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    positions_ok = True
    for _ in range(50):
        dims = rng.uniform(2.0, 10.0, 3)
        src = rng.uniform(0.1, 0.9, 3) * dims
        room = RoomSpec(id="r", dims=dims, absorption=0.3, scattering=0.1)
        got = sorted(tuple(np.round(p, 9))
                     for p in enumerate_images(room, src, 4).position)
        want = sorted(_mirror_oracle(dims, src, 4))
        positions_ok = positions_ok and got == want

    room = RoomSpec(id="c", dims=(4.0, 3.0, 2.5), absorption=0.3, scattering=0.1)
    src = np.array([1.0, 1.2, 1.1])
    totals = {n: len(enumerate_images(room, src, n)) for n in (1, 3, 15)}
    counts_ok = totals == {1: 7, 3: 63, 15: 4991}
    by_order = enumerate_images(room, src, 4)
    per_order_ok = all(
        sum(1 for order in by_order.order if order == n) == 4 * n * n + 2
        for n in range(1, 5)
    )
    elapsed = time.perf_counter() - t0
    ok = positions_ok and counts_ok and per_order_ok and elapsed < 1.0
    _report(capsys, 1, ok, f"50 rooms match oracle to 1e-9, counts {totals}, "
                   f"per-order 4n^2+2, {elapsed:.2f} s")
    assert ok


# ---------------------------------------------------------------------------
# 2. broadband T30 vs published targets, one scene per preset
# ---------------------------------------------------------------------------

def test_criterion_02_reverberation_time(capsys, living_masker_mono, pub_full_mono,
                                         underground_full_mono):
    cases = (
        ("living-room", living_masker_mono, 0.54, "living-masker-full"),
        ("pub", pub_full_mono, 0.70, "pub-full"),
        ("underground", underground_full_mono, 1.60, "underground-full"),
    )
    details = []
    ok = True
    for name, result, target, time_key in cases:
        est = t30(schroeder_edc(result.ir.channels[0], result.ir.sample_rate))
        err = (est - target) / target
        render_s = RENDER_TIMES.get(time_key, 0.0)
        ok = ok and abs(err) < 0.15 and render_s < 30.0
        details.append(f"{name} {est:.3f}s ({err:+.1%}, {render_s:.1f}s)")
    _report(capsys, 2, ok, "T30 " + ", ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 3. spectral matching under random octave coloration
# ---------------------------------------------------------------------------

def test_criterion_03_spectral_matching(capsys, living_masker_mono):
    ir = living_masker_mono.ir
    h = ir.channels[0]
    fs = ir.sample_rate
    n_fft = 1 << (h.size - 1).bit_length()
    masks = band_masks(n_fft, fs, OCTAVE_CENTERS_8)
    worst = 0.0
    ok = True
    for seed in (3, 11, 42):
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-6.0, 6.0, len(OCTAVE_CENTERS_8))
        gain = np.einsum("b,bk->k", 10.0 ** (offsets / 20.0), masks)
        colored = np.fft.irfft(np.fft.rfft(h, n=n_fft) * gain, n=n_fft)[: h.size]
        ref = ImpulseResponse(channels=colored[None, :], sample_rate=fs)
        _corrected, _fir, report = match_spectrum(ir, ref)
        worst = max(worst, report.residual_mean_db)
        ok = ok and report.residual_mean_db < 0.5
    _report(capsys, 3, ok, f"mean third-octave residual <= {worst:.3f} dB "
                   f"(3 colorations, limit 0.5 dB)")
    assert ok


# ---------------------------------------------------------------------------
# 4. echo-density ordering in the underground preset
# ---------------------------------------------------------------------------

def _trimmed_ned(samples, fs):
    start = int(np.argmax(np.abs(samples) > 0.05 * np.max(np.abs(samples))))
    return ned(samples[start:], fs)


def test_criterion_04_echo_density_ordering(capsys, underground_full_mono,
                                            underground_ism15_mono):
    fs = underground_full_mono.ir.sample_rate
    full = _trimmed_ned(underground_full_mono.ir.channels[0], fs)
    ism = _trimmed_ned(underground_ism15_mono.ir.channels[0], fs)
    n = min(full.values.size, ism.values.size)
    sel = (full.times[:n] >= 0.020) & (full.times[:n] <= 0.080)
    frac = float(np.mean(full.values[:n][sel] >= ism.values[:n][sel]))
    ok = frac >= 0.9
    _report(capsys, 4, ok, f"razr-full NED >= ism-15 NED at {frac:.0%} of "
                   f"20-80 ms windows (need >= 90%)")
    assert ok


# ---------------------------------------------------------------------------
# 5. dual-slope decay in the underground preset
# ---------------------------------------------------------------------------

def test_criterion_05_dual_slope(capsys, underground_full_mono, underground_simple_mono):
    fs = underground_full_mono.ir.sample_rate
    fit = dual_slope_fit(schroeder_edc(underground_full_mono.ir.channels[0], fs))
    knee_ok = abs(fit.knee_level - (-40.0)) <= 5.0

    simple = dual_slope_fit(schroeder_edc(underground_simple_mono.ir.channels[0], fs))
    ratio = abs(simple.slope1 - simple.slope2) / abs(simple.slope1)
    simple_ok = ratio < 0.15
    ok = knee_ok and simple_ok
    _report(capsys, 5, ok, f"razr-full knee {fit.knee_level:.1f} dB (target -40+/-5), "
                   f"razr-simple slope mismatch {ratio:.3f} (limit 0.15)")
    assert ok


# ---------------------------------------------------------------------------
# 6. two-stage coupling: arrival time and unit-signature identity
# ---------------------------------------------------------------------------

def test_criterion_06_two_stage_coupling(capsys, living_scene):
    profile = profile_preset("razr-full")
    source = next(s for s in living_scene.sources if s.id != "masker")
    receiver = living_scene.receivers[0].position
    duration = 1.2
    fs = living_scene.sample_rate

    listener = living_scene.receivers[0]
    two = coupled_parts(living_scene, profile, source, listener, duration,
                        np.random.SeedSequence([42]))[0]
    mono = render_output(two, "mono", listener).channels[0]
    idx = first_arrival(mono, fs)
    expected = 5.7 / living_scene.speed_of_sound * fs
    arrival_ok = abs(idx - expected) <= 1.0

    unit = replace(two, signature=np.array([1.0]))
    stage2_seed = np.random.SeedSequence([42]).spawn(2)[1]
    door = _door_source(living_scene.apertures[0], receiver)
    ref = single_room_ir(living_scene, profile, door, receiver,
                         living_scene.room_of(receiver), duration, stage2_seed)
    a = render_output(unit, "mono", listener).channels[0]
    b = render_output(ref, "mono", listener).channels[0]
    n = min(a.size, b.size)
    diff = float(np.max(np.abs(a[:n] - b[:n])))
    identity_ok = diff < 1e-10 and not (np.any(a[n:]) or np.any(b[n:]))

    ok = arrival_ok and identity_ok
    _report(capsys, 6, ok, f"first arrival {idx} vs {expected:.1f} samples (+/-1), "
                   f"unit-signature max deviation {diff:.1e} (limit 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 7. VBAP gain contracts on the 86-speaker preset
# ---------------------------------------------------------------------------

def test_criterion_07_vbap(capsys, living_scene):
    layout = array_preset_86()
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst_norm = max(abs(float(np.sum(vbap_gains(d, layout) ** 2)) - 1.0)
                     for d in dirs)
    norm_ok = worst_norm < 1e-9

    coincident_ok = True
    for i in range(layout.directions.shape[0]):
        g = vbap_gains(layout.directions[i], layout)
        active = np.flatnonzero(np.abs(g) > 1e-9)
        coincident_ok = coincident_ok and active.tolist() == [i]

    mid = layout.directions[0] + layout.directions[1]
    g = vbap_gains(mid / np.linalg.norm(mid), layout)
    pair = np.sort(g[np.abs(g) > 1e-9])
    mid_ok = (pair.size == 2
              and np.max(np.abs(pair - 1.0 / np.sqrt(2.0))) < 1e-6)

    ok = norm_ok and coincident_ok and mid_ok
    _report(capsys, 7, ok, f"sum g^2 error <= {worst_norm:.1e} over 10^4 directions, "
                   f"86/86 coincident single-channel, midpoint pair 1/sqrt(2)")
    assert ok


# ---------------------------------------------------------------------------
# 8. diotic contracts
# ---------------------------------------------------------------------------

def test_criterion_08_diotic(capsys, living_scene):
    scene = replace(living_scene, rng_seed=1)
    res = simulate(scene, profile_preset("razr-full"),
                   source_id="masker", output_mode="diotic", duration=0.4)
    headphone_ok = (res.ir.n_channels == 2
                    and np.array_equal(res.ir.channels[0], res.ir.channels[1]))

    layout = array_preset_86()
    mono = simulate(scene, profile_preset("razr-full"),
                    source_id="masker", output_mode="mono", duration=0.4)
    d = diotic_array(mono.ir, layout)
    active = np.flatnonzero(np.any(d.channels != 0.0, axis=1))
    frontal = frontal_speaker_index(layout)
    array_ok = (active.tolist() == [frontal]
                and np.array_equal(d.channels[frontal], mono.ir.channels[0]))

    ok = headphone_ok and array_ok
    _report(capsys, 8, ok, f"headphone channels bit-identical: {headphone_ok}, "
                   f"array diotic active channels {active.tolist()} "
                   f"(frontal = {frontal}) carrying the mono render: {array_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 9. pink pulse
# ---------------------------------------------------------------------------

def test_criterion_09_pink_pulse(capsys):
    p = pink_pulse()
    length_ok = p.samples.size == int(0.5 * FS)
    db = 10.0 * np.log10(band_energies(p.samples, FS))
    interior = db[1:-1]
    spread = float(np.max(np.abs(interior - interior.mean())))
    flat_ok = spread < 0.5
    env_36 = float(_envelope_db(p.samples, FS)[int(0.036 * FS)])
    env_ok = env_36 <= -60.0
    ok = length_ok and flat_ok and env_ok
    _report(capsys, 9, ok, f"500 ms, interior bands flat within +/-{spread:.3f} dB "
                   f"(limit 0.5), envelope {env_36:.1f} dBFS at 36 ms")
    assert ok


# ---------------------------------------------------------------------------
# 10. swept-sine deconvolution
# ---------------------------------------------------------------------------

def test_criterion_10_sweep_pipeline(capsys):
    sweep = ess_generate()
    h = ess_deconvolve(sweep.samples, sweep).channels[0]
    peak_idx = int(np.argmax(np.abs(h)))
    peak = float(np.abs(h[peak_idx]))
    guard = int(0.01 * sweep.sample_rate)
    artifact = np.abs(np.concatenate([h[: max(peak_idx - guard, 0)],
                                      h[peak_idx + guard:]]))
    ratio = 20.0 * np.log10(peak / float(np.max(artifact)))
    ok = ratio >= 60.0
    _report(capsys, 10, ok, f"self-deconvolution peak-to-artifact {ratio:.1f} dB "
                    f"(need >= 60)")
    assert ok


# ---------------------------------------------------------------------------
# 11. estimator accuracy on synthetic signals
# ---------------------------------------------------------------------------

def test_criterion_11_estimators(capsys):
    worst = 0.0
    for i, t60_true in enumerate(np.linspace(0.3, 3.0, 20)):
        rng = np.random.default_rng(100 + i)
        n = int(1.4 * t60_true * FS)
        t = np.arange(n) / FS
        h = rng.standard_normal(n) * 10.0 ** (-60.0 * t / t60_true / 20.0)
        est = t30(schroeder_edc(h, FS))
        worst = max(worst, abs(est - t60_true) / t60_true)
    t30_ok = worst <= 0.04

    noise = np.random.default_rng(0).standard_normal(int(FS))
    center = ned(noise, FS).values[5:-5]
    ned_val = float(center.mean())
    ned_ok = 0.9 <= ned_val <= 1.1

    ok = t30_ok and ned_ok
    _report(capsys, 11, ok, f"T30 worst error {worst:.1%} over 20 seeds (limit 4%), "
                    f"Gaussian NED {ned_val:.3f} (range 0.9-1.1)")
    assert ok


# ---------------------------------------------------------------------------
# 12. determinism and render performance
# ---------------------------------------------------------------------------

def test_criterion_12_determinism_and_speed(capsys, living_scene):
    profile = profile_preset("razr-full")
    seeded = replace(living_scene, rng_seed=3)
    a = simulate(seeded, profile, source_id="masker",
                 output_mode="mono", duration=0.5)
    b = simulate(seeded, profile, source_id="masker",
                 output_mode="mono", duration=0.5)
    det_ok = a.ir.channels.tobytes() == b.ir.channels.tobytes()

    t0 = time.perf_counter()
    simulate(living_scene, profile, output_mode="binaural", duration=2.0)
    elapsed = time.perf_counter() - t0
    speed_ok = elapsed < 10.0

    ok = det_ok and speed_ok
    _report(capsys, 12, ok, f"repeat render byte-identical: {det_ok}, "
                    f"2 s binaural razr-full in {elapsed:.1f} s (limit 10 s)")
    assert ok
