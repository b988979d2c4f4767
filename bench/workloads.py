"""The three workloads: set-up, seeded inputs, one round of items, checks.

``tail`` and ``early`` render preset scenes; ``verify`` runs the analysis,
stimulus, matching and I/O path on synthetic impulse responses. Every check
compares an output with a computation made here or with a property the
method must have, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import struct

import numpy as np

from decay import dual_slope_noise, decaying_noise, edc_db, t30

RENDER_ITEMS = {
    # razr-full: the FDN tails dominate; ISM only to order 3
    "tail": (
        ("underground", "razr-full", "mono"),  # dual slope from two FDNs
        ("living-room", "razr-full", "binaural"),  # coupled rooms, cross-fed FDN
        ("pub", "razr-full", "array"),  # 86 channels, long tail streams
    ),
    # ism-15: 4991 image sources, ~100 render units, one VBAP call per tap
    "early": (
        ("living-room", "ism-15", "binaural"),
        ("living-room", "ism-15", "array"),
        ("pub", "ism-15", "binaural"),
        ("pub", "ism-15", "array"),
    ),
}

# The item rendered a second time for the determinism check: the shortest.
REPEAT_ITEM = {"tail": 2, "early": 1}

# Layers that do work in each workload. A traced pass in which one of them
# records no call fails, so a wrapper that never fires cannot pass silently.
ACTIVE_LAYERS = {
    "tail": ("scene", "ism", "fdn", "coupled", "synth", "spatial",
             "filterbank", "pipeline"),
    "early": ("scene", "ism", "coupled", "synth", "spatial", "filterbank",
              "pipeline"),
    "verify": ("filterbank", "analysis", "postproc", "stimuli", "wavio", "cli"),
}

# Source level drawn per item from the seed. It scales the outputs without
# changing the work, so timings and counts do not depend on the seed.
LEVEL_RANGE_DB = (-6.0, 6.0)


def setup(workload: str) -> dict:
    """Import alodsim and build the scenes, profiles, HRTF set and layout."""
    import alodsim

    if workload == "verify":
        import alodsim.cli  # noqa: F401 - brings in analysis, postproc, stimuli, wavio

        return {}
    items = RENDER_ITEMS[workload]
    return {
        "scenes": {name: alodsim.preset(name) for name, _, _ in items},
        "profiles": {name: alodsim.profile_preset(name) for _, name, _ in items},
        "hrtf": alodsim.synthetic_hrtf(),
        "layout": alodsim.array_preset_86(),
    }


def make(workload: str, built: dict, seed: int, workdir: str):
    if workload == "verify":
        return VerifyWorkload(seed, workdir)
    return RenderWorkload(workload, built, seed)


def _digest(channels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(channels).tobytes()).hexdigest()


def _arrival(envelope: np.ndarray) -> int:
    """Peak of the first event that reaches a tenth of the envelope's maximum."""
    onset = int(np.argmax(envelope >= 0.1 * envelope.max()))
    return onset + int(np.argmax(envelope[onset:onset + 8]))


@dataclasses.dataclass
class RenderItem:
    label: str
    scene: object
    profile: object
    mode: str


class RenderWorkload:
    """Preset scenes rendered one after another in a closed loop."""

    def __init__(self, workload: str, built: dict, seed: int):
        rng = np.random.default_rng(seed)
        self.hrtf = built["hrtf"]
        self.layout = built["layout"]
        self.items = []
        for scene_name, profile_name, mode in RENDER_ITEMS[workload]:
            scene = built["scenes"][scene_name]
            level = float(rng.uniform(*LEVEL_RANGE_DB))
            source = dataclasses.replace(scene.sources[0], level_db=level)
            scene = dataclasses.replace(scene, sources=(source,) + scene.sources[1:])
            self.items.append(RenderItem(f"{scene_name} {profile_name} {mode}",
                                         scene, built["profiles"][profile_name], mode))
        self.repeat = self.items[REPEAT_ITEM[workload]]
        self.repeat_digest = None

    def ops(self):
        return [(item.label, lambda item=item: self.render(item)) for item in self.items]

    def render(self, item):
        from alodsim import simulate

        return simulate(item.scene, item.profile, output_mode=item.mode,
                        hrtf=self.hrtf, layout=self.layout).ir

    def check(self, outputs: dict) -> list:
        failures = []
        for item in self.items:
            if item.label in outputs:
                failures += [f"{item.label}: {f}" for f in self.check_item(item, outputs[item.label])]
        if self.repeat.label in outputs and self.repeat_digest is None:
            self.repeat_digest = _digest(outputs[self.repeat.label].channels)
        return failures

    def check_item(self, item: RenderItem, ir) -> list:
        failures = []
        x, fs = ir.channels, ir.sample_rate
        want_channels = {"mono": 1, "binaural": 2, "array": self.layout.n_speakers}[item.mode]
        if x.shape[0] != want_channels:
            return [f"{x.shape[0]} channels, want {want_channels}"]
        scene = item.scene
        source, receiver = scene.sources[0], scene.receivers[0]
        # coupled scenes store the occluded path through the door
        single_room = scene.occluded_path_m is None
        if single_room:
            distance = float(np.linalg.norm(source.position - receiver.position))
        else:
            distance = float(scene.occluded_path_m)
        delay = distance / scene.speed_of_sound * fs
        if item.mode == "binaural":
            # each synthetic HRTF pair sits at a fixed latency of half its
            # length, shifted by -ITD/2 and +ITD/2 in the two ears
            delay += self.hrtf.filters.shape[2] // 2
            arrival = float(np.mean([_arrival(np.abs(ch)) for ch in x]))
        else:
            arrival = float(_arrival(np.sqrt(np.sum(x**2, axis=0))))
        if abs(arrival - delay) > 1.0:
            failures.append(f"first arrival at sample {arrival:.1f}, want {delay:.2f} +/- 1")
        if single_room and item.profile.fdn_enabled:
            target = scene.rooms[0].decay.broadband_t30
            measured = t30(np.sum(x**2, axis=0), fs)
            if abs(measured / target - 1.0) > 0.15:
                failures.append(f"T30 {measured:.3f} s, want {target:.3f} s +/- 15 %")
        if single_room and item.mode == "array":
            direct = float(np.sum(x[:, int(round(delay))] ** 2))
            want = (10.0 ** (source.level_db / 20.0) / distance) ** 2
            if abs(direct / want - 1.0) > 0.01:
                failures.append(f"direct energy {direct:.5f}, want {want:.5f} +/- 1 %")
        return failures

    def check_repeat(self) -> list:
        """Render the repeat item again; its output must be byte-identical."""
        if self.repeat_digest is None:
            return []
        if _digest(self.render(self.repeat).channels) != self.repeat_digest:
            return [f"{self.repeat.label}: second render differs from the first"]
        return []


FS = 44100.0
SWEEP = (100.0, 22050.0, 2.0)  # f1 Hz, f2 Hz, duration s
SWEEP_FADE_S = 5e-3  # the program's default fade at either end


def farina_sweep(f1: float, f2: float, duration: float, fs: float) -> np.ndarray:
    """Exponential sine sweep from its closed form, without fades."""
    t = np.arange(int(round(duration * fs))) / fs
    rate = math.log(f2 / f1)
    return np.sin(2.0 * math.pi * f1 * duration / rate * (np.exp(t * rate / duration) - 1.0))


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution along the last axis by zero-padded FFTs."""
    n = a.shape[-1] + b.shape[-1] - 1
    n_fft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft), n_fft)[..., :n]


def _as_float32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def read_float_wav(path: str) -> tuple:
    """(samples (n, channels), rate) of an IEEE float32 WAV, parsed here."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, payload = 12, None, None
    while pos + 8 <= len(data):
        chunk, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if chunk == b"fmt ":
            fmt = struct.unpack_from("<HHI", data, pos + 8)
        elif chunk == b"data":
            payload = data[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or fmt[0] != 3 or payload is None:
        raise ValueError(f"{path}: not an IEEE float WAV")
    _, channels, rate = fmt
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(-1, channels), float(rate)


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


class VerifyWorkload:
    """Analysis, stimuli, matching and WAV/CLI I/O on synthetic IRs."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        # two single-slope IRs, one per channel, 2 s each
        self.t60 = rng.uniform(0.4, 1.2, 2)
        self.single = np.stack([decaying_noise(rng, int(2.0 * FS), FS, t) for t in self.t60], axis=1)
        # a dual-slope IR, 3 s. The dual-slope fit's work grows with the
        # span from -5 to -60 dB, so the decay times vary only a little.
        self.t1 = float(rng.uniform(0.4, 0.5))
        self.t2 = float(rng.uniform(1.8, 2.2))
        self.knee_db = float(rng.uniform(-32.0, -28.0))
        self.dual = dual_slope_noise(rng, int(3.0 * FS), FS, self.t1, self.t2, self.knee_db)
        # a pair to match: the reference carries a spectral tilt of up to 2 dB per octave
        self.sim = decaying_noise(rng, int(1.0 * FS), FS, 0.5)
        ref = decaying_noise(rng, int(1.0 * FS), FS, 0.5)
        freqs = np.fft.rfftfreq(ref.size, 1.0 / FS)
        tilt = rng.uniform(-2.0, 2.0) / (20.0 * math.log10(2.0))
        self.ref = np.fft.irfft(np.fft.rfft(ref) * (np.maximum(freqs, 20.0) / 1000.0) ** tilt, ref.size)
        # a sparse IR recorded through an exponential sweep
        self.sparse = np.zeros(2000)
        taps = rng.choice(self.sparse.size, 5, replace=False)
        self.sparse[taps] = rng.uniform(0.2, 1.0, 5) * rng.choice((-1.0, 1.0), 5)
        self.sweep = farina_sweep(*SWEEP, FS)
        self.recording = _fft_convolve(self.sweep, self.sparse)
        # a multichannel signal for the WAV round trip
        self.roundtrip = rng.uniform(-1.0, 1.0, (int(0.5 * FS), 4))

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def ops(self):
        from alodsim import cli
        from alodsim.analysis import t30_bands
        from alodsim.stimuli import Stimulus, ess_deconvolve
        from alodsim.wavio import read_wav, write_wav

        def run_cli(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main([str(a) for a in argv])
            if status != 0:
                raise RuntimeError(f"alodsim {argv[0]} exited with status {status}")

        def roundtrip():
            write_wav(self.path("roundtrip.wav"), self.roundtrip, FS)
            return read_wav(self.path("roundtrip.wav"))

        p = self.path
        return [
            ("write single", lambda: write_wav(p("single.wav"), self.single, FS)),
            ("write dual", lambda: write_wav(p("dual.wav"), self.dual, FS)),
            ("write sim", lambda: write_wav(p("sim.wav"), self.sim, FS)),
            ("write ref", lambda: write_wav(p("ref.wav"), self.ref, FS)),
            ("analyze single", lambda: run_cli("analyze", "--ir", p("single.wav"),
                                               "--metrics", "t30", "--out", p("single.csv"))),
            ("analyze dual", lambda: run_cli("analyze", "--ir", p("dual.wav"), "--metrics",
                                             "edc,ned,dual-slope", "--out", p("dual.csv"))),
            ("stimulus pink-pulse", lambda: run_cli("stimulus", "pink-pulse", "--out", p("pulse.wav"))),
            ("stimulus sweep", lambda: run_cli("stimulus", "sweep", "--f1", SWEEP[0], "--f2", SWEEP[1],
                                               "--duration", SWEEP[2], "--out", p("sweep.wav"))),
            ("render", lambda: run_cli("render", "--ir", p("single.wav"), "--stim", p("pulse.wav"),
                                       "--normalize", "--out", p("rendered.wav"))),
            ("match", lambda: run_cli("match", "--sim", p("sim.wav"), "--ref", p("ref.wav"),
                                      "--out", p("matched.wav"))),
            ("t30 bands", lambda: t30_bands(_as_float32(self.single[:, 0]), FS)),
            ("sweep deconvolution", lambda: ess_deconvolve(
                self.recording, Stimulus(samples=self.sweep, sample_rate=FS, kind="ess"),
                SWEEP[0], SWEEP[1])),
            ("wav round trip", roundtrip),
        ]

    def check(self, outputs: dict) -> list:
        failures = []

        def fail(label, message):
            failures.append(f"{label}: {message}")

        p = self.path
        if "analyze single" in outputs:
            for ch, row in enumerate(_read_csv(p("single.csv"))):
                got = float(row[1])
                if abs(got / self.t60[ch] - 1.0) > 0.05:
                    fail("analyze single", f"channel {ch} T30 {got:.4f} s, built {self.t60[ch]:.4f} s +/- 5 %")
        if "analyze dual" in outputs:
            rows = _read_csv(p("dual-dual-slope.csv"))
            slope2, knee_level = float(rows[0][2]), float(rows[0][4])
            if abs(knee_level - self.knee_db) > 4.0:
                fail("analyze dual", f"knee {knee_level:.2f} dB, built {self.knee_db:.2f} dB +/- 4 dB")
            want = -60.0 / self.t2
            if abs(slope2 / want - 1.0) > 0.10:
                fail("analyze dual", f"late slope {slope2:.2f} dB/s, built {want:.2f} dB/s +/- 10 %")
            edc = np.array([float(r[1]) for r in _read_csv(p("dual-edc.csv"))])
            own = edc_db(_as_float32(self.dual) ** 2)
            keep = own > -100.0
            err = float(np.max(np.abs(edc[keep] - own[keep])))
            if edc.size != own.size or err > 1e-3:
                fail("analyze dual", f"EDC differs from the Schroeder integral by {err:.3g} dB")
            ned = np.array([[float(v) for v in r] for r in _read_csv(p("dual-ned.csv"))])
            level = float(np.median(ned[ned[:, 0] < 0.5, 1]))
            if abs(level - 1.0) > 0.1:
                fail("analyze dual", f"echo density of Gaussian noise {level:.3f}, want 1 +/- 0.1")
        if "stimulus pink-pulse" in outputs:
            pulse, _ = read_float_wav(p("pulse.wav"))
            pulse = pulse[:, 0]
            if abs(float(np.max(np.abs(pulse))) - 1.0) > 1e-6:
                fail("stimulus pink-pulse", "peak is not 0 dBFS")
            power = np.abs(np.fft.rfft(pulse)) ** 2
            freqs = np.fft.rfftfreq(pulse.size, 1.0 / FS)
            bands = np.array([power[(freqs >= c / math.sqrt(2.0)) & (freqs < c * math.sqrt(2.0))].sum()
                              for c in (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)])
            spread = 10.0 * np.log10(bands / bands.mean())
            if np.max(np.abs(spread)) > 0.5:
                fail("stimulus pink-pulse", f"octave energies {np.round(spread, 2)} dB, want flat +/- 0.5 dB")
        if "stimulus sweep" in outputs:
            sweep, _ = read_float_wav(p("sweep.wav"))
            want = farina_sweep(*SWEEP, FS)
            fade = int(round(SWEEP_FADE_S * FS))
            if sweep.shape[0] != want.size:
                fail("stimulus sweep", f"{sweep.shape[0]} samples, want {want.size}")
            elif np.max(np.abs(sweep[fade:-fade, 0] - want[fade:-fade])) > 1e-6:
                fail("stimulus sweep", "differs from the exponential sweep's closed form")
        if "render" in outputs and "stimulus pink-pulse" in outputs:
            rendered, _ = read_float_wav(p("rendered.wav"))
            pulse, _ = read_float_wav(p("pulse.wav"))
            want = _fft_convolve(_as_float32(self.single).T, pulse[:, 0])
            want *= 10.0 ** (-1.0 / 20.0) / np.max(np.abs(want))
            if rendered.shape != want.T.shape or np.max(np.abs(rendered - want.T)) > 1e-6:
                fail("render", "output is not the normalized convolution of IR and stimulus")
        if "match" in outputs:
            with open(p("matched.wav.report.json"), encoding="utf-8") as fh:
                residual = json.load(fh)["residual_mean_db"]
            if residual >= 0.5:
                fail("match", f"mean residual {residual:.3f} dB, want < 0.5 dB")
        if "t30 bands" in outputs:
            bands = outputs["t30 bands"]
            # noise makes the short low-band estimates scatter more
            tolerance = np.array([0.4, 0.4, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2])
            if np.any(np.abs(bands / self.t60[0] - 1.0) > tolerance):
                fail("t30 bands", f"{np.round(bands, 3)} s, built {self.t60[0]:.3f} s")
        if "sweep deconvolution" in outputs:
            n = self.sweep.size
            got = outputs["sweep deconvolution"].channels[0][n - 1:n - 1 + self.sparse.size]
            gain = float(got @ self.sparse / (self.sparse @ self.sparse))
            corr = float(got @ self.sparse / np.linalg.norm(got) / np.linalg.norm(self.sparse))
            if corr < 0.98 or abs(gain - 1.0) > 0.03:
                fail("sweep deconvolution", f"correlation {corr:.4f}, gain {gain:.4f} with the known IR")
        if "wav round trip" in outputs:
            want = _as_float32(self.roundtrip)
            for data, rate in (outputs["wav round trip"], read_float_wav(p("roundtrip.wav"))):
                if rate != FS or not np.array_equal(data, want):
                    fail("wav round trip", "float32 round trip is not exact")
        return failures

    def check_repeat(self) -> list:
        return []
