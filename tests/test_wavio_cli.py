"""WAV round-trip and command-line interface tests."""

import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import alodsim
from alodsim.cli import ANALYZE_METRICS, _write_columns, main
from alodsim.errors import AlodsimError, SceneParseError, SceneValidationError
from alodsim.scene import parse_scene, preset, serialize_scene
from alodsim.stimuli import BandLevels, pink_pulse_variant
from alodsim.wavio import read_wav, write_wav
from oracles import write_analysis_csv, write_columns_percent

FS = 44100.0


# ---------------------------------------------------------------------------
# WAV round trips
# ---------------------------------------------------------------------------

def _ramp(n=512):
    return np.linspace(-0.9, 0.9, n)


def _riff(fmt_body: bytes, rest: bytes) -> bytes:
    """A RIFF/WAVE file holding a fmt chunk followed by ``rest``."""
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + rest
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt(tag, channels, rate, bits) -> bytes:
    block_align = channels * bits // 8 & 0xFFFF
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block_align & 0xFFFFFFFF,
                       block_align, bits)


def _write(path, x, rate, fmt):
    """A WAV file of (n, channels) or (n,) samples: write_wav for float32, and
    for read_wav's PCM16/24 formats an encoder that clips to the largest code."""
    if fmt == "float32":
        return write_wav(path, x, rate)
    bits = {"pcm16": 16, "pcm24": 24}[fmt]
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    scale = float(1 << (bits - 1))
    ints = (np.clip(x, -1.0, (scale - 1.0) / scale) * scale).round().astype("<i4")
    # the low bytes of a little-endian int32 are its 16- or 24-bit two's complement
    payload = ints.view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()
    data = b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(_riff(_fmt(1, x.shape[1], int(rate), bits), data))


def test_wav_float32_round_trip(tmp_path):
    x = np.vstack([_ramp(), -_ramp()]).T  # stereo
    path = str(tmp_path / "f32.wav")
    write_wav(path, x, FS)
    got, rate = read_wav(path)
    assert rate == FS
    assert got.shape == x.shape
    assert np.max(np.abs(got - x)) < 1e-7


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
def test_write_wav_rejects_a_sample_that_is_not_finite_as_float32(tmp_path, value):
    path = tmp_path / "x.wav"
    with pytest.raises(SceneValidationError):
        write_wav(str(path), np.array([0.0, value, 0.5]), FS)
    assert not path.exists()  # raised before the file was opened
    write_wav(str(path), np.array([0.0, 3e38, -3e38]), FS)  # inside the range
    assert read_wav(str(path))[0][1, 0] == np.float32(3e38)


def test_write_wav_rejects_a_payload_beyond_the_riff_size_field(tmp_path):
    # 2^31 samples are 8 GiB of float32; the zero-stride view holds one
    path = tmp_path / "x.wav"
    with pytest.raises(SceneValidationError, match="RIFF size"):
        write_wav(str(path), np.broadcast_to(np.zeros((1, 1)), (2**30, 2)), FS)
    assert not path.exists()


def test_wav_pcm16_round_trip(tmp_path):
    x = _ramp()
    path = str(tmp_path / "p16.wav")
    _write(path, x, FS, "pcm16")
    got, rate = read_wav(path)
    assert rate == FS
    assert got.shape == (x.size, 1)
    assert np.max(np.abs(got[:, 0] - x)) < 1.0 / 32768.0


def test_wav_pcm24_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.99, 0.99, size=(300, 2))
    path = str(tmp_path / "p24.wav")
    _write(path, x, 48000.0, "pcm24")
    got, rate = read_wav(path)
    assert rate == 48000.0
    assert np.max(np.abs(got - x)) < 1.0 / (1 << 23)


# largest read-back error of a sample in [-1, 1] per format: half a float32
# ulp at 1; one PCM step, since +1 clips to the largest code
_QUANTUM = {"float32": 2.0**-24, "pcm16": 2.0**-15, "pcm24": 2.0**-23}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_QUANTUM)), st.integers(1, 4), st.integers(0, 300),
       st.integers(1, 192000), st.integers(0, 2**32 - 1))
def test_wav_round_trip_within_quantization(tmp_path_factory, fmt, channels, frames,
                                            rate, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (frames, channels))
    x[:1] = 1.0  # the clipped extreme
    path = str(tmp_path_factory.mktemp("wav") / "x.wav")
    _write(path, x, rate, fmt)
    got, got_rate = read_wav(path)
    assert got_rate == rate
    assert got.shape == x.shape
    assert np.all(np.abs(got - x) <= _QUANTUM[fmt])


# the subformat GUID of WAVE_FORMAT_EXTENSIBLE after its leading format tag
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_fmt(subtype, channels, rate, bits) -> bytes:
    """A WAVE_FORMAT_EXTENSIBLE fmt body (cbSize 22) of the given subformat tag."""
    return (_fmt(0xFFFE, channels, rate, bits) + struct.pack("<HHI", 22, bits, 0)
            + struct.pack("<H", subtype) + _KSDATAFORMAT_TAIL)


_EXTENSIBLE_VALUES = np.array([0.5, -0.25, 0.125])


def test_wav_rejects_extensible_int32_pcm(tmp_path):
    # read as float32 words, these samples came back as 2.0, -3.7e19 and 2.5e-29
    ints = (_EXTENSIBLE_VALUES * 2.0**31).astype("<i4").tobytes()
    path = tmp_path / "int32.wav"
    path.write_bytes(_riff(_extensible_fmt(1, 1, 44100, 32),
                           b"data" + struct.pack("<I", len(ints)) + ints))
    with pytest.raises(SceneParseError):
        read_wav(str(path))


def test_wav_reads_extensible_float32(tmp_path):
    floats = _EXTENSIBLE_VALUES.astype("<f4").tobytes()
    path = tmp_path / "float32.wav"
    path.write_bytes(_riff(_extensible_fmt(3, 1, 44100, 32),
                           b"data" + struct.pack("<I", len(floats)) + floats))
    samples, rate = read_wav(str(path))
    assert rate == 44100.0
    assert np.array_equal(samples[:, 0], _EXTENSIBLE_VALUES)


def _read_or_reject(tmp_path_factory, data: bytes) -> None:
    """read_wav either returns (frames, rate) or raises an AlodsimError."""
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    path.write_bytes(data)
    try:
        samples, rate = read_wav(str(path))
    except AlodsimError:
        return
    assert samples.ndim == 2 and samples.shape[1] >= 1
    assert rate > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 16), (1, 24), (3, 32), (0xFFFE, 16), (0xFFFE, 32)]),
       st.integers(1, 8), st.binary(max_size=400))
def test_wav_random_bytes_after_a_valid_header(tmp_path_factory, fmt, channels, rest):
    tag, bits = fmt
    _read_or_reject(tmp_path_factory, _riff(_fmt(tag, channels, 44100, bits), rest))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([1, 3, 0xFFFE]), st.integers(0, 0xFFFF)),
       st.integers(0, 0xFFFF), st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
       st.one_of(st.sampled_from([16, 24, 32]), st.integers(0, 0xFFFF)),
       st.integers(0, 64))
def test_wav_random_header_fields(tmp_path_factory, tag, channels, rate, bits, size):
    data = b"data" + struct.pack("<I", size) + bytes(range(size))
    _read_or_reject(tmp_path_factory, _riff(_fmt(tag, channels, rate, bits), data))


@pytest.mark.parametrize("fmt", ["float32", "pcm16", "pcm24"])
def test_cli_reads_the_whole_frames_of_a_truncated_wav(tmp_path, fmt):
    n = int(0.6 * FS)
    rng = np.random.default_rng(4)
    h = rng.standard_normal((n, 2)) * 10.0 ** (-3.0 * np.arange(n) / n)[:, None] * 0.5
    path = tmp_path / "ir.wav"
    _write(str(path), h, FS, fmt)
    full, _ = read_wav(str(path))
    path.write_bytes(path.read_bytes()[:-3])  # the data chunk still claims n frames
    got, _ = read_wav(str(path))
    assert np.array_equal(got, full[: n - 1])
    out = str(tmp_path / "t30.csv")
    assert main(["analyze", "--ir", str(path), "--metrics", "t30", "--out", out]) == 0


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wave file at all, sorry")
    with pytest.raises(SceneParseError):
        read_wav(str(path))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_presets_write_scenes(tmp_path, capsys):
    out_dir = str(tmp_path / "scenes")
    assert main(["presets", "--write-scenes", out_dir]) == 0
    names = ("living-room", "pub", "underground")
    for name in names:
        with open(os.path.join(out_dir, f"{name}.json"), encoding="utf-8") as fh:
            scene = parse_scene(fh.read())
        assert scene.name == name
    listed = capsys.readouterr().out
    assert "razr-full" in listed


def test_cli_stimulus_pink_pulse(tmp_path):
    path = str(tmp_path / "pulse.wav")
    assert main(["stimulus", "pink-pulse", "--out", path]) == 0
    data, rate = read_wav(path)
    assert rate == FS
    assert data.shape[0] == int(0.5 * FS)


def test_cli_stimulus_pink_pulse_with_band_offsets(tmp_path):
    offsets = (6.0, 0.0, -6.0, 0.0, 6.0, 6.0, -6.0, 0.0, 0.0, -6.0)
    path = str(tmp_path / "variant.wav")
    assert main(["stimulus", "pink-pulse", "--band-offsets", ",".join(map(str, offsets)),
                 "--out", path]) == 0
    data, rate = read_wav(path)
    want = pink_pulse_variant(BandLevels(offsets_db=offsets))
    assert rate == want.sample_rate
    assert np.array_equal(data[:, 0], want.samples.astype(np.float32))


def test_cli_stimulus_sweep(tmp_path):
    path = str(tmp_path / "sweep.wav")
    assert main(["stimulus", "sweep", "--duration", "1.0", "--out", path]) == 0
    data, rate = read_wav(path)
    assert data.shape[0] == int(1.0 * rate)


def test_cli_stimulus_sweep_duration_defaults_per_kind(tmp_path):
    explicit = str(tmp_path / "short.wav")
    assert main(["stimulus", "sweep", "--duration", "0.5", "--out", explicit]) == 0
    data, _ = read_wav(explicit)
    assert data.shape[0] == 22050
    default = str(tmp_path / "default.wav")
    assert main(["stimulus", "sweep", "--out", default]) == 0
    data, rate = read_wav(default)
    assert data.shape[0] == int(round(3.2 * rate))


def test_cli_simulate_manifest_and_determinism(tmp_path):
    out_a = str(tmp_path / "a.wav")
    out_b = str(tmp_path / "b.wav")
    argv = ["simulate", "--preset", "living-room", "--profile", "ism-15",
            "--duration", "0.3", "--output-mode", "mono", "--seed", "7"]
    assert main(argv + ["--out", out_a]) == 0
    assert main(argv + ["--out", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()

    with open(out_a + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["tool"] == "alodsim"
    assert manifest["scene_name"] == "living-room"
    assert manifest["profile"] == "ism-15"
    assert manifest["seed"] == 7
    assert len(manifest["scene_sha256"]) == 64
    assert manifest["outputs"][0]["path"] == out_a
    assert len(manifest["outputs"][0]["sha256"]) == 64
    assert "t30_s" in manifest["metrics"] or manifest["metrics"]

    with open(out_b + ".manifest.json", encoding="utf-8") as fh:
        manifest_b = json.load(fh)
    assert manifest_b["outputs"][0]["sha256"] == manifest["outputs"][0]["sha256"]


def test_cli_anechoic_manifest_has_no_t30(tmp_path):
    # the direct sound alone: its EDC falls from -5 to -35 dB within one
    # sample, too few to fit a line through
    out = str(tmp_path / "pub.wav")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--preset", "pub", "--profile", "anechoic",
                     "--output-mode", "binaural", "--out", out]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["metrics"]["t30_s"] is None


def test_cli_simulate_scene_file(tmp_path):
    scene_dir = str(tmp_path / "scenes")
    main(["presets", "--write-scenes", scene_dir])
    out = str(tmp_path / "scene.wav")
    argv = ["simulate", "--scene", os.path.join(scene_dir, "pub.json"),
            "--profile", "razr-1st", "--duration", "0.3",
            "--output-mode", "mono", "--out", out]
    assert main(argv) == 0
    data, rate = read_wav(out)
    assert data.shape[1] == 1 and data.shape[0] > 0


def test_cli_simulate_uses_the_scene_files_own_seed(tmp_path):
    scene = tmp_path / "pub7.json"
    scene.write_bytes(_scene_with("seed", value=7))
    common = ["--profile", "razr-full", "--duration", "0.3", "--output-mode", "mono"]
    outs = {name: str(tmp_path / f"{name}.wav") for name in ("file", "preset", "zero")}
    assert main(["simulate", "--scene", str(scene), *common, "--out", outs["file"]]) == 0
    assert main(["simulate", "--preset", "pub", "--seed", "7", *common,
                 "--out", outs["preset"]]) == 0
    assert main(["simulate", "--scene", str(scene), "--seed", "0", *common,
                 "--out", outs["zero"]]) == 0
    manifests = {}
    for name, out in outs.items():
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            manifests[name] = json.load(fh)
    assert manifests["file"]["seed"] == 7 and manifests["zero"]["seed"] == 0
    sha = {name: m["outputs"][0]["sha256"] for name, m in manifests.items()}
    assert sha["file"] == sha["preset"] != sha["zero"]


def test_cli_analyze_multiple_metrics(tmp_path):
    ir_path = str(tmp_path / "ir.wav")
    rng = np.random.default_rng(2)
    n = int(1.0 * FS)
    h = rng.standard_normal(n) * 10.0 ** (-60.0 * np.arange(n) / FS / 0.5 / 20.0)
    write_wav(ir_path, h, FS)
    out = str(tmp_path / "metrics.csv")
    assert main(["analyze", "--ir", ir_path, "--metrics", "t30,drr",
                 "--out", out]) == 0
    base, ext = os.path.splitext(out)
    with open(f"{base}-t30{ext}", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "channel,t30_s"
    assert abs(float(lines[1].split(",")[1]) - 0.5) < 0.05
    assert os.path.exists(f"{base}-drr{ext}")


def test_cli_analyze_single_metric_keeps_name(tmp_path):
    ir_path = str(tmp_path / "ir.wav")
    h = np.zeros(2000)
    h[10] = 1.0
    write_wav(ir_path, h, FS)
    out = str(tmp_path / "drr.csv")
    assert main(["analyze", "--ir", ir_path, "--metrics", "drr",
                 "--out", out]) == 0
    assert os.path.exists(out)


def test_cli_analyze_writes_every_metric_that_succeeds(tmp_path, capsys):
    # a lone impulse per channel, as in an anechoic render: the EDC falls
    # past -35 dB within one sample, so T30 and the dual-slope fit fail
    ir_path = str(tmp_path / "ir.wav")
    h = np.zeros((2000, 2))
    h[10] = 1.0
    write_wav(ir_path, h, FS)
    out = str(tmp_path / "an.csv")
    code = main(["analyze", "--ir", ir_path, "--metrics", "edc,t30,drr,dual-slope",
                 "--out", out])
    assert code == 1
    assert os.path.exists(str(tmp_path / "an-edc.csv"))
    assert os.path.exists(str(tmp_path / "an-drr.csv"))
    assert not os.path.exists(str(tmp_path / "an-t30.csv"))
    assert not os.path.exists(str(tmp_path / "an-dual-slope.csv"))
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"wrote {tmp_path / 'an-edc.csv'}",
                                         f"wrote {tmp_path / 'an-drr.csv'}"]
    assert captured.err == ("error: t30: fewer than two EDC samples in the fit span; "
                            "dual-slope: no admissible knee position\n")


def test_cli_analyze_removes_the_csv_of_a_metric_that_now_fails(tmp_path, capsys):
    decay = str(tmp_path / "decay.wav")
    n = int(0.5 * FS)
    write_wav(decay, np.random.default_rng(4).standard_normal(n)
              * 10.0 ** (-60.0 * np.arange(n) / FS / 0.3 / 20.0), FS)
    impulse = str(tmp_path / "impulse.wav")  # no decay to fit a T30 to
    h = np.zeros(2000)
    h[10] = 1.0
    write_wav(impulse, h, FS)
    out = str(tmp_path / "st.csv")
    assert main(["analyze", "--ir", decay, "--metrics", "edc,t30", "--out", out]) == 0
    assert os.path.exists(str(tmp_path / "st-t30.csv"))
    capsys.readouterr()
    assert main(["analyze", "--ir", impulse, "--metrics", "edc,t30", "--out", out]) == 1
    # the files on disk are the ones the second run reports
    assert sorted(os.listdir(tmp_path)) == ["decay.wav", "impulse.wav", "st-edc.csv"]
    with open(str(tmp_path / "st-edc.csv"), encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + h.size
    assert capsys.readouterr().err.startswith("error: t30: ")


def test_cli_analyze_reads_nan_for_a_silent_channel_beside_heard_ones(tmp_path):
    # an array render leaves the loudspeakers no direction reaches silent;
    # such a channel has no decay, and the other channels are still measured
    ir_path = str(tmp_path / "ir.wav")
    n = int(0.5 * FS)
    decay = np.random.default_rng(5).standard_normal(n) * 10.0 ** (-3.0 * np.arange(n) / FS / 0.3)
    h = np.stack([decay, np.zeros(n), 0.5 * decay], axis=1)
    write_wav(ir_path, h, FS)
    out = str(tmp_path / "m.csv")
    assert main(["analyze", "--ir", ir_path, "--metrics", "t30,edc,drr,dual-slope",
                 "--out", out]) == 0
    for metric in ("t30", "drr", "dual-slope"):
        with open(str(tmp_path / f"m-{metric}.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        assert all(v == "nan" for v in rows[1][1:]), metric
        assert not any(v == "nan" for row in (rows[0], rows[2]) for v in row), metric
    with open(str(tmp_path / "m-edc.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "edc_db_ch0", "edc_db_ch1", "edc_db_ch2"] and len(rows) == 1 + n
    assert all(row[2] == "nan" and row[1] != "nan" for row in rows[1:])


def test_cli_analyze_checks_every_metric_name_first(tmp_path, capsys):
    ir_path = str(tmp_path / "ir.wav")
    write_wav(ir_path, np.exp(-np.arange(4000) / 500.0), FS)
    out = str(tmp_path / "an.csv")
    assert main(["analyze", "--ir", ir_path, "--metrics", "edc,rt60", "--out", out]) == 1
    assert sorted(os.listdir(tmp_path)) == ["ir.wav"]
    err = capsys.readouterr().err
    assert err.startswith("error: unknown metric 'rt60'")
    assert err.count("\n") == 1


_CSV_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _rounding_cases():
    """Values whose last decimal a scaled product rounds wrongly, or nearly."""
    ties = [(k + 0.5) / 10.0**n for n in range(2, 7)
            for k in (*range(200), 1234, 99_999, 123_456_789, 2**40)]
    dyadic = [k / 2.0**m for m in range(1, 9) for k in range(1, 3 * 2**m, 2)]  # 0.03125 ...
    values = np.array([*ties, *dyadic, -2.745, 1e17, -1e20, 5e-324, 2.0**53, 1e300])
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    return np.concatenate([values, -values]).tolist()


_CSV_FORMATS = ("%.6f", "%.4f", "%.5f", "%.2f", "%.3f", "%d")
_ROUNDING = _rounding_cases()
_CSV_VALUES = st.one_of(_CSV_FLOATS, st.sampled_from(_ROUNDING))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(_CSV_VALUES, _CSV_VALUES, st.sampled_from(
    [0.0, -0.0, -1e-9, -4e-5, -5e-5, 4.99999e-5, 5e-5, -120.0]), _CSV_VALUES, _CSV_VALUES,
    st.integers(-2**63, 2**63 - 1)), max_size=30),
       block=st.integers(1, 7))
@example(rows=[(v, v, v, v, v, i) for i, v in enumerate(_ROUNDING)], block=4096)
@example(rows=[(np.nan, v, np.nan, np.inf, -np.inf, -i) for i, v in enumerate(_ROUNDING[:50])],
         block=16)
def test_write_columns_equals_csv_writer(tmp_path_factory, rows, block):
    path = tmp_path_factory.mktemp("csv")
    header = ("a", "b", "c", "d", "e", "f")
    columns = tuple(np.array([r[i] for r in rows], dtype=float) for i in range(5)) + (
        np.array([r[5] for r in rows], dtype=np.int64),)
    with pytest.MonkeyPatch.context() as mp:  # rows that span several blocks
        mp.setattr(alodsim.cli, "CSV_BLOCK_ROWS", block)
        _write_columns(str(path / "got.csv"), header, _CSV_FORMATS, columns)
    with open(path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + [
            [fmt % v for fmt, v in zip(_CSV_FORMATS, r)] for r in rows])
    write_columns_percent(str(path / "percent.csv"), header, _CSV_FORMATS, columns, block)
    got = (path / "got.csv").read_bytes()
    assert got == (path / "want.csv").read_bytes()
    assert got == (path / "percent.csv").read_bytes()


def _two_slope_channels(rng, n_channels, n, fs):
    """Gaussian noise under the sum of two exponential energy decays, per channel."""
    t = np.arange(n) / fs
    out = np.empty((n, n_channels))
    for ch in range(n_channels):
        t1, t2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 2.0)
        level = 10.0 ** (rng.uniform(-40.0, -10.0) / 10.0)
        energy = 10.0 ** (-6.0 * t / t1) + level * 10.0 ** (-6.0 * t / t2)
        out[:, ch] = rng.standard_normal(n) * np.sqrt(energy)
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n_channels=st.integers(1, 3), seconds=st.floats(0.3, 2.0),
       seed=st.integers(0, 2**32 - 1), silent=st.sets(st.integers(0, 2)))
def test_cli_analyze_csv_bytes_equal_the_oracle(tmp_path_factory, n_channels, seconds, seed,
                                                silent):
    # a silent channel, as an array render leaves a loudspeaker, reads nan
    fs = 8000.0
    path = tmp_path_factory.mktemp("analyze")
    ir_path = str(path / "ir.wav")
    h = _two_slope_channels(np.random.default_rng(seed), n_channels, int(seconds * fs), fs)
    h[:, [ch for ch in silent if ch < n_channels]] = 0.0
    write_wav(ir_path, h, fs)
    code = main(["analyze", "--ir", ir_path, "--metrics", ",".join(ANALYZE_METRICS),
                 "--out", str(path / "m.csv")])
    channels = read_wav(ir_path)[0].T
    failed = 0
    for metric in ANALYZE_METRICS:
        got = path / f"m-{metric}.csv"
        try:
            write_analysis_csv(metric, channels, fs, str(path / "want.csv"))
        except AlodsimError:
            failed += 1
            assert not got.exists()
            continue
        assert got.read_bytes() == (path / "want.csv").read_bytes(), metric
    assert code == (1 if failed else 0)


def test_cli_edc_csv_prints_negative_zero_as_csv_writer_did(tmp_path):
    # the backward sum's first value lands a rounding error below the total
    h = _two_slope_channels(np.random.default_rng(0), 2, 4000, 8000.0)
    write_wav(str(tmp_path / "ir.wav"), h, 8000.0)
    out = tmp_path / "edc.csv"
    assert main(["analyze", "--ir", str(tmp_path / "ir.wav"), "--metrics", "edc",
                 "--out", str(out)]) == 0
    write_analysis_csv("edc", read_wav(str(tmp_path / "ir.wav"))[0].T, 8000.0,
                       str(tmp_path / "want.csv"))
    assert b",-0.0000" in out.read_bytes()
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cli_render_normalize(tmp_path):
    ir_path = str(tmp_path / "ir.wav")
    h = np.zeros(500)
    h[0] = 2.0
    write_wav(ir_path, h, FS)
    stim_path = str(tmp_path / "stim.wav")
    main(["stimulus", "pink-pulse", "--duration", "0.2", "--out", stim_path])
    out = str(tmp_path / "rendered.wav")
    assert main(["render", "--ir", ir_path, "--stim", stim_path,
                 "--normalize", "--out", out]) == 0
    data, _ = read_wav(out)
    peak = np.max(np.abs(data))
    assert abs(peak - 10.0 ** (-1.0 / 20.0)) < 1e-3


def test_cli_match_report(tmp_path):
    rng = np.random.default_rng(3)
    n = int(0.5 * FS)
    ref = rng.standard_normal(n) * 10.0 ** (-60.0 * np.arange(n) / FS / 0.4 / 20.0)
    sim = ref * 1.0  # identical spectra: residual should be tiny
    ref_path = str(tmp_path / "ref.wav")
    sim_path = str(tmp_path / "sim.wav")
    write_wav(ref_path, ref, FS)
    write_wav(sim_path, sim, FS)
    out = str(tmp_path / "matched.wav")
    assert main(["match", "--sim", sim_path, "--ref", ref_path,
                 "--out", out]) == 0
    with open(out + ".report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["residual_mean_db"] < 0.1
    assert report["clamped"] is False
    assert os.path.exists(out)


def _decaying_noise(path, seed=3):
    n = int(0.5 * FS)
    write_wav(path, np.random.default_rng(seed).standard_normal(n)
              * 10.0 ** (-60.0 * np.arange(n) / FS / 0.4 / 20.0), FS)


# each case: CLI arguments that name one file twice; sim.wav and ref.wav exist
_ONE_PATH_TWICE = {
    "simulate --manifest same.wav": ["simulate", "--preset", "pub", "--profile", "anechoic",
                                     "--out", "same.wav", "--manifest", "same.wav"],
    "simulate --manifest ./same.wav": ["simulate", "--preset", "pub", "--profile", "anechoic",
                                       "--out", "same.wav", "--manifest", "./same.wav"],
    "match --report m.wav": ["match", "--sim", "sim.wav", "--ref", "ref.wav",
                             "--out", "m.wav", "--report", "m.wav"],
}


@pytest.mark.parametrize("case", sorted(_ONE_PATH_TWICE))
def test_cli_rejects_two_outputs_at_one_path_before_writing(tmp_path, capsys, monkeypatch,
                                                             case):
    monkeypatch.chdir(tmp_path)
    _decaying_noise("sim.wav")
    _decaying_noise("ref.wav", seed=4)
    assert main(_ONE_PATH_TWICE[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "would overwrite" in err and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["ref.wav", "sim.wav"]


# each case: CLI arguments whose output names one of their own input files;
# s.json, l.json, ir.wav, p.wav, sim.wav, ref.wav and o-edc.csv (an IR WAV)
# exist, and link.json is a symbolic link to s.json
_MONO_SCENE = ["simulate", "--scene", "s.json", "--profile", "anechoic", "--output-mode", "mono"]
_INPUT_AS_OUTPUT = {
    "simulate --out s.json": [*_MONO_SCENE, "--out", "s.json"],
    "simulate --out ./s.json": [*_MONO_SCENE, "--out", "./s.json"],
    "simulate --out link.json": [*_MONO_SCENE, "--out", "link.json"],
    "simulate --scene link.json --out s.json": [*_MONO_SCENE[:2], "link.json", *_MONO_SCENE[3:],
                                                "--out", "s.json"],
    "simulate --manifest s.json": [*_MONO_SCENE, "--out", "o.wav", "--manifest", "s.json"],
    "simulate --out l.json": ["simulate", "--preset", "pub", "--profile", "anechoic",
                              "--output-mode", "array", "--layout", "l.json", "--out", "l.json"],
    "simulate --manifest l.json": ["simulate", "--preset", "pub", "--profile", "anechoic",
                                   "--output-mode", "array", "--layout", "l.json",
                                   "--out", "o.wav", "--manifest", "l.json"],
    "render --out ir.wav": ["render", "--ir", "ir.wav", "--stim", "p.wav", "--out", "ir.wav"],
    "render --out p.wav": ["render", "--ir", "ir.wav", "--stim", "p.wav", "--out", "p.wav"],
    "match --out sim.wav": ["match", "--sim", "sim.wav", "--ref", "ref.wav", "--out", "sim.wav"],
    "match --report ref.wav": ["match", "--sim", "sim.wav", "--ref", "ref.wav",
                               "--out", "m.wav", "--report", "ref.wav"],
    "analyze --out ir.wav": ["analyze", "--ir", "ir.wav", "--metrics", "t30", "--out", "ir.wav"],
    "analyze --ir o-edc.csv --out o.csv": ["analyze", "--ir", "o-edc.csv",
                                           "--metrics", "t30,edc", "--out", "o.csv"],
}


@pytest.mark.parametrize("case", sorted(_INPUT_AS_OUTPUT))
def test_cli_rejects_an_output_at_an_input_path_before_reading(tmp_path, capsys, monkeypatch,
                                                                case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(serialize_scene(preset("pub")))
    (tmp_path / "l.json").write_bytes(_layout_json())
    os.symlink("s.json", tmp_path / "link.json")
    for name, seed in (("ir.wav", 3), ("sim.wav", 3), ("ref.wav", 4), ("o-edc.csv", 5)):
        _decaying_noise(name, seed=seed)
    write_wav("p.wav", pink_pulse_variant(BandLevels(offsets_db=(0.0,) * 10)).samples, FS)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(_INPUT_AS_OUTPUT[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "would overwrite the input" in err
    assert err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def _files_under(path):
    return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}


@pytest.mark.parametrize("via", ["--hrtf", "ALODSIM_HRTF_DIR"])
@pytest.mark.parametrize("out", ["--out h/h0.wav", "--out h/sub/h0.wav",
                                 "--manifest h/index.txt"])
def test_cli_rejects_an_output_at_a_file_of_the_hrtf_directory(tmp_path, capsys, monkeypatch,
                                                               via, out):
    # the index also names a file in a subdirectory, which the set reads too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h" / "sub").mkdir(parents=True)
    write_wav("h/h0.wav", np.eye(64, 2), FS)
    write_wav("h/sub/h0.wav", np.eye(64, 2), FS)
    (tmp_path / "h" / "index.txt").write_text(_FIVE_ROWS.replace("a.wav", "h0.wav")
                                              + "0 -90 sub/h0.wav\n")
    before = _files_under(tmp_path / "h")
    argv = ["simulate", "--preset", "pub", "--profile", "anechoic", "--output-mode", "binaural",
            *(["--out", "o.wav"] if out.startswith("--manifest") else []), *out.split()]
    if via == "--hrtf":
        argv += ["--hrtf", "h"]
    else:
        monkeypatch.setenv("ALODSIM_HRTF_DIR", str(tmp_path / "h"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "would overwrite the input" in err
    assert err.count("\n") == 1
    assert _files_under(tmp_path / "h") == before
    assert sorted(os.listdir(tmp_path)) == ["h"]


# each case: the file that every index row names, and the output path at it
_HRTF_FILES_OUTSIDE = {
    "above the directory": ("../x.wav", "x.wav"),
    "absolute": ("ABS/x.wav", "x.wav"),
    "behind a symlinked subdirectory": ("link/h0.wav", "other/h0.wav"),
}


@pytest.mark.parametrize("case", sorted(_HRTF_FILES_OUTSIDE))
def test_cli_rejects_an_output_at_a_file_the_hrtf_index_names_outside_its_directory(
        tmp_path, capsys, monkeypatch, case):
    # the set reads each row's file joined to the directory, wherever it lies
    name, out = _HRTF_FILES_OUTSIDE[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h").mkdir()
    (tmp_path / "other").mkdir()
    os.symlink("../other", tmp_path / "h" / "link")
    write_wav("x.wav", np.eye(64, 2), FS)
    write_wav("other/h0.wav", np.eye(64, 2), FS)
    (tmp_path / "h" / "index.txt").write_text(
        _FIVE_ROWS.replace("a.wav", name.replace("ABS", str(tmp_path))))
    before = _files_under(tmp_path)
    assert main(["simulate", "--preset", "pub", "--profile", "anechoic", "--output-mode",
                 "binaural", "--hrtf", "h", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "would overwrite the input" in err
    assert err.count("\n") == 1
    assert _files_under(tmp_path) == before


def test_simulate_holds_a_30_s_mono_render_in_a_few_times_its_output(tmp_path):
    # the WAV hashed in chunks, the peak read with no |x| copy, the float32
    # frames written from their own buffer and the EDC built in place
    argv = ["simulate", "--preset", "pub", "--profile", "razr-full", "--output-mode", "mono"]
    assert main(argv + ["--duration", "1", "--out", str(tmp_path / "warm.wav")]) == 0  # caches
    tracemalloc.start()
    try:
        assert main(argv + ["--duration", "30", "--out", str(tmp_path / "long.wav")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = json.loads((tmp_path / "long.wav.manifest.json").read_text())["metrics"]["n_samples"]
    assert n > 30 * FS
    assert peak <= 3.5 * 8 * n, f"peak {peak / (8 * n):.2f} x the output"


def test_cli_match_removes_its_wav_when_the_report_cannot_be_written(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    _decaying_noise("sim.wav")
    _decaying_noise("ref.wav", seed=4)
    (tmp_path / "DIR").mkdir()
    assert main(["match", "--sim", "sim.wav", "--ref", "ref.wav", "--out", "m.wav",
                 "--report", "DIR"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DIR: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["DIR", "ref.wav", "sim.wav"]


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 19.8 GiB for an array with shape (86, 30870000) and data type float64",
     "error: Unable to allocate 19.8 GiB for an array with shape (86, 30870000) and data type "
     "float64\n"),
    ("", "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_cli_prints_one_error_line_for_an_output_it_cannot_allocate(tmp_path, capsys,
                                                                    monkeypatch, message, line):
    # 700 s of an 86-channel render in a 2.4 GiB address space
    def simulate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(alodsim.cli, "simulate", simulate)
    assert main(["simulate", "--preset", "pub", "--profile", "razr-full", "--output-mode",
                 "array", "--duration", "700", "--out", str(tmp_path / "o.wav")]) == 1
    assert capsys.readouterr().err == line
    assert os.listdir(tmp_path) == []


def test_cli_analyze_runs_every_metric_past_a_csv_that_cannot_be_written(tmp_path, capsys):
    ir_path = str(tmp_path / "ir.wav")
    _decaying_noise(ir_path)
    (tmp_path / "o-ned.csv").mkdir()
    code = main(["analyze", "--ir", ir_path, "--metrics", "edc,ned,drr",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert sorted(os.listdir(tmp_path)) == ["ir.wav", "o-drr.csv", "o-edc.csv", "o-ned.csv"]
    assert not os.listdir(tmp_path / "o-ned.csv")
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"wrote {tmp_path / 'o-edc.csv'}",
                                         f"wrote {tmp_path / 'o-drr.csv'}"]
    assert captured.err == f"error: ned: {tmp_path / 'o-ned.csv'}: Is a directory\n"


def test_cli_error_path(tmp_path, capsys):
    out = str(tmp_path / "x.wav")
    code = main(["simulate", "--scene", str(tmp_path / "missing.json"),
                 "--profile", "ism-15", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# malformed input ends as an AlodsimError, which the CLI prints on one line
# ---------------------------------------------------------------------------

def _scene_with_absorption(value) -> str:
    doc = json.loads(serialize_scene(preset("living-room")))
    doc["rooms"][0]["absorption"] = value
    return json.dumps(doc)


def _scene_with(*path, value, scene="pub") -> bytes:
    # scenes/<scene>.json with the value at path (keys and list indices) set
    doc = json.loads(serialize_scene(preset(scene)))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(doc).encode()


def _wav_with_fmt(fmt_body: bytes, data: bytes = bytes(8)) -> bytes:
    return _riff(fmt_body, b"data" + struct.pack("<I", len(data)) + data)


def _layout_json(**fields) -> bytes:
    # five speakers around a listener at the origin, with fields replaced
    doc = {"positions": [[2, 0, 0], [0, 2, 0], [-2, 0, 0], [0, -2, 0], [0, 0, 2]]}
    return json.dumps({**doc, **fields}).encode()


_ARRAY_RENDER = ["simulate", "--preset", "pub", "--profile", "anechoic",
                 "--output-mode", "array", "--layout"]
_SCENE_RENDER = ["simulate", "--profile", "razr-full", "--output-mode", "mono",
                 "--duration", "0.3", "--scene"]
_SIMPLE_RENDER = [*_SCENE_RENDER[:2], "razr-simple", *_SCENE_RENDER[3:]]
# stim.wav: a valid stimulus that the test writes beside the case's file
_RENDER = ["render", "--stim", "stim.wav", "--ir"]

# each case: (file name, file contents, CLI arguments reading the file)
_MALFORMED = {
    "scene is a JSON array": (
        "scene.json", b"[]", ["simulate", "--profile", "ism-15", "--scene"]),
    "non-numeric absorption": (
        "scene.json", _scene_with_absorption("abc").encode(),
        ["simulate", "--profile", "ism-15", "--scene"]),
    "scene with a string sample rate": (
        "scene.json", _scene_with("sample_rate", value="x"), _SCENE_RENDER),
    "scene with speed of sound 0": (
        "scene.json", _scene_with("speed_of_sound", value=0), _SCENE_RENDER),
    "scene with a string source level": (
        "scene.json", _scene_with("sources", 0, "level_db", value="loud"), _SCENE_RENDER),
    "scene with sample rate 0, rendered anechoic": (
        "scene.json", _scene_with("sample_rate", value=0),
        ["simulate", "--profile", "anechoic", "--output-mode", "mono", "--scene"]),
    "scene with occluded path 0": (
        "scene.json", _scene_with("occluded_path_m", value=0), _SCENE_RENDER),
    "scene with a negative seed": (
        "scene.json", _scene_with("seed", value=-1), _SCENE_RENDER),
    "scene file rendered with a negative --seed": (
        "scene.json", _scene_with("seed", value=7),
        [*_SCENE_RENDER[:-1], "--seed", "-1", "--scene"]),
    "scene nested 100000 lists deep": (
        "scene.json", b"[" * 100000 + b"]" * 100000, _SCENE_RENDER),
    "scene with a misspelt source key": (
        "scene.json", _scene_with("sources", 0, "level_dB", value=-20), _SCENE_RENDER),
    "scene with a misspelt room key": (
        "scene.json", _scene_with("rooms", 0, "volume_overide", value=1), _SCENE_RENDER),
    # 0.3 s at 1e12 Hz: FDN lines of 3e11 samples (26.2 TiB)
    "scene with sample rate 1e12": (
        "scene.json", _scene_with("sample_rate", value=1e12), _SCENE_RENDER),
    # the mean free path, and with it the tail onset, runs to 1e10 m (28.5 TiB)
    "scene with a room volume of 1e12 m^3": (
        "scene.json", _scene_with("rooms", 0, "volume_override", value=1e12), _SCENE_RENDER),
    # razr-simple renders no second slope, so only the scene can reject these
    "scene with a second slope from -10 dB, rendered razr-simple": (
        "scene.json", _scene_with("rooms", 0, "decay", "second_slope",
                                      value={"t30_2": 1.4, "onset_level_db": -10.0}),
        _SIMPLE_RENDER),
    "scene with a second slope faster than the primary, rendered razr-simple": (
        "scene.json", _scene_with("rooms", 0, "decay", "second_slope",
                                      value={"t30_2": 0.5, "onset_level_db": -40.0}),
        _SIMPLE_RENDER),
    "scene with a T30 target of 1e-6 s": (
        "scene.json", _scene_with("rooms", 0, "decay", "t30_bands", value=1e-6),
        _SCENE_RENDER),
    # squaring its linear gain would overflow a float
    "scene with a source level of 4000 dB": (
        "scene.json", _scene_with("sources", 0, "level_db", value=4000),
        ["simulate", "--profile", "ism-15", "--output-mode", "mono", "--scene"]),
    "scene with a source beyond the float32 range": (
        "scene.json", _scene_with("sources", 0, "level_db", value=800),
        ["simulate", "--profile", "ism-15", "--output-mode", "mono", "--scene"]),
    "IR of 3e38 whose render exceeds the float32 range": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 3, 1, 44100, 176400, 4, 32),
                                np.full(3, 3e38, "<f4").tobytes()),
        _RENDER),
    "empty IR WAV, rendered": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 3, 1, 44100, 176400, 4, 32), b""),
        _RENDER),
    "WAV with 0 channels": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 1, 0, 44100, 0, 0, 16)),
        ["analyze", "--metrics", "t30", "--ir"]),
    "WAV with sample rate 0": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 3, 1, 0, 0, 4, 32),
                                np.exp(-np.arange(4000) / 500.0).astype("<f4").tobytes()),
        ["analyze", "--metrics", "t30", "--ir"]),
    "WAV with a NaN sample, analyzed": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 3, 1, 44100, 176400, 4, 32),
                                np.array([1.0, np.nan, 0.5, 0.25], "<f4").tobytes()),
        ["analyze", "--metrics", "edc,drr", "--ir"]),
    "6-byte fmt chunk": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHH", 1, 1, 0)),
        ["analyze", "--metrics", "t30", "--ir"]),
    "coupled scene without an occluded path length": (
        "scene.json", _scene_with("occluded_path_m", value=None, scene="living-room"),
        _SCENE_RENDER),
    "aperture center off the wall the two rooms share": (
        "scene.json", _scene_with("apertures", 0, "center", value=[4.0, 3.0, 1.0],
                                  scene="living-room"),
        _SCENE_RENDER),
    "receiver at the source position, rendered ism-15": (
        "scene.json", _scene_with("receivers", 0, "position",
                                  value=preset("pub").sources[0].position.tolist()),
        ["simulate", "--profile", "ism-15", "--output-mode", "mono", "--scene"]),
    "receiver orientation of norm 2": (
        "scene.json", _scene_with("receivers", 0, "orientation", value=[2.0, 0.0, 0.0]),
        _SCENE_RENDER),
    "all-zero IR, analyzed for DRR": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 3, 1, 44100, 176400, 4, 32),
                                np.zeros(4000, "<f4").tobytes()),
        ["analyze", "--metrics", "drr", "--ir"]),
    # stim.wav, the valid stimulus, serves as the IR here
    "stimulus with a sample at 2.0, rendered": (
        "loud.wav", _wav_with_fmt(struct.pack("<HHIIHH", 3, 1, 44100, 176400, 4, 32),
                                  np.array([0.5, 2.0, 0.25], "<f4").tobytes()),
        ["render", "--ir", "stim.wav", "--stim"]),
    "layout without positions": (
        "layout.json", b'{"center": [0, 0, 0]}', _ARRAY_RENDER),
    "layout with non-numeric positions": (
        "layout.json", b'{"positions": [[1, 0, 0], ["a", 1, 0], [0, 0, 1]]}', _ARRAY_RENDER),
    "layout with non-numeric center": (
        "layout.json", _layout_json(center=["a", 0, 0]), _ARRAY_RENDER),
    "layout with non-numeric calibration gains": (
        "layout.json", _layout_json(calibration_gains=["a", 1, 1, 1, 1]), _ARRAY_RENDER),
    "layout with non-numeric calibration delays": (
        "layout.json", _layout_json(calibration_delays=[0, 0, 0, 0, "a"]), _ARRAY_RENDER),
    "layout with 3 positions": (
        "layout.json", _layout_json(positions=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), _ARRAY_RENDER),
    "layout with a speaker at the listener": (
        "layout.json", _layout_json(center=[0, 0, 2]), _ARRAY_RENDER),
    "layout with coplanar positions": (
        "layout.json", _layout_json(positions=[[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]),
        _ARRAY_RENDER),
    # json reads NaN and Infinity as floats
    "layout with a NaN calibration delay": (
        "layout.json", _layout_json(calibration_delays=[float("nan"), 0, 0, 0, 0]),
        _ARRAY_RENDER),
    "layout with an infinite calibration delay": (
        "layout.json", _layout_json(calibration_delays=[float("inf"), 0, 0, 0, 0]),
        _ARRAY_RENDER),
    "layout nested 100000 lists deep": (
        "layout.json", b"[" * 100000 + b"]" * 100000, _ARRAY_RENDER),
    "layout with a misspelt calibration key": (
        "layout.json", _layout_json(calibration_gain=[0, 0, 0, 0, 0]), _ARRAY_RENDER),
    "layout with an empty calibration list": (
        "layout.json", _layout_json(calibration_gains=[]), _ARRAY_RENDER),
    "layout with calibration gains 0": (
        "layout.json", _layout_json(calibration_gains=0), _ARRAY_RENDER),
    "layout with calibration delays as an object": (
        "layout.json", _layout_json(calibration_delays={}), _ARRAY_RENDER),
    "layout with a NaN position": (
        "layout.json", _layout_json(positions=[[float("nan"), 0, 0], [0, 2, 0], [-2, 0, 0],
                                               [0, -2, 0], [0, 0, 2]]),
        _ARRAY_RENDER),
}


# each case: (the index.txt of an HRTF directory whose WAV files are valid,
# what the error line names)
_FIVE_ROWS = "".join(f"{az} {el} a.wav\n" for az, el in
                     ((0, 0), (90, 0), (180, 0), (270, 0), (0, 90)))
_MALFORMED_HRTF_INDEX = {
    "row with two fields": ("0 0\n", "line 1"),
    "row with four fields": ("# azimuth elevation file\n0 0 a.wav extra\n", "line 2"),
    "non-numeric azimuth": ("left 0 a.wav\n", "line 1"),
    "NaN azimuth among five valid rows": ("nan 0 a.wav\n" + _FIVE_ROWS, "line 1"),
    "infinite elevation": (_FIVE_ROWS + "0 inf a.wav\n", "line 6"),
    "only comments": ("# azimuth elevation file\n\n", "lists no HRTF files"),
    "stereo files with no frame": (_FIVE_ROWS.replace("a.wav", "empty.wav"), "at least 1 tap"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_HRTF_INDEX))
def test_cli_prints_one_error_line_for_a_malformed_hrtf_index(tmp_path, capsys, case):
    index, named = _MALFORMED_HRTF_INDEX[case]
    write_wav(str(tmp_path / "a.wav"), np.eye(64, 2), FS)
    write_wav(str(tmp_path / "empty.wav"), np.zeros((0, 2)), FS)
    (tmp_path / "index.txt").write_text(index)
    code = main(["simulate", "--preset", "pub", "--profile", "anechoic",
                 "--output-mode", "binaural", "--hrtf", str(tmp_path),
                 "--out", str(tmp_path / "out.wav")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1


def test_cli_renders_with_the_base_hrtf_directory_of_the_malformed_cases(tmp_path):
    write_wav(str(tmp_path / "a.wav"), np.eye(64, 2), FS)
    (tmp_path / "index.txt").write_text(_FIVE_ROWS)
    assert main(["simulate", "--preset", "pub", "--profile", "anechoic",
                 "--output-mode", "binaural", "--hrtf", str(tmp_path),
                 "--out", str(tmp_path / "out.wav")]) == 0


# each case: a valid text file, the CLI arguments that read it; the test
# writes the file in UTF-16, which starts with the bytes ff fe
_TEXT_FILES = {
    "scene": ("scene.json", serialize_scene(preset("pub")), [*_SCENE_RENDER, "scene.json"]),
    "layout": ("layout.json", _layout_json().decode(), [*_ARRAY_RENDER, "layout.json"]),
    "HRTF index": ("index.txt", _FIVE_ROWS, ["simulate", "--preset", "pub", "--profile",
                                            "anechoic", "--output-mode", "binaural",
                                            "--hrtf", "."]),
}


@pytest.mark.parametrize("case", sorted(_TEXT_FILES))
def test_cli_prints_one_error_line_naming_a_text_file_that_is_not_utf8(tmp_path, capsys,
                                                                        monkeypatch, case):
    name, text, argv = _TEXT_FILES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(text.encode("utf-16"))
    assert main(argv + ["--out", "out.wav"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{name}: byte 0 is not UTF-8" in err
    assert os.listdir(tmp_path) == [name]


# each case: CLI arguments in which DIR names an empty directory and FILE a file
_UNUSABLE_PATHS = {
    "simulate --out DIR": ["simulate", "--preset", "pub", "--profile", "anechoic",
                           "--out", "DIR"],
    "simulate --scene DIR": ["simulate", "--scene", "DIR", "--profile", "anechoic",
                             "--out", "out.wav"],
    "simulate --manifest DIR": ["simulate", "--preset", "pub", "--profile", "anechoic",
                                "--manifest", "DIR", "--out", "out.wav"],
    "analyze --ir DIR": ["analyze", "--ir", "DIR", "--metrics", "t30", "--out", "out.csv"],
    "stimulus pink-pulse --out DIR": ["stimulus", "pink-pulse", "--out", "DIR"],
    "presets --write-scenes FILE": ["presets", "--write-scenes", "FILE"],
}


@pytest.mark.parametrize("case", sorted(_UNUSABLE_PATHS))
def test_cli_prints_one_error_line_for_a_directory_or_unwritable_path(tmp_path, capsys,
                                                                       monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_bytes(b"")
    assert main(_UNUSABLE_PATHS[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {case[-4:].strip()}: ") and err.count("\n") == 1
    # the manifest case wrote its WAV first, and removed it
    assert sorted(os.listdir(tmp_path)) == ["DIR", "FILE"] and not os.listdir("DIR")


def test_cli_renders_the_base_layout_of_the_malformed_cases(tmp_path):
    (tmp_path / "layout.json").write_bytes(_layout_json())
    code = main(_ARRAY_RENDER + [str(tmp_path / "layout.json"), "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_silences_a_channel_delayed_past_the_whole_ir(tmp_path):
    # 5 ms is 220 samples; the anechoic pub IR is 126 samples long, and its
    # direct sound reaches the frontal speaker 0 alone
    renders = []
    for name, delays in (("plain", None), ("delayed", [5e-3, 0, 0, 0, 0])):
        layout, out = tmp_path / f"{name}.json", tmp_path / f"{name}.wav"
        layout.write_bytes(_layout_json(calibration_delays=delays))
        assert main(_ARRAY_RENDER + [str(layout), "--out", str(out)]) == 0
        renders.append(read_wav(str(out))[0])
    plain, delayed = renders
    assert plain.shape == delayed.shape == (126, 5)
    assert plain[:, 0].any() and not delayed[:, 0].any()
    assert np.array_equal(plain[:, 1:], delayed[:, 1:])
    # the manifest reports no T30 for the silent IR instead of failing
    manifest = json.loads((tmp_path / "delayed.wav.manifest.json").read_text())
    assert manifest["metrics"]["peak"] == 0.0 and manifest["metrics"]["t30_s"] is None


def test_parse_scene_rejects_a_json_array():
    with pytest.raises(SceneParseError):
        parse_scene("[]")


def test_parse_scene_rejects_non_numeric_absorption():
    with pytest.raises(SceneParseError):
        parse_scene(_scene_with_absorption("abc"))


def test_wav_rejects_zero_channels(tmp_path):
    name, data, _ = _MALFORMED["WAV with 0 channels"]
    (tmp_path / name).write_bytes(data)
    with pytest.raises(SceneParseError):
        read_wav(str(tmp_path / name))


def test_wav_rejects_a_truncated_fmt_chunk(tmp_path):
    name, data, _ = _MALFORMED["6-byte fmt chunk"]
    (tmp_path / name).write_bytes(data)
    with pytest.raises(SceneParseError):
        read_wav(str(tmp_path / name))


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_prints_one_error_line_for_malformed_input(tmp_path, capsys, monkeypatch, case):
    name, data, argv = _MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    write_wav("stim.wav", np.hanning(1000), FS)
    (tmp_path / name).write_bytes(data)
    code = main(argv + [str(tmp_path / name), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# each case: CLI arguments with one malformed value
_MALFORMED_ARGUMENTS = {
    "pink pulse of NaN seconds": ["stimulus", "pink-pulse", "--duration", "nan"],
    "pink pulse of -1 s": ["stimulus", "pink-pulse", "--duration", "-1"],
    "pink pulse of 0 s": ["stimulus", "pink-pulse", "--duration", "0"],
    "pink pulse shorter than one sample": ["stimulus", "pink-pulse", "--duration", "1e-5"],
    "pink pulse at a NaN rate": ["stimulus", "pink-pulse", "--rate", "nan"],
    "pink pulse at an infinite rate": ["stimulus", "pink-pulse", "--rate", "inf"],
    "sweep at an infinite rate": ["stimulus", "sweep", "--rate", "inf"],
    "sweep of NaN seconds": ["stimulus", "sweep", "--duration", "nan"],
    "sweep of 0 s": ["stimulus", "sweep", "--duration", "0"],
    "sweep of -1 s": ["stimulus", "sweep", "--duration", "-1"],
    "non-numeric band offset": ["stimulus", "pink-pulse", "--band-offsets", "0,0,x"],
    "razr-full render of NaN seconds": ["simulate", "--preset", "pub", "--profile", "razr-full",
                                        "--output-mode", "mono", "--duration", "nan"],
    "razr-full render of infinite seconds": ["simulate", "--preset", "pub", "--profile",
                                             "razr-full", "--output-mode", "mono",
                                             "--duration", "inf"],
    "ism-15 render of -1 s": ["simulate", "--preset", "pub", "--profile", "ism-15",
                              "--output-mode", "mono", "--duration", "-1"],
    "ism-15 render of NaN seconds": ["simulate", "--preset", "pub", "--profile", "ism-15",
                                     "--output-mode", "mono", "--duration", "nan"],
    "anechoic render of 0 s": ["simulate", "--preset", "pub", "--profile", "anechoic",
                               "--output-mode", "mono", "--duration", "0"],
    # each of these would allocate TiB before the sample-count bound
    "razr-full render of 1e7 s": ["simulate", "--preset", "pub", "--profile", "razr-full",
                                  "--output-mode", "mono", "--duration", "1e7"],
    "sweep of 1e7 s": ["stimulus", "sweep", "--duration", "1e7"],
    "pink pulse of 1e7 s": ["stimulus", "pink-pulse", "--duration", "1e7"],
    # the WAV header holds a whole number of Hz in 32 bits, and so the byte rate
    "sweep at 5e9 Hz": ["stimulus", "sweep", "--rate", "5e9", "--duration", "2e-9",
                        "--f1", "1", "--f2", "1e6"],
    "sweep at 44100.7 Hz": ["stimulus", "sweep", "--rate", "44100.7", "--duration", "0.01"],
    "pink pulse at 4000 Hz": ["stimulus", "pink-pulse", "--rate", "4000"],
    "pink pulse of 10 ms": ["stimulus", "pink-pulse", "--duration", "0.01"],
    "simulate without --scene or --preset": ["simulate", "--profile", "anechoic"],
    "unknown --source": ["simulate", "--preset", "pub", "--profile", "anechoic",
                         "--source", "nope"],
    # the named layout is built before the render rejects its duration
    "86-preset array render of 0 s": ["simulate", "--preset", "pub", "--profile", "anechoic",
                                      "--output-mode", "array", "--layout", "86-preset",
                                      "--duration", "0"],
    "no metric between the commas": ["analyze", "--ir", "ir.wav", "--metrics", ","],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ARGUMENTS))
def test_cli_prints_one_error_line_for_a_malformed_argument(tmp_path, capsys, case):
    out = tmp_path / "out.wav"
    assert main(_MALFORMED_ARGUMENTS[case] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _scipy_modules_after(code: str, cwd) -> list:
    """The scipy modules loaded in a fresh interpreter after running ``code``,
    which may print lines of its own before the probe's last one."""
    probe = (code + "; import sys; "
             "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(alodsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_scipy_signal_or_stats(tmp_path):
    # no scipy module at all: scipy.fft, .ndimage and .spatial each cost
    # about 0.5 s of every CLI run's start-up, as they share scipy._lib
    assert _scipy_modules_after("import alodsim.cli", tmp_path) == []


@pytest.mark.parametrize("mode", ["binaural", "array"])
def test_cli_loads_no_scipy_module_in_binaural_or_array_mode(tmp_path, mode):
    # the array render triangulates the 86-speaker layout with numpy alone
    argv = ["simulate", "--preset", "pub", "--profile", "anechoic",
            "--output-mode", mode, "--out", "out.wav"]
    loaded = _scipy_modules_after(f"from alodsim.cli import main; assert main({argv!r}) == 0",
                                  tmp_path)
    assert loaded == []
