"""WAV round-trip and command-line interface tests."""

import json
import os
import struct

import numpy as np
import pytest

from alodsim.cli import main
from alodsim.errors import SceneParseError
from alodsim.scene import parse_scene, preset, serialize_scene
from alodsim.wavio import read_wav, write_wav

FS = 44100.0


# ---------------------------------------------------------------------------
# WAV round trips
# ---------------------------------------------------------------------------

def _ramp(n=512):
    return np.linspace(-0.9, 0.9, n)


def test_wav_float32_round_trip(tmp_path):
    x = np.vstack([_ramp(), -_ramp()]).T  # stereo
    path = str(tmp_path / "f32.wav")
    write_wav(path, x, FS, fmt="float32")
    got, rate = read_wav(path)
    assert rate == FS
    assert got.shape == x.shape
    assert np.max(np.abs(got - x)) < 1e-7


def test_wav_pcm16_round_trip(tmp_path):
    x = _ramp()
    path = str(tmp_path / "p16.wav")
    write_wav(path, x, FS, fmt="pcm16")
    got, rate = read_wav(path)
    assert rate == FS
    assert got.shape == (x.size, 1)
    assert np.max(np.abs(got[:, 0] - x)) < 1.0 / 32768.0


def test_wav_pcm24_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.99, 0.99, size=(300, 2))
    path = str(tmp_path / "p24.wav")
    write_wav(path, x, 48000.0, fmt="pcm24")
    got, rate = read_wav(path)
    assert rate == 48000.0
    assert np.max(np.abs(got - x)) < 1.0 / (1 << 23)


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wave file at all, sorry")
    with pytest.raises(SceneParseError):
        read_wav(str(path))


def test_wav_rejects_unknown_format_name(tmp_path):
    with pytest.raises(SceneParseError):
        write_wav(str(tmp_path / "x.wav"), _ramp(), FS, fmt="pcm32")


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


def _wav_with_fmt(fmt_body: bytes) -> bytes:
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += b"data" + struct.pack("<I", 8) + bytes(8)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _layout_json(**fields) -> bytes:
    # five speakers around a listener at the origin, with fields replaced
    doc = {"positions": [[2, 0, 0], [0, 2, 0], [-2, 0, 0], [0, -2, 0], [0, 0, 2]]}
    return json.dumps({**doc, **fields}).encode()


_ARRAY_RENDER = ["simulate", "--preset", "pub", "--profile", "anechoic",
                 "--output-mode", "array", "--layout"]

# each case: (file name, file contents, CLI arguments reading the file)
_MALFORMED = {
    "scene is a JSON array": (
        "scene.json", b"[]", ["simulate", "--profile", "ism-15", "--scene"]),
    "non-numeric absorption": (
        "scene.json", _scene_with_absorption("abc").encode(),
        ["simulate", "--profile", "ism-15", "--scene"]),
    "WAV with 0 channels": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHIIHH", 1, 0, 44100, 0, 0, 16)),
        ["analyze", "--metrics", "t30", "--ir"]),
    "6-byte fmt chunk": (
        "ir.wav", _wav_with_fmt(struct.pack("<HHH", 1, 1, 0)),
        ["analyze", "--metrics", "t30", "--ir"]),
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
}


def test_cli_renders_the_base_layout_of_the_malformed_cases(tmp_path):
    (tmp_path / "layout.json").write_bytes(_layout_json())
    code = main(_ARRAY_RENDER + [str(tmp_path / "layout.json"), "--out", str(tmp_path / "out")])
    assert code == 0


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
def test_cli_prints_one_error_line_for_malformed_input(tmp_path, capsys, case):
    name, data, argv = _MALFORMED[case]
    (tmp_path / name).write_bytes(data)
    code = main(argv + [str(tmp_path / name), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
