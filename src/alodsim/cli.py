"""Command-line front end.

Subcommands: simulate, analyze, stimulus, render, match, presets. All
commands exit 0 on success; failures print a single ``error: ...`` line to
stderr and exit nonzero. Runs are deterministic given (scene, profile,
seed, version); each simulate run writes a JSON manifest alongside the WAV.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    DualSlopeFit,
    drr,
    dual_slope_fit,
    ned,
    schroeder_edc,
    t30,
)
from .errors import (
    AlodsimError,
    InsufficientDecayError,
    SceneParseError,
    SceneValidationError,
)
from .pipeline import simulate
from .postproc import match_spectrum
from .scene import (
    OUTPUT_MODES,
    parse_document,
    parse_scene,
    preset,
    preset_names,
    profile_names,
    profile_preset,
    read_text,
    serialize_scene,
)
from .spatial import ImpulseResponse, LoudspeakerLayout, array_preset_86, hrtf_index, load_hrtf_dir
from .stimuli import (
    BandLevels,
    Stimulus,
    convolve,
    ess_generate,
    pink_pulse,
    pink_pulse_variant,
)
from .wavio import read_wav, write_wav

HRTF_ENV_VAR = "ALODSIM_HRTF_DIR"
ANALYZE_METRICS = ("t30", "edc", "ned", "drr", "dual-slope")
CSV_BLOCK_ROWS = 4096  # rows formatted per write
_CSV_TEXTS = ((np.isnan, b"nan"), (np.isposinf, b"inf"), (np.isneginf, b"-inf"))
# _CSV_DIGITS[j, i]: the ASCII code of digit j, counted from the right, of i < 10**4
_CSV_DIGITS = (np.arange(10_000) // 10 ** np.arange(4)[:, None] % 10 + ord("0")).astype(np.uint8)


def _check_outputs(outputs, *inputs):
    """Raise, before anything is read, if an output names an input file
    (None is no file) or an earlier output."""
    taken = {os.path.realpath(path): f"the input {path}" for path in inputs if path is not None}
    for path in outputs:
        real = os.path.realpath(path)
        if real in taken:
            raise SceneParseError(f"{path} would overwrite {taken[real]}")
        taken[real] = f"the output {path}"


def _write_json(out: str, path: str, doc: dict):
    """Write ``doc`` as JSON to ``path``, or remove the WAV ``out`` if that fails."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    except OSError:
        os.remove(out)
        raise


def _load_scene(args) -> tuple:
    """Returns (scene, scene document text); --seed replaces the scene's seed."""
    if args.scene is not None:
        doc = read_text(args.scene)
        scene = parse_scene(doc)
        return (scene if args.seed is None else replace(scene, rng_seed=args.seed)), doc
    if args.preset is not None:
        scene = preset(args.preset, seed=0 if args.seed is None else args.seed)
        return scene, serialize_scene(scene)
    raise SceneParseError("either --scene or --preset is required")


def _load_layout(spec: str) -> LoudspeakerLayout:
    if spec == "86-preset":
        return array_preset_86()
    return parse_document(read_text(spec), LoudspeakerLayout)


def _read_ir(path: str) -> ImpulseResponse:
    """An IR WAV; an empty one, or one with a non-finite sample, is rejected."""
    data, fs = read_wav(path)
    if data.size == 0:
        raise SceneParseError(f"{path}: empty WAV")
    return ImpulseResponse(channels=data.T, sample_rate=fs)  # checks finiteness


def _metric_summary(ir: ImpulseResponse) -> dict:
    mono = ir.channels[0] if ir.n_channels == 1 else ir.channels.sum(axis=0)
    summary = {
        "n_channels": int(ir.n_channels),
        "n_samples": int(ir.n_samples),
        "peak": float(max(ir.channels.max(), -ir.channels.min())),  # no |x| copy
    }
    try:
        summary["t30_s"] = round(t30(schroeder_edc(mono, ir.sample_rate)), 4)
    except (InsufficientDecayError, SceneValidationError):  # too short, or silent
        summary["t30_s"] = None
    return summary


def _cmd_simulate(args) -> int:
    manifest_path = args.manifest or args.out + ".manifest.json"
    hrtf_dir = args.hrtf or os.environ.get(HRTF_ENV_VAR)
    hrtf_index_path, hrtf_rows = hrtf_index(hrtf_dir) if hrtf_dir else (None, [])
    _check_outputs((args.out, manifest_path), args.scene, hrtf_index_path,
                   *(name for _, _, name in hrtf_rows),  # each file the set reads
                   None if args.layout == "86-preset" else args.layout)  # the preset is no file
    scene, doc = _load_scene(args)
    profile = profile_preset(args.profile)
    hrtf = load_hrtf_dir(hrtf_dir) if hrtf_dir else None
    layout = _load_layout(args.layout) if args.layout else None
    result = simulate(scene, profile, source_id=args.source, duration=args.duration,
                      output_mode=args.output_mode, hrtf=hrtf, layout=layout)
    write_wav(args.out, result.ir.channels.T, result.ir.sample_rate)
    wav = hashlib.sha256()
    with open(args.out, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            wav.update(chunk)
    manifest = {
        "tool": "alodsim",
        "version": __version__,
        "scene_sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
        "scene_name": scene.name,
        "profile": profile.name,
        "seed": scene.rng_seed,
        "source": result.source_id,
        "output_mode": result.output_mode,
        "duration_s": result.duration,
        "outputs": [{"path": args.out, "sha256": wav.hexdigest()}],
        "metrics": _metric_summary(result.ir),
    }
    _write_json(args.out, manifest_path, manifest)
    print(f"wrote {args.out} ({result.ir.n_channels} ch) and {manifest_path}")
    return 0


def _csv_fields(x: np.ndarray, fmt: str):
    """One column of ``_write_columns``, ready to be placed.

    Returns the length of each field; its characters by offset from the
    field's end (``planes[k]`` is every field's k-th character from the
    right, an array or one code for all); where each field is negative; how
    many digits and points precede its end (0 for a text field); and the
    ``(rows, text)`` pairs that replace those rows' digits.
    """
    texts = []
    whole_text = False
    if fmt == "%d":
        decimals = 0
        q = np.abs(x).astype(np.uint64)  # |-2**63| wraps to 2**63 as uint64
        neg = x < 0
    else:
        decimals = int(fmt[2:-1])
        # rint(y) is x correctly rounded unless a half unit lies within
        # spacing(y) <= y * 2**-52 of y: a tie, or y >= 2**52; nan and inf
        # (also the inf of an overflowing product) compare false
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.abs(x) * 10.0 ** decimals  # 10**N is exact for N <= 22
            q = np.rint(y)
            exact = 0.5 - np.abs(y - q) > y * 2.0 ** -52
        neg = np.signbit(x)  # so -0.0 reads -0.0000, as % writes it
        if not exact.all():
            for test, text in _CSV_TEXTS:
                rows = np.flatnonzero(test(x))
                if rows.size:
                    texts.append((rows, text))
            texts += [(i, (fmt % x[i]).encode()) for i in np.flatnonzero(~exact & np.isfinite(x))]
            whole_text = not exact.any()
            q[~exact] = 0.0
            neg &= exact
        q = q.astype(np.uint64)
    width = max(len(str(int(q.max()))), decimals + 1)  # digits of the longest field
    body = np.full(q.shape, decimals + 1 + (decimals > 0), np.int64)
    for k in range(decimals + 1, width):
        body += q >= 10**k
    lengths = body + neg
    planes = []
    for _ in range(0 if whole_text else width, 0, -4):  # four digits per table lookup
        high = q // 10_000
        planes.extend(_CSV_DIGITS[:width - len(planes)].take(q - high * 10_000, axis=1))
        q = high
    if decimals and planes:
        planes.insert(decimals, ord("."))
    for rows, text in texts:
        lengths[rows] = len(text)
        body[rows] = 0
    return lengths, planes, neg, body, texts


def _csv_block(block, formats) -> np.ndarray:
    """The bytes of the CSV rows whose columns are ``block``.

    Each field ends at an offset found from the lengths of the fields
    before it, and its characters are scattered there one position at a
    time, the position farthest from the field's end first. A field with
    fewer digits than its column's longest gets leading zeros before its
    start; they land on an earlier field's characters nearer that field's
    end, which are written later, or on a separator. Signs, texts and
    separators are written last.
    """
    fields = [_csv_fields(x, fmt) for x, fmt in zip(block, formats)]
    row_len = sum(f[0] for f in fields) + len(fields) + 1  # the commas and "\r\n"
    end = np.cumsum(row_len) - row_len
    stops = []  # the offset just past each field
    for lengths, *_ in fields:
        end += lengths
        stops.append(end.copy())
        end += 1
    pad = max(len(f[1]) for f in fields) + 1  # room for the first row's leading zeros
    buf = np.empty(pad + int(end[-1]) + 1, np.uint8)
    for k in range(pad - 2, -1, -1):
        at = buf[pad - 1 - k:]  # at[stop] is the k-th character before stop
        for stop, (_, planes, *_) in zip(stops, fields):
            if k < len(planes):
                at[stop] = planes[k]
    at = buf[pad - 1:]
    for stop, (lengths, _, neg, body, texts) in zip(stops, fields):
        if neg.any():  # where x >= 0 the sign lands on the separator before
            at[stop - body] = ord("-")
        for rows, text in texts:
            first = stop[rows] - len(text) + 1
            for j, char in enumerate(text):
                at[first + j] = char
    out = buf[pad:]
    for stop in stops[:-1]:
        out[stop] = ord(",")
    out[stops[-1]] = ord("\r")
    out[stops[-1] + 1] = ord("\n")
    return out


def _write_columns(path: str, header, formats, columns):
    """Write one CSV row per index of the equal-length array ``columns``.

    ``formats`` holds "%d" (for a column of integers) or "%.Nf" (N <= 22)
    per column, and each field is exactly the text Python's ``%`` writes:
    the binary value correctly rounded to N decimals, ties to even, "-" for
    a negative value that rounds to zero, and "nan", "inf" or "-inf". Digits
    are taken from the values by integer arithmetic on whole arrays; ``%``
    runs only for a value whose rounding the scaled product cannot decide.
    Lines end in "\r\n", as ``csv.writer`` ends them, and no numeric field
    needs quoting. Rows are formatted in blocks, so no text larger than a
    block is held.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
        for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            fh.write(_csv_block([c[lo:lo + CSV_BLOCK_ROWS] for c in columns], formats))


def _analyze_one(metric: str, channels: np.ndarray, fs: float, path: str):
    index = np.arange(channels.shape[0])
    heard = channels.any()  # an IR silent in every channel fails its metrics

    def each(measure, silent):  # a silent channel beside a heard one has no decay
        return [measure(ch) if ch.any() or not heard else silent for ch in channels]

    if metric == "t30":
        values = np.array(each(lambda ch: t30(schroeder_edc(ch, fs)), np.nan))
        _write_columns(path, ("channel", "t30_s"), ("%d", "%.6f"), (index, values))
    elif metric == "drr":
        values = np.array(each(lambda ch: drr(ch, fs), np.nan))
        _write_columns(path, ("channel", "drr_db"), ("%d", "%.4f"), (index, values))
    elif metric == "edc":
        curves = each(lambda ch: schroeder_edc(ch, fs).values,
                      np.broadcast_to(np.nan, channels.shape[1]))
        _write_columns(path, ("time_s", *(f"edc_db_ch{ch}" for ch in index)),
                       ("%.6f",) + ("%.4f",) * len(curves),
                       (np.arange(curves[0].size) / fs, *curves))
    elif metric == "ned":
        profiles = [ned(ch, fs) for ch in channels]
        _write_columns(path, ("time_s", *(f"ned_ch{ch}" for ch in index)),
                       ("%.6f",) + ("%.5f",) * len(profiles),
                       (profiles[0].times, *(p.values for p in profiles)))
    elif metric == "dual-slope":
        fits = each(lambda ch: dual_slope_fit(schroeder_edc(ch, fs)), DualSlopeFit(*[np.nan] * 5))
        values = np.array([(f.slope1, f.slope2, f.knee_time, f.knee_level) for f in fits])
        _write_columns(path, ("channel", "slope1_db_per_s", "slope2_db_per_s",
                              "knee_time_s", "knee_level_db"),
                       ("%d", "%.3f", "%.3f", "%.5f", "%.2f"), (index, *values.T))


def _cmd_analyze(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise SceneParseError("no metrics requested")
    for metric in metrics:  # before anything is computed or written
        if metric not in ANALYZE_METRICS:
            raise SceneParseError(
                f"unknown metric {metric!r}; known: {', '.join(ANALYZE_METRICS)}"
            )
    base, ext = os.path.splitext(args.out)
    paths = {metric: args.out if len(metrics) == 1 else f"{base}-{metric}{ext or '.csv'}"
             for metric in metrics}
    _check_outputs(paths.values(), args.ir)
    ir = _read_ir(args.ir)
    channels, fs = ir.channels, ir.sample_rate
    failed = []
    for metric, path in paths.items():
        try:
            _analyze_one(metric, channels, fs, path)
        except (AlodsimError, OSError) as exc:  # the other metrics are still written
            failed.append(f"{metric}: {path}: {exc.strerror}" if isinstance(exc, OSError)
                          else f"{metric}: {exc}")
            # an earlier run's file would outlive the error; a directory stays
            with contextlib.suppress(OSError):
                os.remove(path)
            continue
        print(f"wrote {path}")
    if failed:
        raise AlodsimError("; ".join(failed))
    return 0


def _cmd_stimulus(args) -> int:
    # without --duration each generator keeps its own default length
    timing = {"fs": args.rate}
    if args.duration is not None:
        timing["duration"] = args.duration
    if args.kind == "pink-pulse":
        if args.band_offsets:
            try:
                offsets = tuple(float(v) for v in args.band_offsets.split(","))
            except ValueError:
                raise SceneParseError("--band-offsets: expected comma-separated numbers, "
                                      f"got {args.band_offsets!r:.60}") from None
            stim = pink_pulse_variant(BandLevels(offsets_db=offsets), **timing)
        else:
            stim = pink_pulse(**timing)
    else:  # "sweep", the only other choice argparse lets through
        stim = ess_generate(f1=args.f1, f2=args.f2, **timing)
    write_wav(args.out, stim.samples, stim.sample_rate)
    print(f"wrote {args.out} ({stim.samples.size} samples)")
    return 0


def _cmd_render(args) -> int:
    _check_outputs((args.out,), args.ir, args.stim)
    stim_data, stim_fs = read_wav(args.stim)
    ir = _read_ir(args.ir)
    stim = Stimulus(samples=stim_data[:, 0], sample_rate=stim_fs, kind="file")
    out = convolve(stim, ir)
    peak = float(np.max(np.abs(out)))
    if args.normalize and peak > 0:
        out = out / peak * 10.0 ** (-1.0 / 20.0)
    write_wav(args.out, out.T, ir.sample_rate)
    print(f"wrote {args.out} ({out.shape[0]} ch, peak {peak:.4g})")
    return 0


def _cmd_match(args) -> int:
    report_path = args.report or args.out + ".report.json"
    _check_outputs((args.out, report_path), args.sim, args.ref)
    sim = _read_ir(args.sim)
    ref = _read_ir(args.ref)
    corrected, fir, report = match_spectrum(sim, ref)
    write_wav(args.out, corrected.channels.T, corrected.sample_rate)
    report_doc = {
        "residual_mean_db": float(report.residual_mean_db),
        "residual_max_db": float(report.residual_max_db),
        "residual_rms_db": float(report.residual_rms_db),
        "band_range_hz": [float(v) for v in report.band_range],
        "clamped": bool(report.clamped),
        "filter_taps": int(fir.size),
    }
    _write_json(args.out, report_path, report_doc)
    print(f"wrote {args.out} and {report_path} "
          f"(mean residual {report.residual_mean_db:.3f} dB)")
    return 0


def _cmd_presets(args) -> int:
    print("scenes: " + ", ".join(preset_names()))
    print("profiles: " + ", ".join(profile_names()))
    if args.write_scenes:
        os.makedirs(args.write_scenes, exist_ok=True)
        for name in preset_names():
            path = os.path.join(args.write_scenes, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_scene(preset(name)) + "\n")
            print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alodsim",
        description="Room-acoustics simulation with selectable level of detail.",
    )
    parser.add_argument("--version", action="version",
                        version=f"alodsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a scene to an IR WAV")
    sim.add_argument("--scene", help="scene JSON file")
    sim.add_argument("--preset", choices=preset_names(), help="built-in scene")
    sim.add_argument("--profile", required=True, choices=profile_names())
    sim.add_argument("--seed", type=int,
                     help="random seed (default: the scene's own; 0 for a preset)")
    sim.add_argument("--source", help="source id (default: first)")
    sim.add_argument("--duration", type=float, help="tail length override (s)")
    sim.add_argument("--output-mode", choices=OUTPUT_MODES)
    sim.add_argument("--hrtf", help=f"HRTF directory (default ${HRTF_ENV_VAR})")
    sim.add_argument("--layout", help="loudspeaker layout JSON or '86-preset'")
    sim.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="compute objective metrics from an IR WAV")
    ana.add_argument("--ir", required=True)
    ana.add_argument("--metrics", required=True,
                     help="comma-separated: " + ",".join(ANALYZE_METRICS))
    ana.add_argument("--out", required=True, help="CSV path (suffixed per metric)")
    ana.set_defaults(func=_cmd_analyze)

    stim = sub.add_parser("stimulus", help="generate a test stimulus WAV")
    stim.add_argument("kind", choices=("pink-pulse", "sweep"))
    stim.add_argument("--duration", type=float,
                      help="seconds (default 0.5 for pink-pulse, 3.2 for sweep)")
    stim.add_argument("--rate", type=float, default=44100.0)
    stim.add_argument("--band-offsets",
                      help="comma-separated octave offsets in dB (pink-pulse)")
    stim.add_argument("--f1", type=float, default=100.0)
    stim.add_argument("--f2", type=float, default=22050.0)
    stim.add_argument("--out", required=True)
    stim.set_defaults(func=_cmd_stimulus)

    ren = sub.add_parser("render", help="convolve a stimulus with an IR")
    ren.add_argument("--ir", required=True)
    ren.add_argument("--stim", required=True)
    ren.add_argument("--normalize", action="store_true",
                     help="peak-normalize the result to -1 dBFS")
    ren.add_argument("--out", required=True)
    ren.set_defaults(func=_cmd_render)

    mat = sub.add_parser("match", help="match an IR's spectrum to a reference")
    mat.add_argument("--sim", required=True)
    mat.add_argument("--ref", required=True)
    mat.add_argument("--report", help="report path (default <out>.report.json)")
    mat.add_argument("--out", required=True)
    mat.set_defaults(func=_cmd_match)

    pre = sub.add_parser("presets", help="list built-in scenes and profiles")
    pre.add_argument("--write-scenes", metavar="DIR",
                     help="also write the scene presets as JSON files")
    pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AlodsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path that is missing, a directory or not writable
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an output too large for the address space
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
