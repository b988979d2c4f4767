"""Reference pass over the render matrix, one render per fresh process.

    python3 bench/matrix.py

Renders {living-room, pub, underground} x {razr-full, ism-15} x {mono,
binaural, array} at the scene's default duration and prints a Markdown
table with the wall time of ``simulate`` and the peak RSS of each process.
Each render runs in its own interpreter so that one render's peak memory
does not hide another's.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENES = ("living-room", "pub", "underground")
PROFILES = ("razr-full", "ism-15")
MODES = ("mono", "binaural", "array")


def render_one(scene_name: str, profile_name: str, mode: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from alodsim import preset, profile_preset, simulate

    scene, profile = preset(scene_name), profile_preset(profile_name)
    start = time.perf_counter()
    simulate(scene, profile, output_mode=mode)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": wall, "peak_rss_mb": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", nargs=3, metavar=("SCENE", "PROFILE", "MODE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(render_one(*args.one)))
        return 0
    print("| scene | profile | output | wall (s) | peak RSS (MiB) |")
    print("|---|---|---|---|---|")
    for scene, profile, mode in itertools.product(SCENES, PROFILES, MODES):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--one",
                               scene, profile, mode],
                              capture_output=True, text=True, check=True)
        row = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"| {scene} | {profile} | {mode} | {row['wall_s']:.2f} | "
              f"{row['peak_rss_mb']:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
