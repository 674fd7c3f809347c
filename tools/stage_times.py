"""Median wall time of each stage ``shiftlab report`` runs, per config.

    python tools/stage_times.py --label before
    python tools/stage_times.py --label after --repeat 9 configs/flat.json

Runs ``cli.run_command("report", ...)`` in-process on each config (by
default ``configs/*.json`` and six golden windows), loading the config
afresh each time, and writes the medians in seconds to ``BENCH_<label>.json``.
A stage is a call that ``run_command`` makes: the two structural constants,
``derive_weights``, each of the seven criteria, ``semicheck`` and the orbit
experiment; a stage called inside another counts only in the outer one.

It also writes, per config, the median wall time of whole ``python -m
shiftlab validate`` and ``report`` processes over the same repeat, which is
the end-to-end figure, and whether those processes could write the bytecode
cache (``PYTHONDONTWRITEBYTECODE`` or ``-B`` turn it off, and then every
process recompiles ``src/``).

Every figure of one tree comes from one run of this script, and on a 2-core
VM one process can run about 1.4 times slower than the next, so one run per
tree cannot order two trees within about 40%: interleave several runs of
each tree before comparing them.

Standard library only; it imports ``shiftlab`` from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shiftlab import cli  # noqa: E402
from shiftlab.measure_system import MeasureSystem  # noqa: E402

GOLDEN = ("wide020", "wide100", "wide200", "decay2", "decay32", "near400")
STAGES = [(MeasureSystem, "validate_star"), (MeasureSystem, "distortion_constant")] + [(cli, name) for name in (
    "derive_weights", "hypercyclicity_report", "shift_hypercyclicity_report", "weak_mixing_consistency",
    "menet_unilateral", "conditionmix_lhs", "_cofinite_report", "_telescoping_report",
    "_semicheck_section", "_experiment",
)]


def _timed(name: str, fn, times: dict[str, float], depth: list[int]):
    def stage(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                times[name] = times.get(name, 0.0) + time.perf_counter() - start
    return stage


def time_config(path: Path, repeat: int, samples: int) -> dict:
    """Median seconds of each stage and of the whole run_command over repeat runs."""
    text = path.read_text()
    runs: list[dict[str, float]] = []
    for _ in range(repeat):
        times: dict[str, float] = {}
        depth = [0]
        saved = [(owner, name, getattr(owner, name)) for owner, name in STAGES]
        try:
            for owner, name, fn in saved:
                setattr(owner, name, _timed(name, fn, times, depth))
            system = MeasureSystem.from_json(text)
            start = time.perf_counter()
            cli.run_command("report", system, horizon=64, samples=samples, eps=1e-2)
            times["total"] = time.perf_counter() - start
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)
        runs.append(times)
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def process_wall(path: Path, repeat: int, seed: int, samples: int) -> dict:
    """Median wall seconds of a ``validate`` and a ``report`` process over repeat runs."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    walls = {}
    for command in ("validate", "report"):
        argv = [sys.executable, "-m", "shiftlab", command, "--config", str(path),
                "--seed", str(seed), "--samples", str(samples)]
        runs = []
        for _ in range(repeat):
            start = time.perf_counter()
            subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
            runs.append(time.perf_counter() - start)
        walls[command] = statistics.median(runs)
    return walls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5, help="runs per config; the medians are written")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("configs", nargs="*", type=Path, help="config files (default: the family above)")
    args = parser.parse_args(argv)
    paths = args.configs or sorted(ROOT.glob("configs/*.json")) + [ROOT / f"tests/golden/{n}.json" for n in GOLDEN]
    doc = {
        "label": args.label, "python": platform.python_version(), "repeat": args.repeat,
        "seed": args.seed, "samples": args.samples, "unit": "s",
        "configs": {path.stem: time_config(path, args.repeat, args.samples) for path in paths},
        "bytecode_cache": not sys.dont_write_bytecode,
        "process_wall": {path.stem: process_wall(path, args.repeat, args.seed, args.samples) for path in paths},
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
