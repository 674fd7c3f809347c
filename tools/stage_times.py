"""Median wall time of each stage a ``shiftlab`` command runs, per config.

    python tools/stage_times.py --label before
    python tools/stage_times.py --label after --repeat 9 configs/flat.json
    python tools/stage_times.py --label quick --command validate --repeat 9
    python tools/stage_times.py --label pair --repeat 10 --against ../parent

Runs ``cli.run_command(command, ...)`` in-process on each config (by
default ``configs/*.json``, six golden windows and ``decaying2000``,
perfbench's decaying window of half-span 2000 with 4 cells, p = 2 and tails
1/3 and 1/2, generated into a temporary directory at each run, as it is
6.5 MB), loading the config afresh each time after a full garbage
collection, so that no collection of earlier runs' garbage lands in a
stage, and writes the medians in seconds to ``BENCH_<label>.json``.
The command is ``report`` unless ``--command`` names ``validate`` or
``weights``, the two that perfbench's ``quick_commands`` workload runs.
A stage is the parse, ``MeasureSystem.from_json``, or a call that
``run_command`` makes: the two structural constants, ``derive_weights``,
each of the seven criteria, ``semicheck`` and the orbit experiment's two
stages, ``construct_hc_approx`` and ``orbit_density_report``; a stage
called inside another counts only in the outer one, and a stage the
command does not reach is left out.  ``render_json`` of the result is one
more stage, and ``total`` covers the parse, ``run_command`` and the render.
``main`` is the time of a whole in-process ``cli.main([command, "--config",
path])`` call, with its standard output captured, timed apart from the
stages (after its own full collection, with no stage wrapped, and after one
untimed call per config, as a process's first call builds the parser), so
that ``main - total`` is the CLI front end's share: argument parsing, the
read of the file, its hash and the write.

It also writes, per config, the median wall time of whole ``python -m
shiftlab validate`` and ``report`` processes over the same repeat, which is
the end-to-end figure, and whether those processes could write the bytecode
cache (``PYTHONDONTWRITEBYTECODE`` or ``-B`` turn it off, and then every
process recompiles ``src/``).

Every figure of one tree comes from one run of this script, and on a 2-core
VM one process can run about 1.4 times slower than the next, so one run per
tree cannot order two trees within about 40%.  ``--against PATH`` interleaves
two trees instead: each of ``--repeat`` rounds runs one process of this
script and one of PATH's own ``tools/stage_times.py`` (one in-process run
each, on this checkout's config files), the order swapped every round, and
it writes each side's per-stage and process-wall medians and quartiles over
the rounds.  Each side has the stages its own script times: a checkout whose
script does not time the parse has no ``from_json`` entry, and its
``total`` leaves the parse out.  ``--command`` other than ``report`` is
passed on to PATH's script, which must then know the option too.

The quartiles of one interleaved run understate the drift between runs.
Two runs of a checkout against an identical copy, 10 rounds each on
``wide100``, ``wide200``, ``dyadic`` and ``decay32``, gave a median |Δ|
over 47 stage medians of 1.8% and 2.5%, a largest |Δ| of 7.7% and 12.1%,
and 8 and 9 medians outside the other side's quartiles: "no slower than
the parent beyond its quartile spread" flags about one stage in five on
unchanged code.  Alternating both trees' packages in one process was not
more reliable (one of three such runs read 43 of 46 stages slower on the
same side).  So a stage criterion must hold in two runs, or be stated as
a count of the stages it flags.

Standard library only; it imports ``shiftlab`` from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from shiftlab import cli  # noqa: E402
from shiftlab.measure_system import MeasureSystem  # noqa: E402

GOLDEN = ("wide020", "wide100", "wide200", "decay2", "decay32", "near400")
DECAYING_HALF_SPAN = 2000


def default_family(tmp: Path) -> list[Path]:
    """``configs/*.json``, the golden windows, and the decaying window written into tmp."""
    window = workloads._decaying_window(random.Random(DECAYING_HALF_SPAN), f"decaying{DECAYING_HALF_SPAN}",
                                        DECAYING_HALF_SPAN, 4, Fraction(2), (Fraction(1, 3), Fraction(1, 2)))
    (path := tmp / f"{window.name}.json").write_text(window.to_json())
    return sorted(ROOT.glob("configs/*.json")) + [ROOT / f"tests/golden/{n}.json" for n in GOLDEN] + [path]
STAGES = [(MeasureSystem, name) for name in ("from_json", "validate_star", "distortion_constant")] + [
    (cli, name) for name in (
        "derive_weights", "hypercyclicity_report", "shift_hypercyclicity_report", "weak_mixing_consistency",
        "menet_unilateral", "conditionmix_lhs", "_cofinite_report", "_telescoping_report",
        "_semicheck_section", "construct_hc_approx", "orbit_density_report",
    )
]


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


def _main_seconds(argv: list[str]) -> float:
    """Wall seconds of one in-process ``cli.main(argv)`` call, its standard output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"shiftlab {' '.join(argv)} exited with {code}")
    return seconds


def time_config(path: Path, repeat: int, command: str) -> dict:
    """Median seconds of each stage, of the whole parse, run_command and render, and of ``cli.main``
    over repeat runs."""
    text = path.read_text()
    argv = [command, "--config", str(path)]
    _main_seconds(argv)  # untimed: a process's first call builds the parser
    runs: list[dict[str, float]] = []
    for _ in range(repeat):
        times: dict[str, float] = {}
        depth = [0]
        saved = [(owner, name, vars(owner)[name]) for owner, name in STAGES]
        gc.collect()  # so that no full collection of earlier garbage lands in a stage
        try:
            for owner, name, _ in saved:
                setattr(owner, name, _timed(name, getattr(owner, name), times, depth))
            start = time.perf_counter()
            system = MeasureSystem.from_json(text)
            result = cli.run_command(command, system, horizon=64, samples=100, eps=1e-2)  # the CLI's defaults
            rendered = time.perf_counter()
            cli.render_json(result)
            end = time.perf_counter()
            times["render_json"] = end - rendered
            times["total"] = end - start
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)
        gc.collect()
        times["main"] = _main_seconds(argv)
        runs.append(times)
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def process_wall(path: Path, repeat: int) -> dict:
    """Median wall seconds of a ``validate`` and a ``report`` process over repeat runs."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    walls = {}
    for command in ("validate", "report"):
        argv = [sys.executable, "-m", "shiftlab", command, "--config", str(path)]
        runs = []
        for _ in range(repeat):
            start = time.perf_counter()
            subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
            runs.append(time.perf_counter() - start)
        walls[command] = statistics.median(runs)
    return walls


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def interleave(against: Path, paths: list[Path], args: argparse.Namespace) -> dict:
    """Median and quartiles of every figure of this checkout ("this") and
    of the one at ``against`` over ``args.repeat`` rounds of one process
    each, the side that runs first alternating."""
    sides = {"this": ROOT, "against": against}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(args.repeat):
            for side in (list(sides) if round_ % 2 == 0 else list(sides)[::-1]):
                label = f"{side}{round_}"
                subprocess.run(
                    [sys.executable, *(["-B"] if sys.dont_write_bytecode else []),
                     str(sides[side] / "tools" / "stage_times.py"), "--label", label,
                     "--repeat", "1", "--out-dir", tmp,
                     *(["--command", args.command] if args.command != "report" else []), *map(str, paths)],
                    stdout=subprocess.DEVNULL, check=True,
                )
                runs[side].append(json.loads((Path(tmp) / f"BENCH_{label}.json").read_text()))
    doc: dict = {"sides": {side: str(root) for side, root in sides.items()}}
    for key in ("configs", "process_wall"):
        doc[key] = {side: {path.stem: {name: _spread([run[key][path.stem][name] for run in docs])
                                       for name in docs[0][key][path.stem]}
                           for path in paths}
                    for side, docs in runs.items()}
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5, help="runs per config; the medians are written")
    parser.add_argument("--command", choices=("validate", "weights", "report"), default="report",
                        help="the command whose stages are timed (default: report)")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path, help="another checkout to interleave with, --repeat rounds")
    parser.add_argument("configs", nargs="*", type=Path, help="config files (default: the family above)")
    args = parser.parse_args(argv)
    if args.against and args.repeat < 2:
        parser.error("--against needs --repeat >= 2 for quartiles")
    doc = {
        "label": args.label, "python": platform.python_version(), "repeat": args.repeat,
        "command": args.command, "unit": "s",
        "bytecode_cache": not sys.dont_write_bytecode,
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = args.configs or default_family(Path(tmp))
        if args.against:
            doc.update(interleave(args.against.resolve(), [path.resolve() for path in paths], args))
        else:
            doc["configs"] = {path.stem: time_config(path, args.repeat, args.command) for path in paths}
            doc["process_wall"] = {path.stem: process_wall(path, args.repeat) for path in paths}
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
