"""Byte sweep of a checkout: the exit code and output hash of every command.

    python tools/sweep.py > this.txt
    python tools/sweep.py --root ../parent > parent.txt
    diff this.txt parent.txt

Runs ``python -m shiftlab`` with ``PYTHONPATH=<root>/src`` (``--root``
defaults to this checkout) on this checkout's ``configs/*.json`` and the
config files of ``tests/golden/``, or on the config paths given.  Each
config gets all six commands with ``--output json`` and with ``--output
csv``, then ``orbit`` and ``report`` at ``--horizon 300`` and ``orbit`` at
``--horizon 2000``, where the orbit's entries die and its scan stops
early.  It prints one
line per run: the exit code, the SHA-256 of the standard output, and a
label naming the config and the flags, so two sweeps of the same configs
compare with ``diff``.  The runs write no bytecode cache into the root.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("validate", "weights", "criteria", "semicheck", "orbit", "report")


def default_configs() -> list[Path]:
    """This checkout's sample configs, then the golden configs (not the golden outputs)."""
    golden = sorted((ROOT / "tests" / "golden").glob("*.json"))
    return sorted((ROOT / "configs").glob("*.json")) + [p for p in golden if "." not in p.stem]


def runs(config: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run on one config."""
    path = config.resolve()
    try:
        name = str(path.relative_to(ROOT))
    except ValueError:
        name = str(config)
    flags = [[command, "--output", fmt] for command in COMMANDS for fmt in ("json", "csv")]
    flags += [[command, "--horizon", "300"] for command in ("orbit", "report")] + [["orbit", "--horizon", "2000"]]
    return [(" ".join([name, *f]), [f[0], "--config", str(path), *f[1:]]) for f in flags]


def sweep(root: Path, configs: list[Path]) -> list[str]:
    """One line per run, in run order: exit code, SHA-256 of stdout, label."""
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

    def run(job: tuple[str, list[str]]) -> str:
        label, argv = job
        done = subprocess.run([sys.executable, "-m", "shiftlab", *argv], cwd=root, env=env, capture_output=True)
        return f"{done.returncode} {hashlib.sha256(done.stdout).hexdigest()} {label}"

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, [job for config in configs for job in runs(config)]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ runs (default: this one)")
    parser.add_argument("configs", nargs="*", type=Path, help="config files (default: configs/ and the golden ones)")
    args = parser.parse_args(argv)
    for line in sweep(args.root, args.configs or default_configs()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
