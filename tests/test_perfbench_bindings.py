"""The benchmark's tracer binds package functions by name when it is built;
a rename or deletion in ``src/`` must fail here, not in a traced run."""

import importlib.util
import sys
from pathlib import Path

import shiftlab.cli  # noqa: F401  (loads every module the tracer looks up)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look themselves up there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(tracer)
    sites = set(tracer.Tracer().lookup_sites())
    for target in tracer.TARGETS:
        site = target.qualname if "." in target.qualname else f"shiftlab.{target.module}.{target.qualname}"
        assert site in sites, f"{target.metric}: no lookup site"
