"""Property test of the exit-code contract: whatever the command and flags,
``main`` returns 0, 1, 2, 3 or 64, never raises, and writes strict JSON."""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import COMMANDS, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


_eps = st.one_of(
    st.floats(min_value=1e-6, max_value=1.0).map(repr),
    st.sampled_from(["1e-2", "0.5", "0", "-0.5", "nan", "inf", "-inf", "abc"]),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    config=st.sampled_from(["dyadic", "flat", "window_only"]),
    seed=st.one_of(st.integers(min_value=0, max_value=2**32), st.sampled_from([-1, 2**64 - 1, 2**64])),
    samples=st.integers(min_value=-1, max_value=5),
    horizon=st.integers(min_value=-1, max_value=40),
    eps=_eps,
    strict=st.booleans(),
)
def test_exit_codes_and_strict_json(command, config, seed, samples, horizon, eps, strict):
    argv = [
        command, "--config", str(CONFIGS / f"{config}.json"),
        "--seed", str(seed), "--samples", str(samples),
        "--horizon", str(horizon), "--eps", eps,
    ]
    if strict:
        argv.append("--strict")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = stdout.getvalue()
    assert code in (0, 1, 2, 3, 64)
    if code in (0, 3):
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["command"] == command
    else:
        assert out == ""
