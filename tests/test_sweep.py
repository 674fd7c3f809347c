"""tools/sweep.py: a sweep of one config, run twice."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_two_sweeps_of_one_config_print_the_same_lines(capsys):
    start = time.perf_counter()
    outs = []
    for _ in range(2):
        assert sweep.main([str(ROOT / "configs" / "dyadic.json")]) == 0
        outs.append(capsys.readouterr().out)
    assert time.perf_counter() - start < 5
    assert outs[0] == outs[1]
    lines = [line.split(" ", 2) for line in outs[0].splitlines()]
    assert len(lines) == 15
    assert all(code == "0" and len(digest) == 64 for code, digest, _ in lines)
    assert lines[0][2] == "configs/dyadic.json validate --output json"
    assert lines[-1][2] == "configs/dyadic.json orbit --horizon 2000"
    assert len({digest for _, digest, _ in lines}) == len(lines)


def test_the_default_configs_leave_out_the_golden_outputs():
    names = [p.name for p in sweep.default_configs()]
    assert names[:3] == ["dyadic.json", "flat.json", "window_only.json"]
    assert "wide200.json" in names and not any(name.count(".") > 1 for name in names)
