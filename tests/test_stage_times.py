"""Smoke test of tools/stage_times.py, the per-stage timer of ``report``."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_times_writes_the_medians_of_each_stage(tmp_path):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--label", "smoke", "--repeat", "1",
         "--out-dir", str(tmp_path), str(ROOT / "configs" / "flat.json")],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 0, done.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    stages = doc["configs"]["flat"]
    assert {"validate_star", "distortion_constant", "derive_weights", "weak_mixing_consistency",
            "menet_unilateral", "_semicheck_section", "_experiment", "total"} <= set(stages)
    assert all(t >= 0 for t in stages.values())
    assert sum(t for name, t in stages.items() if name != "total") <= stages["total"]
    assert isinstance(doc["bytecode_cache"], bool)
    walls = doc["process_wall"]["flat"]
    assert set(walls) == {"validate", "report"}
    assert all(t > 0 for t in walls.values())
