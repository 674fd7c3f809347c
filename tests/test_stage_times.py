"""Smoke test of tools/stage_times.py, the per-stage timer of ``report``."""

import importlib.util
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_times_writes_the_medians_of_each_stage(tmp_path):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--label", "smoke", "--repeat", "1",
         "--out-dir", str(tmp_path), str(ROOT / "configs" / "flat.json"), str(ROOT / "configs" / "dyadic.json")],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 0, done.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    stages = doc["configs"]["flat"]
    assert {"from_json", "validate_star", "distortion_constant", "derive_weights", "weak_mixing_consistency",
            "menet_unilateral", "_semicheck_section", "construct_hc_approx", "render_json", "total"} <= set(stages)
    # flat's construction exhausts the horizon, so its orbit stage is never reached and left out
    assert "orbit_density_report" not in stages
    assert {"construct_hc_approx", "orbit_density_report"} <= set(doc["configs"]["dyadic"])
    assert all(t >= 0 for t in stages.values())
    assert sum(t for name, t in stages.items() if name != "total") <= stages["total"]
    assert isinstance(doc["bytecode_cache"], bool)
    # no timed figure depends on --seed or --samples: the tool takes neither
    assert not {"seed", "samples"} & set(doc)
    walls = doc["process_wall"]["flat"]
    assert set(walls) == {"validate", "report"}
    assert all(t > 0 for t in walls.values())


def test_stage_times_times_the_stages_of_the_quick_commands(tmp_path):
    # validate and weights, the commands of perfbench's quick_commands workload
    for command, extra in (("validate", set()), ("weights", {"derive_weights"})):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--label", command, "--repeat", "1",
             "--command", command, "--out-dir", str(tmp_path), str(ROOT / "configs" / "flat.json")],
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads((tmp_path / f"BENCH_{command}.json").read_text())
        assert doc["command"] == command
        assert set(doc["configs"]["flat"]) == {"from_json", "validate_star", "distortion_constant", "render_json",
                                               "total"} | extra


def test_stage_times_interleaves_two_checkouts(tmp_path):
    # this checkout against itself: two rounds of one process per side
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--label", "pair", "--repeat", "2",
         "--against", str(ROOT), "--out-dir", str(tmp_path), str(ROOT / "configs" / "flat.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert done.returncode == 0, done.stderr
    doc = json.loads((tmp_path / "BENCH_pair.json").read_text())
    assert doc["sides"] == {"this": str(ROOT), "against": str(ROOT)}
    for side in ("this", "against"):
        stages = doc["configs"][side]["flat"]
        assert {"from_json", "construct_hc_approx", "conditionmix_lhs", "total"} <= set(stages)
        assert all(0 <= s["q1"] <= s["median"] <= s["q3"] for s in stages.values())
        walls = doc["process_wall"][side]["flat"]
        assert set(walls) == {"validate", "report"}
        assert all(s["q1"] > 0 for s in walls.values())
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH_pair.json"]
    refused = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--label", "x", "--repeat", "1",
         "--against", str(ROOT), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=30,
    )
    assert refused.returncode == 2 and "--repeat >= 2" in refused.stderr


STAGELESS = """import argparse, json, pathlib
parser = argparse.ArgumentParser()
for flag in ("--label", "--repeat", "--out-dir"):
    parser.add_argument(flag)
parser.add_argument("configs", nargs="*")
args = parser.parse_args()
stems = [pathlib.Path(path).stem for path in args.configs]
doc = {"configs": {stem: {"validate_star": 1e-4, "total": 1e-3} for stem in stems},
       "process_wall": {stem: {"validate": 0.1, "report": 0.2} for stem in stems}}
(pathlib.Path(args.out_dir) / f"BENCH_{args.label}.json").write_text(json.dumps(doc))
"""


def test_stage_times_interleaves_a_checkout_that_times_fewer_stages(tmp_path):
    # the other checkout's script writes no from_json stage: each side keeps its own stages
    other = tmp_path / "other"
    (other / "tools").mkdir(parents=True)
    (other / "tools" / "stage_times.py").write_text(STAGELESS)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--label", "pair", "--repeat", "2",
         "--against", str(other), "--out-dir", str(tmp_path), str(ROOT / "configs" / "flat.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads((tmp_path / "BENCH_pair.json").read_text())
    assert "from_json" in doc["configs"]["this"]["flat"]
    assert set(doc["configs"]["against"]["flat"]) == {"validate_star", "total"}
    assert doc["configs"]["against"]["flat"]["total"]["median"] == 1e-3


def _load_stage_times():
    spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    return stage_times


def test_each_timed_run_starts_after_a_full_collection(monkeypatch):
    # a collection of earlier runs' garbage would land in whichever stage
    # crosses the threshold: one gc.collect() per run, before the stages
    # are wrapped and the clock starts
    stage_times = _load_stage_times()
    seen = []
    monkeypatch.setattr(stage_times.gc, "collect", lambda: seen.append(vars(stage_times.MeasureSystem)["from_json"]))
    original = vars(stage_times.MeasureSystem)["from_json"]
    stage_times.time_config(ROOT / "configs" / "flat.json", 3, "validate")
    assert seen == [original] * 3


def test_the_default_family_holds_the_generated_decaying_window(tmp_path):
    # configs/*.json, the six golden windows and perfbench's decaying window of
    # half-span 2000, written into the given directory and not timed here
    stage_times = _load_stage_times()
    paths = stage_times.default_family(tmp_path)
    assert paths[:-1] == sorted(ROOT.glob("configs/*.json")) + [ROOT / f"tests/golden/{name}.json" for name in
                                                               stage_times.GOLDEN]
    assert paths[-1] == tmp_path / "decaying2000.json" and list(tmp_path.iterdir()) == [paths[-1]]
    doc = json.loads(paths[-1].read_text())
    assert doc["window"] == {"min": -2000, "max": 2000} and len(doc["cells"]) == 4
    assert Fraction(doc["p"]) == 2 and doc["tails"] == {"left": "1/3", "right": "1/2"}
