"""tools/perf_pairs.py on canned perfbench result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def _line(ops: float, p50: float, failed: int = 0) -> str:
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "op_p50_s": {"value": p50, "unit": "s"}}
    return json.dumps({"correct": failed == 0, "attempted": 30, "failed": failed, "metrics": metrics})


def test_the_result_is_the_last_line():
    out = "small_hc seed=7: 2 passes x 15 ops, failed 0/30\n" + _line(100.0, 0.01) + "\n\n"
    assert perf_pairs.parse_result(out)["metrics"]["ops_per_s"]["value"] == 100.0


def test_spreads_wins_and_no_flag_within_the_bounds():
    pairs = [{"this": perf_pairs.parse_result(_line(ops + 10, 0.010)),
              "against": perf_pairs.parse_result(_line(ops, 0.011))} for ops in (100.0, 110.0, 120.0)]
    doc = perf_pairs.summarize(SPEC, pairs)
    ops = doc["metrics"]["ops_per_s"]
    assert ops["values"] == {"this": [110.0, 120.0, 130.0], "against": [100.0, 110.0, 120.0]}
    assert (ops["this"]["q1"], ops["this"]["median"], ops["this"]["q3"]) == (115.0, 120.0, 125.0)
    assert ops["against"]["median"] == 110.0
    assert ops["wins"] == 3 and doc["metrics"]["op_p50_s"]["wins"] == 3
    assert ops["worse_by"] == pytest.approx(-10 / 110)
    assert doc["flags"] == [] and doc["failed"] == {"this": [0, 0, 0], "against": [0, 0, 0]}


def test_a_metric_past_its_bound_and_a_rise_in_failed_are_flagged():
    # higher-better ops fall 30%, lower-better p50 rises 20%: only ops passes its bound
    pairs = [{"this": perf_pairs.parse_result(_line(70.0, 0.012, failed=1)),
              "against": perf_pairs.parse_result(_line(100.0, 0.010))} for _ in range(2)]
    doc = perf_pairs.summarize(SPEC, pairs)
    assert [flag.split(":")[0] for flag in doc["flags"]] == ["ops_per_s", "failed"]
    assert doc["metrics"]["op_p50_s"]["worse_by"] == pytest.approx(0.2)
    assert doc["metrics"]["ops_per_s"]["wins"] == 0


def _pairs(this_ops: list[float], against_ops: list[float]) -> list[dict]:
    return [{"this": perf_pairs.parse_result(_line(t, 0.01)), "against": perf_pairs.parse_result(_line(a, 0.01))}
            for t, a in zip(this_ops, against_ops)]


def test_a_spread_past_the_bound_is_unresolved_unless_this_beats_every_run():
    against = [60.0, 80.0, 100.0, 120.0, 140.0]  # (q3 - q1) / median = 40 / 100, past the bound 0.25
    doc = perf_pairs.summarize(SPEC, _pairs([a + 5 for a in against], against))
    ops = doc["metrics"]["ops_per_s"]
    # this wins every pair, yet its runs overlap the parent's: unresolved, not a gain
    assert ops["against_spread"] == pytest.approx(0.4)
    assert ops["unresolved"] and ops["wins"] == 5 and doc["flags"] == []
    # op_p50_s has no spread at all: resolved
    assert doc["metrics"]["op_p50_s"]["against_spread"] == 0 and not doc["metrics"]["op_p50_s"]["unresolved"]
    # every run of this above every run of against: resolved however wide the spread
    beaten = perf_pairs.summarize(SPEC, _pairs([a + 100 for a in against], against))["metrics"]["ops_per_s"]
    assert beaten["against_spread"] == pytest.approx(0.4) and not beaten["unresolved"]


def test_main_alternates_the_first_side_and_writes_the_pairs(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(perf_pairs, "ROOT", tmp_path)
    order = []

    def fake_run(root, workload, seed, seconds):
        order.append("this" if root == tmp_path else "against")
        return perf_pairs.parse_result(_line(100.0, 0.01))

    monkeypatch.setattr(perf_pairs, "run_side", fake_run)
    assert perf_pairs.main(["--against", str(tmp_path / "other"), "--workload", "w", "--pairs", "3"]) == 0
    assert order == ["this", "against", "against", "this", "this", "against"]
    doc = json.loads((tmp_path / "BENCH_pairs-w.json").read_text())
    assert doc["pairs"] == 3 and doc["seed"] == 7 and doc["seconds"] == 20
    assert set(doc["metrics"]) == {"ops_per_s", "op_p50_s"} and doc["flags"] == []
