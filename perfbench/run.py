"""Closed-loop benchmark of the ``shiftlab`` command line, one client, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload small_hc --seed 1 --seconds 20 --trace 0

The run imports ``shiftlab`` from ``src/``, writes the workload's seeded
configs under ``perfbench/out/``, and calls ``shiftlab.cli.main`` in-process
on each op of the workload, one after another.  Every output is checked
against answers known from how its config was built, and every repeat of an
op must print the same bytes as its first run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and, with
``--trace 0``, the end-to-end metrics named in ``BENCHMARK.json``.  With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones; the spans go to ``perfbench/out/trace-<workload>.json``.
``perfbench/out/record-<workload>.json`` keeps the rest: op list, sizes,
raw timings, Python version, CPU count, failures and trace sanity checks.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads as W
from tracer import CRITERIA, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Work per run is fixed for a given --seconds: passes = seconds / nominal
# pass time (probe-scaled, measured at the commit that added this file).
# A fixed count keeps the latency sample the same size from run to run and
# from commit to commit.
NOMINAL_PASS_S = {"small_hc": 4.5, "wide_window": 3.45, "quick_commands": 0.22}
MIN_PASSES = 2  # a pass and its repeat
WALL_CAP = 1.75  # stop starting passes after this many times --seconds of wall time
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_s is the latency with this many samples above it

# The speed probe.  On a shared VM the CPU speed drifts by up to 1.7x over
# seconds to minutes.  Over 50 passes of small_hc the wall time of a pass
# had an interquartile range of 18% of its median; its ratio to the mean
# time of the probe, run between its ops, 7.5% (the median probe time
# tracked it worse).  So every time is scaled by PROBE_NOMINAL_S over the
# mean probe time within PROBE_WINDOW_S of it, and reads as seconds on a CPU
# that runs the probe in PROBE_NOMINAL_S.  Probes run at a steady rate,
# catching up after long ops, between ops and never inside a timed
# interval; they take about 2% of the run.
PROBE_EVERY_S = 0.2
PROBE_CATCH_UP = 10
PROBE_WINDOW_S = 2.0
PROBE_NOMINAL_S = 0.004


def _probe_work() -> Fraction:
    """Block products of small mass ratios: the kind of Fraction work the
    program does, written without it."""
    masses = [Fraction(3 + i % 5, 2 ** (i % 4)) + Fraction(1, 1 + i % 3) for i in range(28)]
    best = Fraction(0)
    for n in range(1, 11):
        for k in range(len(masses) - n):
            q = Fraction(1)
            for j in range(k, k + n):
                q *= masses[j] / masses[j + 1]
            best = max(best, q)
    return best


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        _probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def run_due(self) -> None:
        """The probes owed since the last one, at PROBE_EVERY_S."""
        owed = 1 if not self.starts else int((time.perf_counter() - self.starts[-1]) / PROBE_EVERY_S)
        for _ in range(min(owed, PROBE_CATCH_UP)):
            self.run()

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured over [start, end]."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        return PROBE_NOMINAL_S / statistics.fmean(self.durations[lo:hi])


def set_up(workload: str, seed: int):
    """Import shiftlab afresh, generate and write the workload's configs and
    load each once."""
    for name in [m for m in sys.modules if m == "shiftlab" or m.startswith("shiftlab.")]:
        del sys.modules[name]
    cli = importlib.import_module("shiftlab.cli")
    sampling = importlib.import_module("shiftlab.sampling")
    small, wide, defect = W.generate(seed, ROOT, sampling.P_POOL)
    configs = W.configs_for(workload, small, wide) + [defect]
    W.write_configs(configs, OUT / workload)
    for config in configs:
        cli.MeasureSystem.from_json(config.path.read_text())
    return cli, small, wide, defect


def invoke(cli, argv: list[str]) -> tuple[float, float, int | None, str]:
    """One CLI call: start, latency, exit code (None on an uncaught
    exception), and what it printed to stdout, or the error."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught exception is a failed op, not a crash
        return start, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0:
        return start, latency, code, f"exit {code}: {err.getvalue().strip()[:200]}"
    return start, latency, code, out.getvalue()


class Client:
    """Runs ops one after another, probes the CPU speed between them, and
    judges every output."""

    def __init__(self, cli, probe: SpeedProbe):
        self.cli = cli
        self.probe = probe
        self.first: dict[tuple[str, ...], str] = {}
        self.attempts: list[tuple[W.Op, float, float]] = []  # (op, start, latency)
        self.failures: dict[str, int] = {}

    def run_pass(self, ops: list[W.Op], before_op=None) -> None:
        for op in ops:
            self.probe.run_due()
            if before_op is not None:
                before_op(op)
            start, latency, code, text = invoke(self.cli, op.argv)
            self.attempts.append((op, start, latency))
            error = self._judge(op, text) if code == 0 else text
            if error is not None:
                key = f"{op.label}: {error}"
                self.failures[key] = self.failures.get(key, 0) + 1
        self.probe.run_due()

    def _judge(self, op: W.Op, text: str) -> str | None:
        key = tuple(op.argv)
        if key in self.first:
            return None if text == self.first[key] else "output differs from the first run of this op"
        self.first[key] = text
        try:
            problems = W.check_output(op.config, op.command, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return "; ".join(problems) or None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self, first: int = 0) -> list[float]:
        """Probe-scaled latencies of the attempts from ``first`` on."""
        return [lat * self.probe.factor(start, start + lat) for _, start, lat in self.attempts[first:]]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[rank], 100.0 * rank / max(1, len(ordered) - 1)


def end_to_end(client: Client, pass_ops, passes: int, seconds: float, setup_s: float, record: dict) -> dict:
    # fresh per-op seeds on every pass average out their heavy-tailed cost;
    # the last pass repeats the first, so repeats are checked byte for byte
    loop_start = time.perf_counter()
    done = 0
    for number in range(passes - 1):
        # the cap only guards the run time on a machine far slower than nominal
        if number and time.perf_counter() - loop_start > WALL_CAP * seconds:
            break
        client.run_pass(pass_ops(number))
        done += 1
    client.run_pass(pass_ops(0))
    done += 1
    wall = time.perf_counter() - loop_start
    ok = len(client.attempts) - client.failed
    scaled = client.scaled()
    raw = [lat for _, _, lat in client.attempts]
    by_op: dict[str, list[float]] = {}
    for (op, _, _), lat in zip(client.attempts, scaled):
        by_op.setdefault(op.label, []).append(lat)
    tail_s, tail_pct = tail(scaled)
    record.update(
        passes_done=done, latency_samples=len(scaled),
        op_tail_percentile=round(tail_pct, 2), op_tail_beyond=TAIL_BEYOND,
        raw={"ops_per_s_wall": ok / wall, "ops_per_s": ok / sum(raw), "op_p50_s": statistics.median(raw),
             "op_tail_s": tail(raw)[0], "loop_wall_s": wall},
        probe_mean_s=statistics.fmean(client.probe.durations),
        op_p50_by_op={label: statistics.median(v) for label, v in by_op.items()},
    )
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(client: Client, pass_ops, passes: int, workload: str, record: dict) -> dict:
    tracer = Tracer()
    traced: list[tuple[W.Op, int]] = []  # per traced op id: the op, its index in client.attempts
    per_pass = []
    plain_s = traced_s = 0.0

    def before_op(op: W.Op) -> None:
        tracer.op = len(traced)
        traced.append((op, len(client.attempts)))

    # each traced pass repeats the untraced pass before it, so the trace is
    # also checked not to change a byte of output
    for number in range(max(1, passes // 4)):
        ops = pass_ops(number)
        first = len(client.attempts)
        client.run_pass(ops)
        plain_s += sum(client.scaled(first))
        mark = tracer.snapshot()
        first = len(client.attempts)
        tracer.install()
        try:
            client.run_pass(ops, before_op)
        finally:
            tracer.uninstall()
        traced_s += sum(client.scaled(first))
        per_pass.append(tracer.totals_since(mark))

    values: dict[str, float] = {}
    for i, target in enumerate(TARGETS):
        name = target.metric
        calls = sum(p[0][i] for p in per_pass)
        values[f"{name}.calls"] = calls / len(per_pass)
        if target.span:
            values[f"{name}.self_s"] = statistics.median(p[1][i] for p in per_pass) / 1e9
        if target.observe == "bits":
            values[f"{name}.max_bits"] = tracer.max_bits[i]
        if target.observe == "exact":
            values[f"{name}.exact_ratio"] = tracer.exact[i] / max(1, calls)
    values["trace.overhead_ratio"] = traced_s / plain_s

    # the top-level spans of each traced op against its wall time
    top = [0] * len(traced)
    for _, start, end, parent, op_id in tracer.spans:
        if parent == -1:
            top[op_id] += end - start
    values["trace.toplevel_share_min"] = min(
        top[op_id] / 1e9 / client.attempts[attempt][2] for op_id, (_, attempt) in enumerate(traced)
    )
    record.update(
        traced_passes=len(per_pass),
        lookup_sites=tracer.lookup_sites(),
        sanity=sanity(tracer, [op for op, _ in traced]),
    )
    tracer.write(OUT / f"trace-{workload}.json", [op.label for op, _ in traced])
    return values


def sanity(tracer: Tracer, traced_ops: list[W.Op]) -> dict:
    """The trace against the hand-timed baseline: on dyadic the weak-mixing
    trial is the costliest criterion; on wide windows derive_weights holds
    most of semicheck and wp_product most of menet_unilateral.  Inclusive
    span times, summed over the traced passes."""
    spans, names = tracer.spans, tracer.names

    def inside(label: str, name: str, ancestor: str | None = None) -> int:
        """Time in ``name`` spans of the ops labelled ``label``, counting
        only those that run under an ``ancestor`` span when one is given."""
        total = 0
        for name_i, start, end, parent, op_id in spans:
            if traced_ops[op_id].label != label or names[name_i] != name:
                continue
            while ancestor is not None and parent != -1 and names[spans[parent][0]] != ancestor:
                parent = spans[parent][3]
            if ancestor is None or parent != -1:
                total += end - start
        return total

    out: dict = {}
    for label in sorted({op.label for op in traced_ops if op.command == "report"}):
        config = label.split(":")[1]
        if config == "dyadic":
            crit = {c: inside(label, f"criteria.{c}") for c in CRITERIA}
            out["dyadic_largest_criterion"] = max(crit, key=crit.get)
            out["dyadic_weak_mixing_share_of_criteria"] = round(
                crit["weak_mixing_consistency"] / sum(crit.values()), 3)
        if config.startswith("wide"):
            semi, menet = "cli._semicheck_section", "criteria.menet_unilateral"
            out[f"{config}_semicheck_share_in_derive_weights"] = round(
                inside(label, "shift_space.derive_weights", semi) / inside(label, semi), 3)
            out[f"{config}_menet_share_in_wp_product"] = round(
                inside(label, "shift_space.wp_product", menet) / inside(label, menet), 3)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    probe = SpeedProbe()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe.run()
        start = time.perf_counter()
        cli, small, wide, defect = set_up(args.workload, args.seed)
        elapsed = time.perf_counter() - start
        probe.run()
        setup_raw.append(elapsed)
        setup_scaled.append((start, elapsed))
    setup_s = statistics.median(e * probe.factor(s, s + e) for s, e in setup_scaled)

    configs = W.configs_for(args.workload, small, wide)
    for config in configs:
        W.attach_answers(config)

    def pass_ops(number: int) -> list[W.Op]:
        return W.op_list(args.workload, args.seed, small, wide, number)

    # the known defect: exit code only, never timed (see workloads.DEFECT_HALF_SPAN)
    defect_seed = random.Random(f"defect:{args.seed}").randrange(2**32)
    _, _, defect_exit, defect_text = invoke(
        cli, ["report", "--config", str(defect.path), "--seed", str(defect_seed)])

    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    client = Client(cli, probe)
    record = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "first_pass_ops": [f"{op.label} --seed {op.seed}" for op in pass_ops(0)],
        "sizes": {c.name: {"half_span": c.k_max, "cells": len(c.mu[0]), "p": str(c.p)} for c in configs},
        "setup_s_raw": setup_raw,
        "known_defect": {"config": defect.name, "exit": defect_exit,
                         "error": defect_text if defect_exit != 0 else None},
    }
    if args.trace:
        values = per_layer(client, pass_ops, passes, args.workload, record)
        values["known_defect.wide_hc_report_exit"] = defect_exit
        wanted = spec["per_layer"]
    else:
        values = end_to_end(client, pass_ops, passes, args.seconds, setup_s, record)
        wanted = spec["end_to_end"]
    attempted = len(client.attempts)
    record.update(attempted=attempted, failed=client.failed, failed_frac=client.failed / attempted,
                  failures=client.failures, values=values)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    for message, count in sorted(client.failures.items()):
        print(f"FAILED x{count} {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {passes} passes x {len(record['first_pass_ops'])} ops, "
          f"failed {client.failed}/{attempted}, known defect exit {defect_exit}, "
          f"python {record['python']}, nproc {record['nproc']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": client.failed == 0, "attempted": attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
