"""Interleaved perfbench pairs of this checkout against another one.

    python tools/perf_pairs.py --against ../parent --workload small_hc
    python tools/perf_pairs.py --against ../parent --workload wide_window --pairs 10 --seed 7 --seconds 20

Each pair runs ``perfbench/run.py --trace 0`` once in this checkout
("this") and once in the checkout at ``--against`` ("against"), each in a
fresh process from its own root, the side that runs first alternating from
pair to pair.  The last line of each run's standard output is its result.
For every end-to-end metric of this checkout's ``BENCHMARK.json`` it writes
the per-pair values, each side's median and quartiles and the pairs that
"this" wins to ``BENCH_pairs-<workload>.json``, and flags a metric whose
median on "this" is worse than on "against" by more than the metric's
``bound`` (a fraction of the "against" median), and any rise in ``failed``.
It exits 1 when something is flagged.  A metric whose "against" runs spread,
as (q3 - q1) / median, wider than its bound is marked ``unresolved``: the
pairs cannot tell a change within the bound from none, unless every run of
"this" beats every run of "against".

Standard library only; it writes nothing under ``perfbench/`` itself (the
runs write their records to ``perfbench/out/`` of each checkout).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("this", "against")


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return parse_result(done.stdout)


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(spec: dict, pairs: list[dict[str, dict]]) -> dict:
    """Per-pair values, spreads, wins and flags of every end-to-end metric
    in ``spec`` over ``pairs``, each a result of both sides."""
    doc: dict = {"pairs": len(pairs), "metrics": {}, "flags": []}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        spread = {side: _spread(values[side]) for side in SIDES}
        this, against = spread["this"]["median"], spread["against"]["median"]
        worse_by = (against - this if higher else this - against) / against if against else 0.0
        wins = sum(t > a if higher else t < a for t, a in zip(values["this"], values["against"]))
        against_spread = (spread["against"]["q3"] - spread["against"]["q1"]) / against if against else 0.0
        beats_all = (min(values["this"]) > max(values["against"]) if higher
                     else max(values["this"]) < min(values["against"]))
        doc["metrics"][name] = {"better": metric["better"], "bound": metric["bound"], "values": values,
                                **spread, "wins": wins, "worse_by": worse_by, "against_spread": against_spread,
                                "unresolved": against_spread > metric["bound"] and not beats_all}
        if worse_by > metric["bound"]:
            doc["flags"].append(f"{name}: median {this:.6g} against {against:.6g}, "
                                f"worse by {worse_by:.1%} > bound {metric['bound']:.0%}")
    failed = {side: [pair[side]["failed"] for pair in pairs] for side in SIDES}
    doc["failed"] = failed
    if sum(failed["this"]) > sum(failed["against"]):
        doc["flags"].append(f"failed: {sum(failed['this'])} against {sum(failed['against'])}")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, required=True, help="the other checkout's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    roots = {"this": ROOT, "against": args.against.resolve()}
    pairs = []
    for index in range(args.pairs):
        pair = {}
        for side in (SIDES if index % 2 == 0 else SIDES[::-1]):
            pair[side] = run_side(roots[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "sides": {side: str(root) for side, root in roots.items()}, **summarize(spec, pairs)}
    out = ROOT / f"BENCH_pairs-{args.workload}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, m in doc["metrics"].items():
        print(f"{name}: this {m['this']['median']:.6g} [{m['this']['q1']:.6g}, {m['this']['q3']:.6g}]  "
              f"against {m['against']['median']:.6g} [{m['against']['q1']:.6g}, {m['against']['q3']:.6g}]  "
              f"wins {m['wins']}/{len(pairs)}{'  unresolved' if m['unresolved'] else ''}")
    for flag in doc["flags"]:
        print(f"FLAG {flag}")
    print(out)
    return 1 if doc["flags"] else 0


if __name__ == "__main__":
    sys.exit(main())
