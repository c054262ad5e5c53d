"""Run each workload on several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Run from the root of a checkout.  For each workload it makes one untraced run
per seed and one traced run on the first seed, with the ``run_seconds`` of
``BENCHMARK.json``, and reports for every end-to-end metric the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them.  A spread
above a third of the metric's bound is marked.  The median and spread of the
unscaled metrics (``raw_metrics`` of each run record) are recorded beside
them, to show what scaling to the reference speed adds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def last_record(workload: str, seed: int) -> dict:
    """The run record ``run.py`` appended last, which holds the unscaled
    metrics."""
    with (HERE / "out" / "results.jsonl").open() as log:
        record = json.loads(log.readlines()[-1])
    assert (record["workload"], record["seed"]) == (workload, seed)
    return record


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None, help="write the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results, raws = [], []
        for seed in seeds:
            results.append(run(name, seed, spec["run_seconds"], 0))
            raws.append(last_record(name, seed)["raw_metrics"])
            print(f"{name} seed {seed}: attempted {results[-1]['attempted']} "
                  f"failed {results[-1]['failed']}", file=sys.stderr)
        metrics = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            raw_q1, raw_median, raw_q3 = statistics.quantiles(
                [r[metric] for r in raws], n=4)
            metrics[metric] = {"median": median, "q1": q1,
                               "q3": q3, "spread": spread,
                               "raw_median": raw_median,
                               "raw_spread": (raw_q3 - raw_q1) / raw_median,
                               "unit": results[0]["metrics"][metric]["unit"]}
            flag = "" if metric == "setup_s" or spread < bounds[metric] / 3 else "  <- above bound/3"
            print(f"  {name:10s} {metric:12s} median {median:11.4f}"
                  f"  spread {spread:.4f} (bound {bounds[metric]}){flag}"
                  f"  raw spread {metrics[metric]['raw_spread']:.4f}")
        traced = run(name, seeds[0], spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
