"""One benchmark run of one workload.

    python3 bench/run.py --workload pool --seed 7 --seconds 24 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run sets up the
workload several times in fresh interpreters (``setup_s``), then repeats
rounds of ops from cold caches until ``--seconds`` have passed and prints the
end-to-end metrics.  With ``--trace 1`` it runs one untraced round, one
round with spans around the layer functions and one more untraced round,
whatever ``--seconds`` says, and prints the per-layer metrics of the traced
round.  Timings of the rounds are
scaled to a reference machine speed (see ``speed.py``).  Either way every
op's output digest is checked against ``expected.json`` and, for the CLI,
against ``tests/golden/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans
and an environment record go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
LATENCY_OPS = 100
BARE_REF_S = 0.04  # a bare interpreter, spawn to exit, at the reference speed


def child_time(argv: list) -> float:
    """Wall seconds from spawning a Python child to its exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> tuple:
    """Time for a fresh interpreter to import and build the inputs, at the
    reference speed, and the raw median.  Each probe is divided by a bare
    interpreter started just before it, and the median ratio is multiplied
    by BARE_REF_S: the speed ticks of this process do not track a child that
    is mostly starting and importing, but a bare child does."""
    code = f"import workloads; workloads.setup({workload!r}, {seed})"
    ratios, times = [], []
    for _ in range(SETUP_REPEATS):
        bare = child_time(["-c", "pass"])
        times.append(child_time(["-c", code]))
        ratios.append(times[-1] / bare)
    return BARE_REF_S * statistics.median(ratios), statistics.median(times)


def import_seconds() -> float:
    """Importing ``lunadata.cli``, less the bare interpreter (medians)."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(child_time(["-c", "pass"]))
        full.append(child_time(["-c", "import lunadata.cli"]))
    return statistics.median(full) - statistics.median(bare)


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "loadavg": os.getloadavg()}


class Measurement:
    """Every timed step of a run, the speed ticks taken during it, and every
    op's digest and failure."""

    def __init__(self):
        self.steps = []       # (round, is an op, start, end, cpu s, child cpu)
        self.speed = SpeedProbe()
        self.complete = 0     # rounds that ran all their ops: the first ones
        self.round_ops = 0    # ops in a complete round
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.child_rss_kb = 0

    def _times(self, scaled: bool):
        """(round, is an op, wall s, cpu s) of each step, ticks removed and,
        if ``scaled``, at the reference speed."""
        for round_no, is_op, start, end, cpu, child in self.steps:
            spent, factor = self.speed.adjust(start, end)
            factor = factor if scaled else 1.0
            yield (round_no, is_op, (end - start - spent) * factor,
                   (cpu if child else cpu - spent) * factor)

    def rounds(self, scaled=True) -> list:
        """(wall s, cpu s, ops) of each complete round."""
        out = [[0.0, 0.0, 0] for _ in range(self.complete)]
        for round_no, is_op, wall, cpu in self._times(scaled):
            if round_no < self.complete:
                out[round_no][0] += wall
                out[round_no][1] += cpu
                out[round_no][2] += is_op
        return out

    def samples(self, scaled=True) -> list:
        """Wall seconds of the ops of the fewest first rounds that hold
        LATENCY_OPS ops, so that ten lie beyond the 90th percentile.  A fixed
        number of rounds keeps each percentile at the same rank of the same
        ops from run to run."""
        rounds = -(-LATENCY_OPS // self.round_ops)
        return [wall for round_no, is_op, wall, _ in self._times(scaled)
                if is_op and round_no < rounds]


def measure(workload, inputs, expected, caches, seconds=0, rounds=None,
            tracer=None) -> Measurement:
    """Rounds from cold caches until ``seconds`` pass, or exactly ``rounds``
    rounds.  The first rounds that hold LATENCY_OPS ops always complete, so
    the latencies come from the same ops in every run; a later round stops
    at the deadline and contributes its ops but no round time."""
    from workloads import Exit

    m = Measurement()
    want = expected["ops"]
    clock, cpu_clock = time.perf_counter, time.process_time
    deadline = clock() + seconds
    needed = rounds or 1  # rounds that must complete; known after the first
    round_no = 0
    with m.speed:
        while round_no < needed or (not rounds and clock() < deadline):
            caches.clear()
            t, c = clock(), cpu_clock()
            state = workload.prepare(inputs)
            m.steps.append((round_no, False, t, clock(), cpu_clock() - c, False))
            m.errors += workload.check_prepared(inputs, state, expected)
            ops = workload.ops(inputs, state)
            m.round_ops = len(ops)
            needed = rounds or -(-LATENCY_OPS // m.round_ops)
            done = 0
            for op_id, fn in ops:
                if round_no >= needed and clock() >= deadline:
                    break
                if tracer is not None:
                    tracer.op = op_id
                m.attempted += 1
                if workload.starts_cold(op_id):
                    caches.clear()
                t, c = clock(), cpu_clock()
                try:
                    result = fn()
                except Exception as exc:  # an op that raises is a failed op
                    result = exc
                end, cpu = clock(), cpu_clock() - c
                child = isinstance(result, Exit) and result.cpu_s is not None
                if child:
                    cpu = result.cpu_s
                    m.child_rss_kb = max(m.child_rss_kb, result.rss_kb)
                m.steps.append((round_no, True, t, end, cpu, child))
                done += 1
                if isinstance(result, Exception):
                    m.failed += 1
                    m.errors.append(f"{op_id}: raised {result!r}")
                    continue
                got = workload.digest(result)
                m.digests[op_id] = got
                if got != want.get(op_id):
                    m.failed += 1
                    m.errors.append(f"{op_id}: digest {got}, recorded {want.get(op_id)}")
                elif not workload.check_golden(op_id, result):
                    m.failed += 1
                    m.errors.append(f"{op_id}: differs from its golden report")
            m.complete += done == len(ops)
            round_no += 1
    return m


def end_to_end(m: Measurement, setup_s: float, peak_rss_mb: float,
               scaled=True) -> dict:
    rounds, samples = m.rounds(scaled), m.samples(scaled)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _, _ in rounds),
        "cpu_s": statistics.median(c for _, c, _ in rounds),
        "ops_per_s": statistics.median(n / w for w, _, n in rounds),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_p90_ms": statistics.quantiles(samples, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lunadata" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lunadata package under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    env = environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    caches = layers.Caches()

    if not args.trace:
        setup_s, raw_setup_s = setup_seconds(args.workload, args.seed)
        inputs = workload.setup(args.seed)
        m = measure(workload, inputs, expected, caches, args.seconds)
        peak = (m.child_rss_kb if args.workload == "cli" else
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024
        metrics = end_to_end(m, setup_s, peak)
        raw = end_to_end(m, raw_setup_s, peak, scaled=False)
        listed = spec["end_to_end"]
        runs = [m]
    else:
        import_s = import_seconds()
        if args.workload == "cli":
            workload.in_process = True
        inputs = workload.setup(args.seed)
        # an untraced round on each side of the traced one, so that the
        # overhead compares rounds run next to each other
        before = measure(workload, inputs, expected, caches, rounds=1)
        caches.clear()
        caches.reset_stats()
        tracer = layers.Tracer()
        with tracer:
            traced = measure(workload, inputs, expected, caches, rounds=1,
                             tracer=tracer)
        caches.clear()
        metrics = {**tracer.metrics(traced.speed), **caches.metrics(),
                   "cli.import_s": import_s}
        after = measure(workload, inputs, expected, caches, rounds=1)
        if not traced.digests == before.digests == after.digests:
            traced.errors.append("traced digests differ from untraced ones")
        untraced = (before.rounds()[0][0] + after.rounds()[0][0]) / 2
        metrics["trace.overhead_ratio"] = traced.rounds()[0][0] / untraced
        raw = {}
        listed = spec["per_layer"]
        runs = [before, traced, after]
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")

    mismatched = {x["name"] for x in listed} ^ set(metrics)
    if mismatched:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(mismatched)}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {x["name"]: {"value": metrics[x["name"]], "unit": x["unit"]}
                          for x in listed}}
    OUT.mkdir(exist_ok=True)
    record = {"at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "rounds": [r.complete for r in runs],
              "latency_samples": len(runs[0].samples()),
              "raw_round_walls": [[w for w, _, _ in r.rounds(False)] for r in runs],
              "tick_median_s": statistics.median(
                  x for r in runs for x in r.speed.durations),
              "raw_metrics": raw,
              "failed_ratio": failed / attempted, "errors": errors[:20],
              "result": result}
    with (OUT / "results.jsonl").open("a") as log:
        log.write(json.dumps(record) + "\n")
    for line in errors[:20]:
        sys.stderr.write(f"error: {line}\n")
    sys.stderr.write(
        f"{args.workload} seed {args.seed}: {attempted} ops, "
        f"{record['latency_samples']} latency samples, "
        f"{record['rounds']} complete rounds, failed_ratio "
        f"{record['failed_ratio']:.4f}; python {env['python']}, nproc "
        f"{env['nproc']}, {env['cpu']}, load {env['loadavg'][0]:.2f}, "
        f"commit {env['commit']}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
