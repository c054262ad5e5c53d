"""Record the output digest of every op any seed can run.

    python3 bench/record.py

Run from the root of a checkout at the commit whose outputs are the
reference.  It covers every pool generator variant and every op of the other
workloads, whose seed only orders them, and rewrites ``bench/expected.json``.  A CLI report that differs from its golden
file stops the recording.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402


def record_ops(workload, inputs, state, into: dict):
    for op_id, fn in workload.ops(inputs, state):
        result = fn()
        got = workload.digest(result)
        if into.setdefault(op_id, got) != got:
            raise RuntimeError(f"{op_id}: digest is not deterministic")
        if not workload.check_golden(op_id, result):
            raise RuntimeError(f"{op_id}: differs from its golden report")


def main() -> int:
    caches = layers.Caches()
    expected = {}
    pool = workloads.WORKLOADS["pool"]
    keys, ops = {}, {}
    for variant in range(pool.variants):
        caches.clear()
        inputs = pool.setup(0, variant)
        data = pool.prepare(inputs)
        keys[str(variant)] = workloads.digest([workloads.pool_key(d) for d in data])
        record_ops(pool, inputs, data, ops)
        print(f"pool variant {variant}: {len(ops)} data so far", file=sys.stderr)
    expected["pool"] = {"keys": keys, "ops": ops}
    for name in ("enumerate", "root_table", "cli"):
        workload, ops = workloads.WORKLOADS[name], {}
        caches.clear()
        record_ops(workload, workload.setup(0), None, ops)
        expected[name] = {"ops": ops}
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
