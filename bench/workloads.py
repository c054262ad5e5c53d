"""The four workloads: their seeded inputs, their ops and output digests.

Each workload builds its inputs from the seed in ``setup``, does the work a
round needs before its ops in ``prepare`` (timed with the round but not an
op; only ``pool`` has any: building the pool), and lists one round of ops in
``ops``.  An op is a thunk whose result ``digest`` reduces to a short
canonical hash; the hashes recorded from the reference commit live in
``expected.json`` (see ``record.py``).

Why these workloads:

* ``pool``: many small data, each one new.  Stresses construction
  (``luna_datum`` plus ``validate`` on cold caches) and the
  ``integer_geometry`` kernels.
* ``enumerate``: few data, each validated once and searched deeply.  Puts
  ``containment`` and the double-description cones at the centre and reads
  cached derived data.
* ``root_table``: ``root_datum`` subdiagram typing and the candidate supports
  of the spherical-root table; almost no cone work.
* ``cli``: one fresh process per command, where import, parsing and report
  emission dominate.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import NamedTuple

import lunadata.cli
from lunadata.containment import (
    distinguished_roots,
    distinguished_roots_rank_one_variant,
    enumerate_finite_subdata,
    identity_component_datum,
    normalizer_datum,
    quotient_datum,
)
from lunadata.luna_core import (
    luna_datum,
    match_spherical_root,
    spherical_roots_of_group,
    validate,
)
from lunadata.root_datum import build_root_datum

from pool import (
    FIXTURE_DIR,
    FIXTURE_NAMES,
    colored_subspace_pool,
    generate_pool,
    load_fixture,
    seed_data,
)

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def datum_doc(datum) -> list:
    """The datum as plain JSON values: group, M, Sigma, Sp and the rho values."""
    group = datum.group
    return [group.simple_roots, group.simple_coroots, group.rank, datum.M.basis,
            sorted(datum.Sigma), sorted(datum.Sp),
            sorted(c.rho for c in datum.Da)]


def violations_doc(violations) -> list:
    return [[v.axiom, v.message] for v in violations]


def subdata_doc(subdata) -> list:
    return [[datum_doc(sd.datum), violations_doc(sd.violations),
             sd.witness.lattice.basis, sorted(sd.witness.colors)]
            for sd in subdata]


class Workload:
    def setup(self, seed: int):
        """The inputs of one run; everything here counts as set-up."""
        raise NotImplementedError

    def prepare(self, inputs):
        """Work a round does before its ops; timed with the round."""
        return None

    def check_prepared(self, inputs, state, expected) -> list:
        """Errors in what ``prepare`` built, compared with the recording."""
        return []

    def ops(self, inputs, state) -> list:
        """One round: (op id, thunk) pairs in the seeded order."""
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError

    def check_golden(self, op_id: str, result) -> bool:
        """False when a golden report covers the op and differs from it."""
        return True

    def starts_cold(self, op_id: str) -> bool:
        """Whether the caches are cleared before this op, not only before
        the round."""
        return False


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def check_datum(datum):
    """The closure checks run on every pool datum."""
    normal = normalizer_datum(datum)
    component = identity_component_datum(datum)
    quotients = [quotient_datum(datum, colored)
                 for colored in colored_subspace_pool(datum, max_span=2)[:8]]
    return (normal, validate(normal), component, validate(component),
            [(q, validate(q)) for q in quotients],
            enumerate_finite_subdata(datum, 2),
            distinguished_roots(datum),
            distinguished_roots_rank_one_variant(datum))


def pool_key(datum) -> str:
    return "d" + digest(datum_doc(datum))


class Pool(Workload):
    """Build a 120-datum pool breadth-first from the fixtures, then check
    each datum.  One op is one datum checked."""

    size = 120
    variants = 16  # generator seeds with recorded digests; run seed modulo this

    def setup(self, seed, variant=None):
        return {"seeds": seed_data(), "order": seed,
                "variant": seed % self.variants if variant is None else variant}

    def prepare(self, inputs):
        return generate_pool(inputs["seeds"], self.size, inputs["variant"])

    def check_prepared(self, inputs, data, expected):
        keys = digest([pool_key(d) for d in data])
        want = expected.get("keys", {}).get(str(inputs["variant"]))
        if len(data) != self.size or keys != want:
            return [f"pool {inputs['variant']}: {len(data)} data with key "
                    f"digest {keys}, recorded {want}"]
        return []

    def starts_cold(self, op_id):
        return True  # no check reuses another's work, whatever the order

    def ops(self, inputs, data):
        order = list(data)
        random.Random(inputs["order"]).shuffle(order)
        return [(pool_key(d), partial(check_datum, d)) for d in order]

    def digest(self, result):
        normal, normal_bad, component, component_bad, quotients, subdata, \
            dist, variant = result
        return digest([
            datum_doc(normal), violations_doc(normal_bad),
            datum_doc(component), violations_doc(component_bad),
            [[datum_doc(q), violations_doc(bad)] for q, bad in quotients],
            subdata_doc(subdata), sorted(dist), dist == variant])


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def a_n_datum(n: int):
    """Sigma = {2 alpha_1 .. 2 alpha_n}, M = Z Sigma, Sp empty, no colors."""
    group = build_root_datum([("A", n, "simply_connected")])
    sigma = [tuple(2 * x for x in a) for a in group.simple_roots]
    return luna_datum(group, sigma, sigma, frozenset(), [], rho_basis=sigma)


class Enumerate(Workload):
    """``enumerate_finite_subdata`` over a fixed set of (datum, bound) calls.
    One op is one call."""

    a_calls = [(n, 1) for n in range(2, 7)] + [(n, 2) for n in range(2, 6)]
    # Bounds 7 and 8 on every fixture put ops of close latency around the
    # 90th percentile, so that percentile does not jump between two of them.
    fixture_calls = ([(name, b) for name in FIXTURE_NAMES for b in (1, 2, 3, 4, 6, 7, 8)]
                     + [("spin5_wasserman14", 12), ("g2_ex53", 16)])

    def setup(self, seed):
        data = {name: load_fixture(name) for name in FIXTURE_NAMES}
        data.update({f"A{n}": a_n_datum(n) for n, _ in self.a_calls})
        calls = list(self.fixture_calls) + [(f"A{n}", b) for n, b in self.a_calls]
        # The data come in seeded order, each swept through its bounds upwards
        # from bound 1 on cold caches, so that what a call finds cached does
        # not depend on the order.
        names = sorted(data)
        random.Random(seed).shuffle(names)
        calls.sort(key=lambda call: (names.index(call[0]), call[1]))
        return data, calls

    def starts_cold(self, op_id):
        return op_id.endswith("@1")

    def ops(self, inputs, state):
        data, calls = inputs
        return [(f"{name}@{bound}",
                 partial(enumerate_finite_subdata, data[name], bound))
                for name, bound in calls]

    def digest(self, result):
        return digest(subdata_doc(result))


# ---------------------------------------------------------------------------
# root_table
# ---------------------------------------------------------------------------

def root_table(group):
    roots = spherical_roots_of_group(group)
    return roots, [match_spherical_root(group, r.gamma) for r in roots]


class RootTable(Workload):
    """The spherical-root table of a group on cold caches, then every root of
    it matched back against the table.  One op is one group."""

    groups = ([[("A", n)] for n in range(1, 11)]
              + [[("B", n)] for n in range(2, 7)]
              + [[("C", n)] for n in range(3, 7)]
              + [[("D", n)] for n in range(4, 8)]
              + [[("E", n)] for n in (6, 7, 8)]
              + [[("F", 4)], [("G", 2)]]
              # cheap products, so that a round holds enough ops
              + [[("A", 1)] * 2, [("A", 1)] * 3, [("A", 1)] * 4, [("A", 2)] * 2,
                 [("A", 2)] * 3, [("A", 3)] * 2, [("B", 2)] * 2, [("G", 2)] * 2,
                 [("A", 2), ("A", 1)], [("A", 3), ("A", 1)], [("A", 4), ("A", 2)],
                 [("A", 2), ("A", 1), ("A", 1)], [("A", 2), ("B", 2)],
                 [("B", 2), ("A", 1)], [("B", 3), ("A", 1)], [("B", 3), ("B", 2)],
                 [("B", 4), ("A", 1)], [("C", 3), ("A", 1)], [("C", 3), ("A", 2)],
                 [("C", 4), ("A", 1)], [("D", 4), ("A", 1)], [("F", 4), ("A", 1)],
                 [("G", 2), ("A", 1)], [("G", 2), ("B", 2)]])

    def setup(self, seed):
        out = []
        for i, factors in enumerate(self.groups):
            isogeny = ("simply_connected", "adjoint")[i % 2]
            name = "x".join(f"{t}{n}" for t, n in factors) + f".{isogeny}"
            out.append((name, build_root_datum([(t, n, isogeny) for t, n in factors])))
        random.Random(seed).shuffle(out)
        return out

    def ops(self, inputs, state):
        return [(name, partial(root_table, group)) for name, group in inputs]

    def digest(self, result):
        roots, matches = result
        return digest([
            [r.gamma, r.row.name, r.lam, sorted(r.spp)]
            + ([m.row.name, m.lam, sorted(m.spp), sorted(m.sp)] if m else [None])
            for r, m in zip(roots, matches)])


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Exit(NamedTuple):
    """What one CLI invocation returned."""

    code: int
    stdout: str
    cpu_s: float | None = None   # child CPU time; None when run in process
    rss_kb: int | None = None    # child peak resident memory, likewise


# Colors chosen with each fixture's subspace and pair file in cli_inputs/.
SUBSPACE_COLORS = {
    "spin5_wasserman14": "D+a2,D-a1",
    "spin7_ex51": "D+,D_a2",
    "spin7_ex52": "D_a1,D_a2",
    "g2_ex53": "D_a1,D_a2",
    "sl2sl2_ex54": "D-a1,D-a2",
    "pgl2pgl2_ex55": "D_a1a2",
}
PAIR_COLORS = {"spin5_wasserman14": "D+a1", "sl2sl2_ex54": "D+"}
# is-subdatum CANDIDATE AMBIENT: the Spin7 pair against each other, the rest
# against themselves.
PARTNER = {"spin7_ex51": "spin7_ex52", "spin7_ex52": "spin7_ex51"}
GOLDEN = {
    ("validate", "spin7_ex51"): "validate_spin7_ex51",
    ("colors", "g2_ex53"): "colors_g2_ex53",
    ("normalizer", "spin7_ex51"): "normalizer_spin7_ex51",
    ("connected", "sl2sl2_ex54"): "connected_sl2sl2_ex54",
    ("enumerate-finite", "spin5_wasserman14"): "enumerate_spin5_bound2",
    ("spherical-roots", "pgl2pgl2_ex55"): "spherical_roots_pgl2pgl2",
    ("distinguished-roots", "spin7_ex51"): "distinguished_spin7_ex51",
}


# Also run with --format text, for the text emitter; brings a round to 102 ops.
TEXT_COMMANDS = ("validate", "colors")
TEXT = " --format text"


def cli_argv(command: str, name: str) -> list:
    if command.endswith(TEXT):
        return cli_argv(command[:-len(TEXT)], name) + TEXT.split()
    fixture = str(FIXTURE_DIR / f"{name}.json")
    inputs = HERE / "cli_inputs"
    if command == "is-subdatum":
        return [command, str(FIXTURE_DIR / f"{PARTNER.get(name, name)}.json"),
                fixture]
    argv = [command, fixture]
    if command in ("quotient", "check-colored-subspace"):
        argv += ["--subspace",
                 f"{inputs / (name + '.subspace.json')}:{SUBSPACE_COLORS[name]}"]
    elif command in ("check-pair", "subdatum", "stein"):
        argv += ["--pair",
                 f"{inputs / (name + '.pair.json')}:{PAIR_COLORS.get(name, '')}"]
    elif command == "enumerate-finite":
        argv += ["--bound", "2"]
    return argv


def spawn(argv: list) -> Exit:
    """Run the CLI in a fresh interpreter and wait for it."""
    proc = subprocess.Popen([sys.executable, "-m", "lunadata.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, out.decode(), usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss)


def run_in_process(argv: list) -> Exit:
    """``lunadata.cli.run`` in this process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lunadata.cli.run(argv)
    return Exit(code, out.getvalue())


def normalized_report(text: str):
    """The report without its input path, parsed if it is JSON."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return [line for line in text.splitlines()
                if not line.lstrip().startswith("path:")]
    if isinstance(report, dict) and isinstance(report.get("input"), dict):
        report["input"].pop("path", None)
    return report


def golden_report(command: str, name: str):
    """The golden report covering this invocation, if there is one."""
    golden = GOLDEN.get((command, name))
    if golden is None:
        return None
    path = ROOT / "tests" / "golden" / f"{golden}.json"
    return normalized_report(path.read_text())


class Cli(Workload):
    """Every CLI command on every fixture, each in a fresh child process, one
    at a time, and two of them in text form too.  One op is one process,
    timed from spawn to exit."""

    in_process = False  # call lunadata.cli.run in this process instead

    def setup(self, seed):
        commands = lunadata.cli.COMMANDS + tuple(c + TEXT for c in TEXT_COMMANDS)
        calls = [(command, name) for command in commands for name in FIXTURE_NAMES]
        random.Random(seed).shuffle(calls)
        return [(f"{command}:{name}", cli_argv(command, name)) for command, name in calls]

    def ops(self, inputs, state):
        run = run_in_process if self.in_process else spawn
        return [(op_id, partial(run, argv)) for op_id, argv in inputs]

    def starts_cold(self, op_id):
        return True  # as a fresh process does

    def digest(self, result):
        return digest([result.code, normalized_report(result.stdout)])

    def check_golden(self, op_id, result):
        golden = golden_report(*op_id.split(":"))
        return golden is None or golden == normalized_report(result.stdout)


WORKLOADS = {"pool": Pool(), "enumerate": Enumerate(),
             "root_table": RootTable(), "cli": Cli()}


def setup(name: str, seed: int):
    return WORKLOADS[name].setup(seed)

