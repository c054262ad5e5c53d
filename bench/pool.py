"""The pinned input generator of the ``pool`` workload.

A breadth-first closure of the six bundled fixtures and their torus
extensions under the derived-datum operations, stopped at a fixed number of
data.  Every candidate is filtered through the axiom validator, so the pool
holds only valid data.  The only randomness is the choice of finite-index
sublattices in :func:`_lattice_down`, drawn from a ``random.Random`` seeded
by the caller, so a seed fixes the pool.

The logic starts from the property-suite generator in the tests, but lives
here so that edits to the tests cannot move the workload; the recorded
digest of the pool's datum keys fails the benchmark if it drifts.
"""

from __future__ import annotations

import json
import random
from collections import deque
from itertools import combinations
from pathlib import Path

from lunadata.cli import parse_datum
from lunadata.containment import (
    ColoredSubspace,
    _d_saturation,
    enumerate_finite_subdata,
    identity_component_datum,
    is_colored_subspace,
    normalizer_datum,
    quotient_datum,
    sublattices_of_index,
)
from lunadata.integer_geometry import Sublattice, Subspace
from lunadata.luna_core import (
    full_colors,
    luna_datum,
    pair_with_rho,
    validate,
    valuation_cone,
)
from lunadata.root_datum import build_root_datum

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "lunadata" / "fixtures"

FIXTURE_FACTORS = {
    "spin5_wasserman14": [("B", 2, "simply_connected")],
    "spin7_ex51": [("B", 3, "simply_connected")],
    "spin7_ex52": [("B", 3, "simply_connected")],
    "g2_ex53": [("G", 2, "simply_connected")],
    "sl2sl2_ex54": [("A", 1, "simply_connected"), ("A", 1, "simply_connected")],
    "pgl2pgl2_ex55": [("A", 1, "adjoint"), ("A", 1, "adjoint")],
}
FIXTURE_NAMES = tuple(FIXTURE_FACTORS)


def load_fixture(name: str):
    """The LunaDatum stored in one of the bundled fixture files."""
    with (FIXTURE_DIR / f"{name}.json").open("rb") as handle:
        return parse_datum(json.load(handle))[1]


def datum_key(datum) -> tuple:
    return (datum.group, datum.M.basis, tuple(sorted(datum.Sigma)),
            tuple(sorted(datum.Sp)), tuple(sorted(c.rho for c in datum.Da)))


def extend_torus(name: str):
    """The fixture datum re-read over the same group times a rank-one torus."""
    base = load_fixture(name)
    group = build_root_datum(FIXTURE_FACTORS[name], torus_rank=1)
    rows = [tuple(b) + (0,) for b in base.M.basis]
    sigma = [tuple(g) + (0,) for g in base.Sigma]
    return luna_datum(group, rows, sigma, base.Sp,
                      [(c.label, c.rho) for c in base.Da], rho_basis=rows)


def seed_data() -> list:
    """The fixtures followed by their torus extensions."""
    return ([load_fixture(name) for name in FIXTURE_NAMES]
            + [extend_torus(name) for name in FIXTURE_NAMES])


def _rebuild(datum, m_rows, sigma, sp, da_pairs):
    """The rebuilt datum, or None when it is malformed or invalid."""
    try:
        candidate = luna_datum(datum.group, m_rows, sigma, sp, da_pairs,
                               rho_basis=m_rows)
    except ValueError:
        return None
    return None if validate(candidate) else candidate


def _restrict_colors(datum, lattice):
    """Da records restricted to a sublattice, or None if one is not integral."""
    pairs = []
    for record in datum.Da:
        values = [pair_with_rho(datum, record.rho, b) for b in lattice.basis]
        if any(getattr(v, "denominator", 1) != 1 for v in values):
            return None
        pairs.append((record.label, tuple(int(v) for v in values)))
    return pairs


def _on_lattices(datum, lattices):
    out = []
    for sub in lattices:
        pairs = _restrict_colors(datum, sub)
        if pairs is None:
            continue
        candidate = _rebuild(datum, sub.basis, datum.Sigma, datum.Sp, pairs)
        if candidate is not None:
            out.append(candidate)
    return out


def _lattice_down(datum, rng):
    """M replaced by up to six random index-<=3 sublattices containing Sigma."""
    candidates = [sub for _, sub in sublattices_of_index(datum.M, 3)]
    rng.shuffle(candidates)
    return _on_lattices(datum, [
        sub for sub in candidates[:6]
        if all(sub.contains(g) for g in datum.Sigma)])


def _lattice_up(datum, rng):
    """M replaced by the lattices between M and its color-integral closure."""
    closure = _d_saturation(datum, datum.M)
    if closure == datum.M:
        return []
    return _on_lattices(datum, [
        sub for _, sub in sublattices_of_index(closure, 4)
        if sub != datum.M and all(sub.contains(b) for b in datum.M.basis)])


def _drop_roots(datum, rng):
    """Each spherical root forgotten in turn, keeping the colors still attached."""
    out = []
    simple = {tuple(a) for a in datum.group.simple_roots}
    for k in range(len(datum.Sigma)):
        sigma = datum.Sigma[:k] + datum.Sigma[k + 1:]
        kept = {g for g in sigma if g in simple}
        pairs = [(c.label, c.rho) for c in datum.Da
                 if any(pair_with_rho(datum, c.rho, g) == 1 for g in kept)]
        candidate = _rebuild(datum, datum.M.basis, sigma, datum.Sp, pairs)
        if candidate is not None:
            out.append(candidate)
    return out


def _wonderfulize(datum, rng):
    """M shrunk to the span of Sigma."""
    if not datum.Sigma:
        return []
    span = Sublattice.from_rows(datum.group.rank, datum.Sigma)
    return [] if span == datum.M else _on_lattices(datum, [span])


def colored_subspace_pool(datum, max_span=3) -> list:
    """Colored subspaces spanned by color functionals and valuation-cone
    generators (exhaustive for the bundled fixtures)."""
    cone = valuation_cone(datum)
    colors = full_colors(datum)
    vectors = sorted({c.rho for c in colors} | set(cone.rays) | set(cone.lineality))
    spans = {Subspace.zero(datum.rank), Subspace.full(datum.rank)}
    for size in range(1, min(max_span, len(vectors)) + 1):
        for rows in combinations(vectors, size):
            spans.add(Subspace.from_rows(datum.rank, rows))
    rho = {c.label: c.rho for c in colors}
    labels = sorted(rho)
    out = []
    for space in sorted(spans, key=lambda s: (s.dim, s.basis)):
        inside = [label for label in labels if space.contains(rho[label])]
        for size in range(len(inside) + 1):
            for chosen in combinations(inside, size):
                if is_colored_subspace(datum, space, frozenset(chosen)):
                    out.append(ColoredSubspace(space, frozenset(chosen)))
    return out


def _quotients(datum, rng):
    return [quotient_datum(datum, colored)
            for colored in colored_subspace_pool(datum)
            if colored.subspace.dim]


def _finite_subdata(datum, rng):
    return [sd.datum for sd in enumerate_finite_subdata(datum, 3)
            if not sd.violations]


_OPS = (
    lambda d, rng: [normalizer_datum(d)],
    lambda d, rng: [identity_component_datum(d)],
    _wonderfulize,
    _drop_roots,
    _lattice_down,
    _lattice_up,
    _finite_subdata,
    _quotients,
)


def generate_pool(seeds: list, size: int, seed: int) -> list:
    """The first ``size`` distinct valid data reached breadth-first from
    ``seeds``."""
    rng = random.Random(seed)
    pool = {}
    queue = deque()
    for datum in seeds:
        key = datum_key(datum)
        if key not in pool:
            pool[key] = datum
            queue.append(datum)
    while queue and len(pool) < size:
        datum = queue.popleft()
        for op in _OPS:
            for child in op(datum, rng):
                key = datum_key(child)
                if key in pool:
                    continue
                pool[key] = child
                if len(pool) == size:
                    return list(pool.values())
                queue.append(child)
    return list(pool.values())
