"""Root data of connected reductive groups.

A group is fixed combinatorially by its character lattice Z^n together with
the simple roots, the simple coroots and the typed Dynkin diagram.  Simply
connected factors use the fundamental-weight basis (root j is column j of the
Cartan matrix), adjoint factors use the simple roots themselves, and torus
coordinates are appended as extra columns on which all roots and coroots
vanish.  This makes character-lattice membership a plain integrality check.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from types import MappingProxyType

from .integer_geometry import Sublattice, _Record, dot, solve_left

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

ISOGENIES = ("simply_connected", "adjoint")


def admissible(dtype: str, rank: int) -> bool:
    if dtype not in _RANK_BOUNDS:
        return False
    lo, hi = _RANK_BOUNDS[dtype]
    return rank >= lo and (hi is None or rank <= hi)


def cartan_matrix(dtype: str, rank: int) -> tuple:
    """Cartan matrix C[i][j] = <coroot_i, root_j> in Bourbaki numbering.

    Short roots sit where Bourbaki puts them: the last node for B, the first
    node for G2, nodes 3 and 4 for F4.
    """
    if not admissible(dtype, rank):
        raise ValueError(f"no {dtype} diagram of rank {rank}")
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, down=-1, up=-1):
        c[i][j] = down
        c[j][i] = up

    if dtype in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if dtype == "B":
            edge(rank - 2, rank - 1, down=-1, up=-2)
        elif dtype == "C":
            edge(rank - 2, rank - 1, down=-2, up=-1)
    elif dtype == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif dtype == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif dtype == "F":
        edge(0, 1)
        edge(1, 2, down=-1, up=-2)
        edge(2, 3)
    elif dtype == "G":
        edge(0, 1, down=-3, up=-1)
    return tuple(tuple(row) for row in c)


class DiagramComponent(_Record):
    dtype: str
    nodes: tuple  # Bourbaki-ordered ambient simple-root indices


class DynkinSubdiagram(_Record):
    node_subset: frozenset
    components: tuple


class RootDatum(_Record):
    """Character lattice Z^rank with simple roots, coroots and typed diagram."""

    rank: int
    simple_roots: tuple
    simple_coroots: tuple
    diagram: tuple

    # derived data, computed once on first use: read-only, as the record is
    # shared, and not fields, so out of __init__, equality, hash, repr, pickles
    @cached_property
    def cartan_rows(self) -> tuple:  # [i][j] = <coroot_i, root_j>
        return tuple(tuple(dot(c, r) for r in self.simple_roots)
                     for c in self.simple_coroots)

    @cached_property
    def simple_index(self) -> MappingProxyType:  # [root_i] = i
        return MappingProxyType({tuple(a): i
                                 for i, a in enumerate(self.simple_roots)})

    @cached_property
    def root_lattice(self) -> Sublattice:  # Hermite basis of Z{simple roots}
        return Sublattice.from_rows(self.rank, self.simple_roots)

    @property
    def num_simple_roots(self) -> int:
        return len(self.simple_roots)

    def cartan(self, i: int, j: int):
        return self.cartan_rows[i][j]


def build_root_datum(factors: Sequence, torus_rank: int = 0) -> RootDatum:
    """Assemble a root datum from (type, rank, isogeny) factors plus a torus."""
    factors = [tuple(f) for f in factors]
    if torus_rank < 0:
        raise ValueError("torus rank must be nonnegative")
    for dtype, rank, isogeny in factors:
        if not admissible(dtype, rank):
            raise ValueError(f"inadmissible factor {dtype}{rank}")
        if isogeny not in ISOGENIES:
            raise ValueError(f"unknown isogeny {isogeny!r}")
    total = sum(f[1] for f in factors) + torus_rank
    roots, coroots, components = [], [], []
    offset = 0
    for dtype, rank, isogeny in factors:
        c = cartan_matrix(dtype, rank)
        for j in range(rank):
            root = [0] * total
            coroot = [0] * total
            if isogeny == "simply_connected":
                for i in range(rank):
                    root[offset + i] = c[i][j]
                coroot[offset + j] = 1
            else:
                root[offset + j] = 1
                for i in range(rank):
                    coroot[offset + i] = c[j][i]
            roots.append(tuple(root))
            coroots.append(tuple(coroot))
        components.append(DiagramComponent(dtype, tuple(range(offset, offset + rank))))
        offset += rank
    return RootDatum(total, tuple(roots), tuple(coroots), tuple(components))


_PRESETS = {
    "Spin5": ((("B", 2, "simply_connected"),), 0),
    "Spin7": ((("B", 3, "simply_connected"),), 0),
    "G2": ((("G", 2, "simply_connected"),), 0),
    "SL2": ((("A", 1, "simply_connected"),), 0),
    "SL2xSL2": ((("A", 1, "simply_connected"), ("A", 1, "simply_connected")), 0),
    "PGL2xPGL2": ((("A", 1, "adjoint"), ("A", 1, "adjoint")), 0),
}


def preset(name: str) -> RootDatum:
    if name not in _PRESETS:
        raise ValueError(f"unknown group preset {name!r}")
    factors, torus = _PRESETS[name]
    return build_root_datum(factors, torus)


def preset_names() -> tuple:
    return tuple(sorted(_PRESETS))


def pairing(datum: RootDatum, coroot_index: int, chi: Sequence):
    """Exact value of <coroot, chi> for chi in character-lattice coordinates."""
    if len(chi) != datum.rank:
        raise ValueError("dimension mismatch")
    return dot(datum.simple_coroots[coroot_index], chi)


def support(datum: RootDatum, gamma: Sequence) -> frozenset:
    """Indices of simple roots with nonzero coefficient in gamma."""
    if len(gamma) != datum.rank:
        raise ValueError("dimension mismatch")
    coeffs = solve_left(datum.simple_roots, gamma)
    if coeffs is None:
        raise ValueError("vector lies outside the span of the simple roots")
    return frozenset(i for i, c in enumerate(coeffs) if c != 0)


def in_root_lattice(datum: RootDatum, gamma: Sequence) -> bool:
    """Whether gamma is an integral combination of the simple roots."""
    return datum.root_lattice.contains(gamma)


def _neighbors(datum: RootDatum, subset: frozenset) -> dict:
    return {i: [j for j in subset if j != i and datum.cartan(i, j) != 0]
            for i in subset}


def _components(datum: RootDatum, subset: frozenset) -> list:
    adj = _neighbors(datum, subset)
    seen, comps = set(), []
    for start in sorted(subset):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            comp.append(i)
            stack.extend(adj[i])
        comps.append(frozenset(comp))
    return comps


def _orderings_matching(datum: RootDatum, nodes: frozenset, dtype: str) -> tuple:
    """All bijections node-tuple -> Bourbaki positions matching the Cartan data."""
    rank = len(nodes)
    target = cartan_matrix(dtype, rank)
    nodes = sorted(nodes)
    results = []

    def extend(order):
        k = len(order)
        if k == rank:
            results.append(tuple(order))
            return
        for cand in nodes:
            if cand in order:
                continue
            ok = all(datum.cartan(order[i], cand) == target[i][k]
                     and datum.cartan(cand, order[i]) == target[k][i]
                     for i in range(k))
            if ok and datum.cartan(cand, cand) == target[k][k]:
                extend(order + [cand])

    extend([])
    return tuple(results)


@lru_cache(maxsize=None)
def component_type(datum: RootDatum, nodes: frozenset):
    """(dtype, all Bourbaki orderings) of a connected induced subdiagram."""
    rank = len(nodes)
    for dtype in ("A", "B", "C", "D", "E", "F", "G"):
        if not admissible(dtype, rank):
            continue
        orderings = _orderings_matching(datum, nodes, dtype)
        if orderings:
            return dtype, orderings
    raise RuntimeError(f"induced diagram on {sorted(nodes)} is not of finite type")


def subdiagram(datum: RootDatum, subset: Iterable[int]) -> DynkinSubdiagram:
    """Connected components of the induced subdiagram, typed and ordered."""
    subset = frozenset(subset)
    for i in subset:
        if not 0 <= i < datum.num_simple_roots:
            raise ValueError(f"no simple root with index {i}")
    comps = []
    for nodes in _components(datum, subset):
        dtype, orderings = component_type(datum, nodes)
        comps.append(DiagramComponent(dtype, min(orderings)))
    comps.sort(key=lambda c: c.nodes)
    return DynkinSubdiagram(subset, tuple(comps))


def bourbaki_orderings(datum: RootDatum, nodes: Iterable[int]) -> tuple:
    """(dtype, orderings) for one connected node set, automorphisms included."""
    return component_type(datum, frozenset(nodes))
