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


def _edges(dtype: str, rank: int) -> list:
    """The edges (i, j, C[i][j], C[j][i]), i < j, of an admissible diagram.

    Short roots sit where Bourbaki puts them: the last node for B, the first
    node for G2, nodes 3 and 4 for F4.
    """
    if dtype in ("A", "B", "C"):
        edges = [(i, i + 1, -1, -1) for i in range(rank - 2)]
        if rank > 1:
            down, up = {"A": (-1, -1), "B": (-1, -2), "C": (-2, -1)}[dtype]
            edges.append((rank - 2, rank - 1, down, up))
    elif dtype == "D":
        edges = [(i, i + 1, -1, -1) for i in range(rank - 2)]
        edges.append((rank - 3, rank - 1, -1, -1))
    elif dtype == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        edges = [(a, b, -1, -1) for a, b in zip(chain, chain[1:])]
        edges.append((1, 3, -1, -1))
    elif dtype == "F":
        edges = [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    else:
        edges = [(0, 1, -3, -1)]
    return edges


def _matrix(rank: int, edges: Iterable) -> tuple:
    """The Cartan matrix with the given edges, as a tuple of rows."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, down, up in edges:
        c[i][j], c[j][i] = down, up
    return tuple(map(tuple, c))


def cartan_matrix(dtype: str, rank: int) -> tuple:
    """Cartan matrix C[i][j] = <coroot_i, root_j> in Bourbaki numbering."""
    if not admissible(dtype, rank):
        raise ValueError(f"no {dtype} diagram of rank {rank}")
    return _matrix(rank, _edges(dtype, rank))


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
    _check_indices(datum, [coroot_index])
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


def _components(datum: RootDatum, subset: frozenset) -> list:
    """Connected components, each grown from the least node left over."""
    rows, left, comps = datum.cartan_rows, set(subset), []
    while left:
        comp = grown = {min(left)}
        while grown:
            grown = {j for j in left - comp if any(rows[i][j] for i in grown)}
            comp |= grown
        left -= comp
        comps.append(frozenset(comp))
    return comps


def _check_indices(datum: RootDatum, subset: Iterable[int]) -> None:
    """ValueError naming the least by repr of the indices not an int in
    range, a bool included: True and 1.0 pass as 1, and {True} equals {1}."""
    n = datum.num_simple_roots
    bad = [i for i in subset
           if isinstance(i, bool) or not (isinstance(i, int) and 0 <= i < n)]
    if bad:
        raise ValueError(f"no simple root with index {min(map(repr, bad))}")


def _orderings_by_type(datum: RootDatum, nodes: frozenset):
    """(dtype, orderings) for each admissible type of the rank, A to G.

    Each position's signature is read off the type's edge list; the Cartan
    matrix is built only for a type whose signatures match the nodes'.
    """
    rows, order, rank = datum.cartan_rows, sorted(nodes), len(nodes)
    adj = {a: [b for b in order if rows[a][b] and b != a] for a in order}
    sig = {a: sorted([(rows[a][b], rows[b][a]) for b in adj[a]]) for a in order}
    have = sorted(sig.values())
    for dtype in ("A", "B", "C", "D", "E", "F", "G"):
        if not admissible(dtype, rank):
            continue
        edges = _edges(dtype, rank)
        want = [[] for _ in range(rank)]
        for i, j, down, up in edges:
            want[i].append((down, up))
            want[j].append((up, down))
        for w in want:
            w.sort()
        results = []
        if sorted(want) == have:
            t = _matrix(rank, edges)
            stack = [()]
            while stack:
                placed = stack.pop()
                k = len(placed)
                if k == rank:
                    results.append(placed)
                    continue
                tk = t[k]  # a Cartan matrix: t[i][k] and t[k][i] vanish together
                p = next(filter(tk.__getitem__, range(k)), None)
                for c in order if p is None else adj[placed[p]]:
                    if sig[c] != want[k] or c in placed or rows[c][c] != tk[k]:
                        continue
                    rc = rows[c]
                    for i, a in enumerate(placed):
                        if rows[a][c] != t[i][k] or rc[a] != tk[i]:
                            break
                    else:
                        stack.append(placed + (c,))
        yield dtype, tuple(sorted(results))


@lru_cache(maxsize=None)
def component_type(datum: RootDatum, nodes: frozenset):
    """(dtype, all Bourbaki orderings) of a connected induced subdiagram.

    Only types whose Cartan matrix has the nodes' multiset of signatures (the
    sorted (C[i][j], C[j][i]) pairs of a node's edges) are searched, and
    position k takes only nodes of its signature that neighbour the earliest
    position joined to k (any node for E's alpha_2).  The orderings are
    sorted.  A bad index, an empty or a disconnected set raises ValueError.
    """
    _check_indices(datum, nodes)
    for dtype, orderings in _orderings_by_type(datum, nodes):
        if orderings:
            return dtype, orderings
    if not nodes:
        raise ValueError("the node set is empty")
    if len(_components(datum, nodes)) > 1:
        raise ValueError(f"nodes {sorted(nodes)} are not connected")
    raise RuntimeError(f"induced diagram on {sorted(nodes)} is not of finite type")


def subdiagram(datum: RootDatum, subset: Iterable[int]) -> DynkinSubdiagram:
    """Connected components of the induced subdiagram, typed and ordered."""
    subset = frozenset(subset)
    _check_indices(datum, subset)
    comps = []
    for nodes in _components(datum, subset):
        dtype, orderings = component_type(datum, nodes)
        comps.append(DiagramComponent(dtype, min(orderings)))
    comps.sort(key=lambda c: c.nodes)
    return DynkinSubdiagram(subset, tuple(comps))


def bourbaki_orderings(datum: RootDatum, nodes: Iterable[int]) -> tuple:
    """(dtype, orderings) for one connected node set, automorphisms included."""
    nodes = frozenset(nodes)
    _check_indices(datum, nodes)  # before the cache, where {True} finds {1}
    return component_type(datum, nodes)
