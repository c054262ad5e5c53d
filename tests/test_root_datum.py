"""Root datum construction, pairings, support, and subdiagram typing."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from lunadata import integer_geometry, luna_core, root_datum
from lunadata.integer_geometry import Sublattice, dot, solve_left
from lunadata.luna_core import _connected_subsets, spherical_roots_of_group
from lunadata.root_datum import (
    ISOGENIES,
    RootDatum,
    _orderings_by_type,
    admissible,
    bourbaki_orderings,
    build_root_datum,
    cartan_matrix,
    component_type,
    in_root_lattice,
    pairing,
    preset,
    subdiagram,
    support,
)


# ---------------------------------------------------------------------------
# Oracle: pairings via the standard Euclidean realizations
# ---------------------------------------------------------------------------

def euclid_b3():
    """Simple roots of B3 in orthonormal coordinates (last root short)."""
    return [(1, -1, 0), (0, 1, -1), (0, 0, 1)]


def oracle_pairing(roots, i, coeffs):
    """2 (alpha_i, gamma) / (alpha_i, alpha_i) with gamma = sum c_j alpha_j."""
    gamma = [sum(Q(c) * r[k] for c, r in zip(coeffs, roots)) for k in range(3)]
    num = 2 * sum(Q(x) * y for x, y in zip(roots[i], gamma))
    den = sum(Q(x) * x for x in roots[i])
    return num / den


def test_pairing_against_euclidean_oracle():
    b3 = preset("Spin7")
    roots = euclid_b3()
    for i in range(3):
        for coeffs in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1),
                       (1, 1, 1), (0, 2, 2), (1, 2, 3)]:
            gamma = tuple(
                sum(c * b3.simple_roots[j][k] for j, c in enumerate(coeffs))
                for k in range(3))
            assert pairing(b3, i, gamma) == oracle_pairing(roots, i, coeffs)


def test_pairing_examples():
    b3 = preset("Spin7")
    assert pairing(b3, 2, b3.simple_roots[1]) == -2
    s23 = tuple(x + y for x, y in zip(b3.simple_roots[1], b3.simple_roots[2]))
    assert pairing(b3, 0, s23) == -1
    for d in (b3, preset("G2"), preset("SL2xSL2")):
        for i in range(d.num_simple_roots):
            assert pairing(d, i, d.simple_roots[i]) == 2


def test_pairing_dimension_mismatch():
    b3 = preset("Spin7")
    with pytest.raises(ValueError):
        pairing(b3, 0, (1, 0))


def test_pairing_rejects_a_coroot_index_out_of_range():
    b3 = preset("Spin7")
    chi = (1, 2, 3)  # <coroot_i, chi> = chi[i]: a wrapped index would show
    # and a bool or a float would read as an int
    for i in (-1, 5, b3.num_simple_roots, True, False, 1.0):
        with pytest.raises(ValueError, match=f"no simple root with index {i}$"):
            pairing(b3, i, chi)
    assert [pairing(b3, i, chi) for i in range(3)] == [1, 2, 3]


def test_a_bool_node_is_refused_before_the_type_cache():
    # frozenset({True}) equals frozenset({1}): the answer cached for {1}
    # would come back for [True], and one cached for {True} would hold True
    sl = preset("SL2xSL2")
    component_type.cache_clear()
    with pytest.raises(ValueError, match="no simple root with index True$"):
        component_type(sl, frozenset({True}))
    assert bourbaki_orderings(sl, [1]) == ("A", ((1,),))
    assert type(component_type(sl, frozenset({1}))[1][0][0]) is int
    with pytest.raises(ValueError, match="no simple root with index True$"):
        bourbaki_orderings(sl, [True])


def test_g2_cartan_entries():
    g2 = preset("G2")
    assert pairing(g2, 0, g2.simple_roots[1]) == -3
    assert pairing(g2, 1, g2.simple_roots[0]) == -1


def _cartan_by_closure(dtype, rank):
    """The Cartan matrix filled edge by edge through a closure, kept as the
    reference for the edge list."""
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


def test_cartan_matrices_equal_the_closure_builder():
    built = 0
    for dtype in "ABCDEFG":
        for rank in range(21):
            if not admissible(dtype, rank):
                with pytest.raises(ValueError, match=f"no {dtype} diagram"):
                    cartan_matrix(dtype, rank)
                continue
            c = cartan_matrix(dtype, rank)
            assert type(c) is tuple and all(type(r) is tuple for r in c)
            assert c == _cartan_by_closure(dtype, rank), (dtype, rank)
            built += 1
    assert built == 20 + 19 + 18 + 17 + 3 + 1 + 1


def test_pairing_isogeny_independent():
    for dtype, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        sc = build_root_datum([(dtype, rank, "simply_connected")])
        ad = build_root_datum([(dtype, rank, "adjoint")])
        for i in range(rank):
            for j in range(rank):
                assert pairing(sc, i, sc.simple_roots[j]) == \
                    pairing(ad, i, ad.simple_roots[j])


def test_pairing_matrix_equals_cartan_matrix():
    for name in ("Spin5", "Spin7", "G2", "SL2xSL2", "PGL2xPGL2"):
        d = preset(name)
        offset = 0
        for comp in d.diagram:
            c = cartan_matrix(comp.dtype, len(comp.nodes))
            for a, i in enumerate(comp.nodes):
                for b, j in enumerate(comp.nodes):
                    assert pairing(d, i, d.simple_roots[j]) == c[a][b]
                    assert d.cartan(i, j) == c[a][b]
            offset += len(comp.nodes)


def test_cartan_rows_are_derived_and_left_out_of_equality():
    group = build_root_datum([("D", 5, "adjoint"), ("G", 2, "simply_connected")], 1)
    n = group.num_simple_roots
    assert group.cartan_rows == tuple(
        tuple(pairing(group, i, group.simple_roots[j]) for j in range(n))
        for i in range(n))
    assert all(type(x) is int for row in group.cartan_rows for x in row)
    fields = (group.rank, group.simple_roots, group.simple_coroots, group.diagram)
    with pytest.raises(TypeError):
        RootDatum(*fields, cartan_rows=group.cartan_rows)
    twin = RootDatum(*fields)
    assert twin == group and hash(twin) == hash(group)
    assert "cartan_rows" not in repr(group)
    assert group.root_lattice == Sublattice.from_rows(group.rank,
                                                      group.simple_roots)
    assert "root_lattice" not in repr(group)


def test_derived_group_data_are_computed_on_first_use(monkeypatch):
    derived = ("cartan_rows", "simple_index", "root_lattice")
    group = build_root_datum([("B", 3, "simply_connected"),
                              ("A", 2, "adjoint")], 1)
    assert not set(derived) & set(vars(group))

    def refuse(a, width):
        raise AssertionError("a Hermite form was taken")

    # building a group takes no Hermite form, even for E8
    monkeypatch.setattr(integer_geometry, "_hermite", refuse)
    e8 = build_root_datum([("E", 8, "simply_connected")])
    assert e8.cartan(1, 3) == -1 and e8.simple_index[e8.simple_roots[7]] == 7
    assert "root_lattice" not in vars(e8)
    monkeypatch.undo()
    # the first membership test takes it, once
    assert not in_root_lattice(group, (0,) * (group.rank - 1) + (1,))
    lattice = vars(group)["root_lattice"]
    assert lattice == Sublattice.from_rows(group.rank, group.simple_roots)
    assert in_root_lattice(group, group.simple_roots[4])
    assert group.root_lattice is lattice
    for name in derived:
        getattr(group, name)
        with pytest.raises(AttributeError):
            setattr(group, name, None)
        with pytest.raises(AttributeError):
            delattr(group, name)


def test_build_presets():
    sl2sq = preset("SL2xSL2")
    assert sl2sq.rank == 2
    assert sl2sq.simple_roots == ((2, 0), (0, 2))
    half = (1, 1)  # (alpha + alpha') / 2 in weight coordinates
    assert all(isinstance(x, int) for x in half)
    pgl = preset("PGL2xPGL2")
    assert pgl.simple_roots == ((1, 0), (0, 1))
    # (alpha + alpha') / 2 = (1/2, 1/2) is not a character of the adjoint group


def test_build_rejects_bad_factors():
    with pytest.raises(ValueError):
        build_root_datum([("B", 1, "simply_connected")])
    with pytest.raises(ValueError):
        build_root_datum([("C", 2, "adjoint")])
    with pytest.raises(ValueError):
        build_root_datum([("E", 9, "adjoint")])
    with pytest.raises(ValueError):
        build_root_datum([("X", 4, "adjoint")])
    with pytest.raises(ValueError):
        build_root_datum([("A", 1, "weird")])


def test_torus_rank_appends_dead_coordinates():
    d = build_root_datum([("A", 1, "simply_connected")], torus_rank=2)
    assert d.rank == 3
    assert d.simple_roots == ((2, 0, 0),)
    assert d.simple_coroots == ((1, 0, 0),)


def test_support():
    b3 = preset("Spin7")
    g = tuple(2 * x + 2 * y for x, y in
              zip(b3.simple_roots[1], b3.simple_roots[2]))
    assert support(b3, g) == frozenset({1, 2})
    assert support(b3, b3.simple_roots[0]) == frozenset({0})
    t = build_root_datum([("A", 1, "simply_connected")], torus_rank=1)
    with pytest.raises(ValueError):
        support(t, (0, 1))


def test_support_scaling_invariance():
    b3 = preset("Spin7")
    g = tuple(x + 2 * y for x, y in zip(b3.simple_roots[0], b3.simple_roots[2]))
    for k in (1, 2, Q(1, 2), Q(3, 5)):
        scaled = tuple(k * x for x in g)
        assert support(b3, scaled) == support(b3, g)


def oracle_in_root_lattice(group, gamma):
    """Integral coordinates against the simple roots, by the rational solver."""
    coeffs = solve_left(group.simple_roots, gamma)
    return coeffs is not None and all(Q(c).denominator == 1 for c in coeffs)


def test_in_root_lattice():
    sl = preset("SL2xSL2")
    half_sum = (1, 1)  # (alpha + alpha') / 2
    assert not in_root_lattice(sl, half_sum)
    b3 = preset("Spin7")
    g = tuple(2 * x + 2 * y for x, y in
              zip(b3.simple_roots[1], b3.simple_roots[2]))
    assert in_root_lattice(b3, g)
    t = build_root_datum([("A", 1, "simply_connected")], torus_rank=1)
    assert not in_root_lattice(t, (0, 1))
    # every spherical root of each group, and its half where that is a
    # character, against the rational solver
    factors = [("A", n) for n in range(1, 7)] + [("B", 2), ("B", 3), ("B", 4),
               ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("F", 4),
               ("G", 2)]
    groups = [build_root_datum([(dtype, n, isogeny)])
              for dtype, n in factors for isogeny in ISOGENIES]
    groups.append(build_root_datum([("B", 3, "simply_connected"),
                                    ("A", 2, "adjoint")], torus_rank=2))
    seen = {True: 0, False: 0}
    for group in groups:
        for root in spherical_roots_of_group(group):
            gamma = root.gamma
            halves = [tuple(x // 2 for x in gamma)] if not any(
                x % 2 for x in gamma) else []
            for v in [gamma, *halves]:
                got = in_root_lattice(group, v)
                assert got is oracle_in_root_lattice(group, v)
                seen[got] += 1
        with pytest.raises(ValueError):
            in_root_lattice(group, (0,) * (group.rank + 1))
        assert not in_root_lattice(group, (Q(1, 2),) + (0,) * (group.rank - 1))
        assert in_root_lattice(group, tuple(map(Q, group.simple_roots[0])))
    assert seen[True] > 500 and seen[False] > 20


def test_subdiagram_typing():
    b3 = preset("Spin7")
    sub = subdiagram(b3, {1, 2})
    assert len(sub.components) == 1
    assert sub.components[0].dtype == "B"
    assert sub.components[0].nodes == (1, 2)
    two = subdiagram(b3, {0, 2})
    assert [c.dtype for c in two.components] == ["A", "A"]
    for subset in ({5}, {True}, {0, True}, {1.0}, {"1"}):  # True, 1.0 read as 1
        with pytest.raises(ValueError, match="no simple root with index"):
            subdiagram(b3, subset)


def test_subdiagram_orderings_with_automorphisms():
    a3 = build_root_datum([("A", 3, "simply_connected")])
    dtype, orderings = bourbaki_orderings(a3, [0, 1, 2])
    assert dtype == "A"
    assert set(orderings) == {(0, 1, 2), (2, 1, 0)}
    d4 = build_root_datum([("D", 4, "simply_connected")])
    dtype, orderings = bourbaki_orderings(d4, [0, 1, 2, 3])
    assert dtype == "D"
    assert len(orderings) == 6  # triality permutes the three outer nodes
    assert all(o[1] == 1 for o in orderings)  # the central node is fixed


def test_subdiagram_of_c_type_contains_reversed_b2():
    c3 = build_root_datum([("C", 3, "simply_connected")])
    dtype, orderings = bourbaki_orderings(c3, [1, 2])
    assert dtype == "B"
    assert orderings == ((2, 1),)  # long root first


# ---------------------------------------------------------------------------
# Oracle: components by a depth-first walk over a neighbour table
# ---------------------------------------------------------------------------

def _components_by_dfs(datum, subset):
    adj = {i: [j for j in subset if j != i and datum.cartan(i, j) != 0]
           for i in subset}
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


def _subdiagram_and_typing(group, subset):
    component_type.cache_clear()
    try:
        typed = component_type(group, subset)
    except ValueError as err:
        typed = str(err)
    return subdiagram(group, subset), typed


_COMPONENT_GROUPS = (
    [([("A", n)], 0) for n in range(1, 8)]
    + [([(t, n)], 0) for t, n in [("B", 4), ("C", 4), ("D", 5), ("E", 6),
                                  ("F", 4), ("G", 2)]]
    + [([("B", 3), ("C", 3), ("G", 2)], 2)])


@pytest.mark.parametrize("factors,torus", _COMPONENT_GROUPS)
def test_components_equal_the_depth_first_walk_on_every_subset(
        monkeypatch, factors, torus):
    group = build_root_datum([(t, n, "simply_connected") for t, n in factors],
                             torus)
    n = group.num_simple_roots
    subsets = [frozenset(i for i in range(n) if mask >> i & 1)
               for mask in range(1 << n)]  # the empty set included
    for subset in subsets:
        # exact lists: the components come in the order of their least node
        assert root_datum._components(group, subset) == \
            _components_by_dfs(group, subset)
    seen = [_subdiagram_and_typing(group, subset) for subset in subsets]
    monkeypatch.setattr(root_datum, "_components", _components_by_dfs)
    assert [_subdiagram_and_typing(group, subset) for subset in subsets] == seen
    component_type.cache_clear()


# ---------------------------------------------------------------------------
# Oracle: typing by backtracking over every unused node at every position
# ---------------------------------------------------------------------------

def _orderings_by_backtracking(datum, nodes, dtype):
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


def _types_by_backtracking(datum, nodes):
    return [(dtype, _orderings_by_backtracking(datum, nodes, dtype))
            for dtype in "ABCDEFG" if admissible(dtype, len(nodes))]


def _typing_by_backtracking(datum, nodes):
    """bourbaki_orderings with the oracle's search."""
    for dtype, orderings in _types_by_backtracking(datum, frozenset(nodes)):
        if orderings:
            return dtype, orderings
    raise RuntimeError(f"induced diagram on {sorted(nodes)} is not of finite type")


_TYPING_GROUPS = (
    [[(t, n)] for t, lo, hi in [("A", 1, 12), ("B", 2, 8), ("C", 3, 8),
                                ("D", 4, 9), ("E", 6, 8), ("F", 4, 4),
                                ("G", 2, 2)] for n in range(lo, hi + 1)])


@pytest.mark.parametrize("isogeny", ISOGENIES)
def test_typing_equals_backtracking_on_every_connected_subset(isogeny):
    groups = [build_root_datum([(t, n, isogeny) for t, n in factors])
              for factors in _TYPING_GROUPS]
    groups.append(build_root_datum(
        [("B", 3, isogeny), ("C", 3, isogeny), ("G", 2, isogeny),
         ("D", 4, isogeny)], torus_rank=1))
    pairs = empty = 0
    for group in groups:
        singletons = [(i,) for i in range(group.num_simple_roots)]
        for subset in singletons + _connected_subsets(group):
            nodes = frozenset(subset)
            expected = _types_by_backtracking(group, nodes)
            # exact tuples, the order of the types and of the orderings included
            assert list(_orderings_by_type(group, nodes)) == expected
            assert component_type(group, nodes) == next(
                (d, o) for d, o in expected if o)
            pairs += len(expected)
            empty += sum(not o for _, o in expected)
    assert (pairs, empty) == (2901, 1984)  # the types that match nothing too


def test_bourbaki_orderings_rejects_bad_node_sets():
    b3 = preset("Spin7")
    for nodes, message in [([-1], "no simple root with index -1"),
                           ([5], "no simple root with index 5"),
                           ([0, 5], "no simple root with index 5"),
                           ([0, 2], "not connected"),
                           ([], "empty")]:
        with pytest.raises(ValueError, match=message):
            bourbaki_orderings(b3, nodes)
    assert bourbaki_orderings(b3, [0, 1, 2]) == ("B", ((0, 1, 2),))


def test_connected_affine_triangle_is_not_of_finite_type():
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    triangle = RootDatum(3, e, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), ())
    with pytest.raises(RuntimeError, match="not of finite type"):
        bourbaki_orderings(triangle, [0, 1, 2])
    assert bourbaki_orderings(triangle, [0, 2]) == ("A", ((0, 2), (2, 0)))
    # the diagonal is checked too: <coroot, root> = 1 is no simple root
    with pytest.raises(RuntimeError, match="not of finite type"):
        bourbaki_orderings(RootDatum(1, ((1,),), ((1,),), ()), [0])


def _table(group):
    spherical_roots_of_group.cache_clear()
    return [(r.gamma, r.row.name, r.lam, r.spp)
            for r in spherical_roots_of_group(group)]


@pytest.mark.parametrize("factors,torus", [
    ([("A", 12)], 0), ([("A", 20)], 0), ([("B", 12)], 0), ([("C", 12)], 0),
    ([("D", 12)], 0), ([("E", 8)], 0),
    ([("B", 3), ("C", 3), ("G", 2), ("D", 4)], 2),
])
def test_spherical_root_tables_equal_those_typed_by_backtracking(
        monkeypatch, factors, torus):
    group = build_root_datum([(t, n, "simply_connected") for t, n in factors],
                             torus)
    table = _table(group)
    # the first row and Spp found for each gamma depend on the typing's order
    monkeypatch.setattr(luna_core, "bourbaki_orderings", _typing_by_backtracking)
    assert _table(group) == table
    spherical_roots_of_group.cache_clear()
