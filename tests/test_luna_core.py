"""Spherical-root table, datum validation, colors, and the valuation cone."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from lunadata.integer_geometry import Cone, Subspace, dot, vscale
from lunadata.luna_core import (
    DatumStructureError,
    InvalidDatumError,
    RootMatch,
    _candidate_supports,
    _instantiate,
    coroot_on_m,
    compatible,
    datum_equal,
    full_colors,
    luna_datum,
    match_spherical_root,
    pair_with_rho,
    pattern_rows,
    sigma_cone,
    sigma_coefficients,
    spherical_roots_of_group,
    validate,
    valuation_cone,
)
from lunadata.root_datum import (
    bourbaki_orderings,
    build_root_datum,
    preset,
    subdiagram,
    support,
)

from conftest import cone_from_inequalities, load_fixture
from datagen import generate_pool


def combo(group, coeffs):
    """Ambient vector sum c_i alpha_i from simple-root coefficients."""
    out = [Q(0)] * group.rank
    for c, root in zip(coeffs, group.simple_roots):
        for k, x in enumerate(root):
            out[k] += Q(c) * x
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


# ---------------------------------------------------------------------------
# The table of spherical roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,count", [
    ("SL2", 2),
    ("SL2xSL2", 6),
    ("PGL2xPGL2", 5),
    ("G2", 7),
    ("Spin7", 15),
])
def test_spherical_root_counts(name, count):
    assert len(spherical_roots_of_group(preset(name))) == count


def test_spherical_roots_of_sl2():
    sl2 = preset("SL2")
    gammas = {r.gamma for r in spherical_roots_of_group(sl2)}
    assert gammas == {(2,), (4,)}  # alpha and 2 alpha in weight coordinates


def test_spherical_roots_of_b3_golden_list():
    # every entry derived by hand from the table, in simple-root coefficients
    b3 = preset("Spin7")
    expected_coeffs = [
        (1, 0, 0), (2, 0, 0),
        (0, 1, 0), (0, 2, 0),
        (0, 0, 1), (0, 0, 2),
        (1, 1, 0),
        (0, 1, 1), (0, 2, 2),
        (1, 0, 1), (Q(1, 2), 0, Q(1, 2)),
        (1, 1, 1), (2, 2, 2),
        (1, 2, 3), (Q(1, 2), 1, Q(3, 2)),
    ]
    expected = {combo(b3, c) for c in expected_coeffs}
    got = {r.gamma for r in spherical_roots_of_group(b3)}
    assert got == expected


@pytest.mark.parametrize("factors,count", [
    ([("C", 3, "simply_connected")], 11),
    ([("D", 4, "simply_connected")], 32),
    ([("F", 4, "simply_connected")], 20),
    ([("A", 4, "simply_connected")], 19),
    ([("A", 10, "simply_connected")], 109),
    ([("D", 7, "simply_connected")], 68),
    ([("E", 6, "simply_connected")], 47),
    ([("E", 7, "simply_connected")], 62),
    ([("E", 8, "simply_connected")], 79),
])
def test_spherical_root_counts_for_parametric_rows(factors, count):
    group = build_root_datum(factors)
    assert len(spherical_roots_of_group(group)) == count


def oracle_candidate_supports(group):
    """The walk over all 2^n subsets of simple roots, kept as the reference."""
    n = group.num_simple_roots
    out = []
    for i in range(n):
        out.append(("A", 1, ((i,),)))
    for i in range(n):
        for j in range(i + 1, n):
            if group.cartan(i, j) == 0 and group.cartan(j, i) == 0:
                out.append(("A1xA1", 2, ((i, j), (j, i))))
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            if len(subdiagram(group, subset).components) != 1:
                continue
            dtype, orderings = bourbaki_orderings(group, subset)
            out.append((dtype, size, orderings))
    return out


@pytest.mark.parametrize("factors", [
    [("A", n, "simply_connected")] for n in range(1, 9)] + [
    [("B", 5, "adjoint")], [("C", 6, "simply_connected")],
    [("D", 4, "simply_connected")], [("D", 8, "adjoint")],
    [("E", 6, "simply_connected")], [("E", 7, "adjoint")],
    [("E", 8, "simply_connected")], [("F", 4, "simply_connected")],
    [("G", 2, "simply_connected")],
    [("A", 2, "simply_connected"), ("G", 2, "adjoint"), ("B", 3, "adjoint")],
    [("D", 4, "adjoint"), ("A", 1, "simply_connected"), ("A", 3, "adjoint")],
    [("A", 1, "adjoint")] * 4 + [("C", 3, "simply_connected")],
], ids=lambda factors: "x".join(f"{t}{n}" for t, n, _ in factors))
def test_candidate_supports_match_the_subset_walk(factors):
    group = build_root_datum(factors)
    assert _candidate_supports(group) == oracle_candidate_supports(group)


def oracle_match(group, gamma):
    """One table row rebuilt from the support of gamma, kept as the reference."""
    gamma = tuple(gamma)
    if any(Q(x).denominator != 1 for x in gamma):
        return None
    try:
        supp = support(group, gamma)
    except ValueError:
        return None
    diag = subdiagram(group, supp)
    if len(diag.components) == 1:
        dtype, orderings = bourbaki_orderings(group, supp)
        candidates = [(dtype, orderings)]
    elif (len(diag.components) == 2
          and all(len(c.nodes) == 1 for c in diag.components)):
        i, j = sorted(min(c.nodes) for c in diag.components)
        candidates = [("A1xA1", ((i, j), (j, i)))]
    else:
        return None
    doubled = tuple(2 * x for x in gamma)
    for dtype, orderings in candidates:
        for row in pattern_rows(dtype, len(supp)):
            for ordering in orderings:
                candidate, spp = _instantiate(group, row, ordering)
                if candidate == gamma:
                    lam = Q(1)
                elif row.half_allowed and candidate == doubled:
                    lam = Q(1, 2)
                else:
                    continue
                sp = frozenset(
                    i for i in range(group.num_simple_roots)
                    if dot(group.simple_coroots[i], gamma) == 0)
                return RootMatch(row, lam, spp, sp)
    return None


# the groups of the benchmark's root_table workload, isogenies alternating
ROOT_TABLE_GROUPS = (
    [[("A", n)] for n in range(1, 11)]
    + [[("B", n)] for n in range(2, 7)]
    + [[("C", n)] for n in range(3, 7)]
    + [[("D", n)] for n in range(4, 8)]
    + [[("E", n)] for n in (6, 7, 8)]
    + [[("F", 4)], [("G", 2)]]
    + [[("A", 1)] * 2, [("A", 1)] * 3, [("A", 1)] * 4, [("A", 2)] * 2,
       [("A", 2)] * 3, [("A", 3)] * 2, [("B", 2)] * 2, [("G", 2)] * 2,
       [("A", 2), ("A", 1)], [("A", 3), ("A", 1)], [("A", 4), ("A", 2)],
       [("A", 2), ("A", 1), ("A", 1)], [("A", 2), ("B", 2)],
       [("B", 2), ("A", 1)], [("B", 3), ("A", 1)], [("B", 3), ("B", 2)],
       [("B", 4), ("A", 1)], [("C", 3), ("A", 1)], [("C", 3), ("A", 2)],
       [("C", 4), ("A", 1)], [("D", 4), ("A", 1)], [("F", 4), ("A", 1)],
       [("G", 2), ("A", 1)], [("G", 2), ("B", 2)]])


def oracle_groups():
    for k, factors in enumerate(ROOT_TABLE_GROUPS):
        isogeny = ("simply_connected", "adjoint")[k % 2]
        yield build_root_datum([(t, n, isogeny) for t, n in factors])
    yield build_root_datum([("B", 3, "simply_connected")], torus_rank=1)


def test_enumerated_roots_match_their_own_rows():
    rng = random.Random(9)
    matched = 0
    for group in oracle_groups():
        vectors = []
        for root in spherical_roots_of_group(group):
            g = root.gamma
            m = match_spherical_root(group, g)
            assert (m.row, m.lam, m.spp) == (root.row, root.lam, root.spp)
            vectors += [g, vscale(2, g), vscale(Q(1, 2), g), vscale(-1, g)]
        for _ in range(6):
            vectors.append(combo(group, [rng.randint(0, 2)
                                         for _ in group.simple_roots]))
            vectors.append(tuple(rng.randint(-2, 2) for _ in range(group.rank)))
        for v in vectors:
            if all(x == 0 for x in v):
                continue
            m = match_spherical_root(group, v)
            assert m == oracle_match(group, v), (group, v)
            matched += m is not None
    assert matched > 0


def test_match_doubled_b2_root():
    b3 = preset("Spin7")
    g = combo(b3, (0, 2, 2))
    m = match_spherical_root(b3, g)
    assert m is not None
    assert m.row.support_type == "B" and m.row.coefficients == (2, 2)
    assert m.lam == 1
    assert m.spp == frozenset({2})
    assert m.sp == frozenset({2})


def test_match_plain_b2_root():
    b3 = preset("Spin7")
    g = combo(b3, (0, 1, 1))
    m = match_spherical_root(b3, g)
    assert m.row.coefficients == (1, 1)
    assert m.spp == frozenset()
    assert m.sp == frozenset({2})


def test_match_rejects_non_root():
    a2 = build_root_datum([("A", 2, "simply_connected")])
    assert match_spherical_root(a2, combo(a2, (1, 2))) is None
    with pytest.raises(ValueError):
        match_spherical_root(a2, (0, 0))
    b3 = preset("Spin7")
    for entry in (1.5, "1/2", 1.0, "x"):
        with pytest.raises(TypeError):
            match_spherical_root(b3, (entry, 0, 0))
    assert match_spherical_root(b3, (Q(1, 2), 0, 0)) is None
    alpha = b3.simple_roots[0]
    assert match_spherical_root(b3, alpha) is not None
    assert match_spherical_root(b3, alpha[:2]) is None
    assert match_spherical_root(b3, alpha + (0,)) is None


def test_match_half_root():
    sl = preset("SL2xSL2")
    half = combo(sl, (Q(1, 2), Q(1, 2)))
    m = match_spherical_root(sl, half)
    assert m is not None and m.lam == Q(1, 2)
    pg = preset("PGL2xPGL2")
    # (alpha + alpha')/2 = (1/2, 1/2) has no match (and no lattice presence)
    assert match_spherical_root(pg, combo(pg, (1, 1))).lam == 1


def test_compatibility_sandwich():
    b3 = preset("Spin7")
    g = combo(b3, (0, 1, 1))
    assert compatible(b3, {2}, g)
    assert not compatible(b3, {0}, g)
    assert compatible(b3, frozenset(), g)  # Spp is empty for this row
    doubled = combo(b3, (0, 2, 2))
    assert compatible(b3, {2}, doubled)  # Spp equals {a3}: the lower bound
    with pytest.raises(ValueError):
        compatible(b3, set(), combo(b3, (1, 2, 0)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

FIXTURES = ("spin5_wasserman14", "spin7_ex51", "spin7_ex52", "g2_ex53",
            "sl2sl2_ex54", "pgl2pgl2_ex55")


@pytest.mark.parametrize("name", FIXTURES)
def test_bundled_fixtures_are_valid(name):
    assert validate(load_fixture(name)) == ()


def test_axiom_s_violation():
    a2 = build_root_datum([("A", 2, "simply_connected")])
    g = combo(a2, (1, 1))
    bad = luna_datum(a2, [g], [g], {0}, [])
    tags = {v.axiom for v in validate(bad)}
    assert "S" in tags


def test_sigma_g_violation():
    a2 = build_root_datum([("A", 2, "simply_connected")])
    g = combo(a2, (1, 2))
    bad = luna_datum(a2, [g], [g], set(), [])
    assert {v.axiom for v in validate(bad)} == {"sigma_g"}


def test_primitivity_and_independence_violations():
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    dbl = tuple(2 * x for x in a1)
    bad = luna_datum(b2, [a1, a2], [dbl], set(), [])
    assert "primitivity" in {v.axiom for v in validate(bad)}
    dup = luna_datum(b2, [a1, a2], [a1, a1], set(),
                     [("D1", (1, 0)), ("D2", (1, -1))])
    assert "independence" in {v.axiom for v in validate(dup)}


def test_a1_violations():
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    # pairing above one
    bad = luna_datum(b2, [a1, a2], [a1, a2], set(),
                     [("D+a1", (2, 0)), ("D-a1", (0, -1)),
                      ("D+a2", (-1, 1)), ("D-a2", (-1, 1))])
    assert "A1" in {v.axiom for v in validate(bad)}
    # pairing equal to one with a non-simple root
    b3 = preset("Spin7")
    g = combo(b3, (0, 2, 2))
    bad2 = luna_datum(b3, [b3.simple_roots[0], g],
                      [b3.simple_roots[0], g], {2},
                      [("D+", (1, 1)), ("D-", (1, -1))])
    assert "A1" in {v.axiom for v in validate(bad2)}


def test_a2_and_a3_violations():
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    # pair sums differ from the restricted coroot
    bad = luna_datum(b2, [a1, a2], [a1, a2], set(),
                     [("D+a1", (1, 0)), ("D-a1", (1, 0)),
                      ("D+a2", (-1, 1)), ("D-a2", (-1, 1))])
    assert "A2" in {v.axiom for v in validate(bad)}
    # an extra color belonging to no pair
    bad2 = luna_datum(b2, [a1, a2], [a1, a2], set(),
                      [("D+a1", (1, 0)), ("D-a1", (1, -1)),
                       ("D+a2", (-1, 1)), ("D-a2", (-1, 1)),
                       ("X", (0, 0))])
    assert "A3" in {v.axiom for v in validate(bad2)}


def test_sigma1_violations():
    # evenness: a torus direction pairing oddly with the doubled root's coroot
    g = build_root_datum([("A", 1, "simply_connected")], torus_rank=1)
    alpha = g.simple_roots[0]
    dbl = tuple(2 * x for x in alpha)
    bad = luna_datum(g, [(1, 1), dbl], [dbl], set(), [])
    assert "Sigma1" in {v.axiom for v in validate(bad)}
    # positivity: a second root pairing positively with the halved root
    a2grp = build_root_datum([("A", 2, "simply_connected")])
    s = combo(a2grp, (2, 0))
    t = combo(a2grp, (1, 1))
    bad2 = luna_datum(a2grp, [s, t], [s, t], set(), [])
    assert "Sigma1" in {v.axiom for v in validate(bad2)}


def test_sigma2_violation():
    sl = preset("SL2xSL2")
    al, alp = sl.simple_roots
    s = combo(sl, (1, 1))
    bad = luna_datum(sl, [al, alp], [s], set(), [])
    assert "Sigma2" in {v.axiom for v in validate(bad)}


def test_structural_errors():
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    with pytest.raises(DatumStructureError):
        luna_datum(b2, [a1], [a2], set(), [])  # sigma outside M
    with pytest.raises(DatumStructureError):
        luna_datum(b2, [a1, a2], [a1], {7}, [])  # bad root index
    with pytest.raises(DatumStructureError):
        luna_datum(b2, [a1, a2], [a1], set(), [("D", (1,))])  # short rho
    with pytest.raises(DatumStructureError):
        luna_datum(b2, [a1, a2], [a1], set(),
                   [("D", (1, 0)), ("D", (0, 1))])  # duplicate labels
    with pytest.raises(DatumStructureError):
        luna_datum(b2, [tuple(Q(x, 2) for x in a2), a1], [a1], set(), [])
    for inexact in (float, str):
        with pytest.raises(DatumStructureError):
            luna_datum(b2, [a1, a2], [tuple(map(inexact, a1))], set(), [])
        with pytest.raises(DatumStructureError):
            luna_datum(b2, [a1, a2], [a1], set(), [("D", tuple(map(inexact, (1, 0))))])
    # an Sp entry is a simple-root index, so an int: 0.0 would reach validate
    # and '0' the range check, each as a bare TypeError
    for index in (0.0, "0"):
        with pytest.raises(DatumStructureError):
            luna_datum(b2, [a1, a2], [tuple(2 * x for x in a2)], {index}, [])
    # sigma entries are kept as ints, like M
    datum = luna_datum(b2, [a1, a2], [tuple(map(Q, a1))], set(), [])
    assert [type(x) for x in datum.Sigma[0]] == [int, int]


@pytest.mark.parametrize("swap", [False, True])
def test_rho_must_respect_relations_among_the_stated_rows(swap):
    sl2 = preset("SL2")
    a1 = sl2.simple_roots[0]
    rows = [a1, tuple(2 * x for x in a1)]
    # consistent values on a1 and 2a1 give the same datum in either order
    good = [("D+", (1, 2)), ("D-", (1, 2))]
    # the value on 2a1 contradicts the value on a1
    bad = [("D+", (1, 1)), ("D-", (1, 5))]
    if swap:
        rows = rows[::-1]
        good = [(label, rho[::-1]) for label, rho in good]
        bad = [(label, rho[::-1]) for label, rho in bad]
    datum = luna_datum(sl2, rows, [a1], set(), good)
    assert [c.rho for c in datum.Da] == [(1,), (1,)]
    assert validate(datum) == ()
    with pytest.raises(DatumStructureError, match="linear relation"):
        luna_datum(sl2, rows, [a1], set(), bad)


def test_rho_on_rows_with_denominators():
    sl2 = preset("SL2")
    a1 = sl2.simple_roots[0]
    rows = [tuple(Q(x, 2) for x in a1), a1]
    # 1/2 on a1/2 is 1 on a1
    datum = luna_datum(sl2, [a1], [a1], set(),
                       [("D+", (Q(1, 2), 1)), ("D-", (Q(1, 2), 1))], rho_basis=rows)
    assert [c.rho for c in datum.Da] == [(1,), (1,)]
    with pytest.raises(DatumStructureError, match="linear relation"):
        luna_datum(sl2, [a1], [a1], set(),
                   [("D+", (Q(1, 2), 2)), ("D-", (Q(1, 2), 1))], rho_basis=rows)


# ---------------------------------------------------------------------------
# Full colors
# ---------------------------------------------------------------------------

def test_spin7_colors():
    datum = load_fixture("spin7_ex51")
    group = datum.group
    colors = full_colors(datum)
    assert [c.ctype for c in colors] == ["a", "a", "b"]
    da, db = colors[0], colors[2]
    a1 = group.simple_roots[0]
    g = combo(group, (0, 2, 2))
    assert da.moved == frozenset({0})
    assert pair_with_rho(datum, da.rho, a1) == 1
    assert pair_with_rho(datum, da.rho, g) == -1
    assert db.moved == frozenset({1})
    assert pair_with_rho(datum, db.rho, a1) == -1
    assert pair_with_rho(datum, db.rho, g) == 2


def test_pgl2pgl2_merged_color():
    datum = load_fixture("pgl2pgl2_ex55")
    colors = full_colors(datum)
    assert len(colors) == 1
    color = colors[0]
    assert color.ctype == "b"
    assert color.moved == frozenset({0, 1})
    s = combo(datum.group, (1, 1))
    assert pair_with_rho(datum, color.rho, s) == 2


def test_g2_colors():
    datum = load_fixture("g2_ex53")
    colors = full_colors(datum)
    assert [c.ctype for c in colors] == ["2a", "2a"]
    d1, d2 = colors
    g = datum.group
    assert pair_with_rho(datum, d1.rho, combo(g, (0, 2))) == -3
    assert pair_with_rho(datum, d2.rho, combo(g, (2, 0))) == -1
    # a type-2a color carries half the coroot: it pairs to one with the root
    assert pair_with_rho(datum, d1.rho, combo(g, (1, 0))) == 1
    assert pair_with_rho(datum, d2.rho, combo(g, (0, 1))) == 1


@pytest.mark.parametrize("name", FIXTURES)
def test_color_partition(name):
    datum = load_fixture(name)
    group = datum.group
    colors = full_colors(datum)
    sigma_set = set(datum.Sigma)
    for i, alpha in enumerate(group.simple_roots):
        moved = [c for c in colors if i in c.moved]
        if i in datum.Sp:
            assert moved == []
        elif tuple(alpha) in sigma_set:
            assert len(moved) == 2
        else:
            assert len(moved) == 1


@pytest.mark.parametrize("name", FIXTURES)
def test_plain_type_b_colors_carry_the_coroot(name):
    datum = load_fixture(name)
    for color in full_colors(datum):
        if color.ctype == "b" and len(color.moved) == 1:
            (i,) = color.moved
            assert color.rho == coroot_on_m(datum, i)


# ---------------------------------------------------------------------------
# Valuation cone
# ---------------------------------------------------------------------------

def test_valuation_cone_horospherical():
    b2 = preset("Spin5")
    datum = luna_datum(b2, [b2.simple_roots[0], b2.simple_roots[1]], [], set(), [])
    cone = valuation_cone(datum)
    assert cone.rays == ()
    assert len(cone.lineality) == 2  # all of N_Q


def test_valuation_cone_spin5_is_negative_orthant():
    # the two rays evaluate on (a1, a2) as (-1, 0) and (0, -1): the
    # nonpositive orthant in the coordinates dual to Sigma
    datum = load_fixture("spin5_wasserman14")
    cone = valuation_cone(datum)
    assert cone.lineality == ()
    values = {tuple(pair_with_rho(datum, ray, alpha)
                    for alpha in datum.group.simple_roots)
              for ray in cone.rays}
    assert values == {(-1, 0), (0, -1)}


def test_valuation_cone_rank_one_is_half_space():
    sl2 = preset("SL2")
    alpha = sl2.simple_roots[0]
    datum = luna_datum(sl2, [alpha], [alpha], set(),
                       [("D+", (1,)), ("D-", (1,))])
    cone = valuation_cone(datum)
    assert cone.rays == ((-1,),) and cone.lineality == ()


@pytest.mark.parametrize("name", FIXTURES)
def test_negative_dual_of_valuation_cone_is_sigma_cone(name):
    datum = load_fixture(name)
    cone = valuation_cone(datum)
    dual = cone_from_inequalities(datum.rank, cone.generators())
    negative = Cone.from_generators(
        datum.rank, [vscale(-1, g) for g in dual.generators()])
    assert negative == sigma_cone(datum)


def test_sigma_cone_is_the_generated_cone():
    sample = [load_fixture(name) for name in FIXTURES] + generate_pool(20)[12:]
    for datum in sample:
        assert sigma_cone(datum) == Cone.from_generators(
            datum.rank, sigma_coefficients(datum))


def test_sigma_cone_requires_a_valid_datum():
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    datum = luna_datum(b2, [a1, a2], [a1], set(), [])
    assert validate(datum)
    with pytest.raises(InvalidDatumError):
        sigma_cone(datum)


# ---------------------------------------------------------------------------
# Datum equality
# ---------------------------------------------------------------------------

def test_datum_equal_ignores_color_labels_and_order():
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    d1 = luna_datum(b2, [a1, a2], [a1, a2], set(),
                    [("D+a1", (1, 0)), ("D-a1", (1, -1)),
                     ("D+a2", (-1, 1)), ("D-a2", (-1, 1))])
    d2 = luna_datum(b2, [a2, a1], [a2, a1], set(),
                    [("x", (1, -1)), ("y", (-1, 1)),
                     ("z", (-1, 1)), ("w", (1, 0))],
                    rho_basis=[a1, a2])
    assert datum_equal(d1, d2)


def test_datum_equal_detects_differences():
    s51 = load_fixture("spin7_ex51")
    s52 = load_fixture("spin7_ex52")
    assert not datum_equal(s51, s52)
    b2 = preset("Spin5")
    a1, a2 = b2.simple_roots
    base = load_fixture("spin5_wasserman14")
    perturbed = luna_datum(b2, [a1, a2], [a1, a2], set(),
                           [("D+a1", (1, 0)), ("D-a1", (1, -1)),
                            ("D+a2", (-1, 1)), ("D-a2", (-1, 0))],
                           rho_basis=[a1, a2])
    assert not datum_equal(base, perturbed)
    with pytest.raises(ValueError):
        datum_equal(s51, load_fixture("g2_ex53"))
