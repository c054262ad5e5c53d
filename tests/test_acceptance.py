"""Acceptance criteria.

One test per criterion, at exact-equality tolerance throughout (all
arithmetic is rational).  Each test prints its own pass line; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines live).
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations

import pytest

from lunadata.containment import (
    ColoredSubspace,
    DistinguishedPair,
    _d_saturation,
    _sigma_rays,
    distinguished_roots,
    distinguished_roots_rank_one_variant,
    enumerate_finite_subdata,
    identity_component_datum,
    is_connected,
    is_distinguished_pair,
    normalizer_datum,
    quotient_datum,
    stein_decompose,
    subdatum,
    sublattices_of_index,
)
from lunadata.integer_geometry import (
    Cone,
    Sublattice,
    Subspace,
    cone_intersect_subspace,
    hnf,
    lattice_index,
    saturation,
    vscale,
)
from lunadata.luna_core import (
    datum_equal,
    full_colors,
    luna_datum,
    pair_with_rho,
    sigma_cone,
    spherical_roots_of_group,
    validate,
)
from lunadata.root_datum import preset

from conftest import FIXTURE_NAMES, load_fixture
from datagen import colored_subspace_pool, generate_pool


def _report(number, text):
    print(f"criterion {number:2d}: PASS  ({text})")


def combo(group, coeffs):
    out = [Q(0)] * group.rank
    for c, root in zip(coeffs, group.simple_roots):
        for k, x in enumerate(root):
            out[k] += Q(c) * x
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


@pytest.fixture(scope="module")
def pool():
    data = generate_pool(200)
    assert len(data) == 200
    return data


def test_criterion_01_spin7_valid_connected_component_fixed():
    datum = load_fixture("spin7_ex51")
    assert validate(datum) == ()
    assert is_connected(datum) is True
    assert datum_equal(identity_component_datum(datum), datum)
    _report(1, "spin7_ex51 valid, connected, identity-component fixed point")


def test_criterion_02_spin7_normalizer_matches_doubled_datum():
    datum = load_fixture("spin7_ex51")
    expected = load_fixture("spin7_ex52")
    result = normalizer_datum(datum)
    group = datum.group
    doubled_a1 = combo(group, (2, 0, 0))
    doubled_tail = combo(group, (0, 2, 2))
    assert set(result.Sigma) == {doubled_a1, doubled_tail}
    assert result.M == Sublattice.from_rows(group.rank,
                                            [doubled_a1, doubled_tail])
    assert result.Sp == frozenset({2})
    assert result.Da == ()
    assert datum_equal(result, expected)
    _report(2, "normalizer of spin7_ex51 equals spin7_ex52")


def test_criterion_03_identity_component_of_doubled_datum():
    datum = load_fixture("spin7_ex52")
    component = identity_component_datum(datum)
    group = datum.group
    a1 = combo(group, (1, 0, 0))
    tail = combo(group, (0, 2, 2))
    assert set(component.Sigma) == {a1, tail}
    assert len(component.Da) == 2
    from lunadata.luna_core import coroot_on_m

    half_coroot = tuple(Q(x, 2) for x in coroot_on_m(component, 0))
    for color in component.Da:
        assert tuple(map(Q, color.rho)) == half_coroot
        assert pair_with_rho(component, color.rho, a1) == 1
        assert pair_with_rho(component, color.rho, tail) == -1
    assert datum_equal(component, load_fixture("spin7_ex51"))
    assert is_connected(datum) is False
    _report(3, "identity component of spin7_ex52 restores spin7_ex51")


def test_criterion_04_g2_fixed_point_and_color_pairings():
    datum = load_fixture("g2_ex53")
    assert datum_equal(identity_component_datum(datum), datum)
    assert is_connected(datum) is True
    colors = full_colors(datum)
    assert [c.ctype for c in colors] == ["2a", "2a"]
    d1, d2 = colors
    g = datum.group
    assert pair_with_rho(datum, d1.rho, combo(g, (0, 2))) == -3
    assert pair_with_rho(datum, d2.rho, combo(g, (2, 0))) == -1
    _report(4, "g2_ex53 fixed point, connected, color pairings -3 and -1")


def test_criterion_05_sl2sl2_component_lattice():
    datum = load_fixture("sl2sl2_ex54")
    assert is_connected(datum) is False
    group = datum.group
    half = combo(group, (Q(1, 2), Q(1, 2)))
    alpha = combo(group, (1, 0))
    expected = Sublattice.from_rows(group.rank, [half, alpha])
    closure = _d_saturation(datum, datum.M)
    assert closure == expected
    assert closure.basis == hnf([half, alpha])
    component = identity_component_datum(datum)
    assert set(component.Sigma) == set(datum.Sigma)
    _report(5, "sl2sl2_ex54 disconnected with M-closure Z(a+a')/2 + Z a")


def test_criterion_06_connectedness_depends_on_ambient_group():
    pgl = load_fixture("pgl2pgl2_ex55")
    assert pgl.Sigma == (combo(pgl.group, (1, 1)),)
    assert is_connected(pgl) is True

    sl = preset("SL2xSL2")
    s = combo(sl, (1, 1))
    lifted = luna_datum(sl, [s], [s], set(), [])
    assert validate(lifted) == ()
    # the same abstract quadruple: M, Sigma, Sp and Da all match
    assert [sl.simple_roots, pgl.group.simple_roots]  # distinct ambient groups
    assert is_connected(lifted) is False
    half = combo(sl, (Q(1, 2), Q(1, 2)))
    assert _d_saturation(lifted, lifted.M) == \
        Sublattice.from_rows(sl.rank, [half])
    _report(6, "diagonal subgroup connected in the adjoint group only")


def test_criterion_07_spin5_pair_is_strictly_mixed():
    datum = load_fixture("spin5_wasserman14")
    a2 = combo(datum.group, (0, 1))
    doubled = Sublattice.from_rows(datum.group.rank, [tuple(2 * x for x in a2)])
    assert is_distinguished_pair(datum, doubled, {"D+a1"})
    # not a colored-subspace pair: the lattice is not saturated in M
    assert saturation(doubled, datum.M) != doubled
    # not a distinguished subgroup: the color set is nonempty
    assert frozenset({"D+a1"}) != frozenset()
    _report(7, "spin5 pair distinguished, neither colored nor finite type")


def _assert_closure_properties(datum):
    group = datum.group
    simple = {tuple(a): i for i, a in enumerate(group.simple_roots)}

    normalized = normalizer_datum(datum)
    assert validate(normalized) == ()

    component = identity_component_datum(datum)
    assert validate(component) == ()
    assert datum_equal(identity_component_datum(component), component)
    assert is_connected(component) is True
    # simple spherical roots of the component: originals plus the halved
    # doubles that land in the component lattice
    sigma_a = {g for g in datum.Sigma if g in simple}
    halved = set()
    for g in datum.Sigma:
        half = tuple(Q(x, 2) for x in g)
        if all(x.denominator == 1 for x in half):
            half = tuple(int(x) for x in half)
            if half in simple and component.M.contains(half):
                halved.add(half)
    assert {g for g in component.Sigma if g in simple} == sigma_a | halved

    for colored in colored_subspace_pool(datum, max_span=2)[:8]:
        quotient = quotient_datum(datum, colored)
        assert validate(quotient) == ()

    for sd in enumerate_finite_subdata(datum, 2):
        assert sd.violations == ()
        small = sd.datum
        # cone identity: cone(restricted Sigma) = cone(Sigma) cut to the span
        coeffs = [datum.M.coefficients(g) for g in small.Sigma]
        lhs = Cone.from_generators(datum.rank, coeffs)
        span = Subspace.from_rows(
            datum.rank, [datum.M.coefficients(b) for b in small.M.basis])
        cut = cone_intersect_subspace(sigma_cone(datum), span)
        assert lhs == cut
        ann = span.annihilator().basis
        # each equation of the span enters as two opposite inequalities
        assert _sigma_rays(datum, ineqs=[*ann, *(vscale(-1, a) for a in ann)]) \
            == cut.rays
        # simple roots of the subdatum stay simple roots of the datum
        assert {g for g in small.Sigma if g in simple} <= sigma_a

    assert distinguished_roots(datum) == \
        distinguished_roots_rank_one_variant(datum)


def _assert_stein_round_trips(datum):
    labels = sorted(c.label for c in full_colors(datum))
    pairs_checked = 0
    for colored in colored_subspace_pool(datum, max_span=3):
        quotient = quotient_datum(datum, colored)
        for index, sub in sublattices_of_index(quotient.M, 4):
            if not is_distinguished_pair(datum, sub, colored.colors):
                continue
            pair = DistinguishedPair(sub, colored.colors)
            direct = subdatum(datum, pair)
            recomposed = subdatum(quotient, DistinguishedPair(sub, frozenset()))
            assert datum_equal(direct.datum, recomposed.datum)
            found = stein_decompose(datum, pair)
            colored_back, finite = found.colored, found.subdatum.witness.lattice
            assert colored_back.subspace == colored.subspace
            assert lattice_index(quotient.M, finite) == index
            pairs_checked += 1
    return pairs_checked


def test_criterion_08_property_suite(pool):
    for datum in [load_fixture(name) for name in FIXTURE_NAMES] + pool:
        _assert_closure_properties(datum)
    checked = 0
    for name in ("spin5_wasserman14", "spin7_ex51"):
        checked += _assert_stein_round_trips(load_fixture(name))
    assert checked >= 10  # the exhaustive search does find genuine pairs
    _report(8, f"closure and identities on 206 data, "
               f"{checked} Stein round trips")


def test_criterion_09_spherical_root_counts_and_b3_golden_list():
    counts = {"SL2": 2, "SL2xSL2": 6, "PGL2xPGL2": 5, "G2": 7}
    for name, expected in counts.items():
        assert len(spherical_roots_of_group(preset(name))) == expected
    b3 = preset("Spin7")
    golden_coeffs = [
        (1, 0, 0), (2, 0, 0),
        (0, 1, 0), (0, 2, 0),
        (0, 0, 1), (0, 0, 2),
        (1, 1, 0),
        (0, 1, 1), (0, 2, 2),
        (1, 0, 1), (Q(1, 2), 0, Q(1, 2)),
        (1, 1, 1), (2, 2, 2),
        (1, 2, 3), (Q(1, 2), 1, Q(3, 2)),
    ]
    golden = {combo(b3, c) for c in golden_coeffs}
    assert {r.gamma for r in spherical_roots_of_group(b3)} == golden
    _report(9, "spherical-root counts 2/6/5/7 and the 15-line B3 list")


def test_criterion_10_spin5_enumeration_bound_two():
    datum = load_fixture("spin5_wasserman14")
    group = datum.group
    a1, a2 = combo(group, (1, 0)), combo(group, (0, 1))
    results = enumerate_finite_subdata(datum, 2)
    expected = [
        datum.M,
        Sublattice.from_rows(group.rank, [a1, tuple(2 * x for x in a2)]),
    ]
    assert [sd.datum.M for sd in results] == expected
    rejected = Sublattice.from_rows(group.rank, [tuple(2 * x for x in a1), a2])
    assert rejected not in [sd.datum.M for sd in results]
    _report(10, "bound-2 enumeration returns exactly M and Z a1 + Z 2a2")
