"""Derived-datum operations: quotients, pairs, subdata, identity components."""

from __future__ import annotations

import hashlib
import math
import random
from math import lcm
from fractions import Fraction as Q
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunadata import containment
from lunadata.containment import (
    ColoredSubspace,
    DistinguishedPair,
    PairError,
    _annihilator,
    _coefficient_lattice,
    _colored_quotient,
    _colored_rays,
    _d_saturation,
    _hitting_sets,
    _hnf_walk,
    _normalizer_sigma,
    _orthant_rays,
    _sigma_rays,
    _simple_roots_inside,
    _subdatum,
    distinguished_roots,
    distinguished_roots_rank_one_variant,
    enumerate_finite_subdata,
    identity_component_datum,
    is_colored_subspace,
    is_connected,
    is_d_saturated,
    is_distinguished_pair,
    is_subdatum,
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
    _dd,
    cone_intersect_subspace,
    dot,
    hnf,
    lattice_index,
    primitive,
    right_kernel_integer,
    saturation,
    solve_left,
    vscale,
)
from lunadata.luna_core import (
    DatumStructureError,
    datum_equal,
    full_colors,
    luna_datum,
    match_spherical_root,
    pair_with_rho,
    require_valid,
    sigma_cone,
    spherical_roots_of_group,
    validate,
    valuation_cone,
)
from lunadata.root_datum import build_root_datum, in_root_lattice, preset

from conftest import FIXTURE_NAMES, cone_from_inequalities, load_fixture
from datagen import colored_subspace_pool, generate_pool


def combo(group, coeffs):
    out = [Q(0)] * group.rank
    for c, root in zip(coeffs, group.simple_roots):
        for k, x in enumerate(root):
            out[k] += Q(c) * x
    return tuple(int(x) for x in out)


def span_of(datum, *vectors):
    return Sublattice.from_rows(datum.group.rank, vectors)


def rho_span(datum, *labels):
    rho = {c.label: c.rho for c in full_colors(datum)}
    return Subspace.from_rows(datum.rank, [rho[l] for l in labels])


# ---------------------------------------------------------------------------
# Distinguished roots
# ---------------------------------------------------------------------------

def test_spin7_distinguished_roots():
    datum = load_fixture("spin7_ex51")
    a1 = datum.group.simple_roots[0]
    assert distinguished_roots(datum) == frozenset({tuple(a1)})


def test_spin5_distinguished_roots():
    datum = load_fixture("spin5_wasserman14")
    a1, a2 = datum.group.simple_roots
    plus = distinguished_roots(datum)
    assert tuple(a1) not in plus
    assert plus == frozenset({tuple(a2)})


def test_spin5_quotient_distinguished_roots():
    # the quotient by (span rho(D+a1), {D+a1}) has its short root distinguished
    datum = load_fixture("spin5_wasserman14")
    quotient = quotient_datum(
        datum, ColoredSubspace(rho_span(datum, "D+a1"), frozenset({"D+a1"})))
    a2 = datum.group.simple_roots[1]
    assert distinguished_roots(quotient) == frozenset({tuple(a2)})


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_distinguished_root_definitions_agree(name):
    datum = load_fixture(name)
    assert distinguished_roots(datum) == \
        distinguished_roots_rank_one_variant(datum)


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def test_spin7_normalizer_is_doubled_datum():
    datum = load_fixture("spin7_ex51")
    expected = load_fixture("spin7_ex52")
    assert datum_equal(normalizer_datum(datum), expected)


def test_normalizer_of_horospherical_datum():
    b2 = preset("Spin5")
    datum = luna_datum(b2, [b2.simple_roots[0], b2.simple_roots[1]],
                       [], set(), [])
    n = normalizer_datum(datum)
    assert n.Sigma == ()
    assert n.M.rank == 0


def test_normalizer_without_doubling_is_stable():
    datum = load_fixture("g2_ex53")  # no distinguished roots, Sigma in X(R)
    n = normalizer_datum(datum)
    assert set(n.Sigma) == set(datum.Sigma)
    assert n.M == datum.M


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_normalizer_preserves_sp_and_shrinks_m(name):
    datum = load_fixture(name)
    n = normalizer_datum(datum)
    assert validate(n) == ()
    assert n.Sp == datum.Sp
    assert all(datum.M.contains(b) for b in n.M.basis)


def test_half_roots_double_in_the_normalizer():
    sl = preset("SL2xSL2")
    half = combo(sl, (Q(1, 2), Q(1, 2)))
    datum = luna_datum(sl, [half], [half], set(), [])
    assert validate(datum) == ()
    n = normalizer_datum(datum)
    assert set(n.Sigma) == {combo(sl, (1, 1))}


# ---------------------------------------------------------------------------
# Colored subspaces and quotients
# ---------------------------------------------------------------------------

def test_is_colored_subspace_spin5_cases():
    datum = load_fixture("spin5_wasserman14")
    line = rho_span(datum, "D+a1")
    assert is_colored_subspace(datum, line, {"D+a1"})
    assert not is_colored_subspace(datum, line, set())
    assert is_colored_subspace(datum, Subspace.zero(datum.rank), set())
    with pytest.raises(ValueError):
        is_colored_subspace(datum, line, {"nope"})


def test_quotient_of_spin5_by_colored_line():
    datum = load_fixture("spin5_wasserman14")
    a1, a2 = datum.group.simple_roots
    quotient = quotient_datum(
        datum, ColoredSubspace(rho_span(datum, "D+a1"), frozenset({"D+a1"})))
    assert validate(quotient) == ()
    assert quotient.M == span_of(datum, a2)
    assert set(quotient.Sigma) == {tuple(a2)}
    assert quotient.Sp == frozenset()
    assert sorted(c.label for c in quotient.Da) == ["D+a2", "D-a2"]
    for c in quotient.Da:
        assert pair_with_rho(quotient, c.rho, a2) == 1


def test_trivial_quotient_returns_the_datum():
    datum = load_fixture("spin5_wasserman14")
    quotient = quotient_datum(
        datum, ColoredSubspace(Subspace.zero(datum.rank), frozenset()))
    assert datum_equal(quotient, datum)


def test_full_quotient_collapses_everything():
    datum = load_fixture("spin5_wasserman14")
    labels = frozenset(c.label for c in full_colors(datum))
    space = Subspace.full(datum.rank)
    assert is_colored_subspace(datum, space, labels)
    quotient = quotient_datum(datum, ColoredSubspace(space, labels))
    assert quotient.M.rank == 0
    assert quotient.Sigma == ()
    assert quotient.Sp == frozenset(range(datum.group.num_simple_roots))
    assert quotient.Da == ()


def test_quotient_rejects_uncolored_pair():
    datum = load_fixture("spin5_wasserman14")
    assert quotient_datum(
        datum, ColoredSubspace(rho_span(datum, "D+a1"), frozenset())) is None
    # malformed input still raises: an unknown color label
    with pytest.raises(PairError):
        quotient_datum(
            datum, ColoredSubspace(rho_span(datum, "D+a1"), frozenset({"nope"})))
    a2 = datum.group.simple_roots[1]
    with pytest.raises(PairError):
        stein_decompose(datum, DistinguishedPair(span_of(datum, a2),
                                                 frozenset({"nope"})))
    with pytest.raises(PairError):
        stein_decompose(datum, DistinguishedPair(
            Sublattice.from_rows(datum.group.rank + 1, [(*a2, 0)]), frozenset()))


def _spanned_as_cone(datum, space, labels):
    """The colored-subspace test as an equality of two generated cones."""
    rho = {c.label: c.rho for c in full_colors(datum)}
    if not all(space.contains(rho[l]) for l in labels):
        return False
    part = cone_intersect_subspace(valuation_cone(datum), space)
    gens = list(part.generators()) + [rho[l] for l in labels]
    whole = list(space.basis) + [vscale(-1, b) for b in space.basis]
    return (Cone.from_generators(datum.rank, gens)
            == Cone.from_generators(datum.rank, whole))


def test_is_colored_subspace_matches_the_generated_cones():
    sample = [load_fixture(name) for name in FIXTURE_NAMES] + generate_pool(28)[12:]
    answers = []
    for datum in sample:
        cone = valuation_cone(datum)
        vectors = sorted({c.rho for c in full_colors(datum)}
                         | set(cone.rays) | set(cone.lineality))
        spans = {Subspace.from_rows(datum.rank, rows)
                 for size in range(3) for rows in combinations(vectors, size)}
        labels = sorted(c.label for c in full_colors(datum))
        for space in sorted(spans, key=lambda s: (s.dim, s.basis)):
            for size in range(4):
                for chosen in combinations(labels, size):
                    expected = _spanned_as_cone(datum, space, chosen)
                    assert is_colored_subspace(datum, space, chosen) is expected
                    answers.append(expected)
                    if expected:
                        # the deciding cut is cone(Sigma) cut to W^perp
                        cut = cone_intersect_subspace(sigma_cone(datum),
                                                      space.annihilator())
                        assert cut.lineality == ()
                        assert _colored_rays(datum, space,
                                             frozenset(chosen)) == cut.rays
    assert True in answers and False in answers


def _cut_by_facets(datum, ineqs, eqs):
    """cone(Sigma) cut by the rows, from the facets of cone(Sigma)."""
    facets = cone_from_inequalities(datum.rank, datum.sigma_coords)
    rows = list(facets.generators()) + list(ineqs) + list(eqs) + \
        [vscale(-1, e) for e in eqs]
    return cone_from_inequalities(datum.rank, rows)


def test_sigma_rays_certify_themselves_and_match_the_facet_cut():
    rng = random.Random(7)
    sample = [load_fixture(name) for name in FIXTURE_NAMES] + generate_pool(20)[12:]
    checked = 0
    for datum in sample:
        sigma = datum.sigma_coords
        functionals = sorted({c.rho for c in full_colors(datum)})
        for _ in range(12):
            ineqs = rng.sample(functionals, rng.randint(0, min(2, len(functionals))))
            ineqs += [tuple(rng.randint(-2, 2) for _ in range(datum.rank))
                      for _ in range(rng.randint(0, 2))]
            eqs = [tuple(rng.randint(-1, 1) for _ in range(datum.rank))
                   for _ in range(rng.randint(0, 1))]
            # each equation enters as two opposite inequalities
            rays = _sigma_rays(
                datum, ineqs=ineqs + eqs + [vscale(-1, e) for e in eqs])
            for ray in rays:
                assert primitive(ray) == ray
                coeffs = solve_left(sigma, ray)
                assert coeffs is not None and all(c >= 0 for c in coeffs)
                assert all(dot(ray, a) >= 0 for a in ineqs)
                assert all(dot(ray, e) == 0 for e in eqs)
            cut = _cut_by_facets(datum, ineqs, eqs)
            assert cut.lineality == () and rays == cut.rays
            checked += len(rays)
    assert checked


def _rays_by_dd(cuts, k):
    """The orthant of Q^k cut by the rows, by the general double description."""
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    lin, rays = _dd(units + [tuple(row) for row in cuts], k)
    assert lin == []
    return sorted(rays)


def _assert_orthant_matches_dd(cuts, k):
    rays = _orthant_rays(cuts, k)
    assert all(type(x) is int for ray in rays for x in ray)
    assert sorted(rays) == _rays_by_dd(cuts, k)


def test_orthant_rays_match_the_general_dd_on_every_library_cut(monkeypatch):
    # every cut the library makes: the fixtures' colored subspaces and every
    # candidate pair that colored_subspace_pool tests on a pool sample and on
    # the colored A_n family.  A cut arrives in frozenset order, so it counts
    # as a set: the count is then the same under every hash seed
    seen = []

    def recording(cuts, k):
        seen.append((tuple(sorted(map(tuple, cuts))), k))
        return _orthant_rays(cuts, k)

    monkeypatch.setattr(containment, "_orthant_rays", recording)
    sample = [load_fixture(name) for name in FIXTURE_NAMES] + generate_pool(40)[12:]
    for datum in sample + [_a_n_colored_datum(n) for n in range(2, 5)]:
        colored_subspace_pool(datum)
    monkeypatch.undo()
    cuts = set(seen)
    assert len(cuts) > 50 and any(len(c) >= 2 for c, _ in cuts)
    for cut, k in cuts:
        _assert_orthant_matches_dd(cut, k)
        _assert_orthant_matches_dd(cut[::-1], k)


@st.composite
def orthant_cuts(draw):
    k = draw(st.integers(0, 6))
    cuts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                         max_size=4))
    return cuts, k


@settings(max_examples=60, deadline=None)
@given(orthant_cuts())
def test_orthant_rays_match_the_general_dd_in_every_order(system):
    # the colored-subspace test hands over its cuts in frozenset order,
    # which is salted per process, so the rays must not depend on it
    cuts, k = system
    expected = _rays_by_dd(cuts, k)
    for order in permutations(cuts):
        rays = _orthant_rays(list(order), k)
        assert len(set(rays)) == len(rays) and sorted(rays) == expected


@pytest.fixture(scope="module")
def property_pool():
    return generate_pool(200)


def test_valuation_cone_matches_the_general_dd(property_pool):
    with_lineality = without_sigma = skewed = 0
    for datum in property_pool:
        sigma = datum.sigma_coords
        cone = valuation_cone(datum)
        assert cone == cone_from_inequalities(
            datum.rank, [vscale(-1, c) for c in sigma])
        with_lineality += bool(cone.lineality)
        without_sigma += not datum.Sigma
        skewed += any(dot(a, b) for a, b in combinations(cone.rays, 2))
    assert with_lineality and without_sigma and skewed


@st.composite
def colored_candidates(draw, sample):
    """(datum, W, F): F any set of full colors, W spanned by rho(F) and
    some valuation-cone generators, which makes (W, F) colored often, and
    at times by a small vector besides."""
    datum = draw(st.sampled_from(sample))
    rho = {c.label: c.rho for c in full_colors(datum)}
    chosen = frozenset(draw(st.sets(st.sampled_from(sorted(rho))))
                       if rho else ())
    cone = valuation_cone(datum)
    generators = sorted(cone.generators())
    rows = [rho[l] for l in chosen]
    rows += draw(st.lists(st.sampled_from(generators), max_size=2)) \
        if generators else []
    rows += draw(st.lists(st.lists(st.integers(-1, 1), min_size=datum.rank,
                                   max_size=datum.rank), max_size=1))
    return datum, Subspace.from_rows(datum.rank, rows), chosen


def _meets_its_hitting_sets(datum, space, labels):
    inside = [c.label for c in full_colors(datum) if space.contains(c.rho)]
    return all(labels & need for need in _hitting_sets(datum, space, inside))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_hitting_sets_never_reject_a_colored_pair(property_pool, data):
    datum, space, labels = data.draw(colored_candidates(property_pool))
    if _colored_rays(datum, space, labels) is not None:
        assert _meets_its_hitting_sets(datum, space, labels)


def test_the_hitting_sets_keep_every_colored_subspace_of_the_pool(restriction_sample):
    rejected = 0
    for datum in restriction_sample:
        for colored in colored_subspace_pool(datum):
            assert _meets_its_hitting_sets(datum, colored.subspace, colored.colors)
        labels = sorted(c.label for c in full_colors(datum))
        # and it does skip some F for W = N_Q
        rejected += sum(not _meets_its_hitting_sets(datum, Subspace.full(datum.rank),
                                                    frozenset(chosen))
                        for size in range(len(labels))
                        for chosen in combinations(labels, size))
    assert rejected


# ---------------------------------------------------------------------------
# Distinguished pairs and subdata
# ---------------------------------------------------------------------------

def test_spin5_distinguished_pair():
    datum = load_fixture("spin5_wasserman14")
    a1, a2 = datum.group.simple_roots
    doubled = span_of(datum, tuple(2 * x for x in a2))
    assert is_distinguished_pair(datum, doubled, {"D+a1"})
    assert is_distinguished_pair(datum, datum.M, set())
    wrong = span_of(datum, tuple(2 * x for x in a1))
    assert not is_distinguished_pair(datum, wrong, set())


def test_spin5_pair_is_neither_colored_nor_finite():
    datum = load_fixture("spin5_wasserman14")
    a2 = datum.group.simple_roots[1]
    doubled = span_of(datum, tuple(2 * x for x in a2))
    # not saturated in M: its saturation is the full ray lattice Z a2
    assert saturation(doubled, datum.M) != doubled
    # not a distinguished subgroup: the color set is nonempty and the
    # lattice does not even have finite index
    assert lattice_index(datum.M, doubled) == math.inf


def test_spin5_subdatum():
    datum = load_fixture("spin5_wasserman14")
    a2 = datum.group.simple_roots[1]
    dbl = tuple(2 * x for x in a2)
    result = subdatum(datum, DistinguishedPair(span_of(datum, dbl),
                                               frozenset({"D+a1"})))
    assert result.violations == ()
    assert result.datum.M == span_of(datum, dbl)
    assert set(result.datum.Sigma) == {dbl}
    assert result.datum.Sp == frozenset()
    assert result.datum.Da == ()


def test_trivial_pair_gives_the_datum_back():
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        result = subdatum(datum, DistinguishedPair(datum.M, frozenset()))
        assert result.violations == ()
        assert datum_equal(result.datum, datum)


def test_spin7_normalizer_lattice_as_subdatum():
    datum = load_fixture("spin7_ex51")
    expected = load_fixture("spin7_ex52")
    pair = DistinguishedPair(expected.M, frozenset())
    result = subdatum(datum, pair)
    assert result.violations == ()
    assert datum_equal(result.datum, expected)


def test_subdatum_rejects_non_distinguished_pair():
    datum = load_fixture("spin5_wasserman14")
    a1 = datum.group.simple_roots[0]
    with pytest.raises(PairError):
        subdatum(datum, DistinguishedPair(
            span_of(datum, tuple(2 * x for x in a1)), frozenset()))


def test_sigma_cone_identity_on_subdata():
    # cone(restricted Sigma) equals cone(Sigma) cut to the sublattice span
    datum = load_fixture("spin5_wasserman14")
    a1, a2 = datum.group.simple_roots
    for rows, labels in [
        ((tuple(2 * x for x in a2),), {"D+a1"}),
        (tuple(datum.M.basis), set()),
    ]:
        sub = span_of(datum, *rows)
        if not is_distinguished_pair(datum, sub, labels):
            continue
        result = subdatum(datum, DistinguishedPair(sub, frozenset(labels)))
        small = result.datum
        coeffs = [datum.M.coefficients(g) for g in small.Sigma]
        lhs = Cone.from_generators(datum.rank, coeffs)
        span = Subspace.from_rows(
            datum.rank, [datum.M.coefficients(b) for b in small.M.basis])
        rhs = cone_intersect_subspace(sigma_cone(datum), span)
        assert lhs == rhs
        ann = span.annihilator().basis
        # each equation of the span enters as two opposite inequalities
        assert _sigma_rays(datum, ineqs=[*ann, *(vscale(-1, a) for a in ann)]) \
            == rhs.rays


# ---------------------------------------------------------------------------
# Stein decomposition
# ---------------------------------------------------------------------------

def test_stein_decomposition_of_spin5_pair():
    datum = load_fixture("spin5_wasserman14")
    a2 = datum.group.simple_roots[1]
    dbl = tuple(2 * x for x in a2)
    pair = DistinguishedPair(span_of(datum, dbl), frozenset({"D+a1"}))
    found = stein_decompose(datum, pair)
    colored, finite = found.colored, found.subdatum.witness.lattice
    assert colored.colors == frozenset({"D+a1"})
    quotient = quotient_datum(datum, colored)
    assert lattice_index(quotient.M, finite) == 2
    recomposed = subdatum(quotient, DistinguishedPair(finite, frozenset()))
    assert datum_equal(recomposed.datum, subdatum(datum, pair).datum)


def test_stein_of_trivial_pair():
    datum = load_fixture("spin7_ex51")
    found = stein_decompose(datum, DistinguishedPair(datum.M, frozenset()))
    colored, finite = found.colored, found.subdatum.witness.lattice
    assert colored.subspace.dim == 0
    assert finite == datum.M


def test_stein_of_saturated_pair_has_index_one():
    datum = load_fixture("spin5_wasserman14")
    a2 = datum.group.simple_roots[1]
    pair = DistinguishedPair(span_of(datum, a2), frozenset({"D+a1"}))
    assert is_distinguished_pair(datum, pair.lattice, pair.colors)
    found = stein_decompose(datum, pair)
    colored, finite = found.colored, found.subdatum.witness.lattice
    quotient = quotient_datum(datum, colored)
    assert lattice_index(quotient.M, finite) == 1


# ---------------------------------------------------------------------------
# Bounded enumeration
# ---------------------------------------------------------------------------

def test_enumerate_finite_subdata_spin5():
    datum = load_fixture("spin5_wasserman14")
    a1, a2 = datum.group.simple_roots
    results = enumerate_finite_subdata(datum, 2)
    lattices = [sd.datum.M for sd in results]
    assert lattices == [datum.M, span_of(datum, a1, tuple(2 * x for x in a2))]
    excluded = span_of(datum, tuple(2 * x for x in a1), a2)
    assert excluded not in lattices


def test_enumerate_bound_one_is_trivial():
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        results = enumerate_finite_subdata(datum, 1)
        assert len(results) == 1
        assert datum_equal(results[0].datum, datum)


def test_enumerate_g2_bound_two_only_trivial():
    datum = load_fixture("g2_ex53")
    results = enumerate_finite_subdata(datum, 2)
    assert len(results) == 1
    assert datum_equal(results[0].datum, datum)


def test_enumerate_rejects_bad_bound():
    datum = load_fixture("g2_ex53")
    with pytest.raises(ValueError):
        enumerate_finite_subdata(datum, 0)


def test_enumerate_rejects_a_bound_that_is_not_an_integer():
    datum = load_fixture("spin5_wasserman14")
    with pytest.raises(ValueError, match="integer"):
        enumerate_finite_subdata(datum, 2.5)


def test_sublattices_of_index_rejects_a_bound_that_is_not_an_integer():
    lattice = load_fixture("spin5_wasserman14").M
    with pytest.raises(ValueError, match="integer"):
        next(sublattices_of_index(lattice, 2.5))


def test_finite_subdata_type_a_to_2a_crosscheck():
    # any simple spherical root lost by a finite subdatum doubles, and its
    # two colors share half the coroot
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        simple = {tuple(a): i for i, a in
                  enumerate(datum.group.simple_roots)}
        for sd in enumerate_finite_subdata(datum, 4):
            small = sd.datum
            lost = [g for g in datum.Sigma
                    if g in simple and g not in set(small.Sigma)]
            for g in lost:
                assert tuple(2 * x for x in g) in set(small.Sigma)
                i = simple[g]
                half = tuple(Q(x, 2) for x in
                             __import__("lunadata.luna_core",
                                        fromlist=["coroot_on_m"]
                                        ).coroot_on_m(datum, i))
                moved = [c for c in full_colors(datum) if i in c.moved]
                assert all(tuple(map(Q, c.rho)) == half for c in moved)


# ---------------------------------------------------------------------------
# Identity component and connectedness
# ---------------------------------------------------------------------------

def test_identity_component_of_doubled_spin7():
    datum = load_fixture("spin7_ex52")
    component = identity_component_datum(datum)
    expected = load_fixture("spin7_ex51")
    assert datum_equal(component, expected)
    assert len(component.Da) == 2
    a1 = datum.group.simple_roots[0]
    for c in component.Da:
        assert pair_with_rho(component, c.rho, a1) == 1


def test_identity_component_of_sl2sl2():
    datum = load_fixture("sl2sl2_ex54")
    assert not is_connected(datum)
    component = identity_component_datum(datum)
    group = datum.group
    half = combo(group, (Q(1, 2), Q(1, 2)))
    alpha = group.simple_roots[0]
    assert component.M == span_of(datum, half, alpha)
    assert set(component.Sigma) == set(datum.Sigma)
    assert is_connected(component)
    assert datum_equal(identity_component_datum(component), component)


def _sl2sl2_with_da_labels(first, second):
    """SL2xSL2 with M = <2 alpha, alpha'>, Sigma = {2 alpha, alpha'} and the
    two colors of alpha' under the given labels."""
    sl = preset("SL2xSL2")
    a1, a2 = sl.simple_roots
    dbl = tuple(2 * x for x in a1)
    return luna_datum(sl, [dbl, a2], [dbl, a2], set(),
                      [(first, (0, 1)), (second, (0, 1))])


def test_identity_component_split_labels_avoid_the_da_labels():
    datum = _sl2sl2_with_da_labels("D_a1+", "D_a1-")
    assert validate(datum) == ()
    component = identity_component_datum(datum)
    assert sorted(c.label for c in component.Da) == \
        ["D_a1+", "D_a1+'", "D_a1-", "D_a1-'"]
    a1 = datum.group.simple_roots[0]
    split = [c for c in component.Da if c.label.endswith("'")]
    assert all(pair_with_rho(component, c.rho, a1) == 1 for c in split)
    # a Da label equal to a derived color's would hide that color
    with pytest.raises(DatumStructureError, match="reserved"):
        _sl2sl2_with_da_labels("D_a1", "Y")


def test_normalizer_and_closure_pairings_match_pair_with_rho():
    # the identity component's M is the closure of M
    sample = [load_fixture(name) for name in FIXTURE_NAMES] + generate_pool(24)[12:]
    checked = 0
    for datum, derived in ((datum, op(datum)) for datum in sample
                           for op in (normalizer_datum, identity_component_datum)):
        rho = {c.label: c.rho for c in full_colors(datum)}
        for record in derived.Da:
            if record.label in rho:  # else a split color of the component
                assert record.rho == tuple(pair_with_rho(datum, rho[record.label], b)
                                           for b in derived.M.basis)
                checked += 1
    assert checked > 20


@pytest.mark.parametrize("name,connected", [
    ("spin7_ex51", True),
    ("spin7_ex52", False),
    ("g2_ex53", True),
    ("sl2sl2_ex54", False),
    ("pgl2pgl2_ex55", True),
    ("spin5_wasserman14", True),
])
def test_connectedness_of_fixtures(name, connected):
    assert is_connected(load_fixture(name)) is connected


@pytest.mark.parametrize("name", ("spin7_ex51", "g2_ex53", "pgl2pgl2_ex55"))
def test_identity_component_fixed_points(name):
    datum = load_fixture(name)
    assert datum_equal(identity_component_datum(datum), datum)


def test_d_saturation_depends_on_the_ambient_group():
    pgl = load_fixture("pgl2pgl2_ex55")
    assert is_d_saturated(pgl, pgl.M)
    sl = preset("SL2xSL2")
    s = combo(sl, (1, 1))
    lifted = luna_datum(sl, [s], [s], set(), [])
    assert validate(lifted) == ()
    assert not is_d_saturated(lifted, lifted.M)
    half = combo(sl, (Q(1, 2), Q(1, 2)))
    assert _d_saturation(lifted, lifted.M) == span_of(lifted, half)
    assert not is_connected(lifted)


def test_d_saturation_fixed_point():
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        closure = _d_saturation(datum, datum.M)
        closure_lattice = Sublattice.from_rows(datum.group.rank, closure.basis)
        assert is_d_saturated(datum, closure_lattice)


def test_is_d_saturated_rejects_outside_lattices():
    datum = load_fixture("pgl2pgl2_ex55")
    too_big = Sublattice.full(datum.group.rank)
    with pytest.raises(PairError):
        is_d_saturated(datum, too_big)


def test_is_d_saturated_rejects_a_lattice_of_the_wrong_rank():
    datum = load_fixture("spin5_wasserman14")
    with pytest.raises(PairError, match="ambient rank"):
        is_d_saturated(datum, Sublattice.full(3))


def _d_saturation_by_stacked_kernel(datum, sub):
    """{x in sub_Q intersect X(B) : <rho(D), x> integral for all colors}."""
    ambient = Sublattice.full(datum.group.rank)
    sat = saturation(sub, ambient)
    coords = [datum.M.coefficients(b) for b in sat.basis]  # in M_Q, once
    rows = [[dot(color.rho, c) for c in coords] for color in full_colors(datum)]
    denom = lcm(*(x.denominator for row in rows for x in row))
    if denom == 1:
        return sat
    r = sat.rank
    m = len(rows)
    stacked = [[int(x * denom) for x in row] + [0] * m for row in rows]
    for k in range(m):
        stacked[k][r + k] = -denom
    kernel = right_kernel_integer(stacked, width=r + m)
    coeff_rows = [k[:r] for k in kernel]
    rows_ambient = [sat.member_from_coefficients(c)
                    for c in hnf(coeff_rows)]
    return Sublattice.from_rows(datum.group.rank, rows_ambient)


def _sublattices_in_span_of_m(datum, rng):
    """Sublattices of X(B) inside M_Q, of every rank from 0 to rank M: the
    spans of the first k rows of M's basis and of its saturation's, and of
    k random combinations of the saturation's rows."""
    n = datum.group.rank
    sat = saturation(datum.M, Sublattice.full(n))
    out = []
    for k in range(datum.rank + 1):
        combos = [sat.member_from_coefficients([rng.randint(-3, 3) for _ in sat.basis])
                  for _ in range(k)]
        for rows in (datum.M.basis[:k], sat.basis[:k], combos):
            out.append(Sublattice.from_rows(n, rows))
    return out


def test_d_saturation_is_the_stacked_kernel_closure(restriction_sample,
                                                    half_root_data,
                                                    property_pool):
    # the dual-lattice closure against the kernel of [rho | -denom] it replaced
    rng = random.Random(5)
    data = (restriction_sample + half_root_data + property_pool
            + [_a_n_colored_datum(n) for n in range(2, 6)])
    lattices, grown = 0, set()
    for datum in data:
        for sub in [datum.M] + _sublattices_in_span_of_m(datum, rng):
            closure = _d_saturation(datum, sub)
            assert closure == _d_saturation_by_stacked_kernel(datum, sub)
            lattices += 1
            if closure != sub:
                grown.add(sub.rank)
    # some lattice of each rank from 1 to 5 grows in its closure
    assert lattices > 1500 and grown == {1, 2, 3, 4, 5}


def test_identity_component_lattice_is_the_d_saturation(restriction_sample):
    # H is connected exactly when the identity component keeps M, which is
    # how the CLI's connected command reads the closure
    for datum in restriction_sample:
        assert identity_component_datum(datum).M == _d_saturation(datum, datum.M)


def test_primitive_ray_generator_in_component_lattice():
    # in the closure lattice of the sl2sl2 fixture, the primitive point on
    # the ray of alpha + alpha' is the half sum
    from lunadata.integer_geometry import primitive_ray_generator

    datum = load_fixture("sl2sl2_ex54")
    closure = _d_saturation(datum, datum.M)
    full_sum = combo(datum.group, (1, 1))
    half_sum = combo(datum.group, (Q(1, 2), Q(1, 2)))
    assert primitive_ray_generator(closure, full_sum) == half_sum


# ---------------------------------------------------------------------------
# Recognizing subdata
# ---------------------------------------------------------------------------

def test_is_subdatum_normalizer_witness():
    datum = load_fixture("spin7_ex51")
    candidate = load_fixture("spin7_ex52")
    witness = is_subdatum(candidate, datum)
    assert witness is not None
    assert witness.colors == frozenset()
    assert witness.lattice == candidate.M


def test_is_subdatum_reflexive():
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        witness = is_subdatum(datum, datum)
        assert witness is not None
        assert witness.lattice == datum.M
        assert witness.colors == frozenset()


def test_is_subdatum_spin5_pair_witness():
    datum = load_fixture("spin5_wasserman14")
    a2 = datum.group.simple_roots[1]
    dbl = tuple(2 * x for x in a2)
    small = subdatum(datum, DistinguishedPair(
        span_of(datum, dbl), frozenset({"D+a1"}))).datum
    witness = is_subdatum(small, datum)
    assert witness is not None
    assert witness.lattice == span_of(datum, dbl)
    assert witness.colors in ({"D+a1"}, {"D-a1"},
                              frozenset({"D+a1"}), frozenset({"D-a1"}))


def test_is_subdatum_rejects_non_subdata():
    datum = load_fixture("spin5_wasserman14")
    a1, a2 = datum.group.simple_roots
    other = luna_datum(datum.group,
                       [tuple(2 * x for x in a1), tuple(2 * x for x in a2)],
                       [tuple(2 * x for x in a1)], set(), [])
    assert validate(other) == ()
    assert is_subdatum(other, datum) is None
    with pytest.raises(ValueError):
        is_subdatum(load_fixture("g2_ex53"), datum)


def test_is_subdatum_over_another_group_is_a_pair_error():
    with pytest.raises(PairError):
        is_subdatum(load_fixture("g2_ex53"), load_fixture("spin7_ex51"))


def test_restricted_datum_validates_on_every_positive_case():
    # is_subdatum reads the validity of its restriction off datum_equal
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    cases = [(candidate, datum) for candidate in fixtures for datum in fixtures
             if candidate.group == datum.group]
    for n in range(2, 6):
        datum = _a_n_colored_datum(n)
        a1 = datum.group.simple_roots[0]
        cases += [(luna_datum(datum.group, [a1], [a1], sp,
                              [("D+a1", (1,)), ("D-a1", (1,))]), datum)
                  for sp in (frozenset(), frozenset(range(2, n)))]
    positives = 0
    for candidate, datum in cases:
        witness = is_subdatum(candidate, datum)
        if witness is not None:
            restricted = subdatum(datum, witness)
            assert restricted.violations == ()
            assert datum_equal(restricted.datum, candidate)
            positives += 1
    assert positives >= 14


def test_is_subdatum_rejects_an_invalid_candidate():
    # Sigma listed with a repeated root: equal to the datum as a set
    datum = load_fixture("spin7_ex51")
    doubled = luna_datum(datum.group, datum.M.basis,
                         (datum.Sigma[0],) + datum.Sigma, datum.Sp,
                         [(c.label, c.rho) for c in datum.Da],
                         rho_basis=datum.M.basis)
    assert validate(doubled)
    assert is_subdatum(doubled, datum) is None


# ---------------------------------------------------------------------------
# Quotients are the subdata of saturated pairs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def restriction_sample():
    return [load_fixture(name) for name in FIXTURE_NAMES] + generate_pool(14)[12:]


def _perp_in_m(datum, space):
    """M intersected with the annihilator of a subspace of N_Q."""
    rows = [datum.M.member_from_coefficients(primitive(b))
            for b in space.annihilator().basis]
    return saturation(Sublattice.from_rows(datum.group.rank, rows), datum.M)


def test_quotient_is_the_subdatum_of_its_saturated_pair(restriction_sample):
    checked = 0
    for datum in restriction_sample:
        for colored in colored_subspace_pool(datum):
            quotient = quotient_datum(datum, colored)
            pair = DistinguishedPair(_perp_in_m(datum, colored.subspace),
                                     colored.colors)
            small = subdatum(datum, pair).datum
            assert small.M == quotient.M
            assert small.Sigma == quotient.Sigma
            assert small.Sp == quotient.Sp
            assert [(c.label, c.rho) for c in small.Da] == \
                [(c.label, c.rho) for c in quotient.Da]
            checked += 1
    assert checked >= 40


def test_pair_test_agrees_with_subdatum(restriction_sample):
    for datum in restriction_sample:
        for _, sub in sublattices_of_index(datum.M, 3):
            pair = DistinguishedPair(sub, frozenset())
            try:
                built = subdatum(datum, pair)
            except PairError:
                built = None
            assert is_distinguished_pair(datum, sub, pair.colors) is \
                (built is not None)
            # the one public answer: None exactly when subdatum raises
            found = stein_decompose(datum, pair)
            assert (found is None) is (built is None)
            if found is not None:
                assert found.subdatum == built
                assert found.quotient == quotient_datum(datum, found.colored)


# ---------------------------------------------------------------------------
# The staged enumerator and subdatum search against the whole pair test
# ---------------------------------------------------------------------------

def _halves_into_by_ambient_rationals(quotient, sub):
    """The halving rule in ambient coordinates, with membership read off the
    rational coordinates of g and 2g against the basis of S: each spherical
    root g of the quotient lies in S, or 2g does and g is distinguished in the
    quotient or lies outside the root lattice."""
    def inside(v):
        c = sub.coefficients(v)
        return c is not None and all(Q(x).denominator == 1 for x in c)

    for g in quotient.Sigma:
        if inside(g):
            continue
        if not inside(vscale(2, g)):
            return False
        if in_root_lattice(quotient.group, g) and \
                g not in distinguished_roots(quotient):
            return False
    return True


def _pair_test_by_ambient_rationals(datum, sub, labels):
    """The subdatum of a distinguished pair, or None: the colored stage of
    the library, then the ambient rational halving rule."""
    lattice = _coefficient_lattice(datum, sub)
    labels = frozenset(labels)
    stage = _colored_quotient(datum, _annihilator(datum, lattice), labels)
    if stage is None or not _halves_into_by_ambient_rationals(stage[1], sub):
        return None
    found = _subdatum(datum, stage[0], labels, lattice)
    assert found.witness.lattice == Sublattice.from_rows(datum.group.rank, sub.basis)
    return found


def _enumerate_by_pair_tests(datum, bound):
    """(index, subdatum) by the definition: the whole pair test, with the
    ambient rational halving rule, on every candidate, sorted as the
    enumerator sorts."""
    out = []
    for index, sub in sublattices_of_index(datum.M, bound):
        found = _pair_test_by_ambient_rationals(datum, sub, ())
        if found is not None:
            out.append((index, found))
    out.sort(key=lambda pair: (pair[0], pair[1].datum.M.basis))
    return out


def _is_subdatum_by_pair_tests(candidate, datum):
    """The subdatum search with the whole pair test for every color subset."""
    if candidate.group != datum.group:
        raise PairError("data live over different ambient groups")
    require_valid(datum)
    if validate(candidate):
        return None
    try:
        _coefficient_lattice(datum, candidate.M)
    except PairError:
        return None
    labels = sorted(c.label for c in full_colors(datum))
    for size in range(len(labels) + 1):
        for combo in combinations(labels, size):
            found = stein_decompose(
                datum, DistinguishedPair(candidate.M, frozenset(combo)))
            if found is None:
                continue
            result = found.subdatum
            if not result.violations and datum_equal(result.datum, candidate):
                return DistinguishedPair(candidate.M, frozenset(combo))
    return None


def _a_n_datum(n):
    """The A_n data of the benchmark: Sigma = {2 alpha_i}, M = Z Sigma."""
    group = build_root_datum([("A", n, "simply_connected")])
    sigma = [tuple(2 * x for x in a) for a in group.simple_roots]
    return luna_datum(group, sigma, sigma, frozenset(), [], rho_basis=sigma)


def _assert_enumeration_matches(datum, bounds):
    expected = _enumerate_by_pair_tests(datum, max(bounds))
    for bound in bounds:
        # Subdatum equality covers the datum, the witness and the violations
        assert enumerate_finite_subdata(datum, bound) == \
            [sd for index, sd in expected if index <= bound]


def test_enumerator_matches_the_pair_test_on_every_candidate(restriction_sample):
    for datum in restriction_sample:
        _assert_enumeration_matches(datum, range(1, 7))
    for n in range(1, 7):
        _assert_enumeration_matches(_a_n_datum(n), (1, 2))
    for n in range(2, 6):
        _assert_enumeration_matches(_a_n_colored_datum(n), (1, 2))
    group = build_root_datum([("A", 2, "simply_connected")])
    rank_zero = luna_datum(group, [], [], frozenset({0, 1}), [])
    assert validate(rank_zero) == ()
    _assert_enumeration_matches(rank_zero, range(1, 4))
    assert len(enumerate_finite_subdata(rank_zero, 3)) == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_enumerator_matches_the_pair_test_at_larger_bounds(name):
    bound = {"spin5_wasserman14": 12, "g2_ex53": 16}.get(name, 8)
    _assert_enumeration_matches(load_fixture(name), (bound,))


def _sample_pairs(datum):
    """(S, F): the sublattices of M of index up to 3 with no colors, and for
    each colored subspace (W, F) of the pool the saturated lattice of W^perp
    and its sublattices of index up to 2, with F and with no colors."""
    pairs = [(sub, frozenset()) for _, sub in sublattices_of_index(datum.M, 3)]
    for colored in colored_subspace_pool(datum):
        saturated = _perp_in_m(datum, colored.subspace)
        for _, sub in sublattices_of_index(saturated, 2):
            pairs += [(sub, colored.colors), (sub, frozenset())]
    return pairs


def test_pair_test_matches_the_ambient_rational_halving_rule(restriction_sample):
    outcomes = {True: 0, False: 0}
    halving_rejects = 0
    for datum in restriction_sample:
        for sub, labels in _sample_pairs(datum):
            expected = _pair_test_by_ambient_rationals(datum, sub, labels)
            assert is_distinguished_pair(datum, sub, labels) is \
                (expected is not None)
            found = stein_decompose(datum, DistinguishedPair(sub, labels))
            assert (None if found is None else found.subdatum) == expected
            outcomes[expected is not None] += 1
            lattice = _coefficient_lattice(datum, sub)
            halving_rejects += expected is None and _colored_quotient(
                datum, _annihilator(datum, lattice), labels) is not None
    # both answers, and rejections by the halving rule itself, come up
    assert outcomes[True] > 50 and outcomes[False] > 50
    assert halving_rejects > 20


def test_hnf_matrices_are_their_own_canonical_basis():
    for rank in range(5):
        for index, h in _hnf_walk(rank, (), 8):
            assert Sublattice.from_rows(rank, h).basis == h
            assert index == math.prod(h[i][i] for i in range(rank))


def _hnf_by_brute_force(rank, generators, bound):
    """(index, h) for every upper-triangular h with positive diagonal of
    product at most the bound and 0 <= h_ij < h_jj above it, whose rows span
    a lattice containing the generators; sorted."""
    cells = [(i, j) for j in range(rank) for i in range(j)]
    out = []
    for diagonal in product(range(1, bound + 1), repeat=rank):
        index = math.prod(diagonal)
        if index > bound:
            continue
        for values in product(*(range(diagonal[j]) for _, j in cells)):
            h = [[diagonal[i] if i == j else 0 for j in range(rank)]
                 for i in range(rank)]
            for (i, j), v in zip(cells, values):
                h[i][j] = v
            h = tuple(map(tuple, h))
            if Sublattice(rank, h).integral_coordinates(generators) is not None:
                out.append((index, h))
    return sorted(out)


def _random_generators(rng, rank):
    """Up to rank + 1 random integer rows, often of lower rank: some are
    multiples of one row, and some vanish on the last coordinates."""
    count = rng.randint(0, rank + 1)
    kind = rng.choice(["free", "line", "head"])
    rows = []
    for _ in range(count):
        row = [rng.randint(-4, 4) for _ in range(rank)]
        if kind == "line" and rows:
            row = [rng.randint(-2, 2) * x for x in rows[0]]
        elif kind == "head":
            row[rank // 2:] = [0] * (rank - rank // 2)
        rows.append(tuple(row))
    return rows


def test_hnf_walk_matches_the_brute_force():
    rng = random.Random(17)
    lower_rank = full_rank = 0
    for rank in range(5):
        bound = 6 if rank < 4 else 4
        cases = [[], [(0,) * rank]] + [_random_generators(rng, rank)
                                       for _ in range(12)]
        for generators in cases:
            expected = _hnf_by_brute_force(rank, generators, bound)
            # the brute force lists each matrix once, so the walk does too
            assert sorted(_hnf_walk(rank, generators, bound)) == expected
            span = Sublattice.from_rows(rank, generators).rank
            lower_rank += 0 < span < rank
            full_rank += span == rank > 0 and len(expected) > 1
    # both kinds of lattice come up, and full-rank ones with overlattices
    assert lower_rank > 10 and full_rank > 5


def test_a_n_data_yield_one_lattice_at_any_bound():
    # Sigma(N) = Sigma spans M, so [M : Z Sigma(N)] = 1 caps every bound
    for n in range(1, 7):
        datum = _a_n_datum(n)
        normal = datum.M.integral_coordinates(_normalizer_sigma(datum))
        assert list(_hnf_walk(n, normal, 10**6)) == \
            [(1, Sublattice.full(n).basis)]
        assert len(enumerate_finite_subdata(datum, 10**6)) == 1


def test_sublattices_of_index_keeps_its_output():
    lattices = [(load_fixture(name).M, 6) for name in FIXTURE_NAMES]
    lattices += [(Sublattice.from_rows(4, [(2, -1, 0, 0), (-1, 2, -1, 0),
                                           (0, -1, 2, 0)]), 4),
                 (Sublattice.full(4), 3)]
    text = repr([list(sublattices_of_index(lattice, bound))
                 for lattice, bound in lattices])
    # the (index, S) sequence is pinned: a change of order or basis shows here
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "023e3d743bac337dd21be50f813d3560e0a61fad3dada87175bc7cdb3f220867"


def _same_search(candidate, datum):
    try:
        expected = _is_subdatum_by_pair_tests(candidate, datum)
    except PairError:
        with pytest.raises(PairError):
            is_subdatum(candidate, datum)
        return None
    assert is_subdatum(candidate, datum) == expected
    if expected is not None:
        # round trip: the witness cuts the candidate out again
        assert datum_equal(subdatum(datum, expected).datum, candidate)
    return expected


def test_is_subdatum_matches_the_search_by_pair_tests(restriction_sample):
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    for candidate in fixtures:
        for datum in fixtures:
            _same_search(candidate, datum)
    for datum in restriction_sample:
        for sd in enumerate_finite_subdata(datum, 3):
            # every subdatum that validates is found again
            assert (_same_search(sd.datum, datum) is None) == bool(sd.violations)
    # quotients have W != 0, so only they reach the F inside F_W walk and
    # its early None; against the other data over the group most are negative
    negatives = 0
    for datum in restriction_sample:
        for colored in colored_subspace_pool(datum):
            quotient = quotient_datum(datum, colored)
            assert _same_search(quotient, datum) is not None
            for other in restriction_sample:
                if other is not datum and other.group == datum.group:
                    negatives += _same_search(quotient, other) is None
    assert negatives > 0


def _a_n_colored_datum(n):
    """A_n with Sigma = S, M the root lattice and Sp empty: 2n type-a colors
    with rho(D_i+-)(alpha_i) = 1, rho(D_i+)(alpha_(i+-1)) = -1, else 0."""
    group = build_root_datum([("A", n, "simply_connected")])
    simple = [tuple(a) for a in group.simple_roots]
    records = []
    for i in range(n):
        records.append((f"D+a{i + 1}", tuple(
            1 if j == i else -int(abs(j - i) == 1) for j in range(n))))
        records.append((f"D-a{i + 1}", tuple(int(j == i) for j in range(n))))
    return luna_datum(group, simple, simple, frozenset(), records)


@pytest.fixture(scope="module")
def half_root_data():
    """Rank-one data M = Z gamma, Sigma = {gamma}, Sp = Spp(gamma) for each
    half spherical root gamma, which lies outside the root lattice, of
    SL2^3, Spin7, SL4 and Spin8, and the SL2 x SL2 one times a torus."""
    out = []
    for factors in ([("A", 1, "simply_connected")] * 3,
                    [("B", 3, "simply_connected")],
                    [("A", 3, "simply_connected")],
                    [("D", 4, "simply_connected")]):
        group = build_root_datum(factors)
        out += [luna_datum(group, [r.gamma], [r.gamma], r.spp, [])
                for r in spherical_roots_of_group(group) if r.lam != 1]
    group = build_root_datum([("A", 1, "simply_connected")] * 2, torus_rank=1)
    half, t = (1, 1, 0), (0, 0, 1)
    out.append(luna_datum(group, [half, t], [half], frozenset(), []))
    return out


@pytest.fixture(scope="module")
def criterion_sample(restriction_sample, half_root_data):
    """The fixtures, a datagen sample, the A_n data of the benchmark for
    n <= 6, the colored A_n family and the half-root data."""
    return (restriction_sample + [_a_n_datum(n) for n in range(1, 7)]
            + [_a_n_colored_datum(n) for n in range(2, 6)] + half_root_data)


def test_the_criterion_sample_doubles_both_kinds_of_root(criterion_sample):
    # Sigma(N) differs from Sigma through distinguished roots and through
    # roots outside the root lattice, each on some datum
    distinguished = off_root_lattice = 0
    for datum in criterion_sample:
        assert validate(datum) == ()
        distinguished += bool(distinguished_roots(datum))
        off_root_lattice += any(not in_root_lattice(datum.group, g)
                                for g in datum.Sigma)
    assert distinguished >= 3 and off_root_lattice >= 10


def test_normalizer_sigma_is_sigma_of_the_normalizer(criterion_sample):
    for datum in criterion_sample:
        sigma_n = _normalizer_sigma(datum)
        assert set(sigma_n) == set(normalizer_datum(datum).Sigma)
        # in the order of Sigma: each root is kept or doubled
        assert all(n in (g, vscale(2, g)) for g, n in zip(datum.Sigma, sigma_n))


def test_the_datum_is_its_own_quotient_by_the_zero_subspace(criterion_sample):
    for datum in criterion_sample:
        rays, quotient = _colored_quotient(datum, Subspace.zero(datum.rank),
                                           frozenset())
        assert datum_equal(quotient, datum)
        assert distinguished_roots(quotient) == distinguished_roots(datum)
        assert rays == _sigma_rays(datum) == tuple(sorted(datum.sigma_coords))


def test_halving_is_containment_of_the_normalizer_sigma(half_root_data):
    for datum in half_root_data:
        _assert_enumeration_matches(datum, range(1, 7))
        for sub, labels in _sample_pairs(datum):
            expected = _pair_test_by_ambient_rationals(datum, sub, labels)
            found = stein_decompose(datum, DistinguishedPair(sub, labels))
            assert (None if found is None else found.subdatum) == expected
    # the index-2 sublattice Z (2 gamma) of a half-root datum is accepted:
    # it contains 2 gamma, Sigma(N), but not gamma, Sigma
    datum = half_root_data[0]
    assert [lattice_index(datum.M, sd.datum.M)
            for sd in enumerate_finite_subdata(datum, 4)] == [1, 2]


def _is_subdatum_by_every_color_set(candidate, datum):
    """The subdatum search walking every F inside F_W, smallest first, then
    lexicographically, with the filters of :func:`is_subdatum`."""
    if candidate.group != datum.group:
        raise PairError("data live over different ambient groups")
    require_valid(datum)
    if validate(candidate):
        return None
    try:
        lattice = _coefficient_lattice(datum, candidate.M)
    except PairError:
        return None
    perp = _annihilator(datum, lattice)
    inside = sorted(c.label for c in full_colors(datum) if perp.contains(c.rho))
    needs = _hitting_sets(datum, perp, inside)
    if not all(needs):
        return None
    colors = next((combo for size in range(len(inside) + 1)
                   for combo in map(frozenset, combinations(inside, size))
                   if all(combo & n for n in needs)
                   and _simple_roots_inside(datum, combo) == candidate.Sp
                   and _colored_rays(datum, perp, combo) is not None), None)
    if colors is None:
        return None
    found = stein_decompose(datum, DistinguishedPair(candidate.M, colors))
    if found is None or not datum_equal(found.subdatum.datum, candidate):
        return None
    return found.subdatum.witness


def _a_n_candidates(datum):
    """M' = Z alpha_1, Sigma' = {alpha_1} with two colors of rho = 1, and
    Sp' empty or {alpha_3 .. alpha_n}, over the colored A_n datum."""
    n = datum.group.num_simple_roots
    a1 = datum.group.simple_roots[0]
    return [luna_datum(datum.group, [a1], [a1], sp, [("D+a1", (1,)), ("D-a1", (1,))])
            for sp in (frozenset(), frozenset(range(2, n)))]


def test_is_subdatum_finds_the_witness_of_the_walk_over_every_color_set():
    # the walk over the sets that hold the forced colors meets the sets in
    # the order of the walk over every set, so the first witness is the same
    pairs = []
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    pairs += [(candidate, datum) for candidate, datum in product(fixtures, repeat=2)
              if candidate.group == datum.group]
    for datum in fixtures:
        pairs += list(product(_family(datum), repeat=2))
    for n in range(2, 11):
        datum = _a_n_colored_datum(n)
        pairs += [(candidate, datum) for candidate in _a_n_candidates(datum)]
    found = 0
    for candidate, datum in pairs:
        witness = is_subdatum(candidate, datum)
        assert repr(witness) == repr(_is_subdatum_by_every_color_set(candidate, datum))
        found += witness is not None
    assert (len(pairs), found) == (204, 109)


def test_is_subdatum_on_a14_with_a_large_sp_walks_few_sets(monkeypatch):
    # Sp' = {alpha_3 .. alpha_14} forces 24 of the 28 colors into F; the
    # walk over every color set calls _simple_roots_inside more than half a
    # million times here
    datum = _a_n_colored_datum(14)
    candidate = _a_n_candidates(datum)[1]
    calls = []

    def counted(datum, labels):
        calls.append(labels)
        return _simple_roots_inside(datum, labels)

    monkeypatch.setattr(containment, "_simple_roots_inside", counted)
    witness = is_subdatum(candidate, datum)
    assert witness is not None and witness.lattice == candidate.M
    assert len(calls) < 10


@pytest.mark.parametrize("n", range(2, 6))
def test_is_subdatum_matches_the_pair_tests_on_the_a_n_family(n):
    datum = _a_n_colored_datum(n)
    assert validate(datum) == ()
    for candidate in _a_n_candidates(datum):
        assert validate(candidate) == ()
        assert _same_search(candidate, datum) is not None


# ---------------------------------------------------------------------------
# Derived data against the input path, and the containment laws
# ---------------------------------------------------------------------------

def test_derived_data_equal_what_the_input_path_builds(criterion_sample,
                                                     property_pool):
    # derived data are built on their canonical lattice, not by luna_datum;
    # read back through luna_datum they must come out the same, in the same
    # order and with the same entry types.  The property pool is in the
    # sample because only its data lift an HNF in M-coordinates to a basis
    # of the character lattice that is not in HNF
    derived = 0
    for datum in criterion_sample + property_pool:
        built = [normalizer_datum(datum), identity_component_datum(datum)]
        built += [quotient_datum(datum, colored)
                  for colored in colored_subspace_pool(datum, max_span=2)]
        for sd in enumerate_finite_subdata(datum, 3):
            assert sd.witness.lattice == sd.datum.M
            built.append(sd.datum)
        for d in built:
            again = luna_datum(d.group, d.M.basis, d.Sigma, d.Sp,
                               [(c.label, c.rho) for c in d.Da])
            assert again == d and repr(again) == repr(d)
        derived += len(built)
    assert derived >= 2000


def test_the_containment_laws_hold(property_pool):
    # H° <= H <= N(H), and H is connected exactly when it is H°; the
    # normalizer is not idempotent, so that is no law here
    for datum in [load_fixture(name) for name in FIXTURE_NAMES] + property_pool:
        identity = identity_component_datum(datum)
        assert is_subdatum(normalizer_datum(datum), datum) is not None
        assert is_subdatum(datum, identity) is not None
        assert is_connected(datum) is datum_equal(identity, datum)


RANK_ONE_TYPES = ([("A", n) for n in range(2, 6)] + [("B", n) for n in range(2, 5)]
                  + [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2),
                     ("E", 6)])


def test_the_containment_laws_hold_on_rank_one_data_of_every_type():
    # M = Z gamma, Sigma = {gamma}, Sp = Sp(gamma) or Spp(gamma), no Da, for
    # every spherical root of each simple group in both isogenies; the laws
    # of test_the_containment_laws_hold on those that validate
    candidates = valid = 0
    for dtype, rank in RANK_ONE_TYPES:
        for isogeny in ("simply_connected", "adjoint"):
            group = build_root_datum([(dtype, rank, isogeny)])
            for root in spherical_roots_of_group(group):
                sp = match_spherical_root(group, root.gamma).sp
                for variant in dict.fromkeys((sp, root.spp)):
                    candidates += 1
                    datum = luna_datum(group, [root.gamma], [root.gamma], variant, [])
                    if validate(datum):
                        continue
                    valid += 1
                    identity = identity_component_datum(datum)
                    assert is_subdatum(normalizer_datum(datum), datum) is not None
                    assert is_subdatum(datum, identity) is not None
                    assert is_connected(datum) is datum_equal(identity, datum)
    assert (candidates, valid) == (862, 678)


def _family(datum):
    """The datum, its normalizer and identity component, its finite subdata
    at bound 3 and its quotients, less invalid and datum_equal repeats."""
    members = [datum, normalizer_datum(datum), identity_component_datum(datum)]
    members += [sd.datum for sd in enumerate_finite_subdata(datum, 3)]
    members += [quotient_datum(datum, colored)
                for colored in colored_subspace_pool(datum, max_span=2)]
    family = []
    for d in members:
        if not validate(d) and not any(datum_equal(d, e) for e in family):
            family.append(d)
    return family


def test_containment_is_a_partial_order_on_each_fixture_family():
    # is_subdatum is reflexive, antisymmetric up to datum_equal and
    # transitive on each family, and each witness is its own certificate
    tested = held = chains = 0
    for name in FIXTURE_NAMES:
        family = _family(load_fixture(name))
        tested += len(family) ** 2
        below = set()
        for (i, small), (j, big) in product(enumerate(family), repeat=2):
            witness = is_subdatum(small, big)
            if witness is not None:
                # the witness is a distinguished pair that cuts out small
                found = stein_decompose(big, witness)
                assert found is not None
                assert datum_equal(found.subdatum.datum, small)
                below.add((i, j))
        assert all((i, i) in below for i in range(len(family)))
        for i, j in below:
            if (j, i) in below:
                assert datum_equal(family[i], family[j])
            for k in range(len(family)):
                if (j, k) in below:
                    assert (i, k) in below
                    chains += 1
        held += len(below)
    assert (tested, held, chains) == (178, 84, 201)
