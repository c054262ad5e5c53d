"""Lattice normal forms and cone algebra, checked against naive oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunadata import integer_geometry
from lunadata.integer_geometry import (
    Cone,
    Sublattice,
    Subspace,
    _dd,
    cone_intersect_subspace,
    dot,
    hnf,
    hnf_with_transform,
    lattice_index,
    matrix_rank,
    primitive,
    primitive_ray_generator,
    rational_det,
    rref,
    right_kernel_integer,
    saturation,
    snf,
    solve_left,
    vadd,
    vscale,
)

from conftest import cone_from_inequalities


# ---------------------------------------------------------------------------
# Oracles (independent of the implementations under test)
# ---------------------------------------------------------------------------

def oracle_membership(rows, v):
    """Solve sum c_i rows_i = v by naive elimination; require integer c."""
    rows = [list(map(Q, r)) for r in rows]
    v = list(map(Q, v))
    if not rows:
        return all(x == 0 for x in v)
    cols = len(v)
    aug = [[rows[i][j] for i in range(len(rows))] + [v[j]] for j in range(cols)]
    m = len(rows)
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, cols) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(cols):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, cols):
        if aug[i][m] != 0:
            return False
    return all(aug[i][m].denominator == 1 for i in range(r))


def oracle_same_lattice(rows_a, rows_b):
    return all(oracle_membership(rows_b, v) for v in rows_a) and \
        all(oracle_membership(rows_a, v) for v in rows_b)


def index2_sublattices_of_z2():
    return [((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 2))]


def oracle_cone_membership(gens, v, box=6):
    """Is v a nonnegative rational combination of gens?  Brute force over a
    small grid of coefficients scaled to clear denominators; only used on
    hand-picked cases where the grid is known to suffice."""
    from itertools import product as iproduct

    coeffs = [Q(k, 2) for k in range(2 * box + 1)]
    for combo in iproduct(coeffs, repeat=len(gens)):
        acc = [Q(0)] * len(v)
        for c, g in zip(combo, gens):
            for i, x in enumerate(g):
                acc[i] += c * x
        if all(a == b for a, b in zip(acc, map(Q, v))):
            return True
    return False


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def test_hnf_of_mixed_generators():
    # brute force: exactly one index-2 sublattice of Z^2 contains all rows
    rows = [(2, 0), (0, 2), (1, 1)]
    hits = [basis for basis in index2_sublattices_of_z2()
            if all(oracle_membership(basis, v) for v in rows)]
    assert hits == [((1, 1), (0, 2))]
    assert hnf(rows) == ((1, 1), (0, 2))


def test_hnf_of_identity_is_identity():
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hnf(eye) == tuple(eye)


def test_hnf_shape_and_lattice_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(60):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        h = hnf(rows)
        assert oracle_same_lattice(rows, h) or not h and all(
            all(x == 0 for x in row) for row in rows)
        # echelon shape with positive pivots and reduced columns
        pivot_cols = []
        for row in h:
            j = next(i for i, x in enumerate(row) if x != 0)
            assert row[j] > 0
            pivot_cols.append(j)
        assert pivot_cols == sorted(pivot_cols)
        for k, j in enumerate(pivot_cols):
            for above in range(k):
                assert 0 <= h[above][j] < h[k][j]


def test_hnf_transform_is_unimodular():
    rng = random.Random(99)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        h, u = hnf_with_transform(rows)
        assert abs(rational_det(u)) == 1
        prod = [[dot(u[i], [rows[k][j] for k in range(4)])
                 for j in range(4)] for i in range(4)]
        assert tuple(tuple(r) for r in prod) == h


def test_snf_of_diagonal():
    d, u, v = snf([[2, 0], [0, 2]])
    assert d == ((2, 0), (0, 2))
    # 2 does not divide 3, so the chain is diag(gcd, lcm)
    assert snf([[2, 0], [0, 3]])[0] == ((1, 0), (0, 6))
    assert snf([[0, 0], [0, -4]])[0] == ((4, 0), (0, 0))


def snf_cases(rng, count):
    """Shapes up to 5x5, rank-deficient ones from random_matrix, and now and
    then a zero row or a zero column."""
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        if rng.random() < 0.3:
            a[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            a = [row[:j] + [0] + row[j + 1:] for row in a]
        yield a


def test_snf_contract_on_random_matrices():
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
    cases += list(snf_cases(rng, 300))
    cases += [[[2, 0], [0, 3]], [[0, 0, 0]], [[0], [0]], [[0, 0], [0, 0]],
              [[6, 4], [9, 6]], [[3, 0, 0], [0, 0, 0], [0, 0, 5]]]
    for a in cases:
        m, n = len(a), len(a[0])
        d, u, v = snf(a)
        assert abs(rational_det(u)) == 1
        assert abs(rational_det(v)) == 1
        ua = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)]
               for i in range(m)]
        assert tuple(tuple(r) for r in uav) == d
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0


def test_right_kernel_integer_is_saturated_kernel():
    k = right_kernel_integer([[2, 0, -2], [0, 3, -3]])
    assert len(k) == 1
    assert abs(k[0][0]) == 1  # saturated: (1, ...) not (3, ...)
    for row in ([2, 0, -2], [0, 3, -3]):
        assert dot(row, k[0]) == 0


# ---------------------------------------------------------------------------
# Sublattices
# ---------------------------------------------------------------------------

def test_lattice_index_cases():
    full = Sublattice.full(2)
    sub = Sublattice.from_rows(2, [(1, 0), (0, 2)])
    assert lattice_index(full, sub) == 2
    assert lattice_index(full, full) == 1
    thin = Sublattice.from_rows(2, [(1, 0)])
    assert lattice_index(full, thin) == math.inf
    with pytest.raises(ValueError):
        lattice_index(sub, full)  # not contained


def test_saturation_brute_force():
    # Z * (0,2) saturates to Z * (0,1): check small multiples directly
    lattice = Sublattice.from_rows(2, [(0, 2)])
    sat = saturation(lattice, Sublattice.full(2))
    assert sat.basis == ((0, 1),)
    for k in range(-4, 5):
        assert sat.contains((0, k))
    assert not sat.contains((1, 0))


def test_saturation_idempotent_and_divides_index():
    rng = random.Random(5)
    full = Sublattice.full(3)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        lattice = Sublattice.from_rows(3, rows)
        if lattice.rank == 0:
            continue
        sat = saturation(lattice, full)
        assert saturation(sat, full) == sat
        idx_sat = lattice_index(full, sat)
        if lattice.rank == 3:
            assert lattice_index(full, lattice) % idx_sat == 0


def test_saturation_of_saturated_and_zero():
    full = Sublattice.full(2)
    sat = Sublattice.from_rows(2, [(1, 0), (0, 1)])
    assert saturation(sat, full) == sat
    zero = Sublattice.zero(2)
    assert saturation(zero, full) == zero


def oracle_integral_coordinates(lattice, rows):
    """The per-row loop that integral_coordinates replaced."""
    out = []
    for row in rows:
        c = lattice.coefficients(row)
        if c is None or not all(x.denominator == 1 for x in c):
            return None
        out.append(c)
    return tuple(out)


def test_integral_coordinates_matches_the_per_row_loop():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 5)
        lattice = Sublattice.from_rows(n, random_matrix(rng, rng.randint(0, 4), n))
        r = lattice.rank

        def point(denominator):
            coeffs = [Q(rng.randint(-3, 3), denominator) for _ in range(r)]
            return tuple(int(x) if x.denominator == 1 else x
                         for x in lattice.member_from_coefficients(coeffs))
        members = [point(1) for _ in range(3)]
        in_span = [point(rng.randint(2, 3)) for _ in range(2)]
        off_span = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(2)]
        for rows in ([], members, members + in_span[:1], in_span,
                     off_span[:1] + members, members + off_span):
            got = lattice.integral_coordinates(rows)
            assert got == oracle_integral_coordinates(lattice, rows)
            if got is None:
                assert not all(oracle_membership(lattice.basis, v) for v in rows)
            else:
                assert all(type(x) is int for c in got for x in c)
                assert [lattice.member_from_coefficients(c) for c in got] == rows


def test_primitive_ray_generator():
    lat = Sublattice.from_rows(2, [(0, 2)])
    assert primitive_ray_generator(lat, (0, 1)) == (0, 2)
    assert primitive_ray_generator(Sublattice.full(2), (2, 4)) == (1, 2)
    # lattice generated by (1,1)/1 and (2,0): primitive point on ray (1,1)
    lat2 = Sublattice.from_rows(2, [(1, 1), (2, 0)])
    assert primitive_ray_generator(lat2, (Q(1, 2), Q(1, 2))) == (1, 1)
    with pytest.raises(ValueError):
        primitive_ray_generator(lat, (0, 0))


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

def dual(cone):
    """{u : <u, x> >= 0 for all x in the cone}: the DD of its generators."""
    return cone_from_inequalities(cone.ambient_dim, cone.generators())


def contains(cone, v):
    """Membership through the facets, the generators of the dual cone."""
    return all(dot(u, v) >= 0 for u in dual(cone).generators())


def test_valuation_style_cone():
    # {v : v.(1,0) <= 0, v.(0,1) <= 0} has ray generators (-1,0), (0,-1)
    cone = cone_from_inequalities(2, [(-1, 0), (0, -1)])
    assert cone.rays == ((-1, 0), (0, -1))
    assert cone.lineality == ()


def test_cone_intersect_subspace_ray():
    cone = Cone.from_generators(2, [(1, 0), (0, 1)])
    line = Subspace.from_rows(2, [(0, 1)])
    cut = cone_intersect_subspace(cone, line)
    assert cut.rays == ((0, 1),)
    assert cut.lineality == ()


def test_dual_of_full_space_is_origin():
    full = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    cone = dual(full)
    assert cone.rays == () and cone.lineality == ()


def test_dual_dual_identity_random():
    rng = random.Random(11)
    for dim in (1, 2, 3, 4):
        for _ in range(25):
            k = rng.randint(0, dim + 2)
            gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(k)]
            gens = [g for g in gens if any(g)]
            cone = Cone.from_generators(dim, gens)
            assert dual(dual(cone)) == cone


def test_membership_matches_generator_combinations():
    gens = [(2, 1, 0), (0, 1, 1), (1, 0, 3)]
    cone = Cone.from_generators(3, gens)
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [Q(rng.randint(0, 6), 2) for _ in gens]
        point = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)]
        assert contains(cone, tuple(point))
    assert not contains(cone, (-1, 0, 0))


def test_extremal_rays_of_simplicial_cones():
    rng = random.Random(13)
    for _ in range(30):
        dim = rng.randint(1, 4)
        k = rng.randint(1, dim)
        rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        if len(Subspace.from_rows(dim, rows).basis) != k:
            continue  # only linearly independent generator sets
        cone = Cone.from_generators(dim, rows)
        rays = cone.rays
        assert len(rays) == k
        for ray in rays:
            assert any(primitive(row) == ray for row in rows)


def test_cone_with_lineality_and_rays():
    # half-plane: x >= 0 in Q^2
    half = cone_from_inequalities(2, [(1, 0)])
    assert half.lineality == ((0, 1),)
    assert half.rays == ((1, 0),)
    assert contains(half, (3, -7))
    assert not contains(half, (-1, 0))


def test_zero_dimensional_cone():
    cone = Cone.from_generators(0, [])
    assert cone.rays == () and cone.lineality == ()
    assert dual(cone) == cone
    assert contains(cone, ())


# ---------------------------------------------------------------------------
# Exact kernels against sympy and the Gauss-Jordan solver they replaced
# ---------------------------------------------------------------------------

def oracle_solve_left(rows, target):
    """Gauss-Jordan over Fraction on [rows^T | target], free coefficients 0:
    the solver the fraction-free elimination replaced, kept as the reference."""
    rows = list(rows)
    if not rows:
        return () if all(x == 0 for x in target) else None
    n = len(rows[0])
    aug = [[Q(rows[i][j]) for i in range(len(rows))] + [Q(target[j])]
           for j in range(n)]
    m = len(rows)
    r = 0
    pivots = []
    for c in range(m):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    sol = [Q(0)] * m
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][m]
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    return tuple(int(x) if x.denominator == 1 else x for x in sol)


def random_matrix(rng, m, n, rational=False):
    """Small entries, a rational one now and then, and often a repeated
    direction, so that dependent and singular cases come up."""
    def entry():
        x = rng.randint(-4, 4)
        return Q(x, rng.randint(2, 4)) if rational and rng.random() < 0.3 else x
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(m), 2)
        c = entry() or 1
        rows[i] = [c * x for x in rows[j]]
    return rows


def to_fraction(x):
    return Q(int(x.p), int(x.q))


def sympy_lattice_contains(basis, v):
    """Integral solution of c * basis = v by sympy, for independent rows."""
    import sympy

    if not basis:
        return all(x == 0 for x in v)
    try:
        sol, params = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(v))
    except ValueError:
        return False
    assert params.shape[0] == 0
    return all(x.is_integer for x in sol)


def test_integer_membership_matches_sympy_and_the_rational_read_off(monkeypatch):
    rng = random.Random(67)
    lattices = [Sublattice.zero(3), Sublattice.full(2)]
    while len(lattices) < 100:
        n = rng.randint(1, 5)
        # up to n + 1 rows, so rank-deficient lattices come up often
        lattices.append(Sublattice.from_rows(
            n, random_matrix(rng, rng.randint(0, n + 1), n)))
    cases = []
    with monkeypatch.context() as patch:
        # the integer read-off never goes through the rational one
        def rational_read_off(*args):
            raise AssertionError("rational read-off used")
        patch.setattr(integer_geometry, "_read_off", rational_read_off)
        for lattice in lattices:
            n, r = lattice.ambient_rank, lattice.rank
            vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(2)]
            for d in (1, 1, 2, 3):
                coeffs = [Q(rng.randint(-3, 3), d) for _ in range(r)]
                vectors.append(lattice.member_from_coefficients(coeffs))
            vectors.append(tuple(map(Q, vectors[2])))  # a member, Fraction entries
            vectors.append(tuple(Q(rng.randint(-4, 4), 2) for _ in range(n)))
            for v in vectors:
                got = lattice.integral_coordinates([v])
                assert lattice.contains(v) is (v in lattice) is (got is not None)
                cases.append((lattice, v, got))
    for lattice, v, got in cases:
        assert (got is not None) is sympy_lattice_contains(lattice.basis, v)
        # the rational coordinates agree, and are integral just on members
        rational = lattice.coefficients(v)
        if got is None:
            assert rational is None or any(Q(x).denominator != 1 for x in rational)
        else:
            assert got == (rational,) and all(type(x) is int for x in got[0])
    members = sum(got is not None for _, _, got in cases)
    assert members > 150 and len(cases) - members > 150


def test_integer_membership_rejects_inexact_entries_and_wrong_lengths():
    lattice = Sublattice.from_rows(2, [(2, 1), (0, 3)])
    for bad in (1.0, "1"):
        with pytest.raises(TypeError):
            lattice.contains((bad, 0))
        with pytest.raises(TypeError):
            lattice.integral_coordinates([(2, 1), (0, bad)])
    for short in ((1,), (2, 1, 0)):
        with pytest.raises(ValueError):
            lattice.contains(short)
        with pytest.raises(ValueError):
            lattice.integral_coordinates([(2, 1), short])


def test_solve_left_matches_the_previous_solver():
    rng = random.Random(41)
    for trial in range(600):
        rational = trial % 2 == 1
        m, n = rng.randint(1, 5), rng.randint(0, 5)
        rows = random_matrix(rng, m, n, rational)
        if trial % 3:
            coeffs = random_matrix(rng, 1, m, rational)[0]
            target = [sum(c * row[j] for c, row in zip(coeffs, rows))
                      for j in range(n)]
        else:
            target = random_matrix(rng, 1, n, rational)[0]
        got, want = solve_left(rows, target), oracle_solve_left(rows, target)
        assert got == want
        if want is not None:
            assert [type(x) for x in got] == [type(x) for x in want]
    assert solve_left([], (0, 0)) == () and solve_left([], (1, 0)) is None
    # dependent rows: the later, dependent row gets coefficient 0
    assert solve_left([(1, 2), (2, 4)], (3, 6)) == (3, 0)
    assert solve_left([(1, 2), (2, 4)], (3, 5)) is None
    assert solve_left([(2, 4), (1, 2)], (3, 6)) == (Q(3, 2), 0)


def test_subspace_contains_matches_solve_left():
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randint(1, 5)
        space = Subspace.from_rows(
            n, random_matrix(rng, rng.randint(0, 4), n, rational=True))
        combos = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in space.basis]
                  for _ in range(3)]
        vectors = [tuple(sum((c * row[j] for c, row in zip(cs, space.basis)), Q(0))
                         for j in range(n)) for cs in combos]
        vectors += [tuple(random_matrix(rng, 1, n, rational=True)[0])
                    for _ in range(3)]
        for v in vectors:
            assert space.contains(v) == (solve_left(space.basis, v) is not None)


def test_rref_and_det_match_sympy():
    import sympy

    rng = random.Random(43)
    for trial in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, m, n, rational=trial % 2 == 1)
        reduced, pivots = sympy.Matrix(rows).rref()
        want = tuple(tuple(to_fraction(x) for x in reduced.row(k))
                     for k in range(len(pivots)))
        got = rref(rows)
        assert got == want
        assert all(type(x) is int for row in got for x in row
                   if x.denominator == 1)
        assert matrix_rank(rows) == len(pivots)
        square = random_matrix(rng, m, m, rational=trial % 2 == 1)
        assert rational_det(square) == to_fraction(sympy.Matrix(square).det())
    assert rational_det([]) == 1


def test_hnf_and_snf_match_sympy():
    import sympy
    from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

    rng = random.Random(47)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        # sympy's HNF is column-style: its columns span the column lattice
        theirs = hermite_normal_form(sympy.Matrix(rows).T).T.tolist()
        ours = [list(row) for row in hnf(rows)]
        assert len(ours) == len(theirs)
        assert all(sympy_lattice_contains(theirs, v) for v in ours)
        assert all(sympy_lattice_contains(ours, v) for v in theirs)
        d, _, _ = snf(rows)
        ours = [abs(d[i][i]) for i in range(min(m, n)) if d[i][i]]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(rows),
                                                         domain=sympy.ZZ) if x]
        assert ours == theirs
    # the invariant factors on the shapes of the snf contract test
    for rows in snf_cases(rng, 150):
        d, _, _ = snf(rows)
        ours = [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(rows),
                                                         domain=sympy.ZZ) if x]
        assert ours == theirs


# ---------------------------------------------------------------------------
# Double description, certified by its own output
# ---------------------------------------------------------------------------

@st.composite
def inequality_systems(draw):
    dim = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=3))
    ineqs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                          max_size=6))
    return dim, ineqs


@settings(max_examples=100, deadline=None)
@given(inequality_systems())
def test_dd_generators_certify_the_cone(system):
    dim, ineqs = system
    lin, rays = _dd(ineqs, dim)
    # the lineality space is the whole kernel of the inequalities
    assert len(lin) == dim - matrix_rank(ineqs) == matrix_rank(lin)
    for l in lin:
        assert all(dot(a, l) == 0 for a in ineqs)
    for r in rays:
        assert all(dot(a, r) >= 0 for a in ineqs)
        active = [a for a in ineqs if dot(a, r) == 0]
        # an extremal ray: its face has dimension dim(lineality) + 1
        assert matrix_rank(active) == dim - 1 - len(lin)
        assert matrix_rank(lin + [r]) == len(lin) + 1


@pytest.mark.parametrize("bad", [1.5, 2.0, "3"])
def test_kernels_reject_inexact_entries(bad):
    with pytest.raises(TypeError):
        dot((1, bad), (1, 1))
    with pytest.raises(TypeError):
        vadd((1, bad), (0, 0))
    with pytest.raises(TypeError):
        vscale(2, (1, bad))
    with pytest.raises(TypeError):
        vscale(bad, (1, 2))
    with pytest.raises(TypeError):
        primitive((1, bad))
    with pytest.raises(TypeError):
        Sublattice.full(2).member_from_coefficients((1, bad))
