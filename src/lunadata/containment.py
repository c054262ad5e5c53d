"""Derived data of a Luna datum: quotients, subdata, and connectedness.

The operations here walk the lattice of overgroups of a spherical subgroup
purely combinatorially: colored subspaces encode co-connected overgroups,
finite-index distinguished sublattices encode finite quotients, and
distinguished pairs combine the two.  The identity-component datum and the
D-saturation test sit at the bottom of the same machinery.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations, product
from math import lcm
from operator import mul

from .integer_geometry import (
    Sublattice,
    Subspace,
    _Record,
    _cleared,
    _identity,
    dot,
    hnf,
    primitive,
    primitive_ray_generator,
    right_kernel_integer,
    rref,
    vscale,
)
from .luna_core import (
    ColorRecord,
    LunaDatum,
    colors_moved_by,
    coroot_on_m,
    datum_equal,
    full_colors,
    luna_datum,
    match_spherical_root,
    require_valid,
    validate,
)
from .root_datum import in_root_lattice


class InternalConsistencyError(RuntimeError):
    """A derived datum failed validation that theory says cannot fail."""


class PairError(ValueError):
    """A pair or subspace argument violates its defining condition."""


class ColoredSubspace(_Record):
    subspace: Subspace      # subspace of N_Q, dual coordinates
    colors: frozenset       # labels of full colors


class DistinguishedPair(_Record):
    lattice: Sublattice     # subgroup of M, character-lattice coordinates
    colors: frozenset       # labels of full colors


class Subdatum(_Record):
    datum: LunaDatum
    witness: DistinguishedPair
    violations: tuple       # validation results, attached rather than raised


class SteinDecomposition(_Record):
    colored: ColoredSubspace    # (S^perp, F): a co-connected overgroup
    quotient: LunaDatum         # its quotient datum; S has finite index in M
    subdatum: Subdatum          # of the pair (S, F), S its witness lattice


def _color_map(datum: LunaDatum) -> dict:
    return {c.label: c for c in full_colors(datum)}


def _coefficient_lattice(datum: LunaDatum, sub: Sublattice) -> Sublattice:
    """The lattice of M-coordinates of a sublattice of M."""
    if sub.ambient_rank != datum.group.rank:
        raise PairError("lattice has wrong ambient rank")
    rows = datum.M.integral_coordinates(sub.basis)
    if rows is None:
        raise PairError("lattice is not contained in M")
    return Sublattice.from_rows(datum.rank, rows)


def _annihilator(datum: LunaDatum, lattice: Sublattice) -> Subspace:
    """The annihilator inside N_Q of a sublattice of M in M-coordinates."""
    kernel = right_kernel_integer(lattice.basis, width=datum.rank)
    return Subspace.from_rows(datum.rank, kernel)


def _checked(result: LunaDatum, what: str) -> LunaDatum:
    """The derived datum, once it validates as theory says it must."""
    bad = validate(result)
    if bad:
        raise InternalConsistencyError(f"{what} datum invalid: {bad}")
    return result


def _orthant_rays(cuts: Sequence[Sequence[int]], k: int) -> list:
    """Primitive rays of the orthant of Q^k cut by <c, row> >= 0 for each
    integer row of ``cuts``, by a double description on plain integers.

    Each ray keeps its active set as a bitmask: bit i for c_i >= 0, bit
    k + j for cut j.  The cone is pointed, so two rays are adjacent when no
    third ray is active wherever both are (Fukuda and Prodon, 1996), which
    takes k - 2 common facets; a cut combines only adjacent pairs."""
    rays = [(tuple(int(i == j) for j in range(k)), ((1 << k) - 1) ^ (1 << i))
            for i in range(k)]
    for j, row in enumerate(cuts):
        bit = 1 << (k + j)
        signs = [(r, m, sum(map(mul, row, r))) for r, m in rays]
        pos = [t for t in signs if t[2] > 0]
        neg = [t for t in signs if t[2] < 0]
        kept = [(r, m) for r, m, _ in pos]
        kept += [(r, m | bit) for r, m, s in signs if s == 0]
        for rp, mp, sp in pos:
            for rm, mm, sm in neg:
                common = mp & mm
                if common.bit_count() < k - 2 or any(
                        m & common == common for r, m in rays
                        if r is not rp and r is not rm):
                    continue
                ray = primitive([sp * x - sm * y for x, y in zip(rm, rp)])
                kept.append((ray, common | bit))
        rays = kept
    return [r for r, _ in rays]


def _sigma_rays(datum: LunaDatum, ineqs: Iterable[Sequence] = ()) -> tuple:
    """Primitive rays, in M-coordinates, of cone(Sigma) cut by <x, a> >= 0
    for a in ``ineqs``.

    Sigma is linearly independent, so c -> sum c_sigma sigma maps the
    orthant of Q^Sigma injectively onto cone(Sigma), rays to rays: the
    orthant cut by the pulled-back rows, cleared to integers, gives the cut.
    """
    sigma = datum.sigma_coords
    cuts = [_cleared([dot(s, a) for s in sigma])[0] for a in ineqs]
    return tuple(sorted(primitive([sum(map(mul, c, col)) for col in zip(*sigma)])
                        for c in _orthant_rays(cuts, len(sigma))))


# ---------------------------------------------------------------------------
# Distinguished roots
# ---------------------------------------------------------------------------

def distinguished_roots(datum: LunaDatum) -> frozenset:
    """Spherical roots that double when passing to the normalizer.

    A root qualifies if it is simple and both of its colors carry half its
    restricted coroot, or if it is a non-simple root-lattice element whose
    double is a spherical root of the group compatible with Sp.
    """
    require_valid(datum)
    group = datum.group
    out = set()
    for g in datum.Sigma:
        if g in group.simple_index:
            i = group.simple_index[g]
            coroot = coroot_on_m(datum, i)
            pair = colors_moved_by(datum, i)
            if pair and all(vscale(2, c.rho) == coroot for c in pair):
                out.add(g)
        elif in_root_lattice(group, g):
            doubled = tuple(2 * x for x in g)
            m = match_spherical_root(group, doubled)
            if m is not None and m.spp <= datum.Sp <= m.sp:
                out.add(g)
    return frozenset(out)


def distinguished_roots_rank_one_variant(datum: LunaDatum) -> frozenset:
    """Cross-check for :func:`distinguished_roots` via rank-one data.

    A root qualifies if it lies in the root lattice, the rank-one quadruple
    (Z*2g, {2g}, Sp, {}) is a valid Luna datum, and (when the root is simple)
    its two colors share one functional.
    """
    require_valid(datum)
    group = datum.group
    out = set()
    for g in datum.Sigma:
        if not in_root_lattice(group, g):
            continue
        doubled = tuple(2 * x for x in g)
        rank_one = luna_datum(group, [doubled], [doubled], datum.Sp, [])
        if validate(rank_one):
            continue
        if g in group.simple_index:
            pair = colors_moved_by(datum, group.simple_index[g])
            if len({c.rho for c in pair}) != 1:
                continue
        out.add(g)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def _normalizer_sigma(datum: LunaDatum) -> list:
    """Sigma(N), the spherical roots of the normalizer, in the order of
    Sigma: a root doubles when it is distinguished or lies outside the root
    lattice.  By Knop's criterion, a sublattice S of finite index in M is
    distinguished exactly when it contains Sigma(N)."""
    plus = distinguished_roots(datum)  # validates the datum
    return [vscale(2, g) if g in plus or not in_root_lattice(datum.group, g)
            else g for g in datum.Sigma]


def normalizer_datum(datum: LunaDatum) -> LunaDatum:
    """Luna datum of the normalizer: M becomes the span of Sigma(N), Sp
    stays, and the colors of the simple roots left in Sigma(N) restrict."""
    group = datum.group
    sigma_n = _normalizer_sigma(datum)
    kept = [group.simple_index[g] for g in sigma_n if g in group.simple_index]
    lattice_n = Sublattice.from_rows(group.rank, sigma_n)
    coords = datum.M.integral_coordinates(lattice_n.basis)  # Sigma, 2 Sigma in M
    records = {}
    for i in kept:
        for color in colors_moved_by(datum, i):
            records.setdefault(color.label, ColorRecord(
                color.label, tuple(dot(color.rho, c) for c in coords)))
    return _checked(LunaDatum(group, lattice_n, tuple(sigma_n), datum.Sp,
                              tuple(records.values())), "normalizer")


# ---------------------------------------------------------------------------
# Colored subspaces and quotient data
# ---------------------------------------------------------------------------

def _colored_rays(datum: LunaDatum, space: Subspace,
                  labels: frozenset) -> tuple | None:
    """The rays of cone(Sigma) intersect W^perp if (W, F) is colored, else None.

    Once rho(F) lies in W, the generators span W exactly when their dual
    cone, (cone(-Sigma) + W^perp) intersect rho(F)^dual, is W^perp: when
    every ray of cone(Sigma) cut by <x, rho(D)> <= 0, D in F, vanishes on W.
    That cut is then cone(Sigma) intersect W^perp, as rho(F) lies in W.
    """
    require_valid(datum)
    rho = _color_map(datum)
    for label in labels:
        if label not in rho:
            raise PairError(f"unknown color label {label!r}")
    if space.ambient_dim != datum.rank:
        raise PairError("subspace has wrong ambient dimension")
    if not all(space.contains(rho[l].rho) for l in labels):
        return None
    rays = _sigma_rays(datum, ineqs=[vscale(-1, rho[l].rho) for l in labels])
    if any(dot(r, w) for r in rays for w in space.basis):
        return None
    return rays


def is_colored_subspace(datum: LunaDatum, space: Subspace,
                        color_labels: Iterable[str]) -> bool:
    """Whether the subspace W is spanned, as a cone, by its valuation part
    (V intersect W) together with the functionals rho(F) of the colors F."""
    return _colored_rays(datum, space, frozenset(color_labels)) is not None


def _hitting_sets(datum: LunaDatum, space: Subspace, labels: Iterable[str]) -> list:
    """For each sigma not vanishing on W, the colors D among ``labels`` with
    <rho(D), sigma> > 0.  The F of a colored (W, F) meets every one: for w
    in W with <w, sigma> > 0, coloredness writes w = v + sum of lambda_D
    rho(D), D in F, with v in V and lambda >= 0; as <v, sigma> <= 0, some
    <rho(D), sigma> > 0."""
    rho = _color_map(datum)
    return [frozenset(l for l in labels if dot(rho[l].rho, s) > 0)
            for s in datum.sigma_coords if any(dot(w, s) for w in space.basis)]


def _simple_roots_inside(datum: LunaDatum, labels: frozenset) -> frozenset:
    """Sp(F): the simple roots whose colors all lie in F."""
    return frozenset(i for i in range(datum.group.num_simple_roots)
                     if all(c.label in labels for c in colors_moved_by(datum, i)))


def _restrict(datum: LunaDatum, rays: tuple, colors: frozenset,
              lattice: Sublattice) -> LunaDatum:
    """The restriction to a lattice in M-coordinates spanning the cut
    ``rays`` of cone(Sigma), built on that lattice: its spherical roots are
    the primitive generators of the rays, Sp becomes Sp(colors), and Da keeps
    the type-a colors that move a simple root surviving in the new Sigma."""
    group = datum.group
    m = Sublattice.from_rows(group.rank, map(datum.M.member_from_coefficients,
                                             lattice.basis))
    coords = datum.M.integral_coordinates(m.basis)
    sigma = sorted(datum.M.member_from_coefficients(
        primitive_ray_generator(lattice, ray)) for ray in rays)
    kept = {group.simple_index[g] for g in sigma if g in group.simple_index}
    moved = {c.label: c.moved for c in full_colors(datum) if c.ctype == "a"}
    records = tuple(ColorRecord(r.label, tuple(dot(r.rho, c) for c in coords))
                    for r in datum.Da if moved[r.label] & kept)
    return LunaDatum(group, m, tuple(sigma),
                     _simple_roots_inside(datum, colors), records)


def _colored_quotient(datum: LunaDatum, perp: Subspace,
                      labels: frozenset) -> tuple | None:
    """(rays, quotient), the colored-subspace stage of a pair test, or None
    when (perp, labels) is not a colored subspace.  One cut of cone(Sigma)
    both decides and restricts, the validated quotient to M intersected with
    the annihilator of perp."""
    rays = _colored_rays(datum, perp, labels)
    if rays is None:
        return None
    lattice = Sublattice.from_rows(datum.rank, right_kernel_integer(
        perp.basis, width=datum.rank))  # in M-coordinates
    return rays, _checked(_restrict(datum, rays, labels, lattice), "quotient")


def _subdatum(datum: LunaDatum, rays: tuple, labels: frozenset,
              lattice: Sublattice) -> Subdatum:
    """The subdatum of the pair (S, labels), S given in M-coordinates as
    ``lattice``, on the cut ``rays`` of its colored stage; its M is S."""
    result = _restrict(datum, rays, labels, lattice)
    return Subdatum(result, DistinguishedPair(result.M, labels), validate(result))


def quotient_datum(datum: LunaDatum, colored: ColoredSubspace) -> LunaDatum | None:
    """Luna datum of the co-connected overgroup encoded by a colored subspace,
    or None when the pair is not colored.  PairError means malformed input:
    an unknown color label, or a subspace of the wrong dimension."""
    stage = _colored_quotient(datum, colored.subspace, frozenset(colored.colors))
    return None if stage is None else stage[1]


# ---------------------------------------------------------------------------
# Distinguished pairs and subdata
# ---------------------------------------------------------------------------

def stein_decompose(datum: LunaDatum,
                    pair: DistinguishedPair) -> SteinDecomposition | None:
    """The colored subspace (S^perp, F) of a pair, its quotient datum and the
    subdatum of the pair, or None when the pair is not distinguished: when
    (S^perp, F) is not colored, or S misses Sigma(N) of the quotient (Knop's
    criterion, :func:`_normalizer_sigma`).  The finite part S has finite
    index in the quotient's M.  PairError means malformed input: S of the
    wrong ambient rank or not in M, or an unknown color label.
    """
    require_valid(datum)
    lattice = _coefficient_lattice(datum, pair.lattice)  # PairError off M
    perp, labels = _annihilator(datum, lattice), frozenset(pair.colors)
    stage = _colored_quotient(datum, perp, labels)
    if stage is None:
        return None
    rays, quotient = stage
    normal = datum.M.integral_coordinates(_normalizer_sigma(quotient))
    if lattice.integral_coordinates(normal) is None:
        return None
    return SteinDecomposition(ColoredSubspace(perp, labels), quotient,
                              _subdatum(datum, rays, labels, lattice))


def is_distinguished_pair(datum: LunaDatum, sub: Sublattice,
                          color_labels: Iterable[str]) -> bool:
    """Whether (sub, colors) is a distinguished pair (:func:`stein_decompose`)."""
    pair = DistinguishedPair(sub, frozenset(color_labels))
    return stein_decompose(datum, pair) is not None


def subdatum(datum: LunaDatum, pair: DistinguishedPair) -> Subdatum:
    """The subdatum of a distinguished pair; PairError for any other pair.

    The result always carries its own validation outcome: the construction
    presupposes the derived quadruple is again a Luna datum, so violations
    are surfaced on the result instead of being raised.
    """
    found = stein_decompose(datum, pair)
    if found is None:
        raise PairError("the pair is not distinguished")
    return found.subdatum


# ---------------------------------------------------------------------------
# Bounded enumeration of finite-quotient subdata
# ---------------------------------------------------------------------------

def _hnf_walk(rank: int, generators: Sequence[Sequence[int]], bound: int):
    """(index, h) for every full-rank row-HNF matrix h of index, the product
    of its diagonal, at most the bound whose rows span a lattice containing
    L, the lattice of the integer ``generators``, in the order of the walk.

    The walk fills h column by column.  Column j, its diagonal entry d_j
    and the entries h_ij < d_j above it, fixes coordinate j of each row g of
    L's HNF against h, c_j = (g_j - sum_{i<j} c_i h_ij) / d_j, and a column
    on which some c_j is not an integer cuts its whole branch.  The row of
    L's HNF that leads in column j, if any, has c_j = pivot / d_j, so d_j
    only runs over the divisors of that pivot: when L has full rank, every
    index divides [Z^rank : L].
    """
    basis = hnf(generators)
    pivots = dict(next((j, x) for j, x in enumerate(b) if x) for b in basis)

    def walk(j, columns, coords, index):
        if j == rank:
            yield index, tuple(zip(*columns))
            return
        room = bound // index
        if j in pivots:
            p = pivots[j]
            diagonal = [d for d in range(1, min(p, room) + 1) if p % d == 0]
        else:
            diagonal = range(1, room + 1)
        below = (0,) * (rank - j - 1)
        for d in diagonal:
            for above in product(range(d), repeat=j):
                new = []
                for g, c in zip(basis, coords):
                    q, r = divmod(g[j] - sum(map(mul, c, above)), d)
                    if r:
                        break
                    new.append(c + (q,))
                else:
                    yield from walk(j + 1, columns + [above + (d,) + below],
                                    new, index * d)

    yield from walk(0, [], [()] * len(basis), 1)


def _require_bound(bound) -> None:
    if not isinstance(bound, int) or bound < 1:
        raise ValueError("index bound must be an integer of at least 1")


def sublattices_of_index(lattice: Sublattice, bound: int):
    """All full-rank sublattices of index up to the bound, ordered by index
    and then by their HNF matrix in the lattice's coordinates."""
    _require_bound(bound)
    for index, h in sorted(_hnf_walk(lattice.rank, (), bound)):
        yield index, Sublattice.from_rows(
            lattice.ambient_rank, map(lattice.member_from_coefficients, h))


def enumerate_finite_subdata(datum: LunaDatum, index_bound: int) -> list:
    """All subdata from finite-index distinguished sublattices of M.

    Every candidate S has full rank and comes with no colors, so S^perp = 0
    and F is empty for all of them: they share the colored subspace (0, {}).
    Its cut of cone(Sigma) is cone(Sigma), whose rays Sigma are primitive,
    Sp({}) = Sp by axiom (S) and every Da color moves a root of Sigma by
    (A3), so its quotient is the datum itself, up to the order of Sigma.
    By Knop's criterion S is distinguished exactly when it contains
    L = Z Sigma(N) (:func:`_normalizer_sigma`), so the HNF walk in
    M-coordinates (:func:`_hnf_walk`) yields exactly the accepted S and no
    other candidate: the cost follows the accepted lattices, and when L has
    full rank no index beyond [M : L] is visited, whatever the bound.
    """
    require_valid(datum)
    _require_bound(index_bound)
    rays = tuple(sorted(datum.sigma_coords))
    normal = datum.M.integral_coordinates(_normalizer_sigma(datum))
    out = [(index, _subdatum(datum, rays, frozenset(), Sublattice(datum.rank, h)))
           for index, h in _hnf_walk(datum.rank, normal, index_bound)]
    out.sort(key=lambda pair: (pair[0], pair[1].datum.M.basis))
    return [sd for _, sd in out]


# ---------------------------------------------------------------------------
# Identity component and connectedness
# ---------------------------------------------------------------------------

def _d_saturation(datum: LunaDatum, sub: Sublattice) -> Sublattice:
    """{x in sub_Q intersect X(B) : <rho(D), x> integral for all colors}.

    A point of sub_Q is d.B for the basis B of sub, so the closure is
    {d.B : A d integral}, where A stacks the columns of B and each color's
    rho read on B.  That is the dual of the full-rank lattice Z A spanned by
    the rows of A: its basis is the columns of H^-1, for H the HNF of A.
    PairError when sub has the wrong ambient rank or leaves the span of M.
    """
    if sub.ambient_rank != datum.group.rank:
        raise PairError("lattice has wrong ambient rank")
    coords = [datum.M.coefficients(b) for b in sub.basis]  # in M_Q, once
    if None in coords:
        raise PairError("lattice is not contained in the span of M")
    rows = [*zip(*sub.basis)] + [[dot(color.rho, c) for c in coords]
                                 for color in full_colors(datum)]
    denom = lcm(*(x.denominator for row in rows for x in row))
    h = hnf([[x * denom for x in row] for row in rows])  # Z A, cleared
    inverse = rref([[*row, *e] for row, e in zip(h, _identity(sub.rank))])
    return Sublattice.from_rows(datum.group.rank, (
        sub.member_from_coefficients(vscale(denom, d))
        for d in zip(*(row[sub.rank:] for row in inverse))))


def is_d_saturated(datum: LunaDatum, sub: Sublattice) -> bool:
    """Whether the sublattice equals its own color-integral closure.

    The lattice must lie in the rational span of M, so that the color
    functionals extend to it (PairError otherwise); the closure itself is
    such a lattice, so closures can be tested for the fixed-point property.
    """
    require_valid(datum)
    return _d_saturation(datum, sub) == Sublattice.from_rows(
        datum.group.rank, sub.basis)


def is_connected(datum: LunaDatum) -> bool:
    """Connectedness of the subgroup: M must be D-saturated."""
    require_valid(datum)
    return _d_saturation(datum, datum.M) == datum.M


def identity_component_datum(datum: LunaDatum) -> LunaDatum:
    """Luna datum of the identity component.

    M grows to its color-integral closure, each spherical root is replaced by
    the primitive generator of its ray in the new lattice, Sp is unchanged,
    and for every root of Sigma that halves into the new lattice the type-2a
    color splits into a fresh pair of type-a colors carrying half the coroot,
    labelled ``D_a1+`` and ``D_a1-`` (primed while a Da label takes them).
    """
    require_valid(datum)
    group = datum.group
    closure = _d_saturation(datum, datum.M)
    sigma0 = tuple(closure.member_from_coefficients(primitive(c))  # M <= closure
                   for c in closure.integral_coordinates(datum.Sigma))

    coords = [datum.M.coefficients(b) for b in closure.basis]
    records = []
    for record in datum.Da:
        rho = tuple(dot(record.rho, c) for c in coords)
        if any(x.denominator != 1 for x in rho):
            raise InternalConsistencyError(
                "type-a functional fails to extend integrally")
        records.append(ColorRecord(record.label, rho))

    for g, g0 in zip(datum.Sigma, sigma0):  # Sigma is independent
        if g0 in group.simple_index and vscale(2, g0) == g:
            i = group.simple_index[g0]
            coroot = [dot(group.simple_coroots[i], b) for b in closure.basis]
            if any(x % 2 for x in coroot):
                raise InternalConsistencyError(
                    "half coroot fails to be integral on the closure")
            rho = tuple(x // 2 for x in coroot)
            for sign in "+-":
                label = f"D_a{i + 1}{sign}"
                while label in {r.label for r in records}:  # taken by a Da label
                    label += "'"
                records.append(ColorRecord(label, rho))

    return _checked(LunaDatum(group, closure, sigma0, datum.Sp, tuple(records)),
                    "identity-component")


# ---------------------------------------------------------------------------
# Recognizing subdata
# ---------------------------------------------------------------------------

def is_subdatum(candidate: LunaDatum, datum: LunaDatum) -> DistinguishedPair | None:
    """A distinguished pair realizing the candidate as a subdatum, or None.

    A candidate that fails validation is None at once, since every subdatum
    returned validates.  Otherwise the color sets F are walked smallest
    first, then lexicographically.  Only F inside F_W, the colors with rho(D)
    in W, can be colored, and the restriction reads F only through Sp(F), so
    only F with Sp(F) equal to the candidate's Sp are tried: F holds the
    colors of every root of that Sp and the walk chooses only the rest, in
    the same order.  The first colored F decides through
    :func:`stein_decompose`, since every later one restricts the same way.
    F must also meet every set of :func:`_hitting_sets`, at no cut's cost.
    """
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
    forced = frozenset(c.label for i in candidate.Sp
                       for c in colors_moved_by(datum, i))
    needs = _hitting_sets(datum, perp, inside)
    if not forced.issubset(inside) or not all(needs):
        return None
    rest = [label for label in inside if label not in forced]
    colors = next((combo for size in range(len(rest) + 1)
                   for combo in map(forced.union, combinations(rest, size))
                   if all(combo & n for n in needs)
                   and _simple_roots_inside(datum, combo) == candidate.Sp
                   and _colored_rays(datum, perp, combo) is not None), None)
    if colors is None:
        return None
    # built again in label order, so that the witness's repr depends on F only
    colors = frozenset(sorted(colors))
    found = stein_decompose(datum, DistinguishedPair(candidate.M, colors))
    # validity reads M, the set Sigma, Sp and the rho multiset, which
    # datum_equal compares, so the result validates as the candidate did
    if found is None or not datum_equal(found.subdatum.datum, candidate):
        return None
    return found.subdatum.witness
