"""Derived data of a Luna datum: quotients, subdata, and connectedness.

The operations here walk the lattice of overgroups of a spherical subgroup
purely combinatorially: colored subspaces encode co-connected overgroups,
finite-index distinguished sublattices encode finite quotients, and
distinguished pairs combine the two.  The identity-component datum and the
D-saturation test sit at the bottom of the same machinery.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations
from math import lcm
from operator import mul

from .integer_geometry import (
    Sublattice,
    Subspace,
    _Record,
    _cleared,
    dot,
    hnf,
    primitive,
    primitive_ray_generator,
    right_kernel_integer,
    saturation,
    vscale,
)
from .luna_core import (
    LunaDatum,
    colors_moved_by,
    coroot_on_m,
    datum_equal,
    full_colors,
    luna_datum,
    match_spherical_root,
    pair_with_rho,
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


def _color_map(datum: LunaDatum) -> dict:
    return {c.label: c for c in full_colors(datum)}


def _coefficient_lattice(datum: LunaDatum, sub: Sublattice) -> Sublattice:
    """The lattice of M-coordinates of a sublattice of M."""
    rows = datum.M.integral_coordinates(sub.basis)
    if rows is None:
        raise PairError("lattice is not contained in M")
    return Sublattice.from_rows(datum.rank, rows)


def _annihilator(datum: LunaDatum, lattice: Sublattice) -> Subspace:
    """The annihilator inside N_Q of a sublattice of M in M-coordinates."""
    kernel = right_kernel_integer(lattice.basis, width=datum.rank)
    return Subspace.from_rows(datum.rank, kernel)


def _perp_lattice(datum: LunaDatum, space: Subspace) -> Sublattice:
    """M intersected with the annihilator of a subspace of N_Q, in
    M-coordinates: the lattice of the quotient by that subspace."""
    kernel = right_kernel_integer(space.basis, width=datum.rank)
    return Sublattice.from_rows(datum.rank, kernel)


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
    simple = {tuple(a): i for i, a in enumerate(group.simple_roots)}
    out = set()
    for g in datum.Sigma:
        if g in simple:
            i = simple[g]
            half = tuple(Q(x, 2) for x in coroot_on_m(datum, i))
            pair = colors_moved_by(datum, i)
            if pair and all(tuple(Q(v) for v in c.rho) == half for c in pair):
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
    simple = {tuple(a): i for i, a in enumerate(group.simple_roots)}
    out = set()
    for g in datum.Sigma:
        if not in_root_lattice(group, g):
            continue
        doubled = tuple(2 * x for x in g)
        rank_one = luna_datum(group, [doubled], [doubled], datum.Sp, [])
        if validate(rank_one):
            continue
        if g in simple:
            pair = colors_moved_by(datum, simple[g])
            if len({c.rho for c in pair}) != 1:
                continue
        out.add(g)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def normalizer_datum(datum: LunaDatum) -> LunaDatum:
    """Luna datum of the normalizer: distinguished and non-root-lattice roots
    double, M becomes the span of the new roots, Sp stays, and the colors of
    the surviving simple roots restrict."""
    require_valid(datum)
    group = datum.group
    plus = distinguished_roots(datum)
    sigma_n = []
    for g in datum.Sigma:
        if g in plus or not in_root_lattice(group, g):
            sigma_n.append(tuple(2 * x for x in g))
        else:
            sigma_n.append(g)
    m_rows = list(sigma_n)
    simple = {tuple(a): i for i, a in enumerate(group.simple_roots)}
    kept = [simple[g] for g in sigma_n if g in simple]
    records = []
    taken = set()
    lattice_n = Sublattice.from_rows(group.rank, m_rows)
    for i in kept:
        for color in colors_moved_by(datum, i):
            if color.label in taken:
                continue
            taken.add(color.label)
            rho = tuple(int(pair_with_rho(datum, color.rho, b))
                        for b in lattice_n.basis)
            records.append((color.label, rho))
    return _checked(luna_datum(group, lattice_n.basis, sigma_n, datum.Sp,
                               records, rho_basis=lattice_n.basis), "normalizer")


# ---------------------------------------------------------------------------
# Colored subspaces and quotient data
# ---------------------------------------------------------------------------

def _colored_rays(datum: LunaDatum, space: Subspace,
                  labels: frozenset) -> Optional[tuple]:
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


class _ColoredQuotient:
    """What a pair test needs of its colored subspace (S^perp, F) alone: the
    cut of cone(Sigma) to span(S), the restriction to lattices spanning it
    and the quotient datum on M intersected with it, validated here."""

    def __init__(self, datum: LunaDatum, colored: ColoredSubspace, rays: tuple):
        self.datum = datum
        self.colored = colored
        self.rays = rays      # from :func:`_colored_rays`
        self.plus = self.roots = None  # for :meth:`halves_into`, on first use
        lattice = _perp_lattice(datum, colored.subspace)
        self.quotient = _checked(self.restrict(lattice), "quotient")

    def restrict(self, lattice: Sublattice) -> LunaDatum:
        """The restriction to a lattice in M-coordinates: its spherical roots
        are the primitive generators of the cut rays, Sp becomes the simple
        roots whose colors all lie in F, and Da keeps the type-a colors that
        move a simple root surviving in the new Sigma."""
        datum, group = self.datum, self.datum.group
        rows = [datum.M.member_from_coefficients(b) for b in lattice.basis]
        sigma = sorted(datum.M.member_from_coefficients(
            primitive_ray_generator(lattice, ray)) for ray in self.rays)
        kept = {i for i, a in enumerate(group.simple_roots)
                if tuple(a) in sigma}
        moved = {c.label: c.moved for c in full_colors(datum) if c.ctype == "a"}
        records = [(record.label, tuple(dot(record.rho, b) for b in lattice.basis))
                   for record in datum.Da if moved[record.label] & kept]
        return luna_datum(group, rows, sigma,
                          _simple_roots_inside(datum, self.colored.colors),
                          records, rho_basis=rows)

    def halves_into(self, lattice: Sublattice) -> bool:
        """Whether each spherical root g of the quotient lies in S, or has 2g
        in S and is distinguished in the quotient or lies outside the root
        lattice; S, g and 2g in M-coordinates, each test an integer membership."""
        if self.roots is None:
            sigma, group = self.quotient.Sigma, self.datum.group
            coords = self.datum.M.integral_coordinates(sigma)
            self.roots = [(g, c, vscale(2, c), in_root_lattice(group, g))
                          for g, c in zip(sigma, coords)]
        for g, c, doubled, rooted in self.roots:
            if lattice.contains(c):
                continue
            if not lattice.contains(doubled):
                return False
            if rooted:
                if self.plus is None:
                    self.plus = distinguished_roots(self.quotient)
                if g not in self.plus:
                    return False
        return True

    def subdatum(self, lattice: Sublattice, sub: Sublattice) -> Subdatum:
        """The subdatum of S, given in M-coordinates and canonically."""
        result = self.restrict(lattice)
        return Subdatum(result, DistinguishedPair(sub, self.colored.colors),
                        validate(result))


def _colored_quotient(datum: LunaDatum, perp: Subspace,
                      labels: frozenset) -> Optional[_ColoredQuotient]:
    """The colored-subspace stage of a pair test, or None when (perp, labels)
    is not a colored subspace.  One cut of cone(Sigma) both decides and
    restricts."""
    rays = _colored_rays(datum, perp, labels)
    if rays is None:
        return None
    return _ColoredQuotient(datum, ColoredSubspace(perp, labels), rays)


def quotient_datum(datum: LunaDatum, colored: ColoredSubspace) -> LunaDatum:
    """Luna datum of the co-connected overgroup encoded by a colored subspace."""
    stage = _colored_quotient(datum, colored.subspace, frozenset(colored.colors))
    if stage is None:
        raise PairError("the pair is not a colored subspace")
    return stage.quotient


# ---------------------------------------------------------------------------
# Distinguished pairs and subdata
# ---------------------------------------------------------------------------

def _distinguished(datum: LunaDatum, sub: Sublattice,
                   color_labels: Iterable[str]) -> Optional[tuple]:
    """(colored subspace, quotient datum, subdatum) of a distinguished pair,
    or None when the pair is not distinguished.

    The annihilator of the sublattice together with the colors must form a
    colored subspace, and every spherical root of its quotient datum must
    halve into the sublattice (:meth:`_ColoredQuotient.halves_into`).  The
    subdatum is built only for a pair that passes.
    """
    require_valid(datum)
    lattice = _coefficient_lattice(datum, sub)  # raises PairError if sub is not in M
    stage = _colored_quotient(datum, _annihilator(datum, lattice),
                              frozenset(color_labels))
    if stage is None or not stage.halves_into(lattice):
        return None
    canonical = Sublattice.from_rows(datum.group.rank, sub.basis)
    return stage.colored, stage.quotient, stage.subdatum(lattice, canonical)


def is_distinguished_pair(datum: LunaDatum, sub: Sublattice,
                          color_labels: Iterable[str]) -> bool:
    """Whether (sub, colors) is a distinguished pair.

    The annihilator of the sublattice together with the colors must form a
    colored subspace, and every restricted spherical root missing from the
    quotient datum must halve into its distinguished roots or into its
    non-root-lattice roots.
    """
    return _distinguished(datum, sub, color_labels) is not None


def _require_distinguished(datum: LunaDatum, pair: DistinguishedPair) -> tuple:
    found = _distinguished(datum, pair.lattice, pair.colors)
    if found is None:
        raise PairError("the pair is not distinguished")
    return found


def subdatum(datum: LunaDatum, pair: DistinguishedPair) -> Subdatum:
    """Materialize the subdatum cut out by a distinguished pair.

    The result always carries its own validation outcome: the construction
    presupposes the derived quadruple is again a Luna datum, so violations
    are surfaced on the result instead of being raised.
    """
    return _require_distinguished(datum, pair)[2]


def stein_decompose(datum: LunaDatum, pair: DistinguishedPair):
    """Split a distinguished pair into its colored subspace and finite part.

    Returns ((lattice-perp, colors), lattice): the colored subspace encodes a
    co-connected overgroup and the lattice sits inside its quotient datum with
    finite index; recomposing through the quotient reproduces the subdatum.
    """
    colored, _, result = _require_distinguished(datum, pair)
    return colored, result.witness.lattice


# ---------------------------------------------------------------------------
# Bounded enumeration of finite-quotient subdata
# ---------------------------------------------------------------------------

def _hnf_matrices(rank: int, index: int):
    """All row-HNF matrices of the given determinant (deterministic order)."""
    def diagonals(remaining, length):
        if length == 1:
            yield (remaining,)
            return
        for d in range(1, remaining + 1):
            if remaining % d == 0:
                for rest in diagonals(remaining // d, length - 1):
                    yield (d,) + rest

    if rank == 0:
        if index == 1:
            yield ()
        return
    for diag in diagonals(index, rank):
        entries = [(i, j) for j in range(rank) for i in range(j)]

        def fill(k, rows):
            if k == len(entries):
                yield tuple(tuple(r) for r in rows)
                return
            i, j = entries[k]
            for v in range(diag[j]):
                rows[i][j] = v
                yield from fill(k + 1, rows)
            rows[i][j] = 0

        base = [[diag[i] if i == j else 0 for j in range(rank)]
                for i in range(rank)]
        yield from fill(0, base)


def _ambient(lattice: Sublattice, h) -> Sublattice:
    """The sublattice whose coordinates against the lattice's basis are h."""
    rows = map(lattice.member_from_coefficients, h)
    return Sublattice.from_rows(lattice.ambient_rank, rows)


def sublattices_of_index(lattice: Sublattice, bound: int):
    """All full-rank sublattices of index up to the bound, ordered by index."""
    if bound < 1:
        raise ValueError("index bound must be at least 1")
    for index in range(1, bound + 1):
        for h in sorted(_hnf_matrices(lattice.rank, index)):
            yield index, _ambient(lattice, h)


def enumerate_finite_subdata(datum: LunaDatum, index_bound: int) -> list:
    """All subdata from finite-index distinguished sublattices of M.

    Every candidate S has full rank and comes with no colors, so S^perp = 0
    and F is empty for all of them: they share one colored subspace, hence
    one quotient datum (the datum on M itself) and one cut of cone(Sigma).
    That stage runs once per call; each candidate, an HNF matrix in M-coordinates,
    takes only the halving test, and only the accepted lattices are restricted.
    """
    require_valid(datum)
    if index_bound < 1:
        raise ValueError("index bound must be at least 1")
    # the zero subspace with no colors is always colored: stage is not None
    stage = _colored_quotient(datum, Subspace.zero(datum.rank), frozenset())
    out = []
    for index in range(1, index_bound + 1):
        for h in sorted(_hnf_matrices(datum.rank, index)):
            lattice = Sublattice(datum.rank, h)
            if stage.halves_into(lattice):
                out.append((index, stage.subdatum(lattice, _ambient(datum.M, h))))
    out.sort(key=lambda pair: (pair[0], pair[1].datum.M.basis))
    return [sd for _, sd in out]


# ---------------------------------------------------------------------------
# Identity component and connectedness
# ---------------------------------------------------------------------------

def _d_saturation(datum: LunaDatum, sub: Sublattice) -> Sublattice:
    """{x in sub_Q intersect X(B) : <rho(D), x> integral for all colors}."""
    ambient = Sublattice.full(datum.group.rank)
    sat = saturation(sub, ambient)
    if not sat.basis:
        return sat
    rows = []
    for color in full_colors(datum):
        rows.append([Q(pair_with_rho(datum, color.rho, b)) for b in sat.basis])
    if not rows:
        return sat
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


def is_d_saturated(datum: LunaDatum, sub: Sublattice) -> bool:
    """Whether the sublattice equals its own color-integral closure.

    The lattice must lie in the rational span of M (so the color functionals
    extend to it); the closure itself is such a lattice, so closures can be
    tested for the fixed-point property.
    """
    require_valid(datum)
    for b in sub.basis:
        if datum.M.coefficients(b) is None:
            raise PairError("lattice is not contained in the span of M")
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
    color splits into a fresh pair of type-a colors carrying half the coroot.
    """
    require_valid(datum)
    group = datum.group
    closure = _d_saturation(datum, datum.M)
    sigma0 = tuple(primitive_ray_generator(closure, g) for g in datum.Sigma)

    records = []
    for record in datum.Da:
        rho = []
        for b in closure.basis:
            val = pair_with_rho(datum, record.rho, b)
            if Q(val).denominator != 1:
                raise InternalConsistencyError(
                    "type-a functional fails to extend integrally")
            rho.append(int(val))
        records.append((record.label, tuple(rho)))

    sigma0_set = set(sigma0)
    simple = {tuple(a): i for i, a in enumerate(group.simple_roots)}
    for g in datum.Sigma:
        half = tuple(Q(x, 2) for x in g)
        if any(x.denominator != 1 for x in half):
            continue
        half = tuple(int(x) for x in half)
        if half in simple and half in sigma0_set:
            i = simple[half]
            rho = tuple(Q(dot(group.simple_coroots[i], b), 2)
                        for b in closure.basis)
            if any(x.denominator != 1 for x in rho):
                raise InternalConsistencyError(
                    "half coroot fails to be integral on the closure")
            rho = tuple(int(x) for x in rho)
            records.append((f"D_a{i + 1}+", rho))
            records.append((f"D_a{i + 1}-", rho))

    return _checked(luna_datum(group, closure.basis, sigma0, datum.Sp, records,
                               rho_basis=closure.basis), "identity-component")


# ---------------------------------------------------------------------------
# Recognizing subdata
# ---------------------------------------------------------------------------

def is_subdatum(candidate: LunaDatum, datum: LunaDatum) -> Optional[DistinguishedPair]:
    """A distinguished pair realizing the candidate as a subdatum, or None.

    A candidate that fails validation is None at once, since every subdatum
    returned validates.  Otherwise the color sets F are walked smallest
    first, then lexicographically.  Only F inside F_W, the colors with rho(D)
    in W, can be colored, and the restriction reads F only through Sp(F), so
    only F with Sp(F) equal to the candidate's Sp are tried; the first
    colored one decides, since every later one restricts the same way.
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
    needs = _hitting_sets(datum, perp, inside)
    if not all(needs):
        return None
    admissible = (combo for size in range(len(inside) + 1)
                  for combo in map(frozenset, combinations(inside, size))
                  if all(combo & n for n in needs)
                  and _simple_roots_inside(datum, combo) == candidate.Sp)
    stage = next(filter(None, (_colored_quotient(datum, perp, combo)
                               for combo in admissible)), None)
    if stage is None or not stage.halves_into(lattice):
        return None
    result = stage.restrict(lattice)
    if validate(result) or not datum_equal(result, candidate):
        return None
    return DistinguishedPair(candidate.M, stage.colored.colors)
