"""Derived data of a Luna datum: quotients, subdata, and connectedness.

The operations here walk the lattice of overgroups of a spherical subgroup
purely combinatorially: colored subspaces encode co-connected overgroups,
finite-index distinguished sublattices encode finite quotients, and
distinguished pairs combine the two.  The identity-component datum and the
D-saturation test sit at the bottom of the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations
from math import lcm
from typing import Iterable, Optional, Sequence

from .integer_geometry import (
    Sublattice,
    Subspace,
    _dd,
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
    sigma_coefficients,
    validate,
)
from .root_datum import in_root_lattice


class InternalConsistencyError(RuntimeError):
    """A derived datum failed validation that theory says cannot fail."""


class PairError(ValueError):
    """A pair or subspace argument violates its defining condition."""


@dataclass(frozen=True)
class ColoredSubspace:
    subspace: Subspace      # subspace of N_Q, dual coordinates
    colors: frozenset       # labels of full colors


@dataclass(frozen=True)
class DistinguishedPair:
    lattice: Sublattice     # subgroup of M, character-lattice coordinates
    colors: frozenset       # labels of full colors


@dataclass(frozen=True)
class Subdatum:
    datum: LunaDatum
    witness: DistinguishedPair
    violations: tuple       # validation results, attached rather than raised


def _color_map(datum: LunaDatum) -> dict:
    return {c.label: c for c in full_colors(datum)}


def _coefficient_lattice(datum: LunaDatum, sub: Sublattice) -> Sublattice:
    """The lattice of M-coordinates of a sublattice of M."""
    rows = []
    for b in sub.basis:
        c = datum.M.coefficients(b)
        if c is None or any(Q(x).denominator != 1 for x in c):
            raise PairError("lattice is not contained in M")
        rows.append(tuple(int(x) for x in c))
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


def _sigma_rays(datum: LunaDatum, ineqs: Iterable[Sequence] = (),
                eqs: Iterable[Sequence] = ()) -> tuple:
    """Primitive rays, in M-coordinates, of cone(Sigma) cut by <x, a> >= 0
    for a in ``ineqs`` and <x, e> = 0 for e in ``eqs``.

    Sigma is linearly independent, so c -> sum c_sigma sigma maps the
    orthant of Q^Sigma injectively onto cone(Sigma), rays to rays: one DD
    of the orthant cut by the pulled-back rows gives the cut.
    """
    sigma = sigma_coefficients(datum)
    rows = [tuple(int(s == t) for t in sigma) for s in sigma]
    for a in [*ineqs, *(x for e in eqs for x in (e, vscale(-1, e)))]:
        rows.append(tuple(dot(s, a) for s in sigma))
    _, rays = _dd(rows, len(sigma))
    return tuple(sorted(primitive([dot(c, col) for col in zip(*sigma)])
                        for c in rays))


def _restrict(datum: LunaDatum, perp: Subspace,
              lattices: Sequence[Sublattice], colors: frozenset):
    """Restrict the datum to sublattices of M that span perp's annihilator.

    The lattices are given in M-coordinates.  cone(Sigma) is cut to their
    common span once; each lattice then takes the primitive generators of
    the cut rays as its spherical roots, Sp becomes the simple roots whose
    colors all lie in ``colors``, and Da keeps the type-a colors that move a
    simple root surviving in the new Sigma.  The restricted data are
    yielded one per lattice, in order, and each is built only when the
    caller asks for it.
    """
    group = datum.group
    rays = _sigma_rays(datum, eqs=perp.basis)
    sp = frozenset(i for i in range(group.num_simple_roots)
                   if all(c.label in colors for c in colors_moved_by(datum, i)))
    moved = {c.label: c.moved for c in full_colors(datum) if c.ctype == "a"}
    for lattice in lattices:
        rows = [datum.M.member_from_coefficients(b) for b in lattice.basis]
        sigma = sorted(datum.M.member_from_coefficients(
            primitive_ray_generator(lattice, ray)) for ray in rays)
        kept = {i for i, a in enumerate(group.simple_roots)
                if tuple(a) in sigma}
        records = [(record.label, tuple(dot(record.rho, b) for b in lattice.basis))
                   for record in datum.Da if moved[record.label] & kept]
        yield luna_datum(group, rows, sigma, sp, records, rho_basis=rows)


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

def is_colored_subspace(datum: LunaDatum, space: Subspace,
                        color_labels: Iterable[str]) -> bool:
    """Whether the subspace W is spanned, as a cone, by its valuation part
    (V intersect W) together with the functionals rho(F) of the colors F.

    Once rho(F) lies in W, the generators span W exactly when their dual
    cone, (cone(-Sigma) + W^perp) intersect rho(F)^dual, is W^perp: when
    every ray of cone(Sigma) cut by <x, rho(D)> <= 0, D in F, vanishes on W.
    """
    require_valid(datum)
    rho = _color_map(datum)
    labels = frozenset(color_labels)
    for label in labels:
        if label not in rho:
            raise PairError(f"unknown color label {label!r}")
    if space.ambient_dim != datum.rank:
        raise PairError("subspace has wrong ambient dimension")
    if not all(space.contains(rho[l].rho) for l in labels):
        return False
    rays = _sigma_rays(datum, ineqs=[vscale(-1, rho[l].rho) for l in labels])
    return all(dot(r, w) == 0 for r in rays for w in space.basis)


def _quotient(datum: LunaDatum, space: Subspace,
              color_labels: Iterable[str]) -> Optional[LunaDatum]:
    """The quotient datum, or None when the pair is not a colored subspace."""
    if not is_colored_subspace(datum, space, color_labels):
        return None
    (result,) = _restrict(datum, space, (_perp_lattice(datum, space),),
                          frozenset(color_labels))
    return _checked(result, "quotient")


def quotient_datum(datum: LunaDatum, colored: ColoredSubspace) -> LunaDatum:
    """Luna datum of the co-connected overgroup encoded by a colored subspace."""
    result = _quotient(datum, colored.subspace, colored.colors)
    if result is None:
        raise PairError("the pair is not a colored subspace")
    return result


# ---------------------------------------------------------------------------
# Distinguished pairs and subdata
# ---------------------------------------------------------------------------

def _distinguished(datum: LunaDatum, sub: Sublattice,
                   color_labels: Iterable[str]) -> Optional[tuple]:
    """(colored subspace, quotient datum, subdatum) of a distinguished pair,
    or None when the pair is not distinguished.

    The annihilator of the sublattice together with the colors must form a
    colored subspace.  Its quotient datum lives on the saturation of the
    sublattice in M; each of its spherical roots must lie in the sublattice,
    or have its double there and be distinguished in the quotient or lie
    outside the root lattice.  The subdatum is built only for a pair that
    passes.
    """
    require_valid(datum)
    labels = frozenset(color_labels)
    lattice = _coefficient_lattice(datum, sub)  # raises PairError if sub is not in M
    perp = _annihilator(datum, lattice)
    if not is_colored_subspace(datum, perp, labels):
        return None
    restricted = _restrict(datum, perp, (_perp_lattice(datum, perp), lattice),
                           labels)
    quotient = _checked(next(restricted), "quotient")
    halved = [g for g in quotient.Sigma if not sub.contains(g)]
    if halved:
        plus = distinguished_roots(quotient)
        if not all(sub.contains(vscale(2, g))
                   and (g in plus or not in_root_lattice(datum.group, g))
                   for g in halved):
            return None
    result = next(restricted)
    pair = DistinguishedPair(Sublattice.from_rows(datum.group.rank, sub.basis),
                             labels)
    return (ColoredSubspace(perp, labels), quotient,
            Subdatum(result, pair, validate(result)))


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


def sublattices_of_index(lattice: Sublattice, bound: int):
    """All full-rank sublattices of index up to the bound, ordered by index."""
    if bound < 1:
        raise ValueError("index bound must be at least 1")
    for index in range(1, bound + 1):
        for h in sorted(_hnf_matrices(lattice.rank, index)):
            rows = [lattice.member_from_coefficients(r) for r in h]
            yield index, Sublattice.from_rows(lattice.ambient_rank, rows)


def enumerate_finite_subdata(datum: LunaDatum, index_bound: int) -> list:
    """All subdata from finite-index distinguished sublattices of M."""
    require_valid(datum)
    if index_bound < 1:
        raise ValueError("index bound must be at least 1")
    out = []
    for index, sub in sublattices_of_index(datum.M, index_bound):
        found = _distinguished(datum, sub, frozenset())
        if found is not None:
            out.append((index, found[2]))
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
    returned validates.  Otherwise every subset of the full colors is
    searched, smallest first, for the first witness whose subdatum equals
    the candidate.
    """
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
            found = _distinguished(datum, candidate.M, combo)
            if found is None:
                continue
            result = found[2]
            if not result.violations and datum_equal(result.datum, candidate):
                return DistinguishedPair(candidate.M, frozenset(combo))
    return None
