"""Luna data: the spherical-root table, axiom validation, and color recovery.

A Luna datum is a quadruple (M, Sigma, Sp, Da): a sublattice M of the
character lattice, a linearly independent set Sigma of primitive elements of
M, a set Sp of simple roots, and an abstract finite set Da of colors carrying
integral functionals rho on M.  The quadruple is subject to the axioms
checked by :func:`validate`; the full set of colors and the valuation cone
are derived data.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from operator import add, attrgetter, mul

from .integer_geometry import (
    Cone,
    Sublattice,
    _Record,
    _cleared,
    _int,
    _num,
    dot,
    is_zero,
    matrix_rank,
    primitive,
    right_kernel_integer,
    rref,
    solve_left,
    vscale,
)
from .root_datum import RootDatum, _check_indices, bourbaki_orderings


class DatumStructureError(ValueError):
    """The quadruple is malformed (as opposed to violating an axiom)."""


class InvalidDatumError(ValueError):
    """An operation requiring a valid Luna datum was fed an invalid one."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = ", ".join(f"({v.axiom}) {v.message}" for v in self.violations)
        super().__init__(f"invalid Luna datum: {lines}")


# ---------------------------------------------------------------------------
# The spherical-root table
# ---------------------------------------------------------------------------

class PatternRow(_Record):
    """One row of the spherical-root table.

    ``coefficients`` are taken against the Bourbaki ordering of the support,
    ``spp_positions`` are 0-based positions into that ordering, and
    ``half_allowed`` marks rows whose half may also occur when it lies in the
    character lattice.
    """

    name: str
    support_type: str
    rank: int
    coefficients: tuple
    spp_positions: tuple
    half_allowed: bool


def _row(support_type, coeffs, spp, half):
    coeffs = tuple(coeffs)
    name = f"{support_type}{len(coeffs)}({','.join(str(c) for c in coeffs)})"
    if support_type == "A1xA1":
        name = f"A1xA1({','.join(str(c) for c in coeffs)})"
    return PatternRow(name, support_type, len(coeffs), coeffs, tuple(spp), half)


def pattern_rows(support_type: str, rank: int) -> tuple:
    """All table rows whose support has the given type and rank."""
    rows = []
    if support_type == "A" and rank == 1:
        rows.append(_row("A", (1,), (), False))
        rows.append(_row("A", (2,), (), False))
    if support_type == "A1xA1" and rank == 2:
        rows.append(_row("A1xA1", (1, 1), (), True))
    if support_type == "A" and rank >= 2:
        rows.append(_row("A", (1,) * rank, range(1, rank - 1), False))
    if support_type == "A" and rank == 3:
        rows.append(_row("A", (1, 2, 1), (0, 2), True))
    if support_type == "B" and rank >= 2:
        rows.append(_row("B", (1,) * rank, range(1, rank - 1), False))
        rows.append(_row("B", (2,) * rank, range(1, rank), False))
    if support_type == "B" and rank == 3:
        rows.append(_row("B", (1, 2, 3), (0, 1), True))
    if support_type == "C" and rank >= 3:
        rows.append(_row("C", (1,) + (2,) * (rank - 2) + (1,), range(2, rank), False))
    if support_type == "D" and rank >= 4:
        rows.append(_row("D", (2,) * (rank - 2) + (1, 1), range(1, rank), True))
    if support_type == "F" and rank == 4:
        rows.append(_row("F", (1, 2, 3, 2), (0, 1, 2), False))
    if support_type == "G" and rank == 2:
        rows.append(_row("G", (1, 1), (), False))
        rows.append(_row("G", (2, 1), (1,), False))
        rows.append(_row("G", (4, 2), (1,), False))
    return tuple(rows)


class SphericalRoot(_Record):
    gamma: tuple          # character-lattice coordinates
    row: PatternRow
    lam: Q                # 1 or 1/2
    spp: frozenset        # simple-root indices


_ONE, _HALF = Q(1), Q(1, 2)
_GAMMA = attrgetter("gamma")


def _instantiate(rank, entries, row, ordering):
    """(gamma, Spp) of a row laid on an ordering of its support.

    ``entries[node]`` holds the nonzero (column, value) pairs of simple root
    ``node``, and only those are added: a simple root of
    :func:`~lunadata.root_datum.build_root_datum` is a Cartan column or a
    unit vector, with at most four nonzero entries.
    """
    gamma = [0] * rank
    for c, node in zip(row.coefficients, ordering):
        for k, x in entries[node]:
            gamma[k] += c * x
    spp = frozenset(ordering[k] for k in row.spp_positions)
    return tuple(gamma), spp


def _connected_subsets(group):
    """Node sets of size >= 2 that are connected in the Dynkin diagram.

    Every connected set of k + 1 nodes is a connected set of k nodes plus a
    neighbour (drop a leaf of a spanning tree), so the sets are grown outward
    one size at a time: polynomial in the rank on a forest, where walking all
    2^n subsets is not.  Sorted by size, then lexicographically.
    """
    n = group.num_simple_roots
    adj = [[j for j in range(n) if j != i and group.cartan(i, j) != 0]
           for i in range(n)]
    layer, out = [(i,) for i in range(n)], []
    while layer:
        layer = sorted({tuple(sorted(s + (j,)))
                        for s in layer for i in s for j in adj[i] if j not in s})
        out.extend(layer)
    return out


def _candidate_supports(group):
    """Connected subsets plus orthogonal pairs, with type and orderings."""
    n = group.num_simple_roots
    out = []
    for i in range(n):
        out.append(("A", 1, ((i,),)))
    for i in range(n):
        for j in range(i + 1, n):
            if group.cartan(i, j) == 0 and group.cartan(j, i) == 0:
                out.append(("A1xA1", 2, ((i, j), (j, i))))
    for subset in _connected_subsets(group):
        dtype, orderings = bourbaki_orderings(group, subset)
        out.append((dtype, len(subset), orderings))
    return out


@lru_cache(maxsize=None)
def spherical_roots_of_group(group: RootDatum) -> tuple:
    """Every spherical root of the group, with its table row and Spp set.

    Each connected support is typed once, the rows of each (type, rank) are
    built once per table, and a row is laid on an ordering by adding up the
    nonzero entries of its simple roots.  The first row that gives a gamma
    keeps it; the table is sorted by gamma.
    """
    entries = [tuple((k, x) for k, x in enumerate(root) if x)
               for root in group.simple_roots]
    rows_of, found = {}, {}
    for dtype, rank, orderings in _candidate_supports(group):
        rows = rows_of.get((dtype, rank))
        if rows is None:
            rows = rows_of[dtype, rank] = pattern_rows(dtype, rank)
        for row in rows:
            for ordering in orderings:
                gamma, spp = _instantiate(group.rank, entries, row, ordering)
                if gamma not in found:
                    found[gamma] = SphericalRoot(gamma, row, _ONE, spp)
                if row.half_allowed and not any(x % 2 for x in gamma):
                    half = tuple(x // 2 for x in gamma)
                    if half not in found:
                        found[half] = SphericalRoot(half, row, _HALF, spp)
    return tuple(found[g] for g in sorted(found))


class RootMatch(_Record):
    row: PatternRow
    lam: Q
    spp: frozenset
    sp: frozenset


def match_spherical_root(group: RootDatum, gamma: Sequence) -> RootMatch | None:
    """The unique table row matching gamma, or None.

    A bisect by gamma in :func:`spherical_roots_of_group`, then one pairing
    per simple coroot for Sp; an entry that is not an int or a Fraction
    raises TypeError, a gamma of the wrong length or zero ValueError.
    """
    gamma = tuple(map(_num, gamma))
    if len(gamma) != group.rank:
        raise ValueError("dimension mismatch")
    if is_zero(gamma):
        raise ValueError("the zero vector is not a spherical root")
    table = spherical_roots_of_group(group)
    k = bisect_left(table, gamma, key=_GAMMA)
    if k == len(table) or table[k].gamma != gamma:
        return None
    root = table[k]
    sp = frozenset(i for i, coroot in enumerate(group.simple_coroots)
                   if not sum(map(mul, coroot, gamma)))
    return RootMatch(root.row, root.lam, root.spp, sp)


def compatible(group: RootDatum, sp: Iterable[int], gamma: Sequence) -> bool:
    """Whether Spp(gamma) <= sp <= Sp(gamma) holds."""
    m = match_spherical_root(group, gamma)
    if m is None:
        raise ValueError("gamma is not a spherical root of the group")
    sp = frozenset(sp)
    return m.spp <= sp <= m.sp


# ---------------------------------------------------------------------------
# The Luna datum
# ---------------------------------------------------------------------------

class ColorRecord(_Record):
    """An abstract type-a color: a label and a functional on M."""

    label: str
    rho: tuple  # integer coordinates against the canonical basis of M


class LunaDatum(_Record):
    group: RootDatum
    M: Sublattice
    Sigma: tuple
    Sp: frozenset
    Da: tuple

    @cached_property
    def sigma_coords(self):
        # Sigma against the basis of M, None when some sigma is off M; derived
        # on first use, so out of __init__, equality, hash, repr and pickles
        return self.M.integral_coordinates(self.Sigma)

    @property
    def rank(self) -> int:
        return self.M.rank


def luna_datum(group: RootDatum, m_rows: Iterable[Sequence[int]],
               sigma: Iterable[Sequence[int]], sp: Iterable[int],
               da: Iterable = (), rho_basis: Sequence | None = None) -> LunaDatum:
    """Build a LunaDatum from input, canonicalizing M and re-expressing each rho.

    This is the constructor for input.  The derived data of
    :mod:`lunadata.containment` are built directly on their canonical
    lattice and checked by :func:`validate`.

    ``da`` holds (label, rho) pairs with rho taken against ``rho_basis`` (by
    default the rows of ``m_rows`` as given), so rho must respect every linear
    relation among those rows.  Sigma entries are kept as ints, like M.
    Structural defects, among them a row of M or of ``rho_basis`` of the
    wrong length, an entry that is not an int or a Fraction, a Da entry that
    is not a (label, rho) pair (a string, or a pair whose rho is a string),
    an Sp index that is not an int or is a bool, a label that is not a str
    and a label ``D_a1``, ``D_a1a3``, ... of a derived color, raise
    DatumStructureError; axiom violations are left to :func:`validate`.
    """
    m_rows = [tuple(r) for r in m_rows]
    try:
        lattice = Sublattice.from_rows(group.rank, m_rows)
    except (ValueError, TypeError) as exc:
        raise DatumStructureError(f"bad lattice basis: {exc}") from None
    sigma = tuple(_character(g, group.rank) for g in sigma)
    sp = frozenset(sp)
    try:
        _check_indices(group, sp)
    except ValueError as exc:
        raise DatumStructureError(str(exc)) from None
    if rho_basis is None:
        rho_basis = m_rows
    try:
        rho_basis = [tuple(map(_num, r)) for r in rho_basis]
    except TypeError:
        raise DatumStructureError("a rho_basis entry is not exact") from None
    if any(len(r) != group.rank for r in rho_basis):
        raise DatumStructureError("a rho_basis row has the wrong length")
    colors = []
    labels = set()
    reading = None
    for entry in da:
        try:
            label, rho = entry
            # "ab" would unpack as ("a", "b"), and a text rho into characters
            if isinstance(entry, (str, bytes)) or \
                    isinstance(rho, (str, bytes)):
                raise TypeError
            rho = tuple(rho)
        except (TypeError, ValueError):
            raise DatumStructureError(
                f"color entry {entry!r} is not a (label, rho) pair") from None
        if not isinstance(label, str):
            raise DatumStructureError(f"color label {label!r} is not a string")
        try:
            rho = tuple(map(_num, rho))
        except TypeError:
            raise DatumStructureError(
                f"rho for {label!r} has an entry that is not exact") from None
        if label in labels:
            raise DatumStructureError(f"duplicate color label {label!r}")
        if re.fullmatch(r"D_(a[1-9][0-9]*)+", label):
            raise DatumStructureError(
                f"color label {label!r} is reserved for a derived color")
        labels.add(label)
        if len(rho) != len(rho_basis):
            raise DatumStructureError(f"rho for {label!r} has wrong length")
        if reading is None:
            relations, reading = _rho_reading(lattice, rho_basis)
        if any(dot(r, rho) != 0 for r in relations):
            raise DatumStructureError(
                f"rho for {label!r} breaks a linear relation among the stated rows")
        converted = tuple(dot(r, rho) for r in reading)
        if any(x.denominator != 1 for x in converted):
            raise DatumStructureError(
                f"rho for {label!r} is not integral on M")
        colors.append(ColorRecord(label, converted))
    datum = LunaDatum(group, lattice, sigma, sp, tuple(colors))
    if datum.sigma_coords is None:
        g = next(g for g in sigma if not lattice.contains(g))
        raise DatumStructureError(f"sigma entry {g} does not lie in M")
    return datum


def _character(g, rank: int) -> tuple:
    """A sigma entry as a tuple of ints, or DatumStructureError."""
    try:
        character = tuple(map(_int, g))
    except (TypeError, ValueError):
        character = None
    if character is None or len(character) != rank:
        raise DatumStructureError(f"sigma entry {g} is not a character")
    return character


def _rho_reading(lattice: Sublattice, rows: Sequence) -> tuple:
    """(relations, reading) for functionals given by their values on rows.

    A functional's values must vanish on the integer relations among the
    rows, and its value on a canonical basis vector b of M is c times its
    values, for any c with c * rows = b.
    """
    relations = right_kernel_integer(list(zip(*rows)), width=len(rows))
    reading = [solve_left(rows, b) for b in lattice.basis]
    if None in reading:
        b = lattice.basis[reading.index(None)]
        raise DatumStructureError(f"canonical basis vector {b} is not spanned"
                                  " by the stated rows")
    return relations, reading


def coroot_on_m(datum: LunaDatum, i: int) -> tuple:
    """The restriction of coroot i to M, as a covector against M's basis."""
    return tuple(dot(datum.group.simple_coroots[i], b) for b in datum.M.basis)


def pair_with_rho(datum: LunaDatum, rho: Sequence, chi: Sequence):
    """<rho, chi> for chi in character-lattice coordinates (chi must lie in M_Q)."""
    c = datum.M.coefficients(chi)
    if c is None:
        raise ValueError("character does not lie in the span of M")
    return dot(rho, c)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class Violation(_Record):
    axiom: str
    message: str


def _joined_pairs(datum: LunaDatum) -> list:
    """The pairs i < j, in order, of orthogonal simple roots whose sum lies
    in Sigma or 2 Sigma."""
    rows, roots = datum.group.cartan_rows, datum.group.simple_roots
    sums = {s for g in datum.Sigma for s in (g, tuple(2 * x for x in g))}
    return [(i, j) for i, j in combinations(range(len(roots)), 2)
            if rows[i][j] == rows[j][i] == 0
            and tuple(map(add, roots[i], roots[j])) in sums]


@lru_cache(maxsize=None)
def validate(datum: LunaDatum) -> tuple:
    """All axiom violations of the quadruple; an empty tuple means valid.
    A hand-built datum with some sigma off M raises ValueError."""
    group = datum.group
    coords = datum.sigma_coords
    if coords is None:
        g = next(g for g in datum.Sigma if not datum.M.contains(g))
        raise ValueError(f"sigma entry {g} does not lie in M")
    out = []

    if len(set(datum.Sigma)) != len(datum.Sigma):
        out.append(Violation("independence", "Sigma has repeated elements"))
    if matrix_rank(datum.Sigma) != len(datum.Sigma):
        out.append(Violation("independence", "Sigma is linearly dependent"))
    for g, c in zip(datum.Sigma, coords):
        if is_zero(g):
            out.append(Violation("primitivity", "Sigma contains zero"))
        elif gcd(*c) != 1:
            out.append(Violation("primitivity", f"{g} is not primitive in M"))

    matches = {}
    for g in datum.Sigma:
        if is_zero(g):
            continue
        m = match_spherical_root(group, g)
        if m is None:
            out.append(Violation(
                "sigma_g", f"{g} is not a spherical root of the group"))
        else:
            matches[g] = m

    # (A1) pairings bounded by one, equality only in type-a pairs
    sigma_a = []  # (index, colors pairing to one) per simple root in Sigma
    for g, c in zip(datum.Sigma, coords):
        i = group.simple_index.get(g)
        members = []
        for color in datum.Da:
            val = dot(color.rho, c)
            if val > 1:
                out.append(Violation(
                    "A1", f"<rho({color.label}), {g}> = {val} exceeds 1"))
            elif val == 1 and i is None:
                out.append(Violation(
                    "A1", f"<rho({color.label}), {g}> = 1 but {g} is not simple"))
            elif val == 1:
                members.append(color)
        if i is not None:
            sigma_a.append((i, tuple(members)))
    pair_of = {}
    for i, members in sigma_a:
        if len(members) != 2:
            out.append(Violation(
                "A1", f"{len(members)} colors pair to 1 with simple root a{i + 1}"
                      " (need exactly 2)"))
        else:
            pair_of[i] = members

    # (A2) the two colors of a type-a root sum to the restricted coroot
    for i, members in pair_of.items():
        total = tuple(x + y for x, y in zip(members[0].rho, members[1].rho))
        if total != coroot_on_m(datum, i):
            out.append(Violation(
                "A2", f"rho pair for a{i + 1} does not sum to the coroot"))

    # (A3) no color outside the union of the pairs
    paired = {c.label for members in pair_of.values() for c in members}
    for c in datum.Da:
        if c.label not in paired:
            out.append(Violation(
                "A3", f"color {c.label} is attached to no simple spherical root"))

    # (Sigma1) roots alpha with 2*alpha in Sigma
    sigma_set = set(datum.Sigma)
    for i, alpha in enumerate(group.simple_roots):
        dbl = tuple(2 * x for x in alpha)
        if dbl not in sigma_set:
            continue
        if any(x % 2 != 0 for x in coroot_on_m(datum, i)):
            out.append(Violation(
                "Sigma1", f"<a{i + 1}^, M> is not contained in 2Z"))
        for g in datum.Sigma:
            if g != dbl and dot(group.simple_coroots[i], g) > 0:
                out.append(Violation(
                    "Sigma1", f"<a{i + 1}^, {g}> is positive"))

    # (Sigma2) orthogonal alpha, beta with alpha + beta in Sigma or 2 Sigma
    for i, j in _joined_pairs(datum):
        if coroot_on_m(datum, i) != coroot_on_m(datum, j):
            out.append(Violation(
                "Sigma2", f"a{i + 1} and a{j + 1} restrict differently on M"))

    # (S) Sp pairs to zero with M and every (Sp, gamma) is compatible
    for i in sorted(datum.Sp):
        if any(x != 0 for x in coroot_on_m(datum, i)):
            out.append(Violation("S", f"<a{i + 1}^, M> is nonzero"))
    for g, m in matches.items():
        if not m.spp <= datum.Sp <= m.sp:
            out.append(Violation("S", f"(Sp, {g}) is not compatible"))

    return tuple(out)


def require_valid(datum: LunaDatum) -> None:
    violations = validate(datum)
    if violations:
        raise InvalidDatumError(violations)


# ---------------------------------------------------------------------------
# Full colors, valuation cone, equality
# ---------------------------------------------------------------------------

class Color(_Record):
    label: str
    ctype: str      # "a", "2a" or "b"
    rho: tuple      # integer covector against the canonical basis of M
    moved: frozenset  # simple-root indices moved by the color

_CTYPE_ORDER = {"a": 0, "2a": 1, "b": 2}


def _root_name(i: int) -> str:
    return f"a{i + 1}"


@lru_cache(maxsize=None)
def full_colors(datum: LunaDatum) -> tuple:
    """Recover the full set of colors from the quadruple.

    Type-a colors are the Da entries with their moved roots read off the
    pairing-one condition; a root with doubled spherical root carries one
    type-2a color with rho half its coroot; every remaining root outside Sp
    carries a type-b color with rho the restricted coroot, where two
    orthogonal roots share a single color exactly when their sum lies in
    Sigma or 2 Sigma.
    """
    require_valid(datum)
    group = datum.group
    sigma_set = set(datum.Sigma)
    colors = []

    simple = group.simple_index
    in_sigma = {simple[g]: c for g, c in zip(datum.Sigma, datum.sigma_coords)
                if g in simple}
    doubled = {i for a, i in simple.items() if vscale(2, a) in sigma_set}

    for record in datum.Da:
        moved = frozenset(i for i, c in in_sigma.items()
                          if dot(record.rho, c) == 1)
        colors.append(Color(record.label, "a", record.rho, moved))

    for i in sorted(doubled):
        coroot = coroot_on_m(datum, i)
        assert all(x % 2 == 0 for x in coroot)
        colors.append(Color(f"D_{_root_name(i)}", "2a",
                            tuple(x // 2 for x in coroot), frozenset({i})))

    # A joined pair alpha, beta has s in Sigma, their sum or its half, with
    # <alpha^, s> > 0.  So (S) keeps alpha out of Sp, and (Sigma2),
    # <alpha^, M> = <beta^, M>, keeps alpha and 2 alpha out of Sigma and
    # gives alpha no second partner gamma, as <gamma^, s> <= 0: each pair
    # is one color, and each root left over is one more.
    pairs = _joined_pairs(datum)
    taken = set().union(datum.Sp, in_sigma, doubled, *pairs)
    lone = [(i,) for i in range(group.num_simple_roots) if i not in taken]
    for roots in lone + pairs:
        colors.append(Color("D_" + "".join(map(_root_name, roots)), "b",
                            coroot_on_m(datum, roots[0]), frozenset(roots)))

    colors.sort(key=lambda c: (_CTYPE_ORDER[c.ctype], sorted(c.moved), c.rho))
    return tuple(colors)


def colors_moved_by(datum: LunaDatum, i: int) -> tuple:
    """The set D(alpha) of full colors moved by the simple root with index i."""
    return tuple(c for c in full_colors(datum) if i in c.moved)


@lru_cache(maxsize=None)
def valuation_cone(datum: LunaDatum) -> Cone:
    """{v in N_Q : <v, sigma> <= 0 for all sigma}, in dual coordinates, as a
    canonical :class:`Cone` because the CLI prints it.  With C the matrix of
    Sigma, which is independent, it is ker C plus a simplicial cone: the ray
    of sigma_i is -C^T (C C^T)^-1 e_i, from one elimination of [C C^T | I].
    """
    require_valid(datum)
    c, k = datum.sigma_coords, len(datum.Sigma)
    lineality = tuple(map(primitive, rref(right_kernel_integer(c, datum.rank))))
    gram = [[dot(a, b) for b in c] + [int(i == j) for j in range(k)]
            for i, a in enumerate(c)]
    rays = []
    for row in rref(gram):  # row i is (e_i, e_i (C C^T)^-1)
        y, _ = _cleared(row[k:])
        rays.append(primitive([-dot(y, col) for col in zip(*c)]))
    return Cone(datum.rank, tuple(sorted(rays)), lineality)


def sigma_cone(datum: LunaDatum) -> Cone:
    """cone(Sigma) in coordinates against the canonical basis of M.

    Sigma of a valid datum is linearly independent and primitive in M, so
    the cone is simplicial with the coordinates of Sigma as its rays.
    Unused by the library; kept for the benchmark and as a test oracle.
    """
    require_valid(datum)
    return Cone(datum.rank, tuple(sorted(datum.sigma_coords)), ())


def datum_equal(first: LunaDatum, second: LunaDatum) -> bool:
    """Equality of Luna data: Da is compared as a multiset of rho values."""
    if first.group != second.group:
        raise ValueError("data live over different groups")
    return (first.M == second.M
            and set(first.Sigma) == set(second.Sigma)
            and first.Sp == second.Sp
            and sorted(c.rho for c in first.Da)
            == sorted(c.rho for c in second.Da))
