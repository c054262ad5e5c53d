"""Exact integer/rational linear algebra and small polyhedral cones.

Everything is computed over arbitrary-precision rationals; no floating point
is used anywhere.  Lattices are kept in Hermite normal form, subspaces in
reduced row echelon form, and cones as primitive extremal rays plus an
echelonized lineality basis, so equality of two objects is a comparison of
canonical forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple
Rational = "int | Q"


def _num(x) -> "int | Q":
    """Collapse an integral Fraction to a plain int."""
    if isinstance(x, Q):
        if x.denominator == 1:
            return int(x)
        return x
    return int(x)


def vec(values: Iterable) -> Vector:
    return tuple(_num(Q(x)) for x in values)


def _int(x) -> int:
    q = Q(x)
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(q)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return _num(sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0)))


def vadd(u: Sequence, v: Sequence) -> Vector:
    return tuple(_num(Q(a) + Q(b)) for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> Vector:
    return tuple(_num(Q(a) - Q(b)) for a, b in zip(u, v))


def vscale(c, v: Sequence) -> Vector:
    return tuple(_num(Q(c) * Q(x)) for x in v)


def is_zero(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def primitive(v: Sequence) -> tuple:
    """Shortest integer vector on the ray through v (direction preserved)."""
    if is_zero(v):
        raise ValueError("zero vector has no primitive generator")
    fracs = [Q(x) for x in v]
    d = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * d) for f in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------

def hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form H with unimodular U such that U * rows = H.

    H is upper echelon with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows of H sink to the bottom; U keeps the
    full row count so kernels can be read off the zero rows.
    """
    a = [[_int(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            p = a[r][c]
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            if all(a[i][c] == 0 for i in range(r + 1, m)):
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            p = a[r][c]
            for i in range(r):
                q = a[i][c] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return tuple(tuple(row) for row in a), tuple(tuple(row) for row in u)


def hnf(rows: Sequence[Sequence[int]]) -> tuple:
    """Canonical HNF basis (nonzero rows only)."""
    h, _ = hnf_with_transform(rows)
    return tuple(row for row in h if not is_zero(row))


def snf(matrix: Sequence[Sequence[int]]):
    """Smith normal form: (D, U, V) with U * matrix * V = D.

    D is diagonal with nonnegative entries d1 | d2 | ..., and U, V are
    unimodular.
    """
    a = [[_int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        # move a nonzero entry of minimal magnitude to the pivot
        candidates = [(abs(a[i][j]), i, j) for i in range(t, m)
                      for j in range(t, n) if a[i][j] != 0]
        if not candidates:
            break
        _, pi, pj = min(candidates)
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                add_row(i, t, a[i][t] // a[t][t])
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j]:
                add_col(j, t, a[t][j] // a[t][t])
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # enforce the divisibility chain
        p = a[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, -1)
            continue
        t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    d = tuple(tuple(row) for row in a)
    return d, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def right_kernel_integer(rows: Sequence[Sequence], width: Optional[int] = None):
    """Saturated integer basis of {x : rows * x = 0}.

    Rational input rows are cleared to integers first (same kernel).
    """
    rows = [list(r) for r in rows]
    if width is None:
        if not rows:
            raise ValueError("width required for an empty matrix")
        width = len(rows[0])
    cleared = []
    for row in rows:
        fr = [Q(x) for x in row]
        d = lcm(*(f.denominator for f in fr)) if fr else 1
        cleared.append([int(f * d) for f in fr])
    if not cleared:
        return tuple(tuple(1 if i == j else 0 for j in range(width))
                     for i in range(width))
    transpose = [[cleared[i][j] for i in range(len(cleared))]
                 for j in range(width)]
    h, u = hnf_with_transform(transpose)
    return tuple(tuple(u[i]) for i in range(width) if is_zero(h[i]))


def rref(rows: Sequence[Sequence]):
    """Reduced row echelon form over the rationals (canonical, zero rows dropped)."""
    a = [[Q(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(_num(x) for x in row) for row in a[:r])


def solve_left(rows: Sequence[Sequence], target: Sequence):
    """Coefficients c with c * rows = target, or None if inconsistent.

    Requires linearly independent rows (unique solution on the row span).
    """
    rows = list(rows)
    if not rows:
        return () if is_zero(target) else None
    n = len(rows[0])
    if len(target) != n:
        raise ValueError("dimension mismatch")
    # solve the transposed system by elimination on [rows^T | target]
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
    return tuple(_num(x) for x in sol)


def rational_det(rows: Sequence[Sequence]):
    a = [[Q(x) for x in row] for row in rows]
    n = len(a)
    det = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return _num(det)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows))


# ---------------------------------------------------------------------------
# Sublattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sublattice:
    """A finitely generated subgroup of Z^n in canonical Hermite normal form."""

    ambient_rank: int
    basis: tuple

    @staticmethod
    def from_rows(ambient_rank: int, rows: Iterable[Sequence[int]]) -> "Sublattice":
        rows = [tuple(_int(x) for x in r) for r in rows]
        for r in rows:
            if len(r) != ambient_rank:
                raise ValueError("row length does not match ambient rank")
        return Sublattice(ambient_rank, hnf(rows) if rows else ())

    @staticmethod
    def full(ambient_rank: int) -> "Sublattice":
        eye = tuple(tuple(1 if i == j else 0 for j in range(ambient_rank))
                    for i in range(ambient_rank))
        return Sublattice(ambient_rank, eye)

    @staticmethod
    def zero(ambient_rank: int) -> "Sublattice":
        return Sublattice(ambient_rank, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coefficients(self, v: Sequence):
        """Rational coordinates of v against the basis, or None if off-span."""
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return solve_left(self.basis, v)

    def contains(self, v: Sequence) -> bool:
        c = self.coefficients(v)
        return c is not None and all(Q(x).denominator == 1 for x in c)

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def member_from_coefficients(self, coeffs: Sequence) -> tuple:
        if len(coeffs) != self.rank:
            raise ValueError("coefficient length does not match lattice rank")
        out = [Q(0)] * self.ambient_rank
        for c, row in zip(coeffs, self.basis):
            for j, x in enumerate(row):
                out[j] += Q(c) * x
        return tuple(_num(x) for x in out)


def lattice_index(lattice: Sublattice, sub: Sublattice):
    """Index [lattice : sub]; math.inf when the ranks differ."""
    if lattice.ambient_rank != sub.ambient_rank:
        raise ValueError("ambient ranks differ")
    coeffs = []
    for row in sub.basis:
        c = lattice.coefficients(row)
        if c is None or not all(Q(x).denominator == 1 for x in c):
            raise ValueError("second lattice is not contained in the first")
        coeffs.append(c)
    if sub.rank < lattice.rank:
        return math.inf
    d = rational_det(coeffs)
    return abs(int(d))


def saturation(lattice: Sublattice, ambient: Sublattice) -> Sublattice:
    """(lattice tensor Q) intersected with ambient."""
    if lattice.ambient_rank != ambient.ambient_rank:
        raise ValueError("ambient ranks differ")
    coeffs = []
    for row in lattice.basis:
        c = ambient.coefficients(row)
        if c is None or not all(Q(x).denominator == 1 for x in c):
            raise ValueError("lattice is not contained in the ambient lattice")
        coeffs.append(list(c))
    r = ambient.rank
    if not coeffs:
        return Sublattice.zero(lattice.ambient_rank)
    orth = right_kernel_integer(coeffs, width=r)
    sat_coeffs = right_kernel_integer(orth, width=r) if orth else \
        Sublattice.full(r).basis
    rows = [ambient.member_from_coefficients(c) for c in sat_coeffs]
    return Sublattice.from_rows(lattice.ambient_rank, rows)


def primitive_ray_generator(lattice: Sublattice, v: Sequence) -> tuple:
    """Shortest nonzero lattice point on the ray Q>=0 * v."""
    if is_zero(v):
        raise ValueError("zero vector spans no ray")
    c = lattice.coefficients(v)
    if c is None:
        raise ValueError("ray does not meet the lattice")
    p = primitive(c)
    return lattice.member_from_coefficients(p)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A rational subspace of Q^n with reduced-echelon canonical basis."""

    ambient_dim: int
    basis: tuple

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
        return Subspace(ambient_dim, rref(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_rows(
            ambient_dim,
            [[1 if i == j else 0 for j in range(ambient_dim)]
             for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return solve_left(self.basis, v) is not None if self.basis else is_zero(v)

    def annihilator(self) -> "Subspace":
        """The subspace of covectors vanishing on this one."""
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        k = right_kernel_integer(self.basis, width=self.ambient_dim)
        return Subspace.from_rows(self.ambient_dim, k)


# ---------------------------------------------------------------------------
# Polyhedral cones (double description over Q)
# ---------------------------------------------------------------------------

def _dd(ineqs: Sequence[Sequence], dim: int):
    """Generators (lineality, rays) of {x : a . x >= 0 for all a in ineqs}."""
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: list = []
    used: list = []
    for raw in ineqs:
        a = tuple(raw)
        if len(a) != dim:
            raise ValueError("inequality has wrong dimension")
        if is_zero(a):
            continue
        lv = [dot(a, l) for l in lin]
        hit = next((i for i, x in enumerate(lv) if x != 0), None)
        if hit is not None:
            l0, v0 = lin[hit], lv[hit]
            if v0 < 0:
                l0, v0 = vscale(-1, l0), -v0
            new_lin = []
            for i, (l, x) in enumerate(zip(lin, lv)):
                if i == hit:
                    continue
                new_lin.append(primitive(vsub(l, vscale(Q(x, 1) / v0, l0)))
                               if x else l)
            rays = [primitive(vsub(r, vscale(Q(dot(a, r)) / v0, l0)))
                    if dot(a, r) else r for r in rays]
            rays.append(primitive(l0))
            lin = new_lin
        else:
            signs = [(r, dot(a, r)) for r in rays]
            negs = [r for r, s in signs if s < 0]
            if negs:
                poss = [r for r, s in signs if s > 0]
                zers = [r for r, s in signs if s == 0]
                active = {r: frozenset(j for j, b in enumerate(used)
                                       if dot(b, r) == 0) for r in rays}
                combos = []
                for rp in poss:
                    for rm in negs:
                        z = active[rp] & active[rm]
                        blocked = any(r != rp and r != rm and z <= active[r]
                                      for r in rays)
                        if not blocked:
                            combo = primitive(vsub(vscale(dot(a, rp), rm),
                                                   vscale(dot(a, rm), rp)))
                            if combo not in zers and combo not in combos:
                                combos.append(combo)
                rays = poss + zers + combos
        used.append(a)
    return lin, rays


def _project_off(v, lin_rows):
    """Orthogonal component of v with respect to span(lin_rows)."""
    if not lin_rows:
        return tuple(v)
    # the Gram matrix is symmetric, and invertible since lin_rows are independent
    gram = [[dot(a, b) for b in lin_rows] for a in lin_rows]
    coeffs = solve_left(gram, [dot(a, v) for a in lin_rows])
    out = tuple(v)
    for c, row in zip(coeffs, lin_rows):
        out = vsub(out, vscale(c, row))
    return out


def _canonical_cone(dim: int, lin, rays) -> "Cone":
    space = Subspace.from_rows(dim, lin)
    lin_rows = tuple(primitive(r) for r in space.basis)
    reduced = []
    for r in rays:
        p = _project_off(r, lin_rows)
        if not is_zero(p):
            reduced.append(primitive(p))
    return Cone(dim, tuple(sorted(set(reduced))), lin_rows)


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone: primitive extremal rays plus lineality."""

    ambient_dim: int
    rays: tuple
    lineality: tuple

    @staticmethod
    def from_generators(ambient_dim: int, generators: Iterable[Sequence]) -> "Cone":
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise ValueError("generator has wrong dimension")
        gens = [primitive(g) for g in gens if not is_zero(g)]
        lin1, rays1 = _dd(gens, ambient_dim)
        ineqs = list(rays1) + list(lin1) + [vscale(-1, l) for l in lin1]
        lin2, rays2 = _dd(ineqs, ambient_dim)
        return _canonical_cone(ambient_dim, lin2, rays2)

    @staticmethod
    def from_inequalities(ambient_dim: int, ineqs: Iterable[Sequence]) -> "Cone":
        lin, rays = _dd(list(ineqs), ambient_dim)
        return _canonical_cone(ambient_dim, lin, rays)

    def generators(self) -> tuple:
        """Rays plus a plus/minus basis of the lineality space."""
        return self.rays + self.lineality + tuple(vscale(-1, l)
                                                  for l in self.lineality)

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    def dim(self) -> int:
        rows = list(self.rays) + list(self.lineality)
        return matrix_rank(rows) if rows else 0


@lru_cache(maxsize=None)
def _hrep(cone: Cone):
    """(equalities, inequalities) cutting out the cone."""
    lin, rays = _dd(cone.generators(), cone.ambient_dim)
    return tuple(lin), tuple(rays)


def dual_cone(cone: Cone) -> Cone:
    """{u : <u, x> >= 0 for all x in the cone}."""
    eqs, ineqs = _hrep(cone)
    return _canonical_cone(cone.ambient_dim, eqs, ineqs)


def cone_contains(cone: Cone, v: Sequence) -> bool:
    if len(v) != cone.ambient_dim:
        raise ValueError("dimension mismatch")
    eqs, ineqs = _hrep(cone)
    return all(dot(e, v) == 0 for e in eqs) and all(dot(a, v) >= 0
                                                    for a in ineqs)


def cone_intersect_subspace(cone: Cone, space: Subspace) -> Cone:
    if cone.ambient_dim != space.ambient_dim:
        raise ValueError("dimension mismatch")
    eqs, ineqs = _hrep(cone)
    ann = space.annihilator().basis
    constraints = list(ineqs)
    for e in list(eqs) + list(ann):
        constraints.append(tuple(e))
        constraints.append(vscale(-1, e))
    lin, rays = _dd(constraints, cone.ambient_dim)
    return _canonical_cone(cone.ambient_dim, lin, rays)


def cone_equals_subspace(cone: Cone, space: Subspace) -> bool:
    """True iff the cone coincides with the subspace as a point set."""
    if cone.ambient_dim != space.ambient_dim:
        raise ValueError("dimension mismatch")
    if not all(space.contains(g) for g in cone.generators()):
        return False
    for b in space.basis:
        if not cone_contains(cone, b) or not cone_contains(cone, vscale(-1, b)):
            return False
    return True
