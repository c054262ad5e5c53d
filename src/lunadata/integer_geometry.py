"""Exact integer/rational linear algebra and small polyhedral cones.

Arithmetic is integer-first: a Fraction appears only where a value has a true
denominator, and the kernels take only ints and Fractions (no floating point
anywhere).  There is one elimination, the integer Hermite loop: the lattice
forms run on it directly, and the rational kernels (``rref``, ``solve_left``,
``matrix_rank``) run on it over rows cleared to integers and read their
rational answers off its triangular pivot block.  Lattices are kept
in Hermite normal form, subspaces in reduced row echelon form, and cones as
primitive extremal rays plus an echelonized lineality basis, so equality of
two objects is a comparison of canonical forms.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, inf, lcm, prod
from operator import add, attrgetter, mul, sub


_setattr = object.__setattr__


class _Record:
    """Base of the immutable value types, with the behaviour of a frozen
    dataclass: positional fields, one per class annotation, in order (two or
    more); equality only between objects of the same type, by field values;
    ``hash(x) == hash(tuple of fields)``; the ``Name(field=value, ...)``
    repr; and AttributeError on assignment and deletion.

    ``__init__`` and ``__eq__`` are compiled for each class, as dataclasses
    and namedtuple do, so that they cost what hand-written ones would.
    Derived data are ``functools.cached_property`` values, computed on first
    use and kept out of equality, hash, repr and pickles.  The hash is cached
    on first use and never pickled: ``str`` hashes are salted per process.
    """

    _hash = None

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not fields:
            return  # a subclass that annotates nothing keeps its base's fields
        if len(fields) < 2:
            raise TypeError(f"{cls.__name__} needs two or more fields")
        own = ", ".join(f"self.{f}" for f in fields)
        other = ", ".join(f"other.{f}" for f in fields)
        src = (f"def __init__(self, {', '.join(fields)}):\n"
               + "".join(f"    _setattr(self, {f!r}, {f})\n" for f in fields)
               + "def __eq__(self, other):\n"
               "    if other.__class__ is self.__class__:\n"
               f"        return ({own}) == ({other})\n"
               "    return NotImplemented\n")
        namespace = {"_setattr": _setattr}
        exec(src, namespace)
        for name in ("__init__", "__eq__"):
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls._fields = fields
        # called as self._values(self): an attrgetter does not bind
        cls._values = attrgetter(*fields)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            _setattr(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}"
                           for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


def _num(x) -> "int | Q":
    """An int, or a Fraction with a true denominator; TypeError otherwise."""
    if type(x) is int:
        return x
    # then bools and int subclasses, before the slow ABC test against Fraction
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Q):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


def _int(x) -> int:
    x = _num(x)
    if not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _div(x, d):
    """x / d for an exact x and a nonzero int d, kept an int when it divides."""
    if isinstance(x, int) and x % d == 0:
        return x // d
    return _num(Q(x, d))


def _cleared(row):
    """(row times the lcm d of its denominators, d): integers on the same ray."""
    if all(type(x) is int for x in row):
        return row, 1
    row = [_num(x) for x in row]
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return _num(sum(map(mul, u, v)))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(_num, map(add, u, v)))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(_num, map(sub, u, v)))


def vscale(c, v: Sequence) -> tuple:
    return tuple(_num(c * x) for x in v)


def is_zero(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def primitive(v: Sequence) -> tuple:
    """Shortest integer vector on the ray through v (direction preserved)."""
    ints, _ = _cleared(v)
    if is_zero(ints):
        raise ValueError("zero vector has no primitive generator")
    g = gcd(*ints)
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# The Hermite loop: integer normal forms and the rational kernels on it
# ---------------------------------------------------------------------------

def _hermite(a: list, width: int) -> int:
    """Row Hermite form (see ``hnf_with_transform``) of the integer rows
    ``a`` on their first ``width`` columns, in place; the same row operations
    carry every later column.  Returns the number of nonzero rows."""
    m, r = len(a), 0
    for c in range(width):
        # i0 is the row of the least nonzero |entry| at or below row r, the
        # first on ties; each reduction pass finds the next one, since every
        # remainder is smaller than the pivot that left it
        i0, least = None, 0
        for i in range(r, m):
            x = abs(a[i][c])
            if x and (i0 is None or x < least):
                i0, least = i, x
        while i0 is not None:
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            p = a[r][c]
            i0 = None
            for i in range(r + 1, m):
                x = a[i][c]
                if x:
                    q = x // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    x = abs(x - q * p)
                    if x and (i0 is None or x < least):
                        i0, least = i, x
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            p = a[r][c]
            for i in range(r):
                q = a[i][c] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return r


def hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form H with unimodular U such that U * rows = H.

    H is upper echelon with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows of H sink to the bottom; U, carried
    beside the rows from I, keeps the full row count for reading kernels.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[x if type(x) is int else _int(x) for x in row]
         + [int(i == j) for j in range(m)]
         for i, row in enumerate(rows)]
    _hermite(a, n)
    return tuple(tuple(row[:n]) for row in a), tuple(tuple(row[n:]) for row in a)


def hnf(rows: Sequence[Sequence[int]]) -> tuple:
    """Canonical HNF basis (nonzero rows only), computed without a transform."""
    a = [[x if type(x) is int else _int(x) for x in row] for row in rows]
    r = _hermite(a, len(a[0]) if a else 0)
    return tuple(map(tuple, a[:r]))


def _identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def snf(matrix: Sequence[Sequence[int]]):
    """Smith normal form: (D, U, V) with U * matrix * V = D.

    D is diagonal with nonnegative entries d1 | d2 | ..., and U, V are
    unimodular.  Row Hermite forms of the matrix and of its transpose are
    taken in turn until it is diagonal (Kannan and Bachem, SIAM J. Comput. 8,
    1979); where d_k does not divide d_(k+1), column k+1 is added to column k
    and the alternation resumes.  The transforms ride along as carried
    columns: the row passes run on [A | U], the column passes on [A^T | V^T].
    """
    a = [[_int(x) for x in row] for row in matrix]
    m, n = len(a), len(a[0]) if a else 0
    if not (m and n):
        return tuple(map(tuple, a)), _identity(m), _identity(n)
    u = _identity(m)
    # [A^T | V^T]; each zip below stops after the m rows or n columns of A
    cols = [[*col, *e] for col, e in zip(zip(*a), _identity(n))]
    while True:
        rows = [[*row, *e] for row, e in zip(zip(*cols), u)]
        _hermite(rows, n)
        u = [row[n:] for row in rows]
        cols = [[*col, *c[m:]] for col, c in zip(zip(*rows), cols)]
        _hermite(cols, m)
        if any(x for j, c in enumerate(cols) for i, x in enumerate(c[:m]) if i != j):
            continue
        d = [cols[i][i] for i in range(min(m, n))]
        k = next((k for k in range(len(d) - 1)
                  if (d[k + 1] % d[k] if d[k] else d[k + 1])), None)
        if k is None:
            break
        cols[k] = [x + y for x, y in zip(cols[k], cols[k + 1])]
    return (tuple(zip(*(c[:m] for c in cols))), tuple(map(tuple, u)),
            tuple(zip(*(c[m:] for c in cols))))


def right_kernel_integer(rows: Sequence[Sequence], width: int):
    """Saturated integer basis of {x : rows * x = 0}.

    Rational input rows are cleared to integers first (same kernel).
    """
    cleared = [_cleared(row)[0] for row in rows]
    h, u = hnf_with_transform([[row[j] for row in cleared] for j in range(width)])
    return tuple(u[i] for i in range(width) if is_zero(h[i]))


def _echelon(rows: Sequence[Sequence]):
    """Row Hermite form of the rows cleared to integers.

    Returns (a, pivots): row k of ``a`` has its pivot in column ``pivots[k]``
    and the rows past the pivots vanish.
    """
    a = [_cleared(row)[0] for row in rows]
    r = _hermite(a, len(a[0]) if a else 0)
    return a, [next(j for j, x in enumerate(row) if x) for row in a[:r]]


def _back_substitute(a, pivots, col) -> list:
    """x with sum_l a[k][pivots[l]] * x[l] = a[k][col] for each pivot row k.

    The pivot block is upper triangular, so d * x is integral for the product
    d of the pivots (Cramer's rule), and the steps run over the integers with
    one exact division each.
    """
    r = len(pivots)
    d = prod(a[k][c] for k, c in enumerate(pivots))
    y = [0] * r
    for k in range(r - 1, -1, -1):
        row = a[k]
        s = d * row[col] - sum(row[pivots[l]] * y[l] for l in range(k + 1, r))
        y[k] = s // row[pivots[k]]
    return [_div(v, d) for v in y]


def rref(rows: Sequence[Sequence]):
    """Reduced row echelon form over the rationals (canonical, zero rows dropped)."""
    a, pivots = _echelon(rows)
    width = len(a[0]) if a else 0
    # a pivot column solves to a unit vector: filled in, not back-substituted
    unit = dict(zip(pivots, _identity(len(pivots))))
    return tuple(zip(*(unit.get(j) or _back_substitute(a, pivots, j)
                       for j in range(width))))


def solve_left(rows: Sequence[Sequence], target: Sequence):
    """Coefficients c with c * rows = target, or None if inconsistent.

    The solution is unique when the rows are linearly independent; otherwise
    each row in the span of the rows before it gets coefficient 0.
    """
    rows = list(rows)
    n, m = len(target), len(rows)
    if rows and len(rows[0]) != n:
        raise ValueError("dimension mismatch")
    # sum_i c_i * rows[i][j] = target[j] for each j; a pivot at m reads 0 = 1
    coeffs = [0] * m
    for line in rref([[row[j] for row in rows] + [target[j]] for j in range(n)]):
        c = next(j for j, x in enumerate(line) if x)
        if c == m:
            return None
        coeffs[c] = line[m]
    return tuple(coeffs)


def _read_off(basis: Sequence[Sequence], v: Sequence, dim: int):
    """Coordinates of v against an echelon basis, or None if off its span.

    Each coordinate is read off at the pivot of its row once the rows above
    have been subtracted.
    """
    if len(v) != dim:
        raise ValueError("dimension mismatch")
    rest, coeffs = [_num(x) for x in v], []
    for row in basis:
        j = next(j for j, x in enumerate(row) if x)
        c = _div(rest[j], row[j])
        coeffs.append(c)
        rest = [x - c * y for x, y in zip(rest, row)]
    return None if any(rest) else tuple(coeffs)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])


# ---------------------------------------------------------------------------
# Sublattices
# ---------------------------------------------------------------------------

class Sublattice(_Record):
    """A finitely generated subgroup of Z^n in canonical Hermite normal form.

    ``Sublattice(rank, basis)`` expects that canonical row HNF and does not
    check it: ``coefficients``, ``integral_coordinates``, ``contains`` and
    ``lattice_index`` read wrong answers off any other basis.  ``from_rows``
    canonicalizes.
    """

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
        return Sublattice(ambient_rank, _identity(ambient_rank))

    @staticmethod
    def zero(ambient_rank: int) -> "Sublattice":
        return Sublattice(ambient_rank, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coefficients(self, v: Sequence):
        """Rational coordinates of v against the basis, or None if off-span."""
        return _read_off(self.basis, v, self.ambient_rank)

    def integral_coordinates(self, rows: Iterable[Sequence]):
        """Integer coordinates of each row, or None unless every row lies in
        the lattice: one divmod per pivot of the echelon basis, no Fraction."""
        out = []
        for row in rows:
            if len(row) != self.ambient_rank:
                raise ValueError("dimension mismatch")
            rest, coeffs = [_num(x) for x in row], []
            if not all(type(x) is int for x in rest):
                return None
            for b in self.basis:
                j = next(j for j, x in enumerate(b) if x)
                c, r = divmod(rest[j], b[j])
                if r:
                    return None
                rest = [x - c * y for x, y in zip(rest, b)]
                coeffs.append(c)
            if any(rest):
                return None
            out.append(tuple(coeffs))
        return tuple(out)

    def contains(self, v: Sequence) -> bool:
        return self.integral_coordinates([v]) is not None

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def member_from_coefficients(self, coeffs: Sequence) -> tuple:
        if len(coeffs) != self.rank:
            raise ValueError("coefficient length does not match lattice rank")
        out = [0] * self.ambient_rank
        for c, row in zip(coeffs, self.basis):
            out = [x + c * y for x, y in zip(out, row)]
        return tuple(map(_num, out))


def lattice_index(lattice: Sublattice, sub: Sublattice):
    """Index [lattice : sub]; math.inf when the ranks differ.  Hermite bases
    of equal rank share their pivot columns, so the coordinates of sub are
    upper triangular and the index is the product of their diagonal."""
    if lattice.ambient_rank != sub.ambient_rank:
        raise ValueError("ambient ranks differ")
    coeffs = lattice.integral_coordinates(sub.basis)
    if coeffs is None:
        raise ValueError("second lattice is not contained in the first")
    if sub.rank < lattice.rank:
        return inf
    return prod(row[k] for k, row in enumerate(coeffs))


def saturation(lattice: Sublattice, ambient: Sublattice) -> Sublattice:
    """(lattice tensor Q) intersected with ambient."""
    if lattice.ambient_rank != ambient.ambient_rank:
        raise ValueError("ambient ranks differ")
    coeffs = ambient.integral_coordinates(lattice.basis)
    if coeffs is None:
        raise ValueError("lattice is not contained in the ambient lattice")
    orth = right_kernel_integer(coeffs, width=ambient.rank)
    sat_coeffs = right_kernel_integer(orth, width=ambient.rank)
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

class Subspace(_Record):
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
        return Subspace(ambient_dim, _identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        # the reduced echelon basis has unit pivots, so v is read off directly
        return _read_off(self.basis, v, self.ambient_dim) is not None

    def annihilator(self) -> "Subspace":
        """The subspace of covectors vanishing on this one."""
        k = right_kernel_integer(self.basis, width=self.ambient_dim)
        return Subspace.from_rows(self.ambient_dim, k)


# ---------------------------------------------------------------------------
# Polyhedral cones (double description over Q; the benchmark and the tests)
# ---------------------------------------------------------------------------

def _combine(s, u, t, w) -> tuple:
    """Primitive generator of s*u - t*w."""
    return primitive(vsub(vscale(s, u), vscale(t, w)))


def _dd(ineqs: Sequence[Sequence], dim: int):
    """Generators (lineality, rays) of {x : a . x >= 0 for all a in ineqs}.
    Unused by the library; kept for the benchmark's tracer and the tests."""
    lin = list(_identity(dim))
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
            # v0 > 0, so v0*u - (a.u)*l0 lies on the ray of u - (a.u / v0)*l0
            lin = [_combine(v0, l, x, l0) if x else l
                   for i, (l, x) in enumerate(zip(lin, lv)) if i != hit]
            rays = [_combine(v0, r, x, l0) if x else r
                    for r, x in [(r, dot(a, r)) for r in rays]]
            rays.append(primitive(l0))
        else:
            signs = [(r, dot(a, r)) for r in rays]
            negs = [(r, s) for r, s in signs if s < 0]
            if negs:
                poss = [(r, s) for r, s in signs if s > 0]
                zers = [r for r, s in signs if s == 0]
                active = {r: frozenset(j for j, b in enumerate(used)
                                       if dot(b, r) == 0) for r in rays}
                combos = []
                for rp, sp in poss:
                    for rm, sm in negs:
                        z = active[rp] & active[rm]
                        blocked = any(r != rp and r != rm and z <= active[r]
                                      for r in rays)
                        if not blocked:
                            combo = _combine(sp, rm, sm, rp)
                            if combo not in zers and combo not in combos:
                                combos.append(combo)
                rays = [r for r, _ in poss] + zers + combos
        used.append(a)
    return lin, rays


def _project_off(v, lin_rows):
    """Orthogonal component of v with respect to span(lin_rows), for
    :func:`_canonical_cone`, which the library's own paths never call."""
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
    """The canonical Cone of DD generators; unused by the library."""
    space = Subspace.from_rows(dim, lin)
    lin_rows = tuple(primitive(r) for r in space.basis)
    reduced = []
    for r in rays:
        p = _project_off(r, lin_rows)
        if not is_zero(p):
            reduced.append(primitive(p))
    return Cone(dim, tuple(sorted(set(reduced))), lin_rows)


class Cone(_Record):
    """A rational polyhedral cone: primitive extremal rays plus lineality."""

    ambient_dim: int
    rays: tuple
    lineality: tuple

    @staticmethod
    def from_generators(ambient_dim: int, generators: Iterable[Sequence]) -> "Cone":
        """Two DDs; unused by the library, kept for the benchmark and tests."""
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise ValueError("generator has wrong dimension")
        gens = [primitive(g) for g in gens if not is_zero(g)]
        lin1, rays1 = _dd(gens, ambient_dim)
        ineqs = list(rays1) + list(lin1) + [vscale(-1, l) for l in lin1]
        lin2, rays2 = _dd(ineqs, ambient_dim)
        return _canonical_cone(ambient_dim, lin2, rays2)

    def generators(self) -> tuple:
        """Rays plus a plus/minus basis of the lineality space."""
        return self.rays + self.lineality + tuple(vscale(-1, l)
                                                  for l in self.lineality)


@lru_cache(maxsize=None)
def _hrep(cone: Cone):
    """(equalities, inequalities) cutting out the cone.  The benchmark
    clears and reads this cache on every run."""
    lin, rays = _dd(cone.generators(), cone.ambient_dim)
    return tuple(lin), tuple(rays)


def cone_intersect_subspace(cone: Cone, space: Subspace) -> Cone:
    """Unused by the library (containment cuts over the Sigma-orthant);
    kept for the benchmark's tracer and as an oracle in the tests."""
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
