"""Exact integer/rational linear algebra and small polyhedral cones.

Arithmetic is integer-first: a Fraction appears only where a value has a true
denominator, eliminations run fraction-free over the integers, and the kernels
take only ints and Fractions (no floating point anywhere).  Lattices are kept
in Hermite normal form, subspaces in reduced row echelon form, and cones as
primitive extremal rays plus an echelonized lineality basis, so equality of
two objects is a comparison of canonical forms.
"""

from __future__ import annotations

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
    and namedtuple do, so that they cost what hand-written ones would.  A
    class may define ``__post_init__`` to set derived attributes, which stay
    out of equality, hash and repr.  The hash is cached on first use and
    never pickled: ``str`` hashes are salted per process.
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
               + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__")
                  else "")
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
# Integer normal forms and fraction-free elimination
# ---------------------------------------------------------------------------

def hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form H with unimodular U such that U * rows = H.

    H is upper echelon with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows of H sink to the bottom; U keeps the
    full row count so kernels can be read off the zero rows.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # each row carries its row of U, so one operation updates both
    a = [[x if type(x) is int else _int(x) for x in row]
         + [int(i == j) for j in range(m)]
         for i, row in enumerate(rows)]
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            p = a[r][c]
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            if all(a[i][c] == 0 for i in range(r + 1, m)):
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            p = a[r][c]
            for i in range(r):
                q = a[i][c] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return tuple(tuple(row[:n]) for row in a), tuple(tuple(row[n:]) for row in a)


def hnf(rows: Sequence[Sequence[int]]) -> tuple:
    """Canonical HNF basis (nonzero rows only)."""
    h, _ = hnf_with_transform(rows)
    return tuple(row for row in h if not is_zero(row))


def _identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _transpose(rows) -> list:
    return [list(col) for col in zip(*rows)]


def _matmul(a, b) -> list:
    return [[dot(row, col) for col in zip(*b)] for row in a]


def snf(matrix: Sequence[Sequence[int]]):
    """Smith normal form: (D, U, V) with U * matrix * V = D.

    D is diagonal with nonnegative entries d1 | d2 | ..., and U, V are
    unimodular.  Row Hermite forms of the matrix and of its transpose are
    taken in turn until it is diagonal (Kannan and Bachem, SIAM J. Comput. 8,
    1979); where d_k does not divide d_(k+1), column k+1 is added to column k
    and the alternation resumes.
    """
    a = [[_int(x) for x in row] for row in matrix]
    u, v = _identity(len(a)), _identity(len(a[0]) if a else 0)
    while a and a[0]:
        h, t = hnf_with_transform(a)
        h, s = hnf_with_transform(_transpose(h))
        a, u, v = _transpose(h), _matmul(t, u), _matmul(v, _transpose(s))
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(len(a), len(a[0])))]
        k = next((k for k in range(len(d) - 1)
                  if (d[k + 1] % d[k] if d[k] else d[k + 1])), None)
        if k is None:
            break
        for row in a + v:
            row[k] += row[k + 1]
    return tuple(map(tuple, a)), tuple(map(tuple, u)), tuple(map(tuple, v))


def right_kernel_integer(rows: Sequence[Sequence], width: Optional[int] = None):
    """Saturated integer basis of {x : rows * x = 0}.

    Rational input rows are cleared to integers first (same kernel).
    """
    cleared = [_cleared(row)[0] for row in rows]
    if width is None:
        if not cleared:
            raise ValueError("width required for an empty matrix")
        width = len(cleared[0])
    h, u = hnf_with_transform([[row[j] for row in cleared] for j in range(width)])
    return tuple(u[i] for i in range(width) if is_zero(h[i]))


def _echelon(rows: Sequence[Sequence], width: Optional[int] = None):
    """Fraction-free row echelon form (Bareiss, Math. Comp. 22, 1968).

    Returns (a, pivots, sign, scale) for the rows cleared to integers: row k
    of ``a`` has its pivot in column ``pivots[k]`` (pivots are sought in the
    first ``width`` columns), ``sign`` is the parity of the row swaps and
    ``scale`` the product of the clearing factors.  Entries of ``a`` are
    minors, so every division is exact, and the last pivot is the
    determinant of the pivot rows on the pivot columns.
    """
    cleared = [_cleared(row) for row in rows]
    a, scale = [row for row, _ in cleared], prod(d for _, d in cleared)
    if width is None:
        width = len(a[0]) if a else 0
    pivots, sign, prev = [], 1, 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
    return a, pivots, sign, scale


def _back_substitute(a, pivots, col) -> list:
    """x with sum_l a[k][pivots[l]] * x[l] = a[k][col] for each pivot row k.

    d * x is integral for the last pivot d (Cramer's rule), so the steps run
    over the integers with one exact division each.
    """
    r = len(pivots)
    d = a[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for k in range(r - 1, -1, -1):
        row = a[k]
        s = d * row[col] - sum(row[pivots[l]] * y[l] for l in range(k + 1, r))
        y[k] = s // row[pivots[k]]
    return [_div(v, d) for v in y]


def rref(rows: Sequence[Sequence]):
    """Reduced row echelon form over the rationals (canonical, zero rows dropped)."""
    a, pivots, _, _ = _echelon(rows)
    width = len(a[0]) if a else 0
    return tuple(zip(*(_back_substitute(a, pivots, j) for j in range(width))))


def solve_left(rows: Sequence[Sequence], target: Sequence):
    """Coefficients c with c * rows = target, or None if inconsistent.

    The solution is unique when the rows are linearly independent; otherwise
    each row in the span of the rows before it gets coefficient 0.
    """
    rows = list(rows)
    n, m = len(target), len(rows)
    if rows and len(rows[0]) != n:
        raise ValueError("dimension mismatch")
    # one equation per coordinate j: sum_i c_i * rows[i][j] = target[j]
    a, pivots, _, _ = _echelon(
        [[row[j] for row in rows] + [target[j]] for j in range(n)], m)
    if any(row[m] for row in a[len(pivots):]):
        return None
    coeffs = [0] * m
    for c, x in zip(pivots, _back_substitute(a, pivots, m)):
        coeffs[c] = x
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


def rational_det(rows: Sequence[Sequence]):
    n = len(rows)
    a, pivots, sign, scale = _echelon(rows, n)
    if len(pivots) < n:
        return 0
    return _div(sign * a[n - 1][n - 1], scale) if n else 1


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])


# ---------------------------------------------------------------------------
# Sublattices
# ---------------------------------------------------------------------------

class Sublattice(_Record):
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
    """Index [lattice : sub]; math.inf when the ranks differ."""
    if lattice.ambient_rank != sub.ambient_rank:
        raise ValueError("ambient ranks differ")
    coeffs = lattice.integral_coordinates(sub.basis)
    if coeffs is None:
        raise ValueError("second lattice is not contained in the first")
    if sub.rank < lattice.rank:
        return inf
    return abs(rational_det(coeffs))


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
    """Orthogonal component of v with respect to span(lin_rows).  Unused by
    the library; kept for the benchmark's tracer and the tests."""
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
