"""Textbook rows: the spherical subgroups of SL2 and what is known of them.

Each expected answer is derived by hand in a comment, from the geometry of
SL2/H, and not read off the library.  Coordinates: the character lattice of
the maximal torus is Z omega, so alpha = (2) and alpha^ = (1); rho is taken
against the basis of M that is written down.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from lunadata.containment import is_connected, is_subdatum
from lunadata.luna_core import full_colors, luna_datum, validate
from lunadata.root_datum import build_root_datum

SL2 = build_root_datum([("A", 1, "simply_connected")])

# (M rows, Sigma, Sp, Da) of each subgroup H of SL2
ROWS = {
    # SL2/SL2 is a point: no B-eigenfunctions, no spherical roots, and the
    # parabolic P_alpha = SL2 stabilizes the open orbit, so alpha is in Sp
    "SL2": ([], [], {0}, []),
    # SL2/B = P^1 has no nonconstant B-eigenfunctions: M = 0
    "B": ([], [], set(), []),
    # SL2/U = C^2 \ 0: the coordinate fixed by U is a B-eigenfunction of
    # weight omega, so M = Z omega = (1); the variety is horospherical
    "U": ([(1,)], [], set(), []),
    # SL2/T is the affine quadric, the pairs of distinct points of P^1, with
    # rank one and spherical root alpha, so M = Z alpha; its two colors
    # {x} x P^1 and P^1 x {x} are moved by alpha and each pairs 1 with it
    "T": ([(2,)], [(2,)], set(), [("D+", (1,)), ("D-", (1,))]),
    # SL2/N(T) = P^2 less a conic: the orbit map identifies the points of
    # the pair, so the spherical root doubles to 2 alpha and M = Z 2 alpha
    "N(T)": ([(4,)], [(4,)], set(), []),
}


@pytest.fixture(scope="module")
def data():
    return {name: luna_datum(SL2, m, sigma, sp, da)
            for name, (m, sigma, sp, da) in ROWS.items()}


def test_every_row_is_valid_and_only_n_t_is_disconnected(data):
    # (S): Sp = {alpha} of SL2 pairs with M = 0; (A1), (A2): the colors of T
    # pair 1 with alpha and sum to alpha^ on M, 1 + 1 = <alpha^, alpha> = 2;
    # (Sigma1): <alpha^, 4 omega> = 4 is even for N(T).  SL2, B, U and T are
    # connected groups; N(T) has the two components T and wT
    assert all(validate(d) == () for d in data.values())
    assert {name: is_connected(d) for name, d in data.items()} == {
        "SL2": True, "B": True, "U": True, "T": True, "N(T)": False}


def test_full_colors_are_the_textbook_colors(data):
    # SL2/SL2 has no colors; the one color of SL2/B is the B-fixed point,
    # and that of SL2/U the zero line of the U-fixed coordinate, both of
    # type b with rho = alpha^ on M: () on M = 0 and <alpha^, omega> = 1.
    # SL2/T keeps its two type-a colors.  The one color of SL2/N(T) is the
    # line tangent to the conic at the B-fixed point, of type 2a with
    # rho = alpha^ / 2 on M: <alpha^, 2 alpha> / 2 = 2
    colors = {name: [(c.label, c.ctype, c.rho, c.moved) for c in full_colors(d)]
              for name, d in data.items()}
    a1 = frozenset({0})
    assert colors == {
        "SL2": [],
        "B": [("D_a1", "b", (), a1)],
        "U": [("D_a1", "b", (1,), a1)],
        "T": [("D+", "a", (1,), a1), ("D-", "a", (1,), a1)],
        "N(T)": [("D_a1", "2a", (2,), a1)],
    }


def test_is_subdatum_holds_exactly_for_the_subgroup_inclusions(data):
    # is_subdatum(X, Y) when the subgroup of Y lies, up to conjugacy, in the
    # subgroup of X: SL2 holds all four others; B holds U and T, the
    # unipotent radical and a Levi factor; N(T) holds T.  U and T are not
    # conjugate into one another, and N(T) lies in no Borel subgroup, as w
    # swaps the two that contain T; dimension rules out every other way round
    holds = {(x, y) for x, y in permutations(data, 2)
             if is_subdatum(data[x], data[y]) is not None}
    assert holds == {("SL2", "B"), ("SL2", "U"), ("SL2", "T"), ("SL2", "N(T)"),
                     ("B", "U"), ("B", "T"), ("N(T)", "T")}
