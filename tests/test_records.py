"""The value types are immutable records with the behaviour of frozen
dataclasses: positional fields, equality and hash by exact type and field
values, the dataclass repr, and pickling that recomputes the hash."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lunadata import (
    Color,
    ColoredSubspace,
    ColorRecord,
    Cone,
    DiagramComponent,
    DistinguishedPair,
    DynkinSubdiagram,
    LunaDatum,
    RootDatum,
    Subdatum,
    Sublattice,
    Subspace,
    Violation,
    enumerate_finite_subdata,
    full_colors,
    match_spherical_root,
    spherical_roots_of_group,
    subdiagram,
    valuation_cone,
)
from lunadata.luna_core import PatternRow, RootMatch, SphericalRoot

SRC = Path(__file__).resolve().parents[1] / "src"

# the positional fields of each public value type, in order
FIELDS = {
    Sublattice: ("ambient_rank", "basis"),
    Subspace: ("ambient_dim", "basis"),
    Cone: ("ambient_dim", "rays", "lineality"),
    PatternRow: ("name", "support_type", "rank", "coefficients",
                 "spp_positions", "half_allowed"),
    SphericalRoot: ("gamma", "row", "lam", "spp"),
    RootMatch: ("row", "lam", "spp", "sp"),
    ColorRecord: ("label", "rho"),
    LunaDatum: ("group", "M", "Sigma", "Sp", "Da"),
    Violation: ("axiom", "message"),
    Color: ("label", "ctype", "rho", "moved"),
    DiagramComponent: ("dtype", "nodes"),
    DynkinSubdiagram: ("node_subset", "components"),
    RootDatum: ("rank", "simple_roots", "simple_coroots", "diagram"),
    ColoredSubspace: ("subspace", "colors"),
    DistinguishedPair: ("lattice", "colors"),
    Subdatum: ("datum", "witness", "violations"),
}


@pytest.fixture(scope="module")
def records(fixtures):
    """One value of each public value type, built from the fixtures."""
    datum = fixtures["spin5_wasserman14"]
    group = datum.group
    root = spherical_roots_of_group(group)[0]
    sub = enumerate_finite_subdata(datum, 1)[0]
    values = [
        datum.M, Subspace.from_rows(datum.rank, [datum.Da[0].rho]),
        valuation_cone(datum), root.row, root,
        match_spherical_root(group, datum.Sigma[0]), datum.Da[0], datum,
        Violation("A1", "a message"), full_colors(datum)[0], group.diagram[0],
        subdiagram(group, [0]), group,
        ColoredSubspace(Subspace.zero(datum.rank), frozenset()),
        sub.witness, sub,
    ]
    assert {type(x) for x in values} == set(FIELDS)
    return values


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def test_positional_construction_with_an_arity_check(records):
    for x in records:
        values = _fields(x)
        assert type(x)(*values) == x
        with pytest.raises(TypeError):
            type(x)(*values[:-1])
        with pytest.raises(TypeError):
            type(x)(*values, None)


def test_equality_is_by_exact_type_and_field_values(fixtures):
    m = fixtures["spin5_wasserman14"].M
    assert Sublattice(m.ambient_rank, m.basis) == m
    assert Sublattice(m.ambient_rank, m.basis) != Subspace(m.ambient_rank, m.basis)
    assert m != (m.ambient_rank, m.basis)
    assert Sublattice(m.ambient_rank + 1, m.basis) != m


def test_hash_is_the_hash_of_the_tuple_of_fields(records):
    for x in records:
        assert hash(x) == hash(_fields(x))
        assert hash(x) == hash(_fields(x))  # once more, from the cache


def test_repr_has_the_dataclass_format(records):
    for x in records:
        fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in FIELDS[type(x)])
        assert repr(x) == f"{type(x).__name__}({fields})"


def test_assignment_and_deletion_raise(records):
    for x in records:
        name = FIELDS[type(x)][0]
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = None


def test_pickle_and_copy_round_trips(records):
    for x in records:
        hash(x)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(twin) is type(x)
            assert twin == x and hash(twin) == hash(x)
    group = next(x for x in records if type(x) is RootDatum)
    assert pickle.loads(pickle.dumps(group)).cartan_rows == group.cartan_rows


def test_sigma_coords_are_derived_and_left_out_of_everything(fixtures):
    datum = fixtures["g2_ex53"]
    assert datum.sigma_coords == datum.M.integral_coordinates(datum.Sigma)
    assert all(type(x) is int for row in datum.sigma_coords for x in row)
    with pytest.raises(TypeError):
        LunaDatum(*_fields(datum), sigma_coords=datum.sigma_coords)
    twin = LunaDatum(*_fields(datum))
    object.__setattr__(twin, "sigma_coords", None)
    assert twin == datum and hash(twin) == hash(datum)
    assert repr(twin) == repr(datum) and "sigma_coords" not in repr(datum)
    data = pickle.dumps(datum)
    assert b"sigma_coords" not in data and pickle.dumps(twin) == data
    for copied in (pickle.loads(data), copy.copy(twin), copy.deepcopy(twin)):
        assert copied.sigma_coords == datum.sigma_coords
    # None when some sigma is off M
    off = LunaDatum(datum.group, Sublattice.zero(datum.group.rank),
                    datum.Sigma, datum.Sp, datum.Da)
    assert off.sigma_coords is None


def _python(code: str, *args: str, **env: str) -> str:
    """Standard output of ``python -S -c code args`` with the package on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.strip()


def test_a_pickled_hash_is_not_carried_into_another_process(records):
    # str hashes are salted per process, so a hash cached before pickling
    # would be wrong in the process that loads it
    color = next(x for x in records if type(x) is Color)
    hash(color)
    code = ("import pickle, sys; x = pickle.loads(bytes.fromhex(sys.argv[1])); "
            "print(hash(x) == hash((x.label, x.ctype, x.rho, x.moved)))")
    out = _python(code, pickle.dumps(color).hex(), PYTHONHASHSEED="12345")
    assert out == "True"


def test_the_cli_starts_without_dataclasses_or_inspect():
    # nor typing: the annotations are never evaluated, so nothing imports it
    code = ("import sys, lunadata.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert _python(code) == "[]"
