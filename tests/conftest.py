from __future__ import annotations

import json
from pathlib import Path

import pytest

from lunadata.cli import parse_datum
from lunadata.integer_geometry import _canonical_cone, _dd

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "lunadata" / "fixtures"

FIXTURE_NAMES = (
    "spin5_wasserman14",
    "spin7_ex51",
    "spin7_ex52",
    "g2_ex53",
    "sl2sl2_ex54",
    "pgl2pgl2_ex55",
)


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str):
    """The LunaDatum stored in one of the bundled fixture files."""
    with fixture_path(name).open("rb") as handle:
        document = json.load(handle)
    _, datum = parse_datum(document)
    return datum


@pytest.fixture(scope="session")
def fixtures():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


def cone_from_inequalities(ambient_dim: int, ineqs):
    """{x : <a, x> >= 0 for a in ineqs} as a canonical Cone, by one general
    double description: the oracle for the closed-form valuation cone and
    for the orthant cut of cone(Sigma)."""
    lin, rays = _dd(list(ineqs), ambient_dim)
    return _canonical_cone(ambient_dim, lin, rays)
