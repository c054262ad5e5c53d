"""The public names of the package, pinned so that one is removed on purpose."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import typing
from pathlib import Path

import lunadata

ROOT = Path(__file__).resolve().parents[1]
CLI = ROOT / "src" / "lunadata" / "cli.py"

PUBLIC = [
    "Color", "ColorRecord", "ColoredSubspace", "Cone", "DatumStructureError",
    "DiagramComponent", "DistinguishedPair", "DynkinSubdiagram",
    "InvalidDatumError", "LunaDatum", "PairError", "RootDatum",
    "SteinDecomposition", "Subdatum", "Sublattice", "Subspace", "Violation",
    "build_root_datum", "compatible", "containment", "datum_equal",
    "distinguished_roots", "distinguished_roots_rank_one_variant",
    "enumerate_finite_subdata", "full_colors", "hnf",
    "identity_component_datum", "in_root_lattice", "integer_geometry",
    "is_colored_subspace", "is_connected", "is_d_saturated",
    "is_distinguished_pair", "is_subdatum", "lattice_index", "luna_core",
    "luna_datum", "match_spherical_root", "normalizer_datum", "pairing",
    "preset", "preset_names", "primitive_ray_generator", "quotient_datum",
    "root_datum", "saturation", "snf", "spherical_roots_of_group",
    "stein_decompose", "subdatum", "subdiagram", "sublattices_of_index",
    "support", "validate", "valuation_cone",
]


def test_public_names_are_pinned():
    assert sorted(lunadata.__all__) == PUBLIC


def test_the_cli_imports_no_private_name_from_the_package():
    # the CLI runs on the public API, the path the tests and the README take
    imported = [alias.name for node in ast.walk(ast.parse(CLI.read_text()))
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("lunadata"))
                for alias in node.names]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []


def test_the_readme_library_overview_runs():
    # the README's first Python block, asserts included, as a user pastes it
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library overview", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "stein_decompose" in block
    exec(compile(block, "README.md", "exec"), {})


MODULES = ("cli", "containment", "integer_geometry", "luna_core", "root_datum")


def _defined_functions():
    """Every function and method the modules define: lru_cache bodies,
    static and class methods, property getters and cached properties too."""
    for name in MODULES:
        module = importlib.import_module(f"lunadata.{name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.isclass(obj):
                if callable(obj):
                    yield inspect.unwrap(obj)
                continue
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    yield member.__func__
                elif isinstance(member, property):
                    yield member.fget
                elif isinstance(member, functools.cached_property):
                    yield member.func
                elif inspect.isfunction(member):
                    yield member


def test_every_type_hint_resolves():
    # the modules import no typing, and their annotations stay strings; each
    # name in them must still resolve in its module
    functions = list(_defined_functions())
    assert len(functions) > 200
    unresolved = []
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {exc}")
    assert unresolved == []
