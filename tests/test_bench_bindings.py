"""The library names the benchmark binds to must exist.

``bench/layers.py`` wraps functions by (module, attribute) and reads the
statistics of the library's caches; ``bench/pool.py`` and
``bench/workloads.py`` import library functions.  A rename in the library
should fail here rather than in a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    value = importlib.import_module(module_name)
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def _imported_names(path: Path):
    """(module, name) for every library name the file imports or reads as
    an attribute of an imported library module."""
    tree = ast.parse(path.read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("lunadata"):
            out.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = []
            value = node
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "lunadata" \
                    and len(chain) >= 2:
                chain.reverse()
                out.add((".".join(["lunadata"] + chain[:-1]), chain[-1]))
    return sorted(out)


def test_layer_bindings_resolve():
    layers = _layers()
    for module, attr in layers.TIMED + layers.COUNTED:
        assert callable(_resolve(f"lunadata.{module}", attr)), (module, attr)
    for module, attr in layers.CACHED:
        cache = _resolve(f"lunadata.{module}", attr)
        assert callable(cache.cache_info), (module, attr)
        assert callable(cache.cache_clear), (module, attr)


@pytest.mark.parametrize("name", ["pool.py", "workloads.py"])
def test_workload_imports_resolve(name):
    names = _imported_names(BENCH / name)
    assert names
    for module, attr in names:
        _resolve(module, attr)


def test_every_library_cache_is_one_the_bench_clears():
    # a cache the benchmark does not clear would make its cold rounds warm
    package = importlib.import_module("lunadata")
    caches = set()
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"lunadata.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and \
                    value.__module__ == module.__name__:
                caches.add((info.name, name))
    assert caches == set(_layers().CACHED)
