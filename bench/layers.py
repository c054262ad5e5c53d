"""Layer instrumentation: the caches each run starts cold, and the tracer.

The tracer wraps the public functions of the five modules from outside the
library.  The package binds names with ``from .x import y``, so a function
is replaced in every module that holds it, not only where it is defined.
Spans are kept in memory as (name, start, end, parent, op id) and turned
into per-layer metrics when the traced round ends.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, attribute) pairs timed as spans, per layer.
TIMED = (
    ("integer_geometry", "hnf_with_transform"),
    ("integer_geometry", "solve_left"),
    ("integer_geometry", "rref"),
    ("integer_geometry", "_dd"),
    ("integer_geometry", "Cone.from_generators"),
    ("integer_geometry", "cone_intersect_subspace"),
    ("integer_geometry", "Sublattice.coefficients"),
    ("containment", "enumerate_finite_subdata"),
    ("containment", "is_distinguished_pair"),
    ("containment", "quotient_datum"),
    ("containment", "is_colored_subspace"),
    ("containment", "subdatum"),
    ("containment", "normalizer_datum"),
    ("containment", "identity_component_datum"),
    ("luna_core", "luna_datum"),
    ("luna_core", "validate"),
    ("luna_core", "sigma_cone"),
    ("luna_core", "spherical_roots_of_group"),
    ("luna_core", "match_spherical_root"),
    ("root_datum", "subdiagram"),
    ("root_datum", "bourbaki_orderings"),
    ("cli", "parse_datum"),
    ("cli", "emit"),
    ("cli", "run"),
)
# Called hundreds of thousands of times per round: counted, never timed.
COUNTED = (("integer_geometry", "dot"), ("integer_geometry", "primitive"))
# Only self time is reported for the CLI layer; its call counts follow the ops.
SELF_ONLY = {"cli.parse_datum", "cli.emit", "cli.run"}

CACHED = (
    ("luna_core", "validate"),
    ("luna_core", "full_colors"),
    ("luna_core", "valuation_cone"),
    ("luna_core", "spherical_roots_of_group"),
    ("root_datum", "component_type"),
    ("integer_geometry", "_hrep"),
)


def _module(name):
    return importlib.import_module(f"lunadata.{name}")


class Caches:
    """The library's ``lru_cache`` objects, cleared together.

    Statistics are accumulated across clears, so a round that clears before
    every op still reports its total hits and misses.
    """

    def __init__(self):
        # captured before any tracer replaces the module attributes
        self.caches = {f"{m}.{a}": getattr(_module(m), a) for m, a in CACHED}
        self.reset_stats()

    def reset_stats(self):
        self.stats = {name: [0, 0, 0] for name in self.caches}

    def clear(self):
        for name, cache in self.caches.items():
            info = cache.cache_info()
            totals = self.stats[name]
            totals[0] += info.hits
            totals[1] += info.misses
            totals[2] = max(totals[2], info.currsize)
            cache.cache_clear()

    def metrics(self) -> dict:
        out = {}
        for name, (hits, misses, size) in self.stats.items():
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.currsize"] = size
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


def _own_modules():
    """Loaded modules whose source lies in this checkout."""
    root = str(ROOT)
    return [m for m in list(sys.modules.values())
            if (getattr(m, "__file__", None) or "").startswith(root)]


class Tracer:
    """Spans around the layer functions, installed for the traced round."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in TIMED]
        self.counted = [f"{m}.{a}" for m, a in COUNTED]
        self.spans = []
        self.counts = [0] * len(COUNTED)
        self.op = None
        self.returned = 0  # subdata returned by enumerate_finite_subdata
        self._enum = self.names.index("containment.enumerate_finite_subdata")
        self._stack = []
        self._undo = []

    def _timed(self, index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op)
            if index == self._enum:
                self.returned += len(result)
            return result
        return traced

    def _count(self, index, fn):
        counts = self.counts

        def counted(*args):
            counts[index] += 1
            return fn(*args)
        return counted

    def _replace(self, module_name, attr, make):
        module = _module(module_name)
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[name]
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, name, make(raw))
            self._undo.append((cls, name, raw))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for holder in _own_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._undo.append((holder, key, original))

    def __enter__(self):
        for i, (m, a) in enumerate(TIMED):
            self._replace(m, a, lambda fn, i=i: self._timed(i, fn))
        for i, (m, a) in enumerate(COUNTED):
            self._replace(m, a, lambda fn, i=i: self._count(i, fn))
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def metrics(self, probe) -> dict:
        """calls and self time per function, plus the enumeration yield.
        The ticks of the speed ``probe`` inside a span are not the
        library's work and are taken out of its duration."""
        net = [end - start - probe.spent(start, end)
               for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for slot, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += net[slot]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for slot, (index, _, _, _, _) in enumerate(self.spans):
            calls[index] += 1
            own[index] += net[slot] - child[slot]
        out = {}
        for name, n, s in zip(self.names, calls, own):
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = s
        for name, n in zip(self.counted, self.counts):
            out[f"{name}.calls"] = n
        out["containment.enumerate_finite_subdata.useful_ratio"] = \
            self._useful_ratio()
        return out

    def _useful_ratio(self) -> float:
        """Subdata returned per ``is_distinguished_pair`` call made inside
        ``enumerate_finite_subdata``."""
        pair = self.names.index("containment.is_distinguished_pair")
        tried = 0
        for index, _, _, parent, _ in self.spans:
            if index != pair:
                continue
            while parent >= 0 and self.spans[parent][0] != self._enum:
                parent = self.spans[parent][3]
            tried += parent >= 0
        return self.returned / tried if tried else 0.0

    def write(self, path: Path):
        """The spans as tab-separated lines, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for index, start, end, parent, op in self.spans:
                out.write(f"{self.names[index]}\t{start:.9f}\t{end:.9f}\t"
                          f"{parent}\t{op}\n")
