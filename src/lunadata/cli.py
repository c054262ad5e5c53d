"""Command-line front end: datum files in, machine-readable reports out.

Datum files are JSON documents.  Vectors are written against named
coordinates: ``a1`` .. ``aN`` are the simple roots of the group (in factor
order) and ``t1`` .. ``tK`` are torus coordinates; values are integers or
exact rationals written as ``"p/q"``.  Exit codes: 0 for success or a
positive answer, 1 for a well-formed but negative answer (invalid datum,
non-distinguished pair, not connected, ...), 2 for parse or usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction as Q
from typing import Optional, Sequence

from .containment import (
    PairError,
    _distinguished,
    _quotient,
    distinguished_roots,
    distinguished_roots_rank_one_variant,
    enumerate_finite_subdata,
    identity_component_datum,
    is_colored_subspace,
    is_connected,
    is_subdatum,
    normalizer_datum,
    _d_saturation,
)
from .integer_geometry import Sublattice, Subspace, lattice_index, solve_left
from .luna_core import (
    DatumStructureError,
    LunaDatum,
    full_colors,
    luna_datum,
    spherical_roots_of_group,
    validate,
    valuation_cone,
)
from .root_datum import RootDatum, build_root_datum, preset, preset_names

COMMANDS = (
    "validate", "colors", "valuation-cone", "spherical-roots", "normalizer",
    "identity-component", "connected", "distinguished-roots", "quotient",
    "check-colored-subspace", "check-pair", "subdatum", "enumerate-finite",
    "is-subdatum", "stein",
)


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rational and vector (de)serialization
# ---------------------------------------------------------------------------

def parse_rational(value) -> Q:
    if isinstance(value, bool):
        raise ParseError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        try:
            return Q(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational number: {value!r}") from None
    raise ParseError(f"not a rational number: {value!r}")


def emit_rational(value):
    q = Q(value)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coordinate_names(group: RootDatum):
    s = group.num_simple_roots
    t = group.rank - s
    return [f"a{i + 1}" for i in range(s)] + [f"t{j + 1}" for j in range(t)]


def _named_basis(group: RootDatum):
    rows = list(group.simple_roots)
    s = group.num_simple_roots
    for j in range(group.rank - s):
        unit = [0] * group.rank
        unit[s + j] = 1
        rows.append(tuple(unit))
    return rows


def parse_vector(group: RootDatum, value) -> tuple:
    """A vector in named coordinates (object) or dense coefficients (list)."""
    names = _coordinate_names(group)
    basis = _named_basis(group)
    if isinstance(value, dict):
        coeffs = [Q(0)] * len(names)
        for key, raw in value.items():
            if key not in names:
                raise ParseError(f"unknown coordinate name {key!r}")
            coeffs[names.index(key)] = parse_rational(raw)
    elif isinstance(value, list):
        if len(value) != len(names):
            raise ParseError(
                f"expected {len(names)} coefficients, got {len(value)}")
        coeffs = [parse_rational(x) for x in value]
    else:
        raise ParseError(f"not a vector: {value!r}")
    out = [Q(0)] * group.rank
    for c, row in zip(coeffs, basis):
        for k, x in enumerate(row):
            out[k] += c * x
    for x in out:
        if x.denominator != 1:
            raise ParseError(
                f"vector {value!r} does not lie in the character lattice")
    return tuple(int(x) for x in out)


def emit_vector(group: RootDatum, vector) -> dict:
    names = _coordinate_names(group)
    coeffs = solve_left(_named_basis(group), vector)
    if coeffs is None:
        raise ParseError("vector cannot be written in named coordinates")
    return {name: emit_rational(c)
            for name, c in zip(names, coeffs) if c != 0}


def _root_names(group: RootDatum, indices) -> list:
    return sorted(f"a{i + 1}" for i in indices)


def _indices_from_names(group: RootDatum, names) -> frozenset:
    out = set()
    for name in names:
        if not (isinstance(name, str) and name.startswith("a")):
            raise ParseError(f"not a simple-root name: {name!r}")
        try:
            idx = int(name[1:]) - 1
        except ValueError:
            raise ParseError(f"not a simple-root name: {name!r}") from None
        if not 0 <= idx < group.num_simple_roots:
            raise ParseError(f"no simple root called {name!r}")
        out.add(idx)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Datum documents
# ---------------------------------------------------------------------------

def parse_group(value) -> RootDatum:
    if isinstance(value, str):
        try:
            return preset(value)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if isinstance(value, dict):
        factors = value.get("factors")
        if not isinstance(factors, list) or not all(
                isinstance(f, list) and len(f) == 3 and isinstance(f[0], str)
                and _is_int(f[1]) and isinstance(f[2], str) for f in factors):
            raise ParseError("group.factors must be a list of [type, rank, isogeny]")
        torus = value.get("torus_rank", 0)
        if not _is_int(torus) or torus < 0:
            raise ParseError("group.torus_rank must be a nonnegative integer")
        try:
            return build_root_datum([tuple(f) for f in factors], torus)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError("group must be a preset name or a factor object")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def group_document(group: RootDatum):
    name = _preset_name(group)
    if name is not None:
        return name
    factors = [[c.dtype, len(c.nodes), _isogeny_of(group, c)] for c in group.diagram]
    return {"factors": factors,
            "torus_rank": group.rank - group.num_simple_roots}


def _isogeny_of(group: RootDatum, component) -> str:
    i = component.nodes[0]
    root = group.simple_roots[i]
    if root[i] == 1:
        return "adjoint"
    return "simply_connected"


def parse_datum(document: dict):
    """(group, datum) from a parsed JSON document."""
    if not isinstance(document, dict):
        raise ParseError("datum document must be a JSON object")
    if "group" not in document:
        raise ParseError("datum document lacks a group")
    group = parse_group(document["group"])
    for key in ("M", "Sigma", "Sp", "Da"):
        if key not in document:
            raise ParseError(f"datum document lacks {key!r}")
    m_rows = [parse_vector(group, v) for v in _as_list(document, "M")]
    sigma = [parse_vector(group, v) for v in _as_list(document, "Sigma")]
    sp = _indices_from_names(group, _as_list(document, "Sp"))
    colors = []
    for entry in _as_list(document, "Da"):
        if not isinstance(entry, dict) or "label" not in entry or "rho" not in entry:
            raise ParseError("each Da entry needs a label and a rho")
        rho = entry["rho"]
        if not isinstance(rho, list):
            raise ParseError("rho must be a list of rationals")
        colors.append((str(entry["label"]), tuple(parse_rational(x) for x in rho)))
    try:
        datum = luna_datum(group, m_rows, sigma, sp, colors, rho_basis=m_rows)
    except DatumStructureError as exc:
        raise ParseError(str(exc)) from None
    return group, datum


def _as_list(document, key):
    value = document[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list")
    return value


def datum_document(datum: LunaDatum) -> dict:
    """Canonical document form; parsing it back reproduces the datum."""
    group = datum.group
    return {
        "group": group_document(group),
        "M": [emit_vector(group, row) for row in datum.M.basis],
        "Sigma": [emit_vector(group, g) for g in datum.Sigma],
        "Sp": _root_names(group, datum.Sp),
        "Da": [{"label": c.label, "rho": [emit_rational(x) for x in c.rho]}
               for c in datum.Da],
    }


def _preset_name(group: RootDatum) -> Optional[str]:
    for name in preset_names():
        if preset(name) == group:
            return name
    return None


def emit(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    return _emit_text(report) + "\n"


def _emit_text(value, indent: str = "") -> str:
    lines: list = []
    if isinstance(value, dict):
        if not value:
            return f"{indent}{{}}"
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{indent}{key}:")
                lines.append(_emit_text(item, indent + "  "))
            elif isinstance(item, dict):
                lines.append(f"{indent}{key}: {{}}")
            elif isinstance(item, list):
                lines.append(f"{indent}{key}: []")
            else:
                lines.append(f"{indent}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                body = _emit_text(item, indent + "  ").split("\n")
                lines.append(f"{indent}- {body[0].strip()}")
                lines.extend(body[1:])
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")
    return "\n".join(line for line in lines if line)


# ---------------------------------------------------------------------------
# Derived-data echoes
# ---------------------------------------------------------------------------

def colors_payload(datum: LunaDatum) -> list:
    group = datum.group
    return [{"label": c.label, "type": c.ctype,
             "moved": _root_names(group, c.moved),
             "rho": [emit_rational(x) for x in c.rho]}
            for c in full_colors(datum)]


def cone_payload(cone) -> dict:
    return {"rays": [[emit_rational(x) for x in r] for r in cone.rays],
            "lineality": [[emit_rational(x) for x in l] for l in cone.lineality]}


def derived_payload(datum: LunaDatum) -> dict:
    return {"colors": colors_payload(datum),
            "valuation_cone": cone_payload(valuation_cone(datum))}


def violations_payload(violations) -> list:
    return [{"axiom": v.axiom, "message": v.message} for v in violations]


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def _split_file_colors(value: str):
    path, _, labels = value.rpartition(":")
    if not path:
        raise ParseError("expected FILE:labels (labels may be empty)")
    chosen = frozenset(l for l in labels.split(",") if l)
    return path, chosen


def _load_json(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None


def _parse_pair_lattice(group: RootDatum, path: str) -> Sublattice:
    document, _ = _load_json(path)
    if not isinstance(document, dict) or "M" not in document:
        raise ParseError(f"{path} must be an object with an 'M' key")
    rows = [parse_vector(group, v) for v in _as_list(document, "M")]
    return Sublattice.from_rows(group.rank, rows)


def _parse_subspace(datum: LunaDatum, path: str) -> Subspace:
    document, _ = _load_json(path)
    if not isinstance(document, dict) or "basis" not in document:
        raise ParseError(f"{path} must be an object with a 'basis' key")
    rows = []
    for row in _as_list(document, "basis"):
        if not isinstance(row, list) or len(row) != datum.rank:
            raise ParseError(
                f"subspace rows must have length {datum.rank} (rank of M)")
        rows.append(tuple(parse_rational(x) for x in row))
    return Subspace.from_rows(datum.rank, rows)


# ---------------------------------------------------------------------------
# Command implementations: each returns (exit_code, payload, derived or None)
# ---------------------------------------------------------------------------

def _guard_valid(datum: LunaDatum):
    """The negative report for an invalid datum, or None for a valid one."""
    bad = validate(datum)
    if bad:
        return 1, {"valid": False, "violations": violations_payload(bad)}, None
    return None


def _cmd_validate(datum, args):
    return 0, {"valid": True, "violations": []}, derived_payload(datum)


def _cmd_colors(datum, args):
    return 0, {"colors": colors_payload(datum)}, None


def _cmd_valuation_cone(datum, args):
    return 0, {"valuation_cone": cone_payload(valuation_cone(datum))}, None


def _cmd_connected(datum, args):
    closure = _d_saturation(datum, datum.M)
    payload = {
        "connected": closure == datum.M,
        "saturation": [emit_vector(datum.group, row) for row in closure.basis],
    }
    return (0 if payload["connected"] else 1), payload, None


def _cmd_distinguished_roots(datum, args):
    primary = distinguished_roots(datum)
    variant = distinguished_roots_rank_one_variant(datum)
    payload = {
        "distinguished": [emit_vector(datum.group, g) for g in sorted(primary)],
        "rank_one_variant": [emit_vector(datum.group, g) for g in sorted(variant)],
        "definitions_agree": primary == variant,
    }
    return 0, payload, None


def _cmd_normalizer(datum, args):
    result = normalizer_datum(datum)
    return 0, {"datum": datum_document(result)}, derived_payload(result)


def _cmd_identity_component(datum, args):
    result = identity_component_datum(datum)
    return 0, {"datum": datum_document(result)}, derived_payload(result)


def _cmd_quotient(datum, args):
    path, labels = _split_file_colors(args.subspace)
    result = _quotient(datum, _parse_subspace(datum, path), labels)
    if result is None:
        return 1, {"colored": False}, None
    return 0, {"datum": datum_document(result)}, derived_payload(result)


def _cmd_check_colored_subspace(datum, args):
    path, labels = _split_file_colors(args.subspace)
    space = _parse_subspace(datum, path)
    ok = is_colored_subspace(datum, space, labels)
    return (0 if ok else 1), {"colored": ok}, None


def _cmd_check_pair(datum, args):
    path, labels = _split_file_colors(args.pair)
    lattice = _parse_pair_lattice(datum.group, path)
    found = _distinguished(datum, lattice, labels)
    ok = found is not None
    payload = {
        "distinguished": ok,
        # the quotient lives on the saturation of the lattice in M
        "colored_subspace_pair": ok and found[1].M == found[2].datum.M,
        "distinguished_subgroup_pair": ok and not labels and
        lattice.rank == datum.rank,
    }
    return (0 if ok else 1), payload, None


def _cmd_subdatum(datum, args):
    path, labels = _split_file_colors(args.pair)
    found = _distinguished(datum, _parse_pair_lattice(datum.group, path), labels)
    if found is None:
        return 1, {"distinguished": False}, None
    result = found[2]
    payload = {
        "datum": datum_document(result.datum),
        "violations": violations_payload(result.violations),
    }
    derived = derived_payload(result.datum) if not result.violations else None
    return 0, payload, derived


def _cmd_stein(datum, args):
    path, labels = _split_file_colors(args.pair)
    found = _distinguished(datum, _parse_pair_lattice(datum.group, path), labels)
    if found is None:
        return 1, {"distinguished": False}, None
    colored, quotient, result = found
    finite = result.witness.lattice
    payload = {
        "colored_subspace": {
            "basis": [[emit_rational(x) for x in row]
                      for row in colored.subspace.basis],
            "colors": sorted(colored.colors),
        },
        "quotient": datum_document(quotient),
        "finite_part": {
            "M": [emit_vector(datum.group, row) for row in finite.basis],
            "index": int(lattice_index(quotient.M, finite)),
        },
    }
    return 0, payload, None


def _cmd_enumerate_finite(datum, args):
    results = enumerate_finite_subdata(datum, args.bound)
    payload = {"count": len(results), "subdata": []}
    for sd in results:
        payload["subdata"].append({
            "index": int(lattice_index(datum.M, sd.datum.M)),
            "datum": datum_document(sd.datum),
            "violations": violations_payload(sd.violations),
        })
    return 0, payload, None


def _cmd_is_subdatum(datum, args, other: LunaDatum):
    witness = is_subdatum(other, datum)
    if witness is None:
        return 1, {"is_subdatum": False, "witness": None}, None
    payload = {
        "is_subdatum": True,
        "witness": {
            "M": [emit_vector(datum.group, row) for row in witness.lattice.basis],
            "colors": sorted(witness.colors),
        },
    }
    return 0, payload, None


def _cmd_spherical_roots(group: RootDatum, args):
    roots = spherical_roots_of_group(group)
    payload = {"count": len(roots), "roots": []}
    for r in roots:
        payload["roots"].append({
            "gamma": emit_vector(group, r.gamma),
            "row": r.row.name,
            "lambda": emit_rational(r.lam),
            "spp": _root_names(group, r.spp),
        })
    return 0, payload, None


_DATUM_COMMANDS = {
    "validate": _cmd_validate,
    "colors": _cmd_colors,
    "valuation-cone": _cmd_valuation_cone,
    "connected": _cmd_connected,
    "distinguished-roots": _cmd_distinguished_roots,
    "normalizer": _cmd_normalizer,
    "identity-component": _cmd_identity_component,
    "quotient": _cmd_quotient,
    "check-colored-subspace": _cmd_check_colored_subspace,
    "check-pair": _cmd_check_pair,
    "subdatum": _cmd_subdatum,
    "stein": _cmd_stein,
    "enumerate-finite": _cmd_enumerate_finite,
}


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lunadata",
        description="Exact computations with Luna data of spherical subgroups.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="datum file (JSON)")
    parser.add_argument("other", nargs="?", default=None,
                        help="second datum file (is-subdatum: the candidate"
                             " subdatum is the first argument, the ambient"
                             " datum the second)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--bound", type=int, default=None,
                        help="index bound for enumerate-finite")
    parser.add_argument("--pair", default=None, metavar="M_FILE:COLORS",
                        help="lattice file and comma-separated color labels")
    parser.add_argument("--subspace", default=None, metavar="FILE:COLORS",
                        help="subspace file and comma-separated color labels")
    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        if args.command in ("quotient", "check-colored-subspace"):
            _require_flag(args, "subspace")
        if args.command in ("check-pair", "subdatum", "stein"):
            _require_flag(args, "pair")
        if args.command == "enumerate-finite":
            _require_flag(args, "bound")
            if args.bound < 1:
                raise ParseError("--bound must be at least 1")

        document, raw = _load_json(args.input)
        digest = hashlib.sha256(raw).hexdigest()
        report = {"command": args.command,
                  "input": {"path": args.input, "sha256": digest}}

        if args.command == "spherical-roots":
            if isinstance(document, dict) and "group" in document:
                group = parse_group(document["group"])
            else:
                raise ParseError("datum document lacks a group")
            code, payload, derived = _cmd_spherical_roots(group, args)
        elif args.command == "is-subdatum":
            if args.other is None:
                raise ParseError("is-subdatum needs two datum files")
            _, candidate = parse_datum(document)
            other_doc, other_raw = _load_json(args.other)
            _, ambient = parse_datum(other_doc)
            code, payload, derived = (_guard_valid(ambient) or
                                      _cmd_is_subdatum(ambient, args, candidate))
        else:
            _, datum = parse_datum(document)
            handler = _DATUM_COMMANDS[args.command]
            code, payload, derived = (_guard_valid(datum) or
                                      handler(datum, args))
    except (ParseError, PairError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    report["result"] = payload
    if derived is not None:
        report["derived"] = derived
    sys.stdout.write(emit(report, args.format))
    return code


def _require_flag(args, name):
    if getattr(args, name) is None:
        raise ParseError(f"this command requires --{name}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
