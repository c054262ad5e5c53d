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
import re
import sys
from collections.abc import Sequence
from fractions import Fraction as Q

from .containment import (
    ColoredSubspace,
    DistinguishedPair,
    PairError,
    distinguished_roots,
    distinguished_roots_rank_one_variant,
    enumerate_finite_subdata,
    identity_component_datum,
    is_colored_subspace,
    is_subdatum,
    normalizer_datum,
    quotient_datum,
    stein_decompose,
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
    # ASCII "p" or "p/q" only: Fraction also reads decimals, exponents,
    # underscores and non-ASCII digits, and "1e10000000" takes seconds
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
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


def _root_names(indices) -> list:
    return sorted(f"a{i + 1}" for i in indices)


def _indices_from_names(group: RootDatum, names) -> frozenset:
    """Simple-root indices of names spelled exactly as emitted: a1 .. aN."""
    simple = {f"a{i + 1}": i for i in range(group.num_simple_roots)}
    out = set()
    for name in names:
        if not isinstance(name, str) or name not in simple:
            raise ParseError(f"not a simple-root name: {name!r}")
        out.add(simple[name])
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
        label, rho = entry["label"], entry["rho"]
        # --pair and --subspace split FILE:COLORS at the last ':' and the
        # labels at ','; an empty label could never be chosen there
        if isinstance(label, str) and (not label or "," in label or ":" in label):
            raise ParseError(f"color label {label!r} is empty or holds ',' or ':'")
        if not isinstance(rho, list):
            raise ParseError("rho must be a list of rationals")
        colors.append((label, tuple(parse_rational(x) for x in rho)))
    try:
        datum = luna_datum(group, m_rows, sigma, sp, colors)
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
        "Sp": _root_names(datum.Sp),
        "Da": [{"label": c.label, "rho": [emit_rational(x) for x in c.rho]}
               for c in datum.Da],
    }


def _preset_name(group: RootDatum) -> str | None:
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
    return [{"label": c.label, "type": c.ctype,
             "moved": _root_names(c.moved),
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
    # ValueError covers JSONDecodeError and integer literals past the
    # int-string limit; RecursionError covers nesting that is too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None


def _read_pair(datum: LunaDatum, value: str) -> DistinguishedPair:
    path, labels = _split_file_colors(value)
    document, _ = _load_json(path)
    if not isinstance(document, dict) or "M" not in document:
        raise ParseError(f"{path} must be an object with an 'M' key")
    rows = [parse_vector(datum.group, v) for v in _as_list(document, "M")]
    return DistinguishedPair(Sublattice.from_rows(datum.group.rank, rows), labels)


def _read_subspace(datum: LunaDatum, value: str) -> ColoredSubspace:
    path, labels = _split_file_colors(value)
    document, _ = _load_json(path)
    if not isinstance(document, dict) or "basis" not in document:
        raise ParseError(f"{path} must be an object with a 'basis' key")
    rows = []
    for row in _as_list(document, "basis"):
        if not isinstance(row, list) or len(row) != datum.rank:
            raise ParseError(
                f"subspace rows must have length {datum.rank} (rank of M)")
        rows.append(tuple(parse_rational(x) for x in row))
    return ColoredSubspace(Subspace.from_rows(datum.rank, rows), labels)


_READERS = {"pair": _read_pair, "subspace": _read_subspace}


# ---------------------------------------------------------------------------
# Command implementations: each takes the datum (the group, for a command
# that reads only the group) and what it reads, and returns
# (exit_code, payload, derived or None)
# ---------------------------------------------------------------------------

def _guard_valid(datum: LunaDatum):
    """The negative report for an invalid datum, or None for a valid one."""
    bad = validate(datum)
    if bad:
        return 1, {"valid": False, "violations": violations_payload(bad)}, None
    return None


def _cmd_validate(datum, _):
    return 0, {"valid": True, "violations": []}, derived_payload(datum)


def _cmd_colors(datum, _):
    return 0, {"colors": colors_payload(datum)}, None


def _cmd_valuation_cone(datum, _):
    return 0, {"valuation_cone": cone_payload(valuation_cone(datum))}, None


def _cmd_connected(datum, _):
    # H is connected exactly when its identity component has the same M
    closure = identity_component_datum(datum).M
    payload = {
        "connected": closure == datum.M,
        "saturation": [emit_vector(datum.group, row) for row in closure.basis],
    }
    return (0 if payload["connected"] else 1), payload, None


def _cmd_distinguished_roots(datum, _):
    primary = distinguished_roots(datum)
    variant = distinguished_roots_rank_one_variant(datum)
    payload = {
        "distinguished": [emit_vector(datum.group, g) for g in sorted(primary)],
        "rank_one_variant": [emit_vector(datum.group, g) for g in sorted(variant)],
        "definitions_agree": primary == variant,
    }
    return 0, payload, None


def _datum_report(result: LunaDatum):
    return 0, {"datum": datum_document(result)}, derived_payload(result)


def _cmd_normalizer(datum, _):
    return _datum_report(normalizer_datum(datum))


def _cmd_identity_component(datum, _):
    return _datum_report(identity_component_datum(datum))


def _cmd_quotient(datum, colored: ColoredSubspace):
    result = quotient_datum(datum, colored)
    if result is None:
        return 1, {"colored": False}, None
    return _datum_report(result)


def _cmd_check_colored_subspace(datum, colored: ColoredSubspace):
    ok = is_colored_subspace(datum, colored.subspace, colored.colors)
    return (0 if ok else 1), {"colored": ok}, None


def _cmd_check_pair(datum, pair: DistinguishedPair):
    found = stein_decompose(datum, pair)
    ok = found is not None
    payload = {
        "distinguished": ok,
        # the quotient lives on the saturation of the lattice in M
        "colored_subspace_pair": ok and found.quotient.M == found.subdatum.datum.M,
        # S has full rank exactly when S^perp is 0
        "distinguished_subgroup_pair": ok and not found.colored.colors and
        not found.colored.subspace.dim,
    }
    return (0 if ok else 1), payload, None


def _cmd_subdatum(datum, pair: DistinguishedPair):
    found = stein_decompose(datum, pair)
    if found is None:
        return 1, {"distinguished": False}, None
    result = found.subdatum
    payload = {
        "datum": datum_document(result.datum),
        "violations": violations_payload(result.violations),
    }
    derived = derived_payload(result.datum) if not result.violations else None
    return 0, payload, derived


def _cmd_stein(datum, pair: DistinguishedPair):
    found = stein_decompose(datum, pair)
    if found is None:
        return 1, {"distinguished": False}, None
    finite = found.subdatum.witness.lattice
    payload = {
        "colored_subspace": {
            "basis": [[emit_rational(x) for x in row]
                      for row in found.colored.subspace.basis],
            "colors": sorted(found.colored.colors),
        },
        "quotient": datum_document(found.quotient),
        "finite_part": {
            "M": [emit_vector(datum.group, row) for row in finite.basis],
            "index": int(lattice_index(found.quotient.M, finite)),
        },
    }
    return 0, payload, None


def _cmd_enumerate_finite(datum, bound):
    results = enumerate_finite_subdata(datum, bound)
    payload = {"count": len(results), "subdata": []}
    for sd in results:
        payload["subdata"].append({
            "index": int(lattice_index(datum.M, sd.datum.M)),
            "datum": datum_document(sd.datum),
            "violations": violations_payload(sd.violations),
        })
    return 0, payload, None


def _cmd_is_subdatum(datum, candidate: LunaDatum):
    witness = is_subdatum(candidate, datum)
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


def _cmd_spherical_roots(group: RootDatum, _):
    roots = spherical_roots_of_group(group)
    payload = {"count": len(roots), "roots": []}
    for r in roots:
        payload["roots"].append({
            "gamma": emit_vector(group, r.gamma),
            "row": r.row.name,
            "lambda": emit_rational(r.lam),
            "spp": _root_names(r.spp),
        })
    return 0, payload, None


# Every command, in the order of the usage line, with what it reads besides
# its datum file: None, a flag (subspace, pair or bound), other (the ambient
# datum file of is-subdatum) or group (only the group of its file).  A pair
# or subspace flag reaches the command as the record its reader builds.
_COMMANDS = {
    "validate": (None, _cmd_validate),
    "colors": (None, _cmd_colors),
    "valuation-cone": (None, _cmd_valuation_cone),
    "spherical-roots": ("group", _cmd_spherical_roots),
    "normalizer": (None, _cmd_normalizer),
    "identity-component": (None, _cmd_identity_component),
    "connected": (None, _cmd_connected),
    "distinguished-roots": (None, _cmd_distinguished_roots),
    "quotient": ("subspace", _cmd_quotient),
    "check-colored-subspace": ("subspace", _cmd_check_colored_subspace),
    "check-pair": ("pair", _cmd_check_pair),
    "subdatum": ("pair", _cmd_subdatum),
    "enumerate-finite": ("bound", _cmd_enumerate_finite),
    "is-subdatum": ("other", _cmd_is_subdatum),
    "stein": ("pair", _cmd_stein),
}
COMMANDS = tuple(_COMMANDS)


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
        reads, handler = _COMMANDS[args.command]
        value = vars(args).get(reads)
        if args.other is not None and reads != "other":
            raise ParseError(f"{args.command} takes one datum file")
        if value is None and reads in ("subspace", "pair", "bound"):
            raise ParseError(f"this command requires --{reads}")
        if reads == "bound" and value < 1:
            raise ParseError("--bound must be at least 1")

        document, raw = _load_json(args.input)
        digest = hashlib.sha256(raw).hexdigest()
        report = {"command": args.command,
                  "input": {"path": args.input, "sha256": digest}}

        if reads == "group":
            if not isinstance(document, dict) or "group" not in document:
                raise ParseError("datum document lacks a group")
            code, payload, derived = handler(parse_group(document["group"]), None)
        else:
            if reads == "other" and value is None:
                raise ParseError(f"{args.command} needs two datum files")
            _, datum = parse_datum(document)
            if reads == "other":
                # the first file is the candidate, the second the ambient datum
                value, datum = datum, parse_datum(_load_json(value)[0])[1]
            # a flag file is read only once its datum validates
            read = _READERS.get(reads)
            code, payload, derived = (_guard_valid(datum) or handler(
                datum, read(datum, value) if read else value))
    except (ParseError, PairError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    report["result"] = payload
    if derived is not None:
        report["derived"] = derived
    sys.stdout.write(emit(report, args.format))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
