"""The public names of the package, pinned so that one is removed on purpose."""

from __future__ import annotations

import lunadata

PUBLIC = [
    "Color", "ColorRecord", "ColoredSubspace", "Cone", "DatumStructureError",
    "DiagramComponent", "DistinguishedPair", "DynkinSubdiagram",
    "InvalidDatumError", "LunaDatum", "PairError", "RootDatum", "Subdatum",
    "Sublattice", "Subspace", "Violation", "build_root_datum", "compatible",
    "containment", "datum_equal", "distinguished_roots",
    "distinguished_roots_rank_one_variant", "enumerate_finite_subdata",
    "full_colors", "hnf", "identity_component_datum", "in_root_lattice",
    "integer_geometry", "is_colored_subspace", "is_connected", "is_d_saturated",
    "is_distinguished_pair", "is_subdatum", "lattice_index", "luna_core",
    "luna_datum", "match_spherical_root", "normalizer_datum", "pairing",
    "preset", "preset_names", "primitive_ray_generator", "quotient_datum",
    "root_datum", "saturation", "snf", "spherical_roots_of_group",
    "stein_decompose", "subdatum", "subdiagram", "sublattices_of_index",
    "support", "validate", "valuation_cone",
]


def test_public_names_are_pinned():
    assert sorted(lunadata.__all__) == PUBLIC
