"""Exact combinatorics of spherical subgroups.

The library represents a spherical subgroup by its Luna datum, validates the
defining axioms, recovers the full set of colors and the valuation cone, and
computes every derived datum used to compare subgroups: normalizers,
quotients by colored subspaces, distinguished pairs and their subdata, Stein
decompositions, bounded enumeration of finite-quotient subdata, identity
components, and the connectedness test.  All arithmetic is exact.
"""

from .containment import (
    ColoredSubspace,
    DistinguishedPair,
    PairError,
    SteinDecomposition,
    Subdatum,
    distinguished_roots,
    distinguished_roots_rank_one_variant,
    enumerate_finite_subdata,
    identity_component_datum,
    is_colored_subspace,
    is_connected,
    is_d_saturated,
    is_distinguished_pair,
    is_subdatum,
    normalizer_datum,
    quotient_datum,
    stein_decompose,
    subdatum,
    sublattices_of_index,
)
from .integer_geometry import (
    Cone,
    Sublattice,
    Subspace,
    hnf,
    lattice_index,
    primitive_ray_generator,
    saturation,
    snf,
)
from .luna_core import (
    Color,
    ColorRecord,
    DatumStructureError,
    InvalidDatumError,
    LunaDatum,
    Violation,
    compatible,
    datum_equal,
    full_colors,
    luna_datum,
    match_spherical_root,
    spherical_roots_of_group,
    validate,
    valuation_cone,
)
from .root_datum import (
    DiagramComponent,
    DynkinSubdiagram,
    RootDatum,
    build_root_datum,
    in_root_lattice,
    pairing,
    preset,
    preset_names,
    subdiagram,
    support,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
