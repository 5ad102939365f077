"""Rank varieties of totally acyclic complexes over generic hypersurface
rings, computed through matrix factorizations in exact arithmetic."""

from .complexes import (
    PeriodicComplex,
    ValidationReport,
    cone_mul,
    direct_sum,
    dual,
    periodic_from_pair,
    shamash_resolution,
    shift,
    trivial_pair,
    validate_pair,
)
from .fields import (
    ExtensionField,
    PrimeField,
    QQ,
    RationalField,
    finite_field,
    make_extension,
    parse_field,
    prime_field,
)
from .parser import parse_poly
from .pipelines import (
    RealizationTrace,
    complete_resolution_of_k,
    fixture_k,
    fixture_rank_one,
    module_variety,
    realize,
    reproduce_examples,
    worked_ring,
)
from .poly import Poly, PolyRing
from .ring import RingSpec, lift_point, make_ring, specialize
from .variety import (
    IdealGens,
    ProjPoint,
    ZeroSetUnion,
    contractible_at,
    critical_images,
    enumerate_points,
    is_empty,
    membership,
    minor_ideal_image,
    preimage_independence_check,
    proj_point,
    rank_over_R,
    rank_variety,
    ranks_over_R,
)

__version__ = "0.1.0"
