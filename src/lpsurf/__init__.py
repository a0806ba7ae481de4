"""Laurent-phenomenon seeds, anti-symmetric quivers, and surface flip machinery."""

from .build import LiftedTriangulation, double_cover, initial_quasi_triangulation
from .explorer import (
    ExchangeGraph,
    explore_flips,
    explore_seeds,
    export,
    flip_correspondence,
    verify_laurent,
)
from .lp_core import (
    InvalidSeed,
    LaurentViolation,
    LPSeed,
    MutationError,
    mutate,
    normalize,
    seed_from_json,
    seed_key,
    seed_to_json,
    seeds_equal,
    validate_seed,
)
from .poly import (
    ContextMismatch,
    PolyError,
    Polynomial,
    VariableContext,
    divide_exact,
    is_irreducible,
    parse_polynomial,
    strip_laurent_monomial,
)
from .surface import (
    MarkedSurface,
    QuasiTriangulation,
    SurfaceError,
    canonical_code,
    detect_m2,
    flip,
    new_quasi_arc,
    rank,
    seed_from_quasi_triangulation,
    surface_from_json,
    surface_to_json,
)

__all__ = [
    "ContextMismatch",
    "ExchangeGraph",
    "InvalidSeed",
    "LPSeed",
    "LaurentViolation",
    "LiftedTriangulation",
    "MarkedSurface",
    "MutationError",
    "PolyError",
    "Polynomial",
    "QuasiTriangulation",
    "Quiver",
    "SurfaceError",
    "VariableContext",
    "adjacency_quiver",
    "cancel_two_cycles",
    "canonical_code",
    "detect_m2",
    "divide_exact",
    "double_cover",
    "double_mutate",
    "exchange_polys",
    "explore_flips",
    "explore_seeds",
    "export",
    "flip",
    "flip_correspondence",
    "has_bad_path",
    "initial_quasi_triangulation",
    "is_irreducible",
    "lp_seed_from_quiver",
    "mutate",
    "mutate_vertex",
    "new_quasi_arc",
    "normalize",
    "parse_polynomial",
    "rank",
    "seed_from_json",
    "seed_from_quasi_triangulation",
    "seed_key",
    "seed_to_json",
    "seeds_equal",
    "strip_laurent_monomial",
    "surface_from_json",
    "surface_to_json",
    "validate_seed",
    "verify_laurent",
]

__version__ = "0.1.0"

# No command builds a quiver, so ``lpsurf.quiver`` is imported on first use
# of one of its names (PEP 562), not with the package.
_QUIVER_NAMES = {"Quiver", "adjacency_quiver", "cancel_two_cycles", "double_mutate",
                 "exchange_polys", "has_bad_path", "lp_seed_from_quiver", "mutate_vertex"}


def __getattr__(name: str):
    if name in _QUIVER_NAMES:
        from . import quiver

        return getattr(quiver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
