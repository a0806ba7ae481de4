"""Laurent-phenomenon seeds and surface flip machinery.

The anti-symmetric quivers live in :mod:`lpsurf.quiver`, which no command
imports; import their names from there.
"""

from .build import LiftedTriangulation, double_cover, initial_quasi_triangulation
from .explorer import (
    ExchangeGraph,
    explore_flips,
    explore_seeds,
    export,
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
    canonical_form,
    detect_m2,
    flip,
    new_quasi_arc,
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
    "SurfaceError",
    "VariableContext",
    "canonical_code",
    "canonical_form",
    "detect_m2",
    "divide_exact",
    "double_cover",
    "explore_flips",
    "explore_seeds",
    "export",
    "flip",
    "initial_quasi_triangulation",
    "is_irreducible",
    "mutate",
    "new_quasi_arc",
    "normalize",
    "parse_polynomial",
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
