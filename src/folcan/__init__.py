"""Exact-arithmetic numerical invariants of foliated surfaces.

Every value is exact (no float), nothing is random, and equal inputs give byte-identical documents.
"""

from .baskets import (
    Basket,
    LocalProfile,
    SingularityKind,
    SizeBoundVerdict,
    basket_size_bound,
    basket_term,
    basket_uses_extrapolation,
    cusp,
    dihedral_half,
    dihedral_zero,
    local_term,
    q_index,
    terminal_cyclic,
    uses_extrapolation,
)
from .bounds import (
    BoundReport,
    EnumeratedFunction,
    EnumerationQuery,
    ample_divisor_numerics,
    basket_alphabet,
    enumerate_baskets,
    enumerate_hilbert,
    km_envelope,
    kx2_bounds,
)
from .constructions import (
    AbelianCoverInput,
    ConstructionReport,
    FibrationNumbers,
    RuledCoverInput,
    abelian_double_cover,
    fibration_identities,
    riemann_hurwitz,
    ruled_double_cover,
    to_model_numerics,
)
from .errors import (
    DimensionMismatch,
    DocumentError,
    FolcanError,
    InvalidInput,
    InvalidOverride,
    JsonParseError,
    NegativeGenus,
    NonIntegralGenus,
    NonPositiveVolume,
    NotIntegral,
    NotNegativeDefinite,
    SingularMatrix,
)
from .exact_core import (
    HodgeVerdict,
    SymmetricPairing,
    format_rational,
    hodge_check,
    is_negative_definite,
    parse_rational,
    signature,
    solve_linear,
)
from .riemann_roch import (
    HilbertFunction,
    ModelNumerics,
    hilbert_table,
    hilbert_value,
    integrality_check,
    integrality_window,
    second_difference_check,
    to_hilbert_function,
)
from .surface_model import (
    AmplitudeVerdict,
    ResolutionData,
    SurfaceModel,
    mumford_pullback,
    nef_check,
    numerical_amplitude_check,
    validate_resolution,
    weil_intersect,
)

__version__ = "0.1.0"
