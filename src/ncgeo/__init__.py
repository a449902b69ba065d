"""Exact homological computations for the flip orbifold of a quantum torus.

The package works over the field of rational functions in a formal unit u
(lambda = u^2), so every result is exact and reproducible.  Layers, bottom
to top: scalars, the twisted torus algebra, its flip crossed product, the
two cochain complexes with their differentials, the linear-algebra engine
(kernel dimensions, coboundary membership, the degree-one trivialization
pipeline), and the pairing of projections against cyclic cocycles.
"""

from .scalars import (
    HALF,
    LAMBDA,
    MU,
    ONE,
    ZERO,
    PoleError,
    Scalar,
    format_scalar,
    lambda_pow,
    mu_pow,
    parse_scalar,
)
from .torus import U1, U2, TorusElement, u1, u2
from .crossed import (
    PROJECTION_NAMES,
    CrossedElement,
    ProjectionCheck,
    is_projection,
    make_projection,
)
from .cochains import (
    CochainPair,
    LatticeFunctional,
    alpha1,
    alpha2,
    make_D,
    site_key,
    twisted_alpha1,
    twisted_alpha2,
    twisted_pullback_deg0,
    twisted_pullback_deg2,
    untwisted_pullback_deg1,
    untwisted_pullback_deg2,
)
from .solver import (
    OPERATORS,
    NotACocycle,
    Operator,
    SolveReport,
    coboundary_solve,
    h1_trivialize,
    kernel_dimension,
)
from .pairing import (
    COLUMN_COCYCLES,
    COLUMNS,
    ConnesTwoCocycle,
    CyclicCocycle,
    NotAProjection,
    PairingTable,
    Trace,
    TwistedTrace,
    build_table,
    connes_torus_cocycle,
    evaluate,
    pair,
)

__version__ = "0.1.0"

__all__ = [
    "HALF",
    "LAMBDA",
    "MU",
    "ONE",
    "ZERO",
    "PoleError",
    "Scalar",
    "format_scalar",
    "lambda_pow",
    "mu_pow",
    "parse_scalar",
    "U1",
    "U2",
    "TorusElement",
    "u1",
    "u2",
    "PROJECTION_NAMES",
    "CrossedElement",
    "ProjectionCheck",
    "is_projection",
    "make_projection",
    "CochainPair",
    "LatticeFunctional",
    "alpha1",
    "alpha2",
    "make_D",
    "site_key",
    "twisted_alpha1",
    "twisted_alpha2",
    "twisted_pullback_deg0",
    "twisted_pullback_deg2",
    "untwisted_pullback_deg1",
    "untwisted_pullback_deg2",
    "OPERATORS",
    "NotACocycle",
    "Operator",
    "SolveReport",
    "coboundary_solve",
    "h1_trivialize",
    "kernel_dimension",
    "COLUMN_COCYCLES",
    "COLUMNS",
    "ConnesTwoCocycle",
    "CyclicCocycle",
    "NotAProjection",
    "PairingTable",
    "Trace",
    "TwistedTrace",
    "build_table",
    "connes_torus_cocycle",
    "evaluate",
    "pair",
    "__version__",
]
