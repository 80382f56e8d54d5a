"""Heat-kernel moments on shifted spheres of radius sqrt(N).

The sphere operators as exact symbolic rules on polynomials, an
eigen-polynomial closed-form route, Monte Carlo simulation, the limiting
Gaussian law, and spectral checks of the underlying 1-D parabolic
equations, all cross-validating one another.
"""

from .eigenmethod import (
    eigen_poly,
    eigen_poly_at_sqrtN,
    monomial_in_eigenbasis,
    t0_exact,
    t0_series,
)
from .gaussian_limit import (
    LimitKernelParams,
    classical_limit_check,
    gaussian_moment,
    limit_density,
    marginal_compatibility,
    var_first,
    var_rest,
)
from .heatop import (
    MomentResult,
    heat_apply_matexp,
    heat_moment,
    heat_moment_monomial,
    heat_moments,
)
from .operators import (
    OperatorMatrix,
    SphereConfig,
    build_D,
    build_E,
    build_hermite_limit,
    build_sphere_laplacian,
)
from .polyalg import BasisIndexer, Polynomial, shift_first_variable
from .sphere_mc import McConfig, McEstimate, mc_moment

__version__ = "0.1.0"

__all__ = [
    "BasisIndexer",
    "LimitKernelParams",
    "McConfig",
    "McEstimate",
    "MomentResult",
    "OperatorMatrix",
    "Polynomial",
    "SphereConfig",
    "build_D",
    "build_E",
    "build_hermite_limit",
    "build_sphere_laplacian",
    "classical_limit_check",
    "eigen_poly",
    "eigen_poly_at_sqrtN",
    "gaussian_moment",
    "heat_apply_matexp",
    "heat_moment",
    "heat_moment_monomial",
    "heat_moments",
    "limit_density",
    "marginal_compatibility",
    "mc_moment",
    "monomial_in_eigenbasis",
    "shift_first_variable",
    "t0_exact",
    "t0_series",
    "var_first",
    "var_rest",
]
