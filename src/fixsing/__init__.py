"""Singular integral equations with two fixed endpoint singularities.

The characteristic operator couples a moving Cauchy-type singularity with
fixed singularities pinned at both endpoints of (0, 1).  This package
provides its closed-form inverses and solvability conditions across every
regime of the coupling parameter beta, the generalized spectral basis that
diagonalizes the operator onto shifted cosines for 0 < |beta| < 1, a
Galerkin solver for complete equations with a regular kernel, the pure
Cauchy-kernel solver it routes beta = 0 to, principal-value oracles for
independent verification, and the antiplane / plane-strain crack kernels
of a composite plane as ready-made applications.
"""

from .regimes import (Regime, RegimeKind, Branch, EndpointAsymptotics,
                      classify, solvability_weight, solvability_functional,
                      inverse_characteristic, endpoint_asymptotics)
from .spectral import (SpectralBasis, build_basis, basis_from_rho1,
                       N_coeff, M_coeff, J_integral,
                       characteristic_series_solve, quadratic_load_constant,
                       tan_moment_sequence)
from .complete import (KernelSpec, SolveConfig, Solution, SingularSystemError,
                       fourier_load_coeffs, kernel_matrix, solve)
from .kernels import (AntiplaneParams, PlaneStrainParams, NoBracketError,
                      ContrastLimitError, antiplane_D, antiplane_kernel,
                      plane_strain_coeffs, lambda_fn, gamma0_root,
                      plane_strain_kernel)
from .cauchy import (CauchyBasis, cauchy_inverse, cauchy_solve,
                     u_weighted_cauchy_transform)
from .oracle import PVRule, apply_S, apply_K, full_residual

__version__ = "0.1.0"

__all__ = [
    "Regime", "RegimeKind", "Branch", "EndpointAsymptotics", "classify",
    "solvability_weight", "solvability_functional", "inverse_characteristic",
    "endpoint_asymptotics",
    "SpectralBasis", "build_basis", "basis_from_rho1", "N_coeff", "M_coeff",
    "J_integral", "characteristic_series_solve",
    "quadratic_load_constant", "tan_moment_sequence",
    "KernelSpec", "SolveConfig", "Solution", "SingularSystemError",
    "fourier_load_coeffs", "kernel_matrix", "solve",
    "AntiplaneParams", "PlaneStrainParams", "NoBracketError",
    "ContrastLimitError", "antiplane_D",
    "antiplane_kernel", "plane_strain_coeffs", "lambda_fn", "gamma0_root",
    "plane_strain_kernel",
    "CauchyBasis", "cauchy_inverse", "cauchy_solve",
    "u_weighted_cauchy_transform",
    "PVRule", "apply_S", "apply_K", "full_residual",
    "__version__",
]
