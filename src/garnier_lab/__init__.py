"""Numerical laboratory for 2x2 Schlesinger systems, the Garnier-Okamoto and
polynomial Garnier flows, their coordinate bridges, and finite-difference
verification of the linear PDE systems their wavefunctions satisfy."""

from .errors import (
    BranchAmbiguity,
    ConditionIIIViolated,
    ConditionIVViolated,
    ConfigInvalid,
    DegenerateJacobian,
    DegenerateQuadratic,
    DiagonalCollision,
    GarnierLabError,
    InfeasibleTheta,
    NearSingularPhi,
    NotOnReduction,
    PathViolation,
    PoleEvaluation,
    ReductionLocus,
    ResonantInfinity,
    SingularityApproach,
    StencilFailure,
    TimeCollision,
    ZeroGauge,
)
from .numerics import FDScheme, PathPlan, fd_derivative, ode_integrate, quad_roots
from .schlesinger import (
    SchlesingerState,
    ThetaGO,
    connection_matrix,
    gen_schlesinger_b,
    integrate_schlesinger,
    schlesinger_rhs,
    shift_normalization,
    tau_logderiv,
)
from .garnier_okamoto import (
    GOState,
    extract_go,
    extract_lambda,
    extract_mu,
    garx_coefficients,
    go_vector_field,
    hamiltonian_K,
    integrate_go,
)
from .poly_garnier import (
    PGState,
    PVIState,
    ThetaPG,
    ahat_matrices,
    bridge_lambda_from_q,
    bridge_q_from_lambda,
    elem_a,
    gen_pg,
    hamiltonian_HGar,
    integrate_pg,
    mu_p_relations,
    pg_rhs_explicit,
    pvi_reduce,
    to_schlesinger,
    u_logderiv,
)
from .quantization import (
    AlphaBeta,
    Frame,
    ResidualReport,
    bpz_residual,
    garx_residual,
    kevol_residual,
    quantized_pg_residual,
    solve_alpha_beta,
    write_residual_csv,
    zero_curvature_loop,
    zeta_eta_inverse,
    zeta_eta_map,
)

__version__ = "0.1.0"
