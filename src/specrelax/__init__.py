"""Finite-time spectral relaxation analysis for reversible Markov chains.

Builds and validates reversible kernels, evolves relaxation trajectories in
log-domain spectral coordinates, and exposes the exact finite-time machinery
that follows: per-step dissipation identities, rigidity times with two-sided
bounds, an entropy ledger with its balance law and second-law functional,
observable power-iteration stopping rules, Chebyshev suppression plans, and
first-passage tail expansions for absorbing chains.
"""

from .accel import (
    AccelPlan,
    accelerated_profile_step,
    accelerated_rigidity_bound,
    accelerated_spectrum,
    build_Qm,
    chebyshev_T,
    minimax_verify,
    momentum_beta_star,
    momentum_roots,
)
from .chains import (
    HypercubeProfile,
    ReversibleChain,
    SpectralDecomposition,
    Tolerances,
    barbell_chain,
    build_chain,
    chain_from_spectrum,
    chain_spectrum,
    complete_graph,
    cycle_graph,
    dirichlet_form,
    hypercube_profile,
    lazy_transform,
    pi_inner,
    spectral_decomposition,
)
from .first_passage import (
    AbsorbingModel,
    absorb,
    exponential_tail_bound,
    fpt_tail,
    quasistationary_start,
    restricted_stationary_start,
    tail_coefficients,
    uniform_start,
)
from .power_iter import (
    StoppingState,
    adaptive_stop,
    alpha_bounds_from_variance,
    eigenvector_error,
    error_identity,
    gamma,
    observable_variance,
    power_steps,
)
from .rigidity import (
    RigidityReport,
    RigidityVerdict,
    closure_bound,
    detect_rigid,
    rigidity_bound_L,
    rigidity_time,
    slow_fraction,
)
from .thermo import (
    G_step,
    canonical_covariance,
    clausius_check,
    entropy_balance,
    entropy_decomposition,
    fdt_check,
    general_threshold,
    spectral_entropy,
    two_mode_transition,
)
from .trajectory import (
    LedgerBlock,
    ModalLedger,
    SpectralProfile,
    dissipation_step,
    hypercube_trajectory,
    ledger_at,
    ledger_block,
    ledger_blocks,
    matrix_oracle_step,
    profile_from_weights,
    project_initial,
    transport_residual,
)

__version__ = "0.1.0"
