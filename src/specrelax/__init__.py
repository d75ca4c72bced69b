"""Finite-time spectral relaxation analysis for reversible Markov chains.

Builds and validates reversible kernels, evolves relaxation trajectories in
log-domain spectral coordinates, and exposes the exact finite-time machinery
that follows: the entropy ledger and its identities, rigidity times with
their closed-form bound, an observable power-iteration stopping rule,
Chebyshev suppression plans, and first-passage tail expansions for absorbing
chains.

The names below are exported lazily (PEP 562): `import specrelax` loads no
submodule, and `specrelax.X` imports the one module that defines X on first
use, so each command pays only for the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "accel": ("AccelPlan", "accelerated_spectrum", "build_Qm", "chebyshev_T"),
    "chains": ("ReversibleChain", "SpectralDecomposition", "Tolerances", "barbell_chain",
               "build_chain", "chain_spectrum", "complete_graph", "cycle_graph", "pi_inner",
               "spectral_decomposition"),
    "first_passage": ("AbsorbingModel", "absorb", "exponential_tail_bound",
                      "quasistationary_start", "restricted_stationary_start",
                      "spectral_tails", "tail_coefficients", "tail_curve", "uniform_start"),
    "power_iter": ("StoppingState", "eigenvector_error", "power_steps"),
    "rigidity": ("RigidityReport", "rigidity_bound", "rigidity_time"),
    "trajectory": ("LedgerBlock", "SpectralProfile", "hypercube_profile", "ledger_block",
                   "ledger_blocks", "profile_from_weights", "project_initial"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
