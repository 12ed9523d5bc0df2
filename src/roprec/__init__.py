"""Low-rank matrix recovery from rank-one projection measurements.

Library plus batch CLI for Schatten-p minimization, least-q minimization on
the Schatten-p sphere, PhaseLift least-absolute-deviation recovery, and
empirical certification of restricted-uniform-boundedness recovery
conditions.
"""

from .linalg import (
    SingularDecomposition,
    RankSplit,
    svd,
    schatten_norm,
    rank_split,
    frobenius_inner,
    spectahedron_project,
)
from .measure import (
    RopEnsemble,
    NoiseSpec,
    sample_gaussian_rop,
    apply_map,
    adjoint_map,
    debias,
    explicit_operator,
    generate_noise,
    check_feasible,
)
from .solvers import (
    SolverConfig,
    RecoveryReport,
    schatten_p_minimize,
    least_q_minimize,
    phaselift_lad,
    nuclear_norm_baseline,
)
from .certify import (
    RubEstimate,
    NspConstants,
    estimate_rub,
    check_exact_condition,
    check_general_condition,
    rip_from_rub,
    rub_from_rip,
    rip_corollary_order,
    check_rip_corollary,
    nsp_from_rub,
    stability_bound_schatten,
    stability_bound_least_q,
    nsp_error_bound,
)

__all__ = [
    "SingularDecomposition",
    "RankSplit",
    "svd",
    "schatten_norm",
    "rank_split",
    "frobenius_inner",
    "spectahedron_project",
    "RopEnsemble",
    "NoiseSpec",
    "sample_gaussian_rop",
    "apply_map",
    "adjoint_map",
    "debias",
    "explicit_operator",
    "generate_noise",
    "check_feasible",
    "SolverConfig",
    "RecoveryReport",
    "schatten_p_minimize",
    "least_q_minimize",
    "phaselift_lad",
    "nuclear_norm_baseline",
    "RubEstimate",
    "NspConstants",
    "estimate_rub",
    "check_exact_condition",
    "check_general_condition",
    "rip_from_rub",
    "rub_from_rip",
    "rip_corollary_order",
    "check_rip_corollary",
    "nsp_from_rub",
    "stability_bound_schatten",
    "stability_bound_least_q",
    "nsp_error_bound",
]
