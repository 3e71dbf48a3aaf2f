"""SCF solvers for composed matrix-trace maximization on the Stiefel manifold.

Two iteration frameworks are provided behind one objective representation:
a polar-decomposition SCF (``npdo_scf``/``npdo_locg``) that refactors the
Euclidean gradient each step, and an eigenvector SCF (``nepv_scf``/
``nepv_locg``) that re-solves a symmetric eigenproblem for a field H(P).
``stiefelscf.problems.build`` assembles the catalog objectives; the
``stiefelscf.diagnostics`` module holds independent oracles and trace audits;
``stiefel-scf run`` is the command-line harness.
"""

from .kernels import (
    PolarDecomposition,
    SpectralTopK,
    canonical_sin_theta,
    orthonormalize_against,
    polar_factor,
    random_stiefel,
    sym_part,
    top_k_eigenpairs,
    trace_norm,
)
from .objective import (
    AtomicTerm,
    ComposedObjective,
    FactoredField,
    NegativeBaseError,
    OuterFunction,
    ThetaRatioData,
    eval_atomic,
    grad_atomic,
    outer_ratio_squared,
    outer_sum,
    outer_theta_ratio,
    outer_weighted_sum,
)
from .alignment import (
    BlockOverlapError,
    PolarAlignment,
    align_rotation,
)
from .npdo import (
    IterationRecord,
    NpdoConfig,
    SolveReport,
    kkt_residuals,
    npdo_certificates,
    npdo_locg,
    npdo_scf,
)
from .nepv import (
    NepvConfig,
    nepv_certificates,
    nepv_locg,
    nepv_residual,
    nepv_scf,
)
from .problems import (
    MLifting,
    ProblemSpec,
    build,
    build_procrustes_ls,
    generalized_kkt_residual,
    lift_m_orthogonal,
    m_orthogonality_drift,
)
from .diagnostics import (
    SizeTooLargeForOracle,
    brute_force_oracle,
    gradient_check,
    monotonicity_audit,
    series_audit,
    theta_step_audit,
)

__version__ = "0.1.0"
