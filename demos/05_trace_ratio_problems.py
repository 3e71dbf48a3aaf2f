"""Trace-ratio objectives: discriminant analysis, orthogonal CCA, and the
full exponent family (tr(P'AP + P'D)) / tr(P'BP)^theta.

These are not convex compositions, so they run through a dedicated field
recipe; the alignment rotation (polar factor of Phat'D) both restores
feasibility P'D >= 0 and buys extra ascent, quantified by a per-step
inequality the audit replays from the trace.
"""

import numpy as np

from stiefelscf import (
    ProblemSpec,
    build,
    nepv_scf,
    random_stiefel,
    theta_step_audit,
)


def make_psd(n, seed, shift=0.0):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g @ g.T / n + shift * np.eye(n)


n, k = 10, 2
rng = np.random.default_rng(0)
A = make_psd(n, 1, 0.3)
B = make_psd(n, 2, 1.0)
D = 0.5 * rng.standard_normal((n, k))

for theta in (0.0, 0.3, 0.5, 1.0):
    obj = build(ProblemSpec("theta_tr", n, k, {"A": A, "B": B, "D": D},
                            theta=theta))
    rep = nepv_scf(obj, random_stiefel(n, k, 3))
    audit = theta_step_audit(rep, B, D, theta)
    print(f"theta = {theta:3.1f}: f = {rep.f_final:10.6f} "
          f"in {rep.num_iterations:3d} iterations, "
          f"worst per-step slack = {audit['worst_slack']: .2e}")

# The named specializations are the endpoints of the family.
olda = build(ProblemSpec("olda", n, k, {"A": A, "B": B}))
occa = build(ProblemSpec("occa", n, k, {"B": B, "D": D}))
rep_olda = nepv_scf(olda, random_stiefel(n, k, 4))
rep_occa = nepv_scf(occa, random_stiefel(n, k, 5))
print(f"\ndiscriminant ratio (theta=1, D=0): f = {rep_olda.f_final:.6f}")
print(f"orthogonal CCA    (theta=1/2, A=0): f = {rep_occa.f_final:.6f}")

# At the solution P'D is symmetric PSD: the feasible set the theory needs.
S = rep_occa.point.T @ D
print("\nP'D at the CCA solution (symmetric PSD):\n", np.round(S, 6))
print("eigenvalues:", np.round(np.linalg.eigvalsh(0.5 * (S + S.T)), 6))
