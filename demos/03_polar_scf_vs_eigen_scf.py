"""The two SCF routes on the same problem: polar factor vs eigenvector.

The polar route refactors the n-by-k gradient each step; the eigenvector
route re-solves a symmetric n-by-n eigenproblem for the field H(P).  On the
additive subproblem max tr(P'AP + P'D) with A >= 0 both ascend monotonically
to the same certified point; with an indefinite A only the eigenvector route
keeps its guarantee.
"""

import numpy as np

from stiefelscf import (
    ProblemSpec,
    build,
    nepv_certificates,
    nepv_scf,
    npdo_certificates,
    npdo_scf,
    random_stiefel,
)


def make_psd(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g @ g.T / n


n, k = 20, 3
rng = np.random.default_rng(0)
obj = build(ProblemSpec("mbsub", n, k, {
    "A": make_psd(n, 1), "D": rng.standard_normal((n, k))}))
P0 = random_stiefel(n, k, 2)

polar_rep = npdo_scf(obj, P0)
eigen_rep = nepv_scf(obj, P0)

print(f"polar SCF : f = {polar_rep.f_final:.10f} in {polar_rep.num_iterations} iterations")
print(f"eigen SCF : f = {eigen_rep.f_final:.10f} in {eigen_rep.num_iterations} iterations")

print("\nfirst five f values along each trace:")
print("  polar:", [round(r.f, 6) for r in polar_rep.iterations[:5]])
print("  eigen:", [round(r.f, 6) for r in eigen_rep.iterations[:5]])

# The certificates are a function of a point: evaluate each route's at the
# point its solve returned.
print("\npolar certificates:")
polar_certs = npdo_certificates(obj, polar_rep.point)
for key in ("lambda_min_of_multiplier", "eps_kkt", "eps_sym",
            "alignment_psd_margin"):
    print(f"  {key:26s} {polar_certs[key]: .3e}")
print("eigen certificates:")
eigen_certs = nepv_certificates(obj, eigen_rep.point)
for key in ("omega_vs_topk_max_dev", "mismatch_asymmetry", "eps_nepv",
            "alignment_psd_margin"):
    print(f"  {key:26s} {eigen_certs[key]: .3e}")

# Indefinite quadratic part: the eigenvector route still ascends and
# certifies; the polar route carries no guarantee here.
A_ind = 0.5 * (rng.standard_normal((n, n)) + rng.standard_normal((n, n)).T)
A_ind = 0.5 * (A_ind + A_ind.T)
obj_ind = build(ProblemSpec("mbsub", n, k, {
    "A": A_ind, "D": rng.standard_normal((n, k))}))
rep = nepv_scf(obj_ind, P0)
fs = [rep.f_initial] + [r.f for r in rep.iterations]
print(f"\nindefinite A via eigen SCF: converged={rep.converged}, "
      f"monotone={all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))}")
