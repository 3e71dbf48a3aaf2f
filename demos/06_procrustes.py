"""Orthogonal least squares min ||CP - B||_F^2 as a trace maximization.

Expanding the square gives ||CP - B||^2 = ||B||^2 - [tr(P'(-C'C)P)
+ tr(P' 2C'B)], an additive subproblem with a negative-semidefinite
quadratic part -- exactly the case the eigenvector SCF handles.  The
objective keeps neither C nor B; holding them, we check the equivalence at
every iterate with the constant offset ||B||^2.
"""

import numpy as np

from stiefelscf import (
    build_procrustes_ls,
    nepv_scf,
    polar_factor,
    random_stiefel,
)

rng = np.random.default_rng(0)

# Unbalanced case: project 8-dimensional data through a 5-by-2 frame.
C = rng.standard_normal((8, 5))
B = rng.standard_normal((8, 2))
obj = build_procrustes_ls(C, B)
offset = np.linalg.norm(B) ** 2

residuals = []
rep = nepv_scf(obj, random_stiefel(5, 2, 1),
               callback=lambda i, P: residuals.append(np.linalg.norm(C @ P - B)))
print(f"converged in {rep.num_iterations} iterations, "
      f"final residual {residuals[-1]:.8f}")
print("residual decreases monotonically:",
      all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:])))

drift = max(abs(np.linalg.norm(C @ P - B) ** 2 + obj.value(P) - offset)
            for P in [rep.point])
print(f"identity ||CP-B||^2 + f(P) = ||B||^2 holds to {drift:.2e}")

# Square case: the classical orthogonal fit has a closed form, the polar
# factor of C'B.
C4 = rng.standard_normal((4, 4))
B4 = rng.standard_normal((4, 4))
obj4 = build_procrustes_ls(C4, B4)
rep4 = nepv_scf(obj4, random_stiefel(4, 4, 2))
P_star = polar_factor(C4.T @ B4).orthogonal_factor
print(f"\nsquare case: solver residual {np.linalg.norm(C4 @ rep4.point - B4):.10f}")
print(f"closed form residual        {np.linalg.norm(C4 @ P_star - B4):.10f}")
