"""Building composed trace objectives, atom by atom or from the catalog.

An objective is phi(T(P)) where each entry of T is c * [tr((P'D)^m)]^s or
c * [tr((P'AP)^m)]^s over selected columns of P.  The catalog builders wire
the field recipe and alignment rule each named problem needs.
"""

import numpy as np

from stiefelscf import (
    AtomicTerm,
    ComposedObjective,
    ProblemSpec,
    build,
    gradient_check,
    outer_sum,
    random_stiefel,
)


def make_psd(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g @ g.T / n


n, k = 6, 2
rng = np.random.default_rng(0)
A = make_psd(n, 1)
D = rng.standard_normal((n, k))

# Hand-assembled: f(P) = tr(P'AP) + tr((P'D)^2).
obj = ComposedObjective(
    n, k,
    terms=(AtomicTerm.quadratic(A), AtomicTerm.linear(D, m=2)),
    outer=outer_sum(2),
    field_recipe="composition",
)
P = random_stiefel(n, k, 0)
print("hand-built value:", obj.value(P))
print("gradient matches 2AP + 2D(P'D):",
      np.allclose(obj.euclidean_grad(P), 2 * A @ P + 2 * D @ (P.T @ D)))

# The same objective from the catalog, with its alignment rule attached.
cat = build(ProblemSpec("quad_lin2", n, k, {"A": A, "D": D}))
print("catalog value agrees:", np.isclose(cat.value(P), obj.value(P)))
rule = cat.alignment
if rule.blocks is None:
    driver = "scriptD(P_prev)" if rule.D is None else "a fixed D"
    print(f"alignment rule: polar rotation on all {k} columns, driven by {driver}")
else:
    print("alignment rule: one polar block per linear term", rule.blocks)

# Every builder's gradient survives a central-difference check.
for family, mats, extra in [
    ("sep", {"A": A}, {}),
    ("mbsub", {"A": A, "D": D}, {}),
    ("olda", {"A": A, "B": make_psd(n, 2) + np.eye(n)}, {}),
    ("occa", {"B": make_psd(n, 3) + np.eye(n), "D": D}, {}),
    ("umds", {"A_list": [A, make_psd(n, 4)]}, {}),
    ("theta_tr", {"A": A, "B": make_psd(n, 5) + np.eye(n), "D": D},
     {"theta": 0.3}),
]:
    o = build(ProblemSpec(family, n, k, mats, **extra))
    print(f"{family:10s} worst FD error: {gradient_check(o, trials=5):.2e}")

# The field evaluation carries the mismatch matrix whose symmetry promotes
# an eigenvector solution to a KKT point.
fe = cat.field(P)
print("\nfield identity residual:",
      np.linalg.norm(fe.H @ P - cat.euclidean_grad(P) - P @ fe.mismatch))
print("mismatch asymmetry at a random point:", round(fe.asymmetry, 6))
