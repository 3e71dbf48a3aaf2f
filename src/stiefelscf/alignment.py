"""Rotation rule mapping subproblem solutions back into the feasible subset.

After the inner linear-algebra step produces an orthonormal P_hat, the
solvers apply a k-by-k orthogonal rotation Q so that P_next = P_hat @ Q lands
in the feasible subset the theory requires (typically {P : P'D >= 0}).  One
rule covers every family: Q is block-diagonal with the orthogonal polar
factor of P_hat[:, C_j]' D_j on each column block C_j and the identity off
the blocks.  The rule also reports the positive-semidefiniteness margin it
maintains, which feeds the exit certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import _polar, _sym

__all__ = [
    "BlockOverlapError",
    "PolarAlignment",
    "align_rotation",
]


class BlockOverlapError(ValueError):
    """Per-block alignment requires pairwise column-disjoint selectors."""


def _polar_square(M: np.ndarray) -> np.ndarray:
    # Orthogonal polar factor of a square matrix; identity for (near-)zero M.
    if np.linalg.norm(M) < 1e-300:
        return np.eye(M.shape[0])
    return _polar(M)[0]


@dataclass(frozen=True)
class PolarAlignment:
    """Q = blockdiag_j polar(P_hat[:, C_j]' D_j), the identity off the blocks.

    With ``blocks=None`` there is one block over all columns, driven by the
    fixed matrix ``D`` or, when ``D`` is None, by the objective's
    scriptD(P_prev) (the partial-weighted sum of its linear matrices, which
    makes the rotation also increase f).  Otherwise ``blocks`` lists linear
    terms of the objective by index, one block each over that term's
    selector, driven by the term's matrix weighted by its outer partial
    (``PointEvaluation.term_partials``) and scale at P_prev; the selectors
    must be pairwise column-disjoint.  ``blocks=()`` means no rotation, for
    right-unitarily invariant objectives, and is the default rule of
    ``ComposedObjective``.  Each block guarantees
    P_next[:, C_j]' D_j >= 0.  ``check`` validates the rule against its
    objective once, when the objective is built, so the other methods
    assume a valid rule.

    The methods read the objective through ``at``, its ``PointEvaluation``
    at the point in question (P_prev for ``align_rotation``), so the
    partials and scriptD come from products the solver already formed
    there.  A rule with a fixed driver or no blocks accepts ``at=None`` in
    ``align_rotation``.
    """

    D: np.ndarray | None = None
    blocks: tuple[int, ...] | None = None

    def check(self, obj) -> None:
        """Reject a rule that cannot drive ``obj``: a fixed ``D`` that is not
        n-by-k or comes with ``blocks``, a block index that is out of range
        or names a quadratic term, or blocks whose selectors overlap
        (``BlockOverlapError``).  ``ComposedObjective`` calls this once,
        when it is built."""
        if self.blocks is None:
            if self.D is not None and np.shape(self.D) != (obj.n, obj.k):
                raise ValueError(f"alignment D has shape {np.shape(self.D)}, "
                                 f"expected ({obj.n}, {obj.k})")
            return
        if self.D is not None:
            raise ValueError("alignment takes a fixed D or blocks, not both")
        seen: set[int] = set()
        for idx in self.blocks:
            if not 0 <= idx < len(obj.terms):
                raise ValueError(f"alignment block {idx} is out of range for "
                                 f"{len(obj.terms)} terms")
            t = obj.terms[idx]
            if t.kind != "linear":
                raise ValueError(f"alignment block {idx} names a {t.kind} "
                                 "term; blocks must name linear terms")
            cols = range(obj.k) if t.cols is None else t.cols
            if seen.intersection(cols):
                raise BlockOverlapError(
                    f"alignment blocks overlap at term {idx} (columns {list(cols)})")
            seen.update(cols)

    def _drivers(self, at):
        # (columns or None for all, weight, D_j) per block, read off the
        # evaluation ``at``.
        if self.blocks is None:
            return [(None, 1.0, at.script_d if self.D is None else self.D)]
        if not self.blocks:
            return []
        obj, phi = at.obj, at.term_partials
        drivers = []
        for idx in self.blocks:
            t = obj.terms[idx]
            cols = list(range(obj.k)) if t.cols is None else list(t.cols)
            drivers.append((cols, phi[idx] * t.c, t.matrix))
        return drivers

    def _rotation(self, P_hat, at):
        # The rotation Q of ``align_rotation``, or None for a rule with no
        # drivers.
        drivers = self._drivers(at)
        if not drivers:
            return None
        Q = np.eye(P_hat.shape[1])
        for cols, w, D in drivers:
            if cols is None:
                Q = _polar_square(w * (P_hat.T @ D))
            else:
                Q[np.ix_(cols, cols)] = _polar_square(w * (P_hat[:, cols].T @ D))
        return Q

    def psd_margin(self, at):
        # (min_j lambda_min(sym(P_j' w_j D_j)), max_j ||w_j D_j||_2) at the
        # evaluation's point P, P_j = P[:, C_j]; None with no drivers.
        P = at.P
        blocks = [(P if cols is None else P[:, cols], w * D)
                  for cols, w, D in self._drivers(at)]
        if not blocks:
            return None
        margin = min(float(np.linalg.eigvalsh(_sym(P_j.T @ D_j))[0])
                     for P_j, D_j in blocks)
        return margin, max(float(np.linalg.norm(D_j, 2)) for _, D_j in blocks)

    def transform(self, T):
        return self if self.D is None else replace(self, D=T.T @ self.D)


def align_rotation(rule, P_hat, at_prev):
    """Apply an alignment rule: returns (Q, P_next = P_hat @ Q), with
    Q the identity and P_next = P_hat itself when the rule rotates nothing
    (``blocks=()``).

    ``at_prev`` is the objective's evaluation at the previous iterate,
    ``obj.at(P_prev)``; it may be None for a rule with a fixed driver or no
    blocks.
    """
    Q = rule._rotation(P_hat, at_prev)
    if Q is None:
        return np.eye(P_hat.shape[1]), P_hat
    return Q, P_hat @ Q


def _aligned(rule, P_hat, at_prev):
    # P_next of ``align_rotation`` alone, for the solvers, which discard Q:
    # a rule with no drivers returns P_hat itself and builds no identity.
    Q = rule._rotation(P_hat, at_prev)
    return P_hat if Q is None else P_hat @ Q
