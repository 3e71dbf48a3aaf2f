"""Workload definitions: seeded instance generators and the reason for each.

Instances are made with NumPy alone, from the workload seed; the program
under test only ever receives the generated matrices.  Each workload is a
closed loop: one client in one process solves its instances one after
another.  An instance set holds every (instance, solver) pair of the
workload once; a run cycles through ``pool_sets`` instance sets.

Every instance is an orthogonal change of basis Q of a fixed canonical
instance, solved from a start point P0.  The seed draws P0, and Q is chosen
so that it carries the instance's fixed canonical start onto P0.  Every
solver is equivariant under such a change of basis, so each seed hands the
program other matrices and another start, but the same iterations up to
rounding (dft, tied to the standard basis, is the exception; see
``make_pool``).  Drawing fresh random matrices instead made the iteration
count of one instance vary by up to a factor of five from seed to seed, and
fresh start points moved olda/nepv-locg at n=200 between 56 and 73
iterations; no run length averages that out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Every solve, library or CLI, uses these solver settings.
TOL = 1e-8
MAX_ITER = 5000

# Enough solves per timed run that ten of them lie beyond the 90th
# percentile.
MIN_SOLVES = 100


@dataclass(frozen=True)
class Instance:
    """One generated problem plus the solvers that run on it.

    ``ref`` carries what the correctness gate needs beyond the solver's own
    output: the top-k eigenvalue sum for ``sep`` (from
    ``numpy.linalg.eigvalsh``) and C, B for ``procrustes``.
    """

    label: str
    family: str
    n: int
    k: int
    matrices: dict
    solvers: tuple[str, ...]
    theta: float | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    phi: str = "sum"
    phi_weight: float = 1.0
    ref: dict = field(default_factory=dict)
    # The start point of every solve of this instance, and the seed from
    # which ``kernels.random_stiefel`` (and so the CLI's ``--seed``) makes it.
    start: np.ndarray | None = field(default=None, compare=False)
    start_seed: int | None = None

    def spec_kwargs(self) -> dict:
        """Keyword arguments of ``stiefelscf.problems.ProblemSpec``."""
        return dict(family=self.family, n=self.n, k=self.k,
                    matrices=self.matrices, theta=self.theta,
                    blocks=self.blocks, phi=self.phi,
                    phi_weight=self.phi_weight)

    def problem_document(self) -> dict:
        """The instance as a CLI problem file (JSON-ready)."""
        mats = {name: ([m.tolist() for m in val] if name.endswith("_list")
                       else val.tolist())
                for name, val in self.matrices.items()}
        doc = {"family": self.family, "n": self.n, "k": self.k,
               "matrices": mats, "phi": self.phi,
               "phi_weight": self.phi_weight}
        if self.theta is not None:
            doc["theta"] = self.theta
        if self.blocks is not None:
            doc["blocks"] = [list(b) for b in self.blocks]
        return doc


# -- matrix generators ------------------------------------------------------
#
# Symmetric matrices have a fixed spectrum under a Haar-random rotation;
# Wishart matrices at desk scale have random spectral gaps, and the gaps set
# the iteration counts of both SCF routes.

def _rotation(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _with_spectrum(rng, w):
    Q = _rotation(rng, len(w))
    A = (Q * w) @ Q.T
    return 0.5 * (A + A.T)


def _psd(rng, n, k, shift=0.0):
    # Top k eigenvalues in [3, 4], the rest in [0, 2.5], then shifted.
    w = np.concatenate([np.linspace(4.0, 3.0, k),
                        np.linspace(2.5, 0.0, n - k)])
    return _with_spectrum(rng, w + shift)


def _indefinite(rng, n, k):
    w = np.concatenate([np.linspace(3.0, 2.5, k),
                        np.linspace(2.0, -2.0, n - k)])
    return _with_spectrum(rng, w)


def _slow_gap_psd(rng, n, k):
    # Top k eigenvalues in linspace(2, 1.5), the rest in linspace(1.45, 0.01):
    # lambda_{k+1} / lambda_k = 0.967 makes the polar iteration converge
    # slowly, which gives polar-route its tail.
    return _with_spectrum(rng, np.concatenate([
        np.linspace(2.0, 1.5, k), np.linspace(1.45, 0.01, n - k)]))


def _procrustes(rng, n, k, extra_rows, solvers):
    # C = U diag(s) V' with singular values sqrt(linspace(4, 0.25)).
    U, R = np.linalg.qr(rng.standard_normal((n + extra_rows, n)))
    U = U * np.sign(np.diag(R))
    s = np.sqrt(np.linspace(4.0, 0.25, n))
    C = (U * s) @ _rotation(rng, n).T
    B = rng.standard_normal((n + extra_rows, k))
    return Instance("procrustes", "procrustes", n, k, {"C": C, "B": B},
                    solvers)


def _frame(P, rng):
    """An orthogonal n-by-n matrix whose first k columns are P; the rest
    is a seeded orthonormal basis of the complement of range(P)."""
    G = rng.standard_normal((P.shape[0], P.shape[0] - P.shape[1]))
    for _ in range(2):
        G -= P @ (P.T @ G)
    Q, R = np.linalg.qr(G)
    return np.hstack([P, Q * np.sign(np.diag(R))])


def _signed_permutation(rng, n):
    """A seeded signed permutation matrix.  dft's atoms e_i e_i' tie it to
    the standard basis, and these are the changes of basis that keep it."""
    Q = np.zeros((n, n))
    Q[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
    return Q


def _rotated(inst: Instance, Q, rng) -> Instance:
    """The instance in the orthonormal basis Q of R^n.

    Symmetric n-by-n matrices become Q M Q', n-by-k ones Q M; for
    procrustes, C becomes U C Q' and B becomes U B with a rotation U of the
    rows drawn from ``rng``.  Every objective value is unchanged, and P
    solves the canonical instance exactly when QP solves this one.  The
    gate's references are computed here, from the rotated matrices.
    """
    if inst.family == "procrustes":
        U = _rotation(rng, inst.matrices["C"].shape[0])
        C = U @ inst.matrices["C"] @ Q.T
        B = U @ inst.matrices["B"]
        return replace(inst, matrices={"C": C, "B": B}, ref={"C": C, "B": B})

    def turn(M):
        if M.shape[1] != inst.n:
            return Q @ M
        S = Q @ M @ Q.T
        return 0.5 * (S + S.T)

    mats = {name: ([turn(M) for M in val] if name.endswith("_list")
                   else turn(val))
            for name, val in inst.matrices.items()}
    ref = {}
    if inst.family == "sep":
        w = np.linalg.eigvalsh(mats["A"])
        ref["top_k_sum"] = float(np.sort(w)[-inst.k:].sum())
    return replace(inst, matrices=mats, ref=ref)


# -- the three workloads ----------------------------------------------------

def eigen_route(rng, tiny: bool) -> list[Instance]:
    n, k, n_dft = (16, 3, 10) if tiny else (200, 8, 120)
    both = ("nepv", "nepv-locg")
    return [
        Instance("mbsub", "mbsub", n, k,
                 {"A": _psd(rng, n, k), "D": rng.standard_normal((n, k))},
                 both),
        Instance("theta_tr-0.5", "theta_tr", n, k,
                 {"A": _psd(rng, n, k), "B": _psd(rng, n, k, 1.0),
                  "D": 0.5 * rng.standard_normal((n, k))}, ("nepv",),
                 theta=0.5),
        Instance("olda", "olda", n, k,
                 {"A": _psd(rng, n, k), "B": _psd(rng, n, k, 1.0)}, both),
        Instance("occa", "occa", n, k,
                 {"B": _psd(rng, n, k, 1.0), "D": rng.standard_normal((n, k))},
                 ("nepv",)),
        _procrustes(rng, n, k, 20, ("nepv",)),
        Instance("dft", "dft", n_dft, k, {"A": _psd(rng, n_dft, k)}, ("nepv",),
                 phi="quad_penalty", phi_weight=0.25),
    ]


def polar_route(rng, tiny: bool) -> list[Instance]:
    n = 30 if tiny else 1000
    both = ("npdo", "npdo-locg")
    return [
        Instance("sep", "sep", n, 4, {"A": _slow_gap_psd(rng, n, 4)}, both),
        Instance("mbsub", "mbsub", n, 8,
                 {"A": _psd(rng, n, 8), "D": rng.standard_normal((n, 8))},
                 both),
        Instance("quad_lin2", "quad_lin2", n, 4,
                 {"A": _psd(rng, n, 4), "D": rng.standard_normal((n, 4))},
                 both),
        Instance("sumct", "sumct", n, 4,
                 {"A_list": [_psd(rng, n, 2), _psd(rng, n, 2)],
                  "D_list": [rng.standard_normal((n, 2)),
                             rng.standard_normal((n, 2))]},
                 both, blocks=((0, 1), (2, 3))),
    ]


def desk_catalog(rng, tiny: bool) -> list[Instance]:
    # Every (family, solver) pair whose ascent guarantee the builders
    # declare, as in the acceptance suite, plus sep and procrustes.
    n, k = (8, 2) if tiny else (40, 3)
    every = ("npdo", "npdo-locg", "nepv", "nepv-locg")
    nepv_both = ("nepv", "nepv-locg")
    out = [
        Instance("mbsub-psd", "mbsub", n, k,
                 {"A": _psd(rng, n, k), "D": rng.standard_normal((n, k))},
                 every),
        Instance("mbsub-indefinite", "mbsub", n, k,
                 {"A": _indefinite(rng, n, k),
                  "D": rng.standard_normal((n, k))}, nepv_both),
        Instance("sumct", "sumct", n, 4,
                 {"A_list": [_psd(rng, n, 2), _psd(rng, n, 2)],
                  "D_list": [rng.standard_normal((n, 2)),
                             rng.standard_normal((n, 2))]},
                 ("npdo", "npdo-locg", "nepv"), blocks=((0, 1), (2, 3))),
    ]
    for theta in (0.0, 0.3, 0.5, 1.0):
        out.append(Instance(
            f"theta_tr-{theta}", "theta_tr", n, k,
            {"A": _psd(rng, n, k, 0.3), "B": _psd(rng, n, k, 1.0),
             "D": 0.5 * rng.standard_normal((n, k))},
            nepv_both if theta in (0.0, 1.0) else ("nepv",), theta=theta))
    out += [
        Instance("occa", "occa", n, k,
                 {"B": _psd(rng, n, k, 1.0), "D": rng.standard_normal((n, k))},
                 nepv_both),
        Instance("olda", "olda", n, k,
                 {"A": _psd(rng, n, k), "B": _psd(rng, n, k, 1.0)}, nepv_both),
        Instance("umds", "umds", n, k,
                 {"A_list": [_psd(rng, n, k), _psd(rng, n, k)]},
                 ("npdo", "nepv")),
        Instance("trcp", "trcp", n, k,
                 {"A_list": [_psd(rng, n, k), _psd(rng, n, k)]},
                 ("npdo", "nepv"), phi="quad_penalty", phi_weight=0.5),
        Instance("dft", "dft", n, k, {"A": _psd(rng, n, k)}, ("npdo", "nepv"),
                 phi="quad_penalty", phi_weight=0.25),
        Instance("quad_lin2-psd", "quad_lin2", n, k,
                 {"A": _psd(rng, n, k), "D": rng.standard_normal((n, k))},
                 ("npdo", "npdo-locg", "nepv")),
        Instance("quad_lin2-indefinite", "quad_lin2", n, k,
                 {"A": _indefinite(rng, n, k),
                  "D": rng.standard_normal((n, k))}, nepv_both),
        Instance("sep", "sep", n, k, {"A": _psd(rng, n, k)}, every),
        _procrustes(rng, n, k, 5, nepv_both),
    ]
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str            # "library" or "cli"
    make: object          # make(rng, tiny) -> list[Instance]
    pool_sets: int        # distinct instance sets cycled through in a run
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "eigen-route", "library", eigen_route, pool_sets=13,
            why="NEPv on n=200, k=8 (dft n=120): the n-by-n field and its "
                "full eigh do most of the work"),
        Workload(
            "polar-route", "library", polar_route, pool_sets=1,
            why="NPDo on n=1000: O(n^2 k) A*P products do most of the work "
                "and no n-by-n eigh runs"),
        Workload(
            "desk-catalog", "cli", desk_catalog, pool_sets=9,
            why="the in-process CLI on 36 guaranteed pairs at n=40: per-call "
                "Python overhead, parsing, *_locg loops and audits"),
    )
}

# Stable small integers mixed into the seed, so two workloads with the same
# --seed still draw different matrices.
_WORKLOAD_IDS = {"eigen-route": 1, "polar-route": 2, "desk-catalog": 3}


def make_pool(workload: Workload, seed: int, tiny: bool,
              random_stiefel) -> list[list[Instance]]:
    """``pool_sets`` instance sets (one in tiny mode).

    Instance i of set s starts at P0 = random_stiefel(n, k, start_seed),
    the rule of the CLI's ``--seed``, with ``start_seed`` drawn from
    ``seed``, s and i.  Its matrices are the canonical instance's in the
    basis Q = W W_c', where W and W_c are orthogonal with first k columns P0
    and the instance's fixed canonical start: so QP solves it exactly when P
    solves the canonical instance from its canonical start.  The exception
    is dft, whose Q is a seeded signed permutation: its start point is not
    carried along, so its iteration counts may change from seed to seed.
    """
    wid = _WORKLOAD_IDS[workload.name]
    canonical = workload.make(np.random.default_rng([wid]), tiny)
    sets = 1 if tiny else workload.pool_sets
    out = []
    for s in range(sets):
        rng = np.random.default_rng([wid, seed, s])
        insts = []
        for i, inst in enumerate(canonical):
            frame_rng = np.random.default_rng([wid, i, 2**31])
            P_c, _ = np.linalg.qr(frame_rng.standard_normal((inst.n, inst.k)))
            start_seed = int(np.random.SeedSequence(
                [seed, s, i, 17]).generate_state(1)[0])
            P0 = random_stiefel(inst.n, inst.k, start_seed)
            if inst.family == "dft":
                Q = _signed_permutation(rng, inst.n)
            else:
                Q = _frame(P0, rng) @ _frame(P_c, frame_rng).T
            insts.append(replace(_rotated(inst, Q, rng), start=P0,
                                 start_seed=start_seed))
        out.append(insts)
    return out
