"""Outside-in layer tracing: timing wrappers around the program's public
functions, installed from the benchmark at every name callers use.

A span is recorded per wrapped call as (name, start, end, parent, solve id)
and kept in memory; ``Tracer.write`` saves them when the benchmark ends.
A layer's self time is its span durations minus the time its child spans
cover.  Nothing under ``src/`` is modified on disk: the wrappers replace
module attributes, class methods and registry entries in this process only,
and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" names a
# method of a class in that module.  The layer name is "module.function".
TRACED = (
    ("problems", "build"),
    ("cli", "load_problem"),
    ("cli", "write_trace"),
    ("cli", "write_report"),
    ("cli", "run_audits"),
    ("diagnostics", "monotonicity_audit"),
    ("npdo", "npdo_scf"),
    ("npdo", "npdo_locg"),
    ("npdo", "kkt_residuals"),
    ("nepv", "nepv_scf"),
    ("nepv", "nepv_locg"),
    ("nepv", "nepv_residual"),
    ("objective", "ComposedObjective.value"),
    ("objective", "ComposedObjective.euclidean_grad"),
    ("objective", "ComposedObjective.riemannian_grad"),
    ("objective", "ComposedObjective.field"),
    ("objective", "ComposedObjective.script_d"),
    ("objective", "ComposedObjective.transform"),
    ("objective", "eval_atomic"),
    ("objective", "grad_atomic"),
    ("alignment", "align_rotation"),
    ("kernels", "top_k_eigenpairs"),
    ("kernels", "polar_factor"),
    ("kernels", "canonical_sin_theta"),
    ("kernels", "orthonormalize_against"),
    ("kernels", "trace_norm"),
)

LAYERS = tuple(f"{mod}.{attr.rsplit('.', 1)[-1]}" for mod, attr in TRACED)

SOLVER_LAYERS = frozenset(
    {"npdo.npdo_scf", "npdo.npdo_locg", "nepv.nepv_scf", "nepv.nepv_locg"})
QUAD_COUNTED = frozenset({"objective.eval_atomic", "objective.grad_atomic"})
EIGEN_LAYER = "kernels.top_k_eigenpairs"

# Flops of one full symmetric eigendecomposition with eigenvectors: about
# 9 n^3 for the symmetric QR algorithm (Golub and Van Loan, Matrix
# Computations, 4th ed., Sec. 8.3), whatever share of the pairs is used.
EIGH_FLOPS_PER_N3 = 9.0


class Patches:
    """In-process replacements of program attributes, undone by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, key, value):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def replace(self, original, replacement):
        """Put ``replacement`` at every module attribute of the
        ``stiefelscf`` modules that is ``original``, and in every
        module-level registry (dict value, or member of a tuple value) that
        holds it, such as the CLI's solver table."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "stiefelscf" or name.startswith("stiefelscf.")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for rkey, entry in list(value.items()):
                        if entry is original:
                            self.set(value, rkey, replacement)
                        elif (isinstance(entry, tuple)
                              and any(v is original for v in entry)):
                            self.set(value, rkey, tuple(
                                replacement if v is original else v
                                for v in entry))

    def restore(self):
        for owner, key, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._saved.clear()


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1
        self._solver_depth = 0
        self.quad_products = 0
        self.eig_sizes = []          # (n, k) of every top_k_eigenpairs call
        self.patches = Patches()
        self._missing = set()

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_solver = name in SOLVER_LAYERS
        counts_quad = name in QUAD_COUNTED
        is_eigen = name == EIGEN_LAYER

        def wrapper(*args, **kwargs):
            if counts_quad and self._solver_depth:
                if _arg(args, kwargs, 0, "term").kind == "quadratic":
                    self.quad_products += 1
            if is_eigen:
                H = _arg(args, kwargs, 0, "H")
                self.eig_sizes.append((len(H), int(_arg(args, kwargs, 1, "k"))))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self._solver_depth += is_solver
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._solver_depth -= is_solver
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.solve_id)

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever the ``stiefelscf`` modules
        refer to it (see ``Patches.replace``); methods are wrapped on their
        class."""
        for mod_name, attr in TRACED:
            layer = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            home = importlib.import_module(f"stiefelscf.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self.patches.set(cls, meth,
                                     self.wrap(layer, cls.__dict__[meth]))
                    continue
            elif getattr(home, attr, None) is not None:
                original = getattr(home, attr)
                self.patches.replace(original, self.wrap(layer, original))
                continue
            if layer not in self._missing:
                self._missing.add(layer)
                print(f"perfbench: {layer} not found; not traced",
                      file=sys.stderr)

    def uninstall(self):
        self.patches.restore()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """``<layer>.calls`` and ``<layer>.self_s`` for every traced layer,
        plus the top_k_eigenpairs useful share and computed work."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        sum_n = sum(n for n, _ in self.eig_sizes)
        used = sum(k + 1 for n, k in self.eig_sizes if k < n)
        used += sum(n for n, k in self.eig_sizes if k >= n)
        out[f"{EIGEN_LAYER}.used_frac"] = (used / sum_n if sum_n else 0.0, "1")
        out[f"{EIGEN_LAYER}.computed_gflop"] = (
            EIGH_FLOPS_PER_N3 * sum(float(n) ** 3 for n, _ in self.eig_sizes)
            / 1e9, "GFLOP")
        return out

    def write(self, path):
        """Save all spans as CSV: name, start and end (s), parent span
        index (-1 for a root), solve id (-1 outside solves)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,solve\n")
            for name, t0, t1, parent, solve in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{solve}\n")
