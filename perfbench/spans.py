"""Outside-in tracer: spans and counters recorded around calls into kronsolve.

The tracer replaces every module-level binding of a traced function (in
every loaded ``kronsolve`` module, so ``from .kron import kron_mat_mul``
copies are covered too) and the two preconditioner ``apply`` methods with a
wrapper that records one span ``(name, start, end, parent)`` per call.  The
wrapper passes arguments and results through untouched, so a traced run
computes bitwise the same results as an untraced one.  Nothing in ``src/`` is
modified on disk; :meth:`Tracer.uninstall` restores the original bindings.

Spans are kept in memory and written to an ``.npz`` file when the run ends.
Per-layer metrics are derived from them: call counts, self time (a span's
duration minus the time its direct child spans cover), and counters that
hooks read off the arguments and results of selected calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, module attribute path, report name).  The layer is the module whose
# behaviour the metric describes; ``build_factor_cache`` lives in solvers but
# is only called from tucker, so it is reported under tucker.
TRACED = [
    ("kron", "kron.sketched_kron_apply", "sketched_kron_apply"),
    ("kron", "kron.sketched_kron_transpose_apply", "sketched_kron_transpose_apply"),
    ("kron", "kron.kron_rows", "kron_rows"),
    ("kron", "kron.balanced_partition", "balanced_partition"),
    ("kron", "kron.sparse_diagonal_from_sketch", "sparse_diagonal_from_sketch"),
    ("kron", "kron.kron_mat_mul", "kron_mat_mul"),
    ("kron", "kron.kron_vec_square", "kron_vec_square"),
    ("leverage", "leverage.approx_leverage_scores_jl", "approx_leverage_scores_jl"),
    ("leverage", "leverage.spectral_approx_rows", "spectral_approx_rows"),
    ("leverage", "leverage.build_product_sampler", "build_product_sampler"),
    ("leverage", "leverage.ridge_leverage_scores", "ridge_leverage_scores"),
    ("leverage", "leverage.sample_rows", "sample_rows"),
    ("tensor", "tensor.compact_svd", "compact_svd"),
    ("tensor", "tensor.multi_mode_product", "multi_mode_product"),
    ("tensor", "tensor.as_matrix", "as_matrix"),
    ("solvers", "solvers.fast_kronecker_regression", "fast_kronecker_regression"),
    ("solvers", "solvers.kronmatmul_svd_solve", "kronmatmul_svd_solve"),
    ("solvers", "solvers.factor_gram", "factor_gram"),
    ("solvers", "solvers.ridge_loss", "ridge_loss"),
    ("solvers", "solvers.KronPreconditioner.apply", "KronPreconditioner.apply"),
    ("solvers", "solvers.richardson_solve", "richardson_solve"),
    ("tucker", "tucker.fast_factor_matrix_update", "fast_factor_matrix_update"),
    ("tucker", "tucker.naive_factor_update", "naive_factor_update"),
    ("tucker", "tucker.build_factor_workspace", "build_factor_workspace"),
    ("tucker", "tucker.FactorUpdateWorkspace.apply", "FactorUpdateWorkspace.apply"),
    ("tucker", "tucker.core_update", "core_update"),
    ("tucker", "tucker.reconstruct", "reconstruct"),
    ("tucker", "solvers.build_factor_cache", "build_factor_cache"),
]

# Validation helpers are counted but their self time is not reported.
COUNT_ONLY = {"tensor.as_matrix"}

# Per-layer metrics that are not a call count or a self time: name -> (unit, better).
DERIVED = {
    "kron.kron_mat_mul.flops": ("flop", "lower"),
    "kron.sketch.distinct_frac": ("fraction", "higher"),
    "leverage.sample_rows.draws": ("count", "lower"),
    "solvers.richardson_solve.iters": ("count", "lower"),
    "solvers.richardson_solve.converged_frac": ("fraction", "higher"),
    "solvers.fallback_frac": ("fraction", "lower"),
    "tucker.fallback_frac": ("fraction", "lower"),
    "tensor_io.write_tensor.s": ("s", "lower"),
    "tensor_io.read_tensor.s": ("s", "lower"),
    "tensor_io.read_tensor.bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for layer, _, short in TRACED:
        specs[f"{layer}.{short}.calls"] = ("count", "lower")
        if f"{layer}.{short}" not in COUNT_ONLY:
            specs[f"{layer}.{short}.self_s"] = ("s", "lower")
    specs.update(DERIVED)
    return specs


def kron_mat_mul_flops(factors, b) -> int:
    """Multiply-adds x 2 of ``kron_mat_mul``'s rightmost-first recursion.

    Applying factor n (I_n x J_n) to the partially reduced operand costs
    ``2 * prod(J_<n) * J_n * I_n * prod(I_>n) * k`` for ``k`` right-hand sides.
    """
    shapes = [np.shape(a) for a in factors]
    k = 1 if np.ndim(b) == 1 else int(np.shape(b)[1])
    total = 0
    for n, (i_n, j_n) in enumerate(shapes):
        lead = int(np.prod([s[1] for s in shapes[:n]], dtype=np.int64))
        tail = int(np.prod([s[0] for s in shapes[n + 1:]], dtype=np.int64))
        total += 2 * lead * j_n * i_n * tail * k
    return total


class Tracer:
    """Span recorder installed over kronsolve's module bindings.

    Spans live in one flat ``array('d')`` of ``(name, start, end, parent)``
    quadruples (32 bytes a span), so a run of millions of calls stays small.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.buf = array("d")
        self.stack: list[int] = []
        self.recording = False
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._name_ids: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        hooks = {
            "kron.kron_mat_mul": self._hook_kron_mat_mul,
            "kron.sparse_diagonal_from_sketch": self._hook_sparse_diagonal,
            "leverage.sample_rows": self._hook_sample_rows,
            "solvers.richardson_solve": self._hook_richardson,
        }
        prefix = self.package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for layer, path, short in TRACED:
            module_name, _, attr = path.partition(".")
            owner = getattr(self.package, module_name)
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(f"{layer}.{short}", cls.__dict__[meth], None))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{short}", original, hooks.get(path))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, hook):
        nid = float(self.name_id(name))
        buf, stack, clock = self.buf, self.stack, time.perf_counter
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            slot = len(buf)
            buf.extend((nid, 0.0, 0.0, stack[-1] if stack else -1.0))
            stack.append(slot // 4)
            buf[slot + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[slot + 2] = clock()
                stack.pop()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself around one route call."""
        slot = len(self.buf)
        self.buf.extend((self.name_id(name), 0.0, 0.0, -1.0))
        self.stack.append(slot // 4)
        self.recording = True
        self.buf[slot + 1] = time.perf_counter()
        try:
            yield
        finally:
            self.buf[slot + 2] = time.perf_counter()
            self.recording = False
            self.stack.pop()

    # ------------------------------------------------------------------ hooks
    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _hook_kron_mat_mul(self, args, result) -> None:
        self._add("kron.kron_mat_mul.flops", kron_mat_mul_flops(args["factors"], args["b"]))

    def _hook_sparse_diagonal(self, args, result) -> None:
        self._add("kron.sketch.drawn", args["sketch"].sample_count)
        self._add("kron.sketch.distinct", result.nnz)

    def _hook_sample_rows(self, args, result) -> None:
        self._add("leverage.sample_rows.draws", result.sample_count)

    def _hook_richardson(self, args, result) -> None:
        iters = result[1]
        self._add("solvers.richardson_solve.iters", iters)
        self._add("solvers.richardson_solve.converged",
                  int(iters < args["config"].effective_max_iters))

    # -------------------------------------------------------------- reporting
    def spans(self) -> np.ndarray:
        """All spans so far as an (n, 4) array of name id, start, end, parent."""
        return np.frombuffer(self.buf, dtype=np.float64).reshape(-1, 4).copy()

    def mark(self) -> tuple[int, dict[str, float]]:
        """Position to aggregate from: span count and a copy of the counters."""
        return len(self.buf) // 4, dict(self.counters)

    def layer_metrics(self, since: tuple[int, dict[str, float]]) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded after ``since``."""
        first, counters_before = since
        arr = self.spans()[first:]
        counts = {k: v - counters_before.get(k, 0) for k, v in self.counters.items()}
        n_names = len(self.names)
        name = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64) - first
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
        self_time = np.bincount(name, weights=dur - child, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        out: dict[str, float] = {}
        for layer, _, short in TRACED:
            key = f"{layer}.{short}"
            nid = self._name_ids[key]
            out[f"{key}.calls"] = int(calls[nid])
            if key not in COUNT_ONLY:
                out[f"{key}.self_s"] = float(self_time[nid])

        def fallback_frac(outer: str, inner: str) -> float:
            """Share of ``outer`` calls with at least one direct ``inner`` child."""
            outer_id, inner_id = self._name_ids[outer], self._name_ids[inner]
            total = int(calls[outer_id])
            hit = parent[(name == inner_id) & (parent_name == outer_id)]
            return np.unique(hit).size / total if total else 0.0

        out["kron.kron_mat_mul.flops"] = counts.get("kron.kron_mat_mul.flops", 0)
        drawn = counts.get("kron.sketch.drawn", 0)
        out["kron.sketch.distinct_frac"] = (
            counts.get("kron.sketch.distinct", 0) / drawn if drawn else 0.0)
        out["leverage.sample_rows.draws"] = counts.get("leverage.sample_rows.draws", 0)
        solves = out["solvers.richardson_solve.calls"]
        out["solvers.richardson_solve.iters"] = counts.get("solvers.richardson_solve.iters", 0)
        out["solvers.richardson_solve.converged_frac"] = (
            counts.get("solvers.richardson_solve.converged", 0) / solves if solves else 0.0)
        out["solvers.fallback_frac"] = fallback_frac(
            "solvers.fast_kronecker_regression", "solvers.kronmatmul_svd_solve")
        out["tucker.fallback_frac"] = fallback_frac(
            "tucker.fast_factor_matrix_update", "tucker.naive_factor_update")
        return out

    def save(self, path, env: dict) -> None:
        """Write every span recorded in this run to ``path`` (``.npz``)."""
        arr = self.spans()
        origin = arr[:, 1].min() if arr.size else 0.0
        np.savez(path, names=np.array(self.names), name=arr[:, 0].astype(np.int32),
                 start=arr[:, 1] - origin, end=arr[:, 2] - origin,
                 parent=arr[:, 3].astype(np.int64), env=np.array(json.dumps(env)))
