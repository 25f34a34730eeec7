"""In-memory span recorder that times fixsing's layers from outside.

`install` swaps each traced public function for a wrapper that records a
span (name, start, end, parent, op id, attributes) while an op is open.
Every module-level binding of the original object inside the package is
replaced, so callers that imported the function by name (for example
``regimes.gauss_jacobi`` or ``complete.build_basis``) reach the wrapper
too.  Nothing under ``src/`` is edited.  Outside an op (set-up, the
correctness gate) the wrappers call straight through and record nothing.

`aggregate` turns the spans of a pass into per-op layer metrics.  Each
span's self time is its duration minus its children's durations; the self
times of all spans plus ``trace.gap_s`` equal the op time exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time

# (name, start, end, parent index, op id, attrs) per span, attrs may be None
NAME, START, END, PARENT, OP, ATTRS = range(6)

#: layer metrics in report order with units; "/op" values are per-op means
LAYER_METRICS = [
    ("import.fixsing_s", "s"), ("import.numpy_s", "s"),
    ("import.scipy_s", "s"), ("import.modules_n", "count"),
    ("cli.import_s", "s/op"), ("cli.main_s", "s/op"), ("cli.self_s", "s/op"),
    ("kernels.regular_part_s", "s/op"), ("kernels.antiplane_D_s", "s/op"),
    ("kernels.regular_part_points_n", "count/op"),
    ("kernels.gamma0_root_s", "s/op"), ("kernels.failed_n", "count"),
    ("spectral.build_basis_s", "s/op"), ("spectral.phi_matrix_s", "s/op"),
    ("spectral.series_solve_s", "s/op"),
    ("complete.solve_s", "s/op"), ("complete.solve_calls_n", "count/op"),
    ("complete.kernel_matrix_self_s", "s/op"),
    ("complete.fourier_load_s", "s/op"), ("complete.solve_self_s", "s/op"),
    ("complete.diagnostics_s", "s/op"), ("complete.singular_n", "count"),
    ("oracle.apply_S_s", "s/op"), ("oracle.apply_K_s", "s/op"),
    ("oracle.full_residual_s", "s/op"),
    ("oracle.apply_K_points_n", "count/op"),
    ("regimes.solvability_functional_s", "s/op"),
    ("regimes.inverse.zero_s", "s/op"),
    ("regimes.inverse.inside-unit_s", "s/op"),
    ("regimes.inverse.plus-one_s", "s/op"),
    ("regimes.inverse.minus-one_s", "s/op"),
    ("regimes.inverse.above-one_s", "s/op"),
    ("regimes.inverse.below-minus-one_s", "s/op"),
    ("quad.gauss_jacobi_s", "s/op"), ("quad.gauss_jacobi_calls_n", "count/op"),
    ("quad.gauss_jacobi_repeat_ratio", "1"), ("quad.graded_rule_s", "s/op"),
    ("cauchy.cauchy_solve_s", "s/op"),
    ("cauchy.cauchy_solve_calls_n", "count/op"),
    ("verify.run_s", "s/op"),
    ("trace.gap_s", "s/op"), ("trace.op_mean_s", "s/op"),
    ("trace.ops_n", "count"), ("trace.overhead_frac", "1"),
]

# spans whose metric is the self time under the span's own name
_SELF_NAMED = {
    "cli.import", "kernels.regular_part", "kernels.antiplane_D",
    "kernels.gamma0_root", "spectral.build_basis", "spectral.phi_matrix",
    "spectral.series_solve", "complete.fourier_load", "oracle.apply_S",
    "oracle.apply_K", "oracle.full_residual", "regimes.solvability_functional",
    "quad.gauss_jacobi", "quad.graded_rule", "cauchy.cauchy_solve",
    "verify.run",
} | {f"regimes.inverse.{k}" for k in (
    "zero", "inside-unit", "plus-one", "minus-one", "above-one",
    "below-minus-one")}
# spans reported by self time under a different metric name
_SELF_RENAMED = {"cli.main": "cli.self_s", "complete.solve": "complete.solve_self_s",
                 "complete.kernel_matrix": "complete.kernel_matrix_self_s"}


class Tracer:
    """Span store for one process; spans are only kept while an op is open."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._jacobi_seen = set()

    def begin_op(self, op_id):
        self.op = op_id
        self._stack.clear()

    def end_op(self):
        self.op = None

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx, error=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if error is not None:
            span[ATTRS] = dict(span[ATTRS] or {}, error=error)
        self._stack.pop()

    def jacobi_repeat(self, key) -> bool:
        seen = key in self._jacobi_seen
        self._jacobi_seen.add(key)
        return seen


def _wrap(tracer, fn, name, attrs_fn=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        span_name = name(args, kwargs) if callable(name) else name
        attrs = attrs_fn(args, kwargs) if attrs_fn else None
        idx = tracer.open(span_name, attrs)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, type(exc).__name__)
            raise
        tracer.close(idx)
        return out

    wrapper.__wrapped_by_bench__ = True
    return wrapper


def _points(args, kwargs):
    import numpy as np

    x = args[0] if args else kwargs["x"]
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    shape = np.broadcast_shapes(np.shape(x), np.shape(xi))
    return {"points": math.prod(shape)}


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _swap_everywhere(orig, replacement):
    """Rebind every fixsing module attribute that is `orig`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fixsing"
                               or mod_name.startswith("fixsing.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced layer functions of the imported fixsing package.

    verify and cli are wrapped only when already imported, so a library
    process does not load the command-line modules.
    """
    from fixsing import (_quad, cauchy, complete, kernels, oracle, regimes,
                         spectral)

    def wrap_fn(module, attr, name, attrs_fn=None):
        orig = getattr(module, attr)
        if getattr(orig, "__wrapped_by_bench__", False):
            return
        _swap_everywhere(orig, _wrap(tracer, orig, name, attrs_fn))

    def jacobi_attrs(args, kwargs):
        key = (int(_arg(args, kwargs, 0, "n")),
               float(_arg(args, kwargs, 1, "alpha")),
               float(_arg(args, kwargs, 2, "beta")))
        return {"repeat": tracer.jacobi_repeat(key)}

    def inverse_name(args, kwargs):
        regime = _arg(args, kwargs, 0, "regime")
        return f"regimes.inverse.{regime.kind.value}"

    wrap_fn(kernels, "antiplane_D", "kernels.antiplane_D")
    wrap_fn(kernels, "gamma0_root", "kernels.gamma0_root")
    wrap_fn(spectral, "build_basis", "spectral.build_basis")
    wrap_fn(spectral, "characteristic_series_solve", "spectral.series_solve")
    wrap_fn(complete, "solve", "complete.solve")
    wrap_fn(complete, "kernel_matrix", "complete.kernel_matrix")
    wrap_fn(complete, "fourier_load_coeffs", "complete.fourier_load")
    wrap_fn(oracle, "apply_S", "oracle.apply_S")
    wrap_fn(oracle, "apply_K", "oracle.apply_K")
    wrap_fn(oracle, "full_residual", "oracle.full_residual")
    wrap_fn(regimes, "solvability_functional",
            "regimes.solvability_functional")
    wrap_fn(regimes, "inverse_characteristic", inverse_name)
    wrap_fn(_quad, "gauss_jacobi", "quad.gauss_jacobi", jacobi_attrs)
    wrap_fn(_quad, "graded_rule", "quad.graded_rule")
    wrap_fn(cauchy, "cauchy_solve", "cauchy.cauchy_solve")
    if "fixsing.verify" in sys.modules:
        wrap_fn(sys.modules["fixsing.verify"], "run", "verify.run")
    if "fixsing.cli" in sys.modules:
        wrap_fn(sys.modules["fixsing.cli"], "main", "cli.main")

    cls = spectral.SpectralBasis
    if not getattr(cls.phi_matrix, "__wrapped_by_bench__", False):
        cls.phi_matrix = _wrap(tracer, cls.phi_matrix, "spectral.phi_matrix")

    # the regular kernel is a closure inside the returned KernelSpec, so the
    # factories are wrapped to hand out a spec with a traced regular_part
    def traced_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(spec, regular_part=_wrap(
                tracer, spec.regular_part, "kernels.regular_part", _points))
        make.__wrapped_by_bench__ = True
        return make

    for attr in ("antiplane_kernel", "plane_strain_kernel"):
        orig = getattr(kernels, attr)
        if not getattr(orig, "__wrapped_by_bench__", False):
            _swap_everywhere(orig, traced_factory(orig))


def _has_ancestor(spans, idx, pred):
    parent = spans[idx][PARENT]
    while parent is not None:
        if pred(spans[parent][NAME]):
            return True
        parent = spans[parent][PARENT]
    return False


def aggregate(spans, op_times):
    """Per-op layer metrics of one traced pass.

    spans: span records as kept by Tracer (op id in OP, parent indices
    local to the list); op_times: {op id: op wall seconds}.  Returns
    (metrics, reconciliation error in seconds).
    """
    n_ops = max(len(op_times), 1)
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] is not None:
            child_time[sp[PARENT]] += sp[END] - sp[START]

    totals = {name: 0.0 for name, _ in LAYER_METRICS}
    covered = {op: 0.0 for op in op_times}
    kernel_failed_ops = set()
    jacobi_repeats = 0
    self_sum = 0.0
    for idx, sp in enumerate(spans):
        name, dur = sp[NAME], sp[END] - sp[START]
        self_t = dur - child_time[idx]
        self_sum += self_t
        attrs = sp[ATTRS] or {}
        if sp[PARENT] is None:
            covered[sp[OP]] = covered.get(sp[OP], 0.0) + dur
        if name in _SELF_NAMED:
            totals[name + "_s"] += self_t
        elif name in _SELF_RENAMED:
            totals[_SELF_RENAMED[name]] += self_t
        if name == "cli.main":
            totals["cli.main_s"] += dur
        elif name == "complete.solve":
            totals["complete.solve_s"] += dur
            totals["complete.solve_calls_n"] += 1
        elif name == "cauchy.cauchy_solve":
            totals["cauchy.cauchy_solve_calls_n"] += 1
        elif name == "kernels.regular_part":
            totals["kernels.regular_part_points_n"] += attrs.get("points", 0)
            if _has_ancestor(spans, idx, lambda n: n == "oracle.apply_K"):
                totals["oracle.apply_K_points_n"] += attrs.get("points", 0)
        elif name == "quad.gauss_jacobi":
            totals["quad.gauss_jacobi_calls_n"] += 1
            jacobi_repeats += bool(attrs.get("repeat"))
        if name.startswith(("oracle.", "regimes.")) and _has_ancestor(
                spans, idx, lambda n: n == "complete.solve") and not \
                _has_ancestor(spans, idx,
                              lambda n: n.startswith(("oracle.", "regimes."))):
            totals["complete.diagnostics_s"] += dur
        error = attrs.get("error")
        if error and name.startswith("kernels."):
            kernel_failed_ops.add(sp[OP])
        if error == "SingularSystemError" and name in ("complete.solve",
                                                       "cauchy.cauchy_solve"):
            totals["complete.singular_n"] += 1

    jacobi_calls = totals["quad.gauss_jacobi_calls_n"]
    totals["quad.gauss_jacobi_repeat_ratio"] = (
        jacobi_repeats / jacobi_calls if jacobi_calls else 0.0)
    totals["kernels.failed_n"] = len(kernel_failed_ops)
    metrics = {name: totals[name] / n_ops if unit.endswith("/op")
               else totals[name] for name, unit in LAYER_METRICS}
    op_total = sum(op_times.values())
    gap_total = op_total - sum(covered.get(op, 0.0) for op in op_times)
    metrics["trace.gap_s"] = gap_total / n_ops
    metrics["trace.op_mean_s"] = op_total / n_ops
    metrics["trace.ops_n"] = len(op_times)
    reconcile_err = abs(self_sum + gap_total - op_total)
    return metrics, reconcile_err


def self_time_metrics():
    """Names of the layer metrics that, with trace.gap_s, sum to op time."""
    return sorted({n + "_s" for n in _SELF_NAMED} | set(_SELF_RENAMED.values()))
