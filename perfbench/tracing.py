"""Outside-in tracer for the thetaheights benchmark.

The library has no spans of its own, so the tracer wraps every public function
of the six computing modules (plus ``SiegelMatrix.from_rows``) in every module
namespace that binds it.  A function that calls a sibling through its module
globals (``jacobi_thetas`` -> ``theta_char``) or a name imported from another
module (``elliptic.jacobi_thetas``) therefore goes through the wrapper too.

Each call records a span ``[name, layer, start, end, parent, op_id, error]``;
spans stay in memory until ``summary`` aggregates them.  Self time is a span's
duration minus the durations of its child spans (one thread, so children never
overlap).  Private helpers are not wrapped: their time is self time of the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("theta_engine", "siegel", "weierstrass", "elliptic", "local_heights",
          "hyper_faltings")

# function-level metrics "<layer>.<function>.<field>": per-operation averages
# of calls, total (inclusive) seconds or self seconds
FUNCTION_METRICS = (
    "theta_engine.theta_char.calls",
    "theta_engine.theta_char.self_s",
    "theta_engine.as_siegel.calls",
    "theta_engine.jacobi_thetas.total_s",
    "theta_engine.phi_product.total_s",
    "theta_engine.j10.total_s",
    "theta_engine.modular_discriminant.total_s",
    "siegel.reduce_g1.calls",
    "siegel.reduce_g1.total_s",
    "siegel.theta_null_bounds.total_s",
    "weierstrass.finite_valuations.calls",
    "weierstrass.finite_valuations.total_s",
    "weierstrass.discriminant.total_s",
    "elliptic.minimal_model_q.calls",
    "elliptic.minimal_model_q.total_s",
    "elliptic.periods_agm.total_s",
    "local_heights.mu_arch_series.total_s",
    "local_heights.beta_arch.total_s",
    "local_heights.alpha_arch.total_s",
    "local_heights.autissier_integral.total_s",
    "local_heights.canonical_height_q.self_s",
    "hyper_faltings.faltings_jacobian.total_s",
    "hyper_faltings.faltings_jacobian.self_s",
)

_UNITS = {"calls": "count/op", "errors": "count/op", "self_s": "s/op", "total_s": "s/op"}


def _is_odd_null(m, z) -> bool:
    """theta_char called at z = 0 with an odd half-integral characteristic."""
    zs = z if isinstance(z, (list, tuple)) else [z]
    if any(x != 0 for x in zs):
        return False
    if any((2 * x).denominator != 1 for x in m.a + m.b):
        return False
    return (4 * sum(x * y for x, y in zip(m.a, m.b))) % 2 == 1


class Tracer:
    """Wraps the library while installed; aggregates spans into metrics."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._blamed: set = set()
        self._restore: list = []
        self.op_id = -1
        self.theta_char_calls = 0
        self.odd_null_calls = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, blamed = self.spans, self._stack, self._blamed
        count_nulls = name == "theta_engine.theta_char"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_nulls:
                self.theta_char_calls += 1
                m = args[0] if args else kwargs["m"]
                z = args[1] if len(args) > 1 else kwargs["z"]
                self.odd_null_calls += _is_odd_null(m, z)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, at the innermost wrapped function it left
                if exc not in blamed:
                    blamed.add(exc)
                    span[6] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        import thetaheights.theta_engine as te

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"thetaheights.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "thetaheights" and not mod_name.startswith("thetaheights."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        original = te.SiegelMatrix.__dict__["from_rows"]
        self._restore.append((te.SiegelMatrix, "from_rows", original))
        te.SiegelMatrix.from_rows = classmethod(
            self._wrap(original.__func__, "theta_engine.SiegelMatrix.from_rows", "theta_engine"))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, obj = self._restore.pop()
            setattr(owner, name, obj)

    # -- aggregation -------------------------------------------------------

    def summary(self, n_ops: int) -> dict:
        """Per-operation layer and function metrics as {name: (value, unit)}."""
        child_s = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        per_fn: dict = {}
        per_layer = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for (name, layer, t0, t1, _, _, err), kids in zip(self.spans, child_s):
            f = per_fn.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["total_s"] += t1 - t0
            f["self_s"] += t1 - t0 - kids
            agg = per_layer[layer]
            agg["calls"] += 1
            agg["self_s"] += t1 - t0 - kids
            agg["errors"] += err
        out = {}
        n = max(n_ops, 1)
        for layer, agg in per_layer.items():
            for key, val in agg.items():
                out[f"{layer}.{key}"] = (val / n, _UNITS[key])
        for metric in FUNCTION_METRICS:
            fn_name, key = metric.rsplit(".", 1)
            out[metric] = (per_fn.get(fn_name, {}).get(key, 0) / n, _UNITS[key])
        out["theta_engine.theta_char.odd_null_frac"] = (
            self.odd_null_calls / self.theta_char_calls if self.theta_char_calls else 0.0, "ratio")
        return out
