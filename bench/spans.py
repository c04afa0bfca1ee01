"""Span tracer that wraps each cryamabe layer's public functions from outside.

``Tracer.install()`` replaces every binding of each target: the defining
module, every module that bound the same function with ``from .x import f``,
and the class attribute for methods.  Each call records a span
``[name, start, end, parent]`` and the counts taken at that boundary (points
evaluated, pairs convolved, iterations run).  ``per_layer_metrics()`` reduces
the spans to the numbers listed under ``per_layer`` in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np


# --- counts taken at the call boundary -------------------------------------
# ``before`` hooks see (tracer, args, kwargs) and may return replacement
# arguments; ``after`` hooks see (tracer, args, kwargs, result).


def _count_integrand(tr, args, kwargs):
    f = args[0]
    ev = getattr(f, "evaluator", f)  # ScalarFieldH or a plain callable

    def counted(z, t):
        tr.counts["heisenberg.integrate_decaying.points"] += np.size(t)
        return ev(z, t)

    return (counted,) + tuple(args[1:]), kwargs


def _count_t_points(key):
    def hook(tr, args, kwargs):
        t = args[2] if len(args) > 2 else kwargs["t"]
        tr.counts[key] += np.size(t)

    return hook


def _count_zeta_points(key):
    def hook(tr, args, kwargs):
        zeta = args[1] if len(args) > 1 else kwargs["zeta"]
        tr.counts[key] += int(np.prod(np.shape(zeta)[:-1]))  # points of a (..., N+1) array

    return hook


def _count_convolve(tr, args, kwargs):
    f = args[0]
    out_indices = args[2] if len(args) > 2 else kwargs.get("out_indices")
    thresh = args[3] if len(args) > 3 else kwargs.get("support_threshold", 0.0)
    vals = np.abs(np.asarray(f.values).reshape(-1))
    n_src = int(np.count_nonzero(vals > thresh * np.max(vals, initial=0.0)))
    n_out = vals.size if out_indices is None else len(out_indices)
    tr.counts["riesz.convolve.pairs"] += n_src * n_out
    tr.counts["riesz.convolve.outputs"] += n_out
    tr.counts["riesz.convolve.grid_points"] += vals.size


def _count_basis(tr, args, kwargs, result):
    tr.counts["spectral.n_basis"] += result.n_basis


def _count_flow(tr, args, kwargs, result):
    tr.counts["bubbling.hk_gradient_flow.iterations"] += len(result["rows"])


def _count_minimax(tr, args, kwargs, result):
    tr.counts["minimax.iterations"] += sum(r.iterations for r in result)
    tr.counts["minimax.converged"] += sum(bool(r.converged) for r in result)
    tr.counts["minimax.reports"] += len(result)


# (module = layer, attribute path, before hook, after hook)
TARGETS = (
    ("heisenberg", "integrate_decaying", _count_integrand, None),
    ("cayley", "ConformalChart.map_zt", _count_t_points("cayley.ConformalChart.map_zt.points"), None),
    ("cayley", "ConformalChart.jacobian_zt", _count_t_points("cayley.ConformalChart.jacobian_zt.points"), None),
    ("bubbling", "CutoffSpec.value", _count_zeta_points("bubbling.CutoffSpec.value.points"), None),
    ("bubbling", "bubble_piece_report", None, None),
    ("bubbling", "hk_gradient_flow", None, _count_flow),
    ("energy", "YamabeProblem.build", None, None),
    ("energy", "YamabeProblem.gradient", None, None),
    ("energy", "YamabeProblem.energy", None, None),
    ("energy", "dirichlet_form", None, None),
    ("energy", "bubble_eval_zt", _count_t_points("energy.bubble_eval_zt.points"), None),
    ("spectral", "build_basis", None, _count_basis),
    ("spectral", "analyze", None, None),
    ("spectral", "SphereQuadrature.synthesize_values", None, None),
    ("spectral", "SphereQuadrature.analyze_values", None, None),
    ("spectral", "SphereQuadrature.integrate", None, None),
    ("spectral", "HarmonicBasis.multipliers", None, None),
    ("spectral", "SpectralFunction.eval", _count_zeta_points("spectral.SpectralFunction.eval.points"), None),
    ("polynomials", "conformal_sublaplacian", None, None),
    ("polynomials", "poly_eval", None, None),
    ("riesz", "convolve", _count_convolve, None),
    ("riesz", "semigroup_check", None, None),
    ("riesz", "green_inversion_check", None, None),
    ("riesz", "gaussian_bump", None, None),
    ("minimax", "minimax_search", None, _count_minimax),
    ("minimax", "nehari_rescale", None, None),
    ("minimax", "invariance_check", None, None),
    ("cli", "run_minimax_explore", None, None),
    ("cli", "run_subcritical_flow", None, None),
    ("cli", "run_verify_spectral", None, None),
)


# Per-layer metrics of a traced run: (name, unit, better).  ``calls``/``s``/
# ``self_s`` come from the spans, the rest from the boundary counts.
PER_LAYER = (
    ("heisenberg.integrate_decaying.calls", "count", "lower"),
    ("heisenberg.integrate_decaying.points", "count", "lower"),
    ("heisenberg.integrate_decaying.self_s", "s", "lower"),
    ("cayley.ConformalChart.map_zt.points", "count", "lower"),
    ("cayley.ConformalChart.map_zt.s", "s", "lower"),
    ("cayley.ConformalChart.jacobian_zt.points", "count", "lower"),
    ("cayley.ConformalChart.jacobian_zt.s", "s", "lower"),
    ("cayley.ConformalChart.map_zt.points_per_node", "ratio", "lower"),
    ("bubbling.CutoffSpec.value.points", "count", "lower"),
    ("bubbling.CutoffSpec.value.s", "s", "lower"),
    ("bubbling.bubble_piece_report.calls", "count", "lower"),
    ("bubbling.bubble_piece_report.self_s", "s", "lower"),
    ("bubbling.integrals_per_piece", "ratio", "lower"),
    ("bubbling.hk_gradient_flow.calls", "count", "lower"),
    ("bubbling.hk_gradient_flow.s", "s", "lower"),
    ("bubbling.hk_gradient_flow.iterations", "count", "lower"),
    ("energy.YamabeProblem.gradient.calls", "count", "lower"),
    ("energy.YamabeProblem.gradient.s", "s", "lower"),
    ("energy.YamabeProblem.energy.calls", "count", "lower"),
    ("energy.YamabeProblem.energy.s", "s", "lower"),
    ("energy.energy_evals_per_gradient", "ratio", "lower"),
    ("energy.dirichlet_form.calls", "count", "lower"),
    ("energy.dirichlet_form.s", "s", "lower"),
    ("energy.bubble_eval_zt.points", "count", "lower"),
    ("energy.bubble_eval_zt.s", "s", "lower"),
    ("energy.YamabeProblem.build.s", "s", "lower"),
    ("spectral.build_basis.s", "s", "lower"),
    ("spectral.n_basis", "count", "lower"),
    ("spectral.SphereQuadrature.synthesize_values.calls", "count", "lower"),
    ("spectral.SphereQuadrature.synthesize_values.s", "s", "lower"),
    ("spectral.SphereQuadrature.analyze_values.calls", "count", "lower"),
    ("spectral.SphereQuadrature.analyze_values.s", "s", "lower"),
    ("spectral.SphereQuadrature.integrate.calls", "count", "lower"),
    ("spectral.SphereQuadrature.integrate.s", "s", "lower"),
    ("spectral.HarmonicBasis.multipliers.calls", "count", "lower"),
    ("spectral.HarmonicBasis.multipliers.s", "s", "lower"),
    ("spectral.SpectralFunction.eval.points", "count", "lower"),
    ("spectral.SpectralFunction.eval.s", "s", "lower"),
    ("polynomials.conformal_sublaplacian.calls", "count", "lower"),
    ("polynomials.conformal_sublaplacian.s", "s", "lower"),
    ("polynomials.poly_eval.s", "s", "lower"),
    ("riesz.convolve.calls", "count", "lower"),
    ("riesz.convolve.s", "s", "lower"),
    ("riesz.convolve.pairs", "count", "lower"),
    ("riesz.convolve.pairs_per_s", "1/s", "higher"),
    ("riesz.convolve.out_frac", "ratio", "lower"),
    ("riesz.convolve.kernel_bytes", "B_computed", "lower"),
    ("riesz.semigroup_check.self_s", "s", "lower"),
    ("riesz.green_inversion_check.self_s", "s", "lower"),
    ("riesz.gaussian_bump.s", "s", "lower"),
    ("minimax.minimax_search.calls", "count", "lower"),
    ("minimax.minimax_search.s", "s", "lower"),
    ("minimax.iterations", "count", "lower"),
    ("minimax.converged_frac", "ratio", "higher"),
    ("minimax.nehari_rescale.calls", "count", "lower"),
    ("minimax.nehari_rescale.s", "s", "lower"),
    ("minimax.invariance_check.calls", "count", "lower"),
    ("minimax.invariance_check.s", "s", "lower"),
    ("cli.run_minimax_explore.s", "s", "lower"),
    ("cli.run_subcritical_flow.s", "s", "lower"),
    ("cli.run_verify_spectral.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)


class Tracer:
    """In-memory spans and boundary counts for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                if before is not None:
                    replaced = before(tracer, args, kwargs)
                    if replaced is not None:
                        args, kwargs = replaced
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # --- patching ------------------------------------------------------------

    def install(self, package: str = "cryamabe") -> None:
        """Wrap every target in every namespace that binds it."""
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        for modname, path, before, after in TARGETS:
            mod = sys.modules[f"{package}.{modname}"]
            name = f"{modname}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, before, after))
                else:
                    new = self.wrap(name, raw, before, after)
                self._set(cls, meth, new)
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig, before, after)
            for other in list(sys.modules.values()):
                ns = getattr(other, "__dict__", None)
                if not isinstance(ns, dict):
                    continue
                for attr, value in list(ns.items()):
                    if value is orig:
                        self._set(other, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- reduction -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per name: call count, inclusive seconds (outermost spans), self seconds."""
        calls: defaultdict[str, int] = defaultdict(int)
        incl: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += end - start
        return calls, incl, self_s

    def _under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def per_layer_metrics(self) -> dict[str, float]:
        """Values of the PER_LAYER metrics, except the ``trace.*`` ones the caller measures."""
        names = [name for name, _, _ in PER_LAYER if not name.startswith("trace.")]
        calls, incl, self_s = self.totals()
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
        for metric in names:
            base, _, stat = metric.rpartition(".")
            if metric in c:
                out[metric] = float(c[metric])
            elif stat == "calls":
                out[metric] = float(calls.get(base, 0))
            elif stat == "s":
                out[metric] = incl.get(base, 0.0)
            elif stat == "self_s" and base == "cli":
                out[metric] = cli_self
            elif stat == "self_s":
                out[metric] = self_s.get(base, 0.0)
            else:
                out[metric] = float(c.get(metric, 0.0))
        derived = {
            "cayley.ConformalChart.map_zt.points_per_node": ratio(
                c["cayley.ConformalChart.map_zt.points"], c["heisenberg.integrate_decaying.points"]
            ),
            "bubbling.integrals_per_piece": ratio(
                self._under("heisenberg.integrate_decaying", "bubbling.bubble_piece_report"),
                calls.get("bubbling.bubble_piece_report", 0),
            ),
            "energy.energy_evals_per_gradient": ratio(
                calls.get("energy.YamabeProblem.energy", 0), calls.get("energy.YamabeProblem.gradient", 0)
            ),
            "riesz.convolve.pairs_per_s": ratio(c["riesz.convolve.pairs"], incl.get("riesz.convolve", 0.0)),
            "riesz.convolve.out_frac": ratio(c["riesz.convolve.outputs"], c["riesz.convolve.grid_points"]),
            "riesz.convolve.kernel_bytes": 8.0 * c["riesz.convolve.pairs"],
            "minimax.converged_frac": ratio(c["minimax.converged"], c["minimax.reports"]),
        }
        for metric in names:
            if metric in derived:
                out[metric] = derived[metric]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

