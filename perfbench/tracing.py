"""Spans around heatlab's public functions, installed at run time.

:class:`Tracer` replaces every public function of every heatlab module
(a name without a leading underscore, defined in that module) with a
wrapper that records a span, and it patches every heatlab namespace
that holds the same function object, so names that one module imported
from another (``heatlab.asymptotics.heat_kernel``,
``heatlab.perturbation.sg_apply``) are wrapped too.  A call from one
layer into another therefore becomes a child span.  The originals are
put back when the ``with`` block ends.

Spans are recorded only while a task is running (``tracer.task`` is set)
and are kept in memory; :meth:`Tracer.dump` writes them out at the end.
:func:`layer_metrics` turns them into the per-layer metrics listed in
:data:`PER_LAYER`.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict

import heatlab

MODULES = ("graphs", "operators", "semigroup", "asymptotics", "perturbation",
           "counterexample", "metric_graphs", "reference", "verify", "cli")
METHOD_TAGS = ("spectral", "scaling-squaring", "krylov")
ASYMPTOTICS = ("rate_inner", "rate_kernel", "kernel_factorization_defects",
               "groundstate_limit", "positivity_improving")
PERTURBATION = ("lambda0", "admissibility_check", "truncation_ladder",
                "approximated_solution", "sv_limit",
                "exhaustion_divergence_probe")
SECTIONS = ("kernel_axioms_section", "taylor_agreement_section",
            "rayleigh_section", "positivity_section", "cross_method_section",
            "contraction_section")
SUBCOMMANDS = ("spectrum", "kernel", "rate", "groundstate", "positivity",
               "perturb", "solve", "counterexample", "metric")

# (name, unit) of every metric a traced run prints, in print order
PER_LAYER = (
    [(f"{m}.calls", "count") for m in MODULES]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [("graphs.build_graph.busy_s", "s"),
       ("metric_graphs.discretize.busy_s", "s"),
       ("operators.assemble.busy_s", "s"),
       ("operators.eigendecompose.calls", "count"),
       ("operators.eigendecompose.busy_s", "s"),
       ("operators.eigendecompose.hit_ratio", "ratio"),
       ("operators.shift_by_potential.calls", "count")]
    + [(f"semigroup.apply.{tag}.{key}", unit) for tag in METHOD_TAGS
       for key, unit in (("calls", "count"), ("busy_s", "s"),
                         ("fail", "count"))]
    + [("semigroup.heat_kernel.busy_s", "s"),
       ("semigroup.resolvent.busy_s", "s"),
       ("semigroup.pade13_expm.calls", "count"),
       ("semigroup.pade13_expm.busy_s", "s"),
       ("semigroup.pade13_expm.squarings", "count"),
       ("semigroup.pade13_expm.gflop_computed", "GFLOP")]
    + [(f"asymptotics.{f}.busy_s", "s") for f in ASYMPTOTICS]
    + [("asymptotics.rate_kernel.check_share", "ratio"),
       ("asymptotics.rate_kernel.fail", "count"),
       ("asymptotics.positivity_improving.fail", "count")]
    + [(f"perturbation.{f}.busy_s", "s") for f in PERTURBATION]
    + [("reference.taylor_expm.busy_s", "s"),
       ("reference.rayleigh_min.busy_s", "s")]
    + [(f"verify.{s}.busy_s", "s") for s in SECTIONS]
    + [("verify.checks", "count"), ("verify.failed_checks", "count"),
       ("counterexample.counterexample_rate.busy_s", "s"),
       ("counterexample.shift_orbit.busy_s", "s"),
       ("cli.import_s", "s")]
    + [(f"cli.{c}.wall_ms", "ms") for c in SUBCOMMANDS]
    + [("cli.artifact_bytes", "bytes"),
       ("trace.wall_s", "s"), ("trace.self_sum_s", "s"),
       ("trace_overhead_ratio", "ratio")]
)


class Span:
    """One call of a wrapped function; ``parent`` is the caller's span index."""

    __slots__ = ("name", "parent", "task", "start", "end", "error", "attrs")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task
        self.start = self.end = 0.0
        self.error = None
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _pade_gflop(n: int, squarings: int) -> float:
    """Flops of the 13/13 approximant from its matrix sizes (computed, not
    counted): six products, one LU solve with n right-hand sides, then one
    product per squaring."""
    return (2.0 * n ** 3 * (6 + squarings) + (2.0 / 3.0 + 2.0) * n ** 3) / 1e9


class Tracer:
    """Records spans around heatlab's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._seen_ops = weakref.WeakSet()

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module(f"heatlab.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        patched = []
        try:
            for module in [heatlab, *modules]:
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None,
                        self.task)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            out = None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                try:
                    self._annotate(span, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the attribute, not the call
        return traced

    def _annotate(self, span, args, kwargs, out):
        """Attributes read from a call's arguments and return value."""
        name = span.name
        if name == "operators.eigendecompose":
            op = args[0] if args else kwargs["op"]
            span.attrs["hit"] = op in self._seen_ops
            self._seen_ops.add(op)
        elif name == "semigroup.apply":
            method = args[3] if len(args) > 3 else kwargs.get("method")
            span.attrs["tag"] = method.tag if method is not None else "spectral"
        elif name == "semigroup.pade13_expm" and isinstance(out, tuple):
            span.attrs["squarings"] = int(out[1])
            span.attrs["gflop"] = _pade_gflop(out[0].shape[0], int(out[1]))
        elif name.startswith("verify.") and name.endswith("_section") \
                and out is not None:
            span.attrs["checks"] = len(out.reports)
            span.attrs["failed_checks"] = sum(not r.passed for r in out.reports)

    def dump(self, path) -> None:
        """Write the spans as JSON: name, start, end, parent, task, error."""
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "task": s.task, "error": s.error,
                 **s.attrs} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _outermost(spans, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def _has_ancestor(spans, s, name):
    p = s.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every span-derived per-layer metric of :data:`PER_LAYER`.

    Self time is a span's duration minus that of its direct children, so
    the module self times add up to the time covered by top-level spans.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    metrics = {}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        module = s.name.split(".", 1)[0]
        calls[module] += 1
        self_s[module] += s.seconds - child_time[i]
    for m in MODULES:
        metrics[f"{m}.calls"] = calls[m]
        metrics[f"{m}.self_s"] = self_s[m]

    def busy(name):
        return sum(s.seconds for s in _outermost(spans, name))

    def named(name):
        return [s for s in spans if s.name == name]

    for name in ("graphs.build_graph", "metric_graphs.discretize",
                 "operators.assemble", "semigroup.heat_kernel",
                 "semigroup.resolvent", "reference.taylor_expm",
                 "reference.rayleigh_min",
                 "counterexample.counterexample_rate",
                 "counterexample.shift_orbit"):
        metrics[f"{name}.busy_s"] = busy(name)
    eig = named("operators.eigendecompose")
    metrics["operators.eigendecompose.calls"] = len(eig)
    metrics["operators.eigendecompose.busy_s"] = busy("operators.eigendecompose")
    metrics["operators.eigendecompose.hit_ratio"] = (
        sum(s.attrs.get("hit", False) for s in eig) / len(eig) if eig else 0.0)
    metrics["operators.shift_by_potential.calls"] = len(
        named("operators.shift_by_potential"))
    applies = _outermost(spans, "semigroup.apply")
    for tag in METHOD_TAGS:
        mine = [s for s in applies if s.attrs.get("tag") == tag]
        metrics[f"semigroup.apply.{tag}.calls"] = len(mine)
        metrics[f"semigroup.apply.{tag}.busy_s"] = sum(s.seconds for s in mine)
        metrics[f"semigroup.apply.{tag}.fail"] = sum(
            s.error is not None for s in mine)
    pade = named("semigroup.pade13_expm")
    metrics["semigroup.pade13_expm.calls"] = len(pade)
    metrics["semigroup.pade13_expm.busy_s"] = busy("semigroup.pade13_expm")
    metrics["semigroup.pade13_expm.squarings"] = sum(
        s.attrs.get("squarings", 0) for s in pade)
    metrics["semigroup.pade13_expm.gflop_computed"] = sum(
        s.attrs.get("gflop", 0.0) for s in pade)
    for f in ASYMPTOTICS:
        metrics[f"asymptotics.{f}.busy_s"] = busy(f"asymptotics.{f}")
    rate_kernel = metrics["asymptotics.rate_kernel.busy_s"]
    check = sum(s.seconds
                for s in _outermost(spans,
                                    "asymptotics.kernel_factorization_defects")
                if _has_ancestor(spans, s, "asymptotics.rate_kernel"))
    metrics["asymptotics.rate_kernel.check_share"] = (
        check / rate_kernel if rate_kernel > 0 else 0.0)
    for f in ("rate_kernel", "positivity_improving"):
        metrics[f"asymptotics.{f}.fail"] = sum(
            s.error is not None for s in _outermost(spans, f"asymptotics.{f}"))
    for f in PERTURBATION:
        metrics[f"perturbation.{f}.busy_s"] = busy(f"perturbation.{f}")
    checks = failed = 0
    for sec in SECTIONS:
        outer = _outermost(spans, f"verify.{sec}")
        metrics[f"verify.{sec}.busy_s"] = sum(s.seconds for s in outer)
        checks += sum(s.attrs.get("checks", 0) for s in outer)
        failed += sum(s.attrs.get("failed_checks", 0) for s in outer)
    metrics["verify.checks"] = checks
    metrics["verify.failed_checks"] = failed
    return metrics


def failures_by_layer(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Exception classes per function, counted where they were raised.

    A span that re-raises its child's exception is not counted again, so
    a KrylovBreakdown shows up under ``semigroup.apply`` only.
    """
    raised_by_child = set()
    for s in spans:
        if s.error is not None and s.parent is not None \
                and spans[s.parent].error == s.error:
            raised_by_child.add(s.parent)
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        if s.error is not None and i not in raised_by_child:
            out[s.name][s.error] += 1
    return {k: dict(v) for k, v in sorted(out.items())}
