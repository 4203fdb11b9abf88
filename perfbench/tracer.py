"""Outside-in tracing of flowbox, installed from the benchmark's own files.

The tracer wraps public flowbox functions for the length of one `main` call
and restores every name afterwards.  A module that did `from .odeint import
find_crossings` holds its own binding, so patching only the defining module
would silently count nothing for its callers: each wrapped function is
therefore replaced under every name that is bound to it in any loaded
flowbox module.

Layers with few, long calls record spans (name, start, end, parent, RHS
evaluations during the span, attributes).  Layers called hundreds of
thousands of times (field evaluations, AST evaluation, varfit stencils) keep
a call count and a total time instead.  Everything stays in memory until the
run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time

perf_counter = time.perf_counter

# (defining module, function name, span name)
SPAN_SITES = (
    ("flowbox.chart", "flowbox", "chart.point"),
    ("flowbox.chart", "build_chart", "chart.audit"),
    ("flowbox.chart", "check_nonrecurrent", "chart.audit"),
    ("flowbox.odeint", "find_crossings", "odeint.find_crossings"),
    ("flowbox.odeint", "flow", "odeint.flow"),
    ("flowbox.kef", "kpde_residual", "kef.residual"),
    ("flowbox.fdiff", "fd_gradient", "fdiff.gradient"),
    ("flowbox.fdiff", "fd_jacobian", "fdiff.jacobian"),
    ("flowbox.varfit", "fit", "varfit.fit"),
)
# (defining module, function name, counter name)
COUNTER_SITES = (
    ("flowbox.varfit", "diff_axis", "varfit.diff_axis"),
    ("flowbox.varfit", "diff_axis_T", "varfit.diff_axis_T"),
)
COUNTERS = ("dynsys.eval", "expressions.evaluate", "varfit.diff_axis",
            "varfit.diff_axis_T")
AST_NODES = ("Num", "Var", "Neg", "Call", "Bin")


def _attrs(span_name, args, result):
    """Per-span details read from arguments and results, after the clock."""
    if span_name == "chart.point":
        chart, x = args[0], args[1]
        return {"system": chart.field.name, "surface": chart.surface.name,
                "x": [float(v) for v in x], "z": [float(v) for v in result]}
    if span_name == "chart.audit" and hasattr(result, "tested_points"):
        return {"orbits": int(result.tested_points)}
    if span_name == "kef.residual":
        return {"abs": abs(complex(result))}
    if span_name == "varfit.fit":
        return {"iterations_run": int(result.iterations_run),
                "total": float(result.total),
                "node_mean_a_max": float(max(result.node_mean_a))}
    return None


def flowbox_sites(obj) -> list:
    """Every (module, name) in a loaded flowbox module bound to obj."""
    sites = []
    for mod_name in sorted(sys.modules):
        if mod_name != "flowbox" and not mod_name.startswith("flowbox."):
            continue
        module = sys.modules[mod_name]
        for key, value in list(vars(module).items()):
            if value is obj:
                sites.append((module, key))
    return sites


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, rhs evaluations, attrs]
        self.spans = []
        self.counts = {name: 0 for name in COUNTERS}
        self.seconds = {name: 0.0 for name in COUNTERS}
        self.probes = {}
        self.patched = []  # (owner, attribute, original)
        self._open = []
        self._ast_depth = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, open_, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                      counts["dynsys.eval"], None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
                record[4] = counts["dynsys.eval"] - record[4]
            record[5] = _attrs(name, args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts, seconds = self.counts, self.seconds

        def counted(*args, **kwargs):
            counts[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0

        return counted

    def _outermost_evaluate(self, fn):
        """Count only AST evaluations not nested in another one."""
        counts, seconds = self.counts, self.seconds

        def counted(node, coords):
            if self._ast_depth:
                return fn(node, coords)
            self._ast_depth = 1
            counts["expressions.evaluate"] += 1
            t0 = perf_counter()
            try:
                return fn(node, coords)
            finally:
                seconds["expressions.evaluate"] += perf_counter() - t0
                self._ast_depth = 0

        return counted

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, module_name, attr, wrap):
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = wrap(original)
        for owner, key in flowbox_sites(original):
            self._set(owner, key, wrapper)

    def install(self):
        import flowbox.cli
        import flowbox.dynsys
        import flowbox.expressions

        for module_name, attr, span_name in SPAN_SITES:
            self._patch_everywhere(
                module_name, attr, lambda fn, n=span_name: self._span(n, fn))
        for module_name, attr, counter in COUNTER_SITES:
            self._patch_everywhere(
                module_name, attr, lambda fn, n=counter: self._counter(n, fn))
        field_cls = flowbox.dynsys.VectorField
        self._set(field_cls, "eval", self._counter("dynsys.eval", field_cls.eval))
        for node in AST_NODES:
            cls = getattr(flowbox.expressions, node)
            self._set(cls, "evaluate", self._outermost_evaluate(cls.evaluate))
        self._set(flowbox.cli, "VERIFY_SUITES", tuple(
            (name, self._span(f"cli.suite.{name}", fn))
            for name, fn in flowbox.cli.VERIFY_SUITES
        ))

    def restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def run_main(self, main, argv) -> int:
        """One traced main(argv); the root span is cli.main."""
        with self.installed():
            return self._span("cli.main", main)(argv)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "seconds": self.seconds, "probes": self.probes}
