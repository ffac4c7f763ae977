"""Per-layer tracing from outside the program.

``Instrumentation`` wraps public functions and methods of each
poisson_forge module for the duration of one traced round and restores
them afterwards.  Every reference a module holds to a wrapped function
(``from .x import f``) is replaced, so calls between modules are seen.

Timed layers record a span (name, start, end, parent, op) and add to the
layer's call count, total time and self time; self time is the span's
duration minus the time of the traced spans directly inside it, and the
total counts only the outermost span of a name.  The hottest calls of
``expr`` (multiplication, partial derivatives, polynomial construction)
are counted but not timed, since timing them would swamp the run.
Spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

CENTRE = "quotient.bounded_centre"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.active: dict[str, int] = defaultdict(int)
        self.op = -1
        self.last_parse_terms = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._origin = time.perf_counter()

    def enter(self, name: str) -> list:
        frame = [len(self.spans), name, time.perf_counter(), 0.0]
        self.spans.append(None)  # filled in on exit, keeping ids in call order
        self.active[name] += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not self.active[name]:
            self.total[name] += duration
        self.spans[span_id] = (span_id, parent[0] if parent else None, self.op,
                               name, start - self._origin, end - self._origin)

    def deterministic(self) -> dict[str, int]:
        """Every count that repeats exactly when the same code runs."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out.update({f"max:{k}": v for k, v in self.maxima.items()})
        return dict(sorted(out.items()))


def _timed(tracer: Tracer, name, after=None):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper
    return wrap


def _counted(tracer: Tracer, name: str, after=None):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper
    return wrap


class Instrumentation:
    """Installs the wrappers for one traced round; ``remove()`` undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []
        self._install()

    def _set(self, owner, attr, value):
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _function(self, module, attr, wrap):
        original = getattr(module, attr)
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if name == "poisson_forge" or name.startswith("poisson_forge."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _method(self, cls, attrs, wrap):
        wrapper = wrap(cls.__dict__[attrs[0]])
        for attr in attrs:
            self._set(cls, attr, wrapper)

    def remove(self):
        while self._undo:
            self._undo.pop()()

    def _install(self):
        from poisson_forge import (chain, expr, g2, linalg, parse, poisson,
                                   quotient, report, suites, torus)
        T = self.tracer

        def add(key, amount):
            T.counts[key] += amount

        def peak(key, value):
            if value > T.maxima[key]:
                T.maxima[key] = value

        def poly_init(args, kwargs, result):
            add("expr.poly_init.terms", len(args[0].terms))

        def divide_exact(args, kwargs, result):
            add("expr.divide_exact.hits", result is not None)

        def parsed(args, kwargs, result):
            T.last_parse_terms = len(result.terms)

        def bracket_out(args, kwargs, result):
            add("poisson.bracket.terms_out", len(result.terms))

        def chain_step(args, kwargs, result):
            peak("chain.series_depth", max(result.depths.values(), default=0))

        def add_row(args, kwargs, result):
            add("linalg.add_row.pivots", bool(result))
            if T.active[CENTRE]:
                add("quotient.bounded_centre.rows", 1)

        def null_space(args, kwargs, result):
            if T.active[CENTRE]:
                add("quotient.bounded_centre.columns", args[1])

        def normal_form(args, kwargs, result):
            p = args[1]
            terms_in = len(p.terms) if hasattr(p, "terms") else T.last_parse_terms
            add("quotient.normal_form.terms_in", terms_in)
            add("quotient.normal_form.terms_out", len(result.terms))
            peak("quotient.normal_form.terms", max(terms_in, len(result.terms)))

        def centre_name(args, kwargs):
            degree = args[1] if len(args) > 1 else kwargs["degree"]
            return f"{CENTRE}.d{degree}"

        def centre(fn):
            timed = _timed(T, centre_name)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                T.active[CENTRE] += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    T.active[CENTRE] -= 1
            return wrapper

        def register(fn):
            @functools.wraps(fn)
            def wrapper(field, poly):
                before = len(field.factors)
                label = fn(field, poly)
                add("chain.denominators_registered", len(field.factors) - before)
                return label
            return wrapper

        self._method(expr.LaurentPoly, ("__mul__", "__rmul__"), _counted(T, "expr.mul"))
        self._method(expr.LaurentPoly, ("partial",), _counted(T, "expr.partial"))
        self._method(expr.LaurentPoly, ("__init__",),
                     _counted(T, "expr.poly_init", poly_init))
        self._function(expr, "divide_exact",
                       _counted(T, "expr.divide_exact", divide_exact))
        self._function(parse, "parse_expr", _timed(T, "parse.parse_expr", parsed))
        self._function(g2, "builtin_algebra", _timed(T, "g2.builtin_algebra"))
        self._method(quotient.QuotientRing, ("__init__",), _timed(T, "quotient.ring_init"))
        self._method(poisson.PoissonStructure, ("bracket",),
                     _timed(T, "poisson.bracket", bracket_out))
        self._function(poisson, "apply_images", _timed(T, "poisson.apply_images"))
        self._function(chain, "chain_step", _timed(T, "chain.chain_step", chain_step))
        self._method(chain.FractionElement, ("bracket",), _timed(T, "chain.fraction_bracket"))
        self._method(chain.FractionField, ("register",), register)
        self._function(torus, "decompose_derivation",
                       _timed(T, "torus.decompose_derivation"))
        self._function(linalg, "integer_kernel", _timed(T, "linalg.integer_kernel"))
        self._method(linalg.LinearSystem, ("add_row",), _timed(T, "linalg.add_row", add_row))
        self._method(linalg.LinearSystem, ("null_space",),
                     _timed(T, "linalg.null_space", null_space))
        self._function(linalg, "solve", _timed(T, "linalg.solve"))
        self._method(quotient.QuotientRing, ("normal_form",),
                     _timed(T, "quotient.normal_form", normal_form))
        self._method(quotient.QuotientRing, ("bracket",), _timed(T, "quotient.bracket"))
        self._function(quotient, "bounded_centre", centre)
        self._function(quotient, "bounded_inner_search",
                       _timed(T, "quotient.bounded_inner_search"))
        # run_suites looks the suites up in this registry
        builders = suites._BUILDERS
        for name, original in list(builders.items()):
            builders[name] = _timed(T, f"suites.{name}")(original)
            self._undo.append(functools.partial(builders.__setitem__, name, original))
        self._method(report.Report, ("render_text",), _timed(T, "report.render_text"))


# -- the per-layer metrics -----------------------------------------------------

SUITES = ["jacobi", "casimir", "pdda", "pullback", "pl2", "quotient",
          "localization", "torus", "derivations", "centre", "grading"]
CENTRE_DEGREES = (2, 3, 4, 5, 6)


def layer_metrics(t: Tracer, overhead: float,
                  scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """name -> (value, unit), in the order BENCHMARK.json lists them;
    seconds are multiplied by ``scale``."""
    calls, total, counts = t.calls, t.total, t.counts

    def ratio(part, whole):
        return part / whole if whole else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("expr.mul", "expr.partial", "expr.poly_init"):
        m[f"{name}.calls"] = (calls[name], "count")
    m["expr.poly_init.terms"] = (counts["expr.poly_init.terms"], "count")
    m["expr.divide_exact.calls"] = (calls["expr.divide_exact"], "count")
    m["expr.divide_exact.hit_ratio"] = (
        ratio(counts["expr.divide_exact.hits"], calls["expr.divide_exact"]), "ratio")
    for name in ("parse.parse_expr", "g2.builtin_algebra", "quotient.ring_init"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.total_s"] = (total[name], "s")
    m["poisson.bracket.calls"] = (calls["poisson.bracket"], "count")
    m["poisson.bracket.total_s"] = (total["poisson.bracket"], "s")
    m["poisson.bracket.self_s"] = (t.self_s["poisson.bracket"], "s")
    m["poisson.bracket.terms_out"] = (counts["poisson.bracket.terms_out"], "count")
    m["poisson.apply_images.calls"] = (calls["poisson.apply_images"], "count")
    m["poisson.apply_images.total_s"] = (total["poisson.apply_images"], "s")
    m["chain.chain_step.total_s"] = (total["chain.chain_step"], "s")
    m["chain.fraction_bracket.calls"] = (calls["chain.fraction_bracket"], "count")
    m["chain.fraction_bracket.total_s"] = (total["chain.fraction_bracket"], "s")
    m["chain.denominators_registered"] = (counts["chain.denominators_registered"], "count")
    m["chain.series_depth_max"] = (t.maxima["chain.series_depth"], "count")
    m["torus.decompose_derivation.calls"] = (calls["torus.decompose_derivation"], "count")
    m["torus.decompose_derivation.total_s"] = (total["torus.decompose_derivation"], "s")
    m["linalg.integer_kernel.total_s"] = (total["linalg.integer_kernel"], "s")
    m["linalg.add_row.calls"] = (calls["linalg.add_row"], "count")
    m["linalg.add_row.total_s"] = (total["linalg.add_row"], "s")
    m["linalg.add_row.pivot_ratio"] = (
        ratio(counts["linalg.add_row.pivots"], calls["linalg.add_row"]), "ratio")
    m["linalg.null_space.total_s"] = (total["linalg.null_space"], "s")
    m["linalg.solve.total_s"] = (total["linalg.solve"], "s")
    m["quotient.normal_form.calls"] = (calls["quotient.normal_form"], "count")
    m["quotient.normal_form.total_s"] = (total["quotient.normal_form"], "s")
    m["quotient.normal_form.self_s"] = (t.self_s["quotient.normal_form"], "s")
    for key in ("terms_in", "terms_out"):
        m[f"quotient.normal_form.{key}"] = (counts[f"quotient.normal_form.{key}"], "count")
    m["quotient.normal_form.terms_peak"] = (t.maxima["quotient.normal_form.terms"], "count")
    m["quotient.bracket.calls"] = (calls["quotient.bracket"], "count")
    m["quotient.bracket.total_s"] = (total["quotient.bracket"], "s")
    for d in CENTRE_DEGREES:
        m[f"{CENTRE}.d{d}.total_s"] = (total[f"{CENTRE}.d{d}"], "s")
    m[f"{CENTRE}.columns"] = (counts[f"{CENTRE}.columns"], "count")
    m[f"{CENTRE}.rows"] = (counts[f"{CENTRE}.rows"], "count")
    m["quotient.bounded_inner_search.total_s"] = (total["quotient.bounded_inner_search"], "s")
    for name in SUITES:
        m[f"suites.{name}.total_s"] = (total[f"suites.{name}"], "s")
    m["report.render_text.total_s"] = (total["report.render_text"], "s")
    m["trace.overhead"] = (overhead, "ratio")
    return {name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in m.items()}


def layer_table(t: Tracer) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds of every timed name, for the trace file."""
    return {name: {"calls": t.calls[name], "total_s": t.total[name],
                   "self_s": t.self_s[name]}
            for name in sorted(t.total)}
