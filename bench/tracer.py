"""Layer tracer for the benchmark worker.

It wraps the public entry points of each cycloknot layer from outside the
program, by replacing every module binding (and class attribute) of the
original callable with a timing wrapper.  Per span name it accumulates the
call count, the self time (span time minus the time of wrapped child spans)
and the total time.  Spans of the coarse layers are also kept in memory as
(name, parent index, start, end, operation index) records and returned when
the run ends; the fine-grained ring, poly and qtools spans are only
aggregated, since there are millions of them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# Layers whose individual spans are recorded; all layers are aggregated.
RECORDED_LAYERS = ("cli", "verify", "invariants", "knots")
# Upper bound on recorded spans, so a traced run's memory stays bounded.
MAX_SPANS = 50_000


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.request = None  # index of the operation now running
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._open: list[int] = []  # indices of open recorded spans

    def wrap(self, name, fn, after=None):
        """Return a wrapper of fn timing each call as a span.

        name is a string or a function of the call arguments giving one;
        after(result, args) may update counters once the call returns.
        """
        perf = time.perf_counter
        stack, open_, spans, stats = self._stack, self._open, self.spans, self.stats
        fixed = name if isinstance(name, str) else None
        record_fixed = fixed is not None and fixed.split(".")[0] in RECORDED_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = fixed if fixed is not None else name(args)
            record = record_fixed if fixed is not None else span_name.split(".")[0] in RECORDED_LAYERS
            if record and len(spans) >= MAX_SPANS:
                record = False
                tracer.dropped_spans += 1
            if record:
                open_.append(len(spans))
                parent = open_[-2] if len(open_) > 1 else None
                spans.append([span_name, parent, 0.0, 0.0, tracer.request])
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                entry = stats.get(span_name)
                if entry is None:
                    entry = stats[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur - frame[0]
                entry[2] += dur
                if stack:
                    stack[-1][0] += dur
                if record:
                    span = spans[open_.pop()]
                    span[2], span[3] = start, end
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_yields(self, name, fn):
        """Wrap a generator function, counting the items it yields under name."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "cycloknot" or n.startswith("cycloknot.")]


def _rebind(modules, orig, replacement) -> None:
    """Point every module-level binding of orig at replacement."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def _public_functions(mod):
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def memoized_functions() -> dict:
    """Every lru_cache-memoized function of the package, by qualified name.

    Call it before install(), which rebinds the public ones to wrappers.
    """
    found = {}
    for mod in _package_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info"):
                found.setdefault(f"{obj.__module__}.{obj.__qualname__}", obj)
    return found


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the already imported cycloknot package."""
    from cycloknot import cli, exactring, invariants, knots, qtools, verify

    modules = _package_modules()
    ring, poly = exactring.CycNumber, exactring.LaurentPoly

    def poly_mul_pairs(_result, args):
        a, b = args
        tracer.counts["poly.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if isinstance(b, poly) else 1
        )

    def suite_reports(reports, _args):
        tracer.counts["verify.checks"] += len(reports)
        tracer.counts["verify.failed"] += sum(
            1 for r in reports if not r.passed and not r.params.get("exploratory")
        )

    def wrap_method(cls, attrs, name, after=None):
        """Wrap cls.attrs[0] and every alias of it among attrs."""
        orig = cls.__dict__[attrs[0]]
        wrapper = tracer.wrap(name, orig, after)
        for attr in attrs:
            if cls.__dict__.get(attr) is orig:
                setattr(cls, attr, wrapper)

    wrap_method(ring, ("__mul__", "__rmul__"), "ring.mul")
    wrap_method(ring, ("exact_div",), "ring.exact_div")
    wrap_method(ring, ("inverse",), "ring.inverse")
    wrap_method(poly, ("__mul__", "__rmul__"), "poly.mul", poly_mul_pairs)
    wrap_method(poly, ("__add__", "__radd__"), "poly.add")
    wrap_method(poly, ("substitute",), "poly.substitute")
    wrap_method(poly, ("evaluate",), "poly.evaluate")
    for name in ("eval_at_root", "exact_div"):
        orig = getattr(exactring, name)
        _rebind(modules, orig, tracer.wrap(f"poly.{name}", orig))

    for layer, mod in (("qtools", qtools), ("knots", knots), ("invariants", invariants)):
        for name, orig in list(_public_functions(mod)):
            # The only generator functions are the chain enumerators of knots.
            if inspect.isgeneratorfunction(orig):
                wrapper = tracer.count_yields(f"{layer}.chains", orig)
            else:
                wrapper = tracer.wrap(f"{layer}.{name}", orig)
            _rebind(modules, orig, wrapper)

    _rebind(
        modules,
        verify.run_suite,
        tracer.wrap(lambda args: f"verify.{args[0]}", verify.run_suite, suite_reports),
    )
    _rebind(modules, cli.run, tracer.wrap("cli.run", cli.run))
