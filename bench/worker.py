"""Benchmark worker: runs one generated operation list in a fresh interpreter.

    python3 bench/worker.py SRC_DIR  < request.json

The request is {"ops": [...], "trace": bool, "setup_only": bool}.  The worker
imports cycloknot from SRC_DIR, parses the operations, and takes a "ready"
timestamp; with setup_only it stops there.  Otherwise it runs the operations
one after another (a closed loop with one caller), takes a "done" timestamp,
and only then serializes and digests each output, so that checking is not
timed.  The last line on stdout is one JSON object with the timings, the
worker's peak RSS, one outcome per operation and, when traced, the raw layer
statistics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

# Operations whose first argument is a knot spec; the other kinds take ints,
# except "cli", which takes a command line.
KNOT_KINDS = ("habiro_a", "ado", "cgp_zero", "wrt_zero", "wrt_zero_closed")
INT_KINDS = ("cgp_torus_direct", "ado_conjectural")


def canonical_bytes(value) -> bytes:
    """Canonical JSON encoding of an operation's result."""
    from cycloknot import AdoPoly, CgpResult

    if isinstance(value, AdoPoly):
        obj = value.poly.to_json_obj()
    elif isinstance(value, CgpResult):
        obj = {
            "numerator": value.numerator.to_json_obj(),
            "denominator": value.denominator_tag,
            "numerator_prefactor": value.numerator_prefactor_tag,
            "denominator_extra": value.denominator_extra_tag,
        }
    else:
        obj = value.to_json_obj()
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def bind(op):
    """Parse one operation into a zero-argument call.

    The function is looked up when the call runs, so a traced run reaches
    the tracer's wrapper.
    """
    import cycloknot
    from cycloknot import cli
    from cycloknot.knots import parse_knot

    kind, *args = op
    if kind == "cli":
        argv = [str(a) for a in args]

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return code, out.getvalue()

        return run_cli
    if kind in KNOT_KINDS:
        args = [parse_knot(args[0]), *args[1:]]
    elif kind not in INT_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    return lambda: getattr(cycloknot, kind)(*args)


def outcome(op, result, error):
    if error is not None:
        return {"digest": None, "error": error}
    if op[0] == "cli":
        code, stdout = result
        data = stdout.encode()
        out = {"digest": hashlib.sha256(data).hexdigest(), "error": None, "stdout": stdout}
        if code != 0:
            out["error"] = f"exit code {code}"
        return out
    return {"digest": hashlib.sha256(canonical_bytes(result)).hexdigest(), "error": None}


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    import cycloknot

    if not os.path.abspath(cycloknot.__file__).startswith(src + os.sep):
        print(f"cycloknot imported from {cycloknot.__file__}, not {src}", file=sys.stderr)
        return 3
    request = json.load(sys.stdin)
    ops = request["ops"]
    calls = [bind(op) for op in ops]
    tracer = caches = None
    if request["trace"]:
        import tracer as tracing

        caches = tracing.memoized_functions()
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    if request["setup_only"]:
        emit({"ready": ready})
        return 0

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    results = []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.request = i
        try:
            results.append((call(), None))
        except Exception as exc:  # a raising operation is a failed operation
            results.append((None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "outcomes": [outcome(op, r, e) for op, (r, e) in zip(ops, results)],
    }
    if tracer is not None:
        report["trace"] = {
            "stats": tracer.stats,
            "counts": dict(tracer.counts),
            "caches": {
                name: list(fn.cache_info()[:2]) + [fn.cache_info().currsize]
                for name, fn in caches.items()
            },
            "spans": tracer.spans,
            "dropped_spans": tracer.dropped_spans,
        }
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
