#!/usr/bin/env python3
"""The cycloknot benchmark (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
operation list; each repetition runs that whole list in a fresh worker
interpreter (bench/worker.py), so the library's module-level caches start
cold every time.  Repetitions run one at a time, one thread each, in a closed
loop, until the next one would overrun --seconds.  Every output is checked
against the goldens committed in bench/; an operation fails when it raises,
when a CLI run exits nonzero, or when its output digest differs.

With --trace 0 the last stdout line reports the end-to-end metrics (medians
over repetitions; setup_s also over dedicated spawn-to-ready probes).  With
--trace 1 it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The full
record (manifest, chosen inputs, every repetition, failures, spans) goes to
.bench_out/.  The exit code is 0 when every operation passed, 1 when any
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from worker import KNOT_KINDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
GOLDENS = BENCH / "goldens.json"
VERIFY_ALL = ["cli", "verify", "--suite", "all"]
# Committed byte streams, compared as a whole with the op's stdout.
GOLDEN_STREAMS = {json.dumps(VERIFY_ALL): BENCH / "verify_all.stdout"}

# One spawn-to-ready sample varies by tens of percent on a shared machine,
# so setup_s is the median of many probes plus the setup of every repetition.
SETUP_PROBES = 20
# Every worker is killed at this many seconds into the run (a killed
# repetition fails all its operations), so a run always ends within three
# minutes.
HARD_LIMIT_S = 170.0

# A workload is a tuple of slots (operations, mirrorable).  The seed picks
# the slot order and, for a mirrorable slot, the knot or its mirror.  In
# habiro-generic only the torus slots are mirrorable: a mirrored double twist
# slot also keeps its q-inverted coefficients cached, which moved peak RSS by
# up to 8% with the seed, at the same time cost.
HABIRO_GENERIC = tuple(
    ([["habiro_a", knot, n] for n in range(n_max + 1)], "t2:" in knot)
    for knot, n_max in (("dt:2,2", 22), ("dt:-2,3", 16), ("dt:3,3", 14), ("t2:4", 10), ("!t2:5", 8))
)
INVARIANTS_AT_ROOT = tuple(
    ([op], True)
    for op in (
        ["cgp_zero", "dt:2,2", 13],
        ["cgp_zero", "dt:-2,3", 11],
        ["wrt_zero", "dt:2,2", 17],
        ["wrt_zero_closed", "dt:2,2", 17],
        ["wrt_zero", "dt:2,-2", 15],
        ["wrt_zero_closed", "dt:2,-2", 15],
        ["cgp_torus_direct", 3, 17],
        ["cgp_torus_direct", 4, 13],
        ["ado", "t2:3", 11],
        ["ado", "t2:4", 9],
        ["ado_conjectural", 2, 7, 13],
        ["ado_conjectural", 2, 9, 9],
    )
)
# BENCHMARK.json lists verify-all and habiro-generic: on a 2-vCPU machine
# only two workloads leave room for runs long enough to be steady.
# invariants-at-root is gated and tested like them and can be run by name.
WORKLOADS = {
    "verify-all": (([VERIFY_ALL], False),),
    "habiro-generic": HABIRO_GENERIC,
    "invariants-at-root": INVARIANTS_AT_ROOT,
}

SUITES = (
    "habiro-goldens", "thm1-trunc", "thm2", "thm3", "thm4-vs-conj",
    "wrt-consistency", "torus-T", "appendix-t25", "jones-consistency", "qtools-identities",
)
INVARIANT_FUNCTIONS = ("ado", "wrt_zero", "cgp_zero", "cgp_torus_direct", "ado_conjectural")


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------


def op_key(op) -> str:
    return json.dumps(op)


def mirror_op(op):
    if op[0] not in KNOT_KINDS:
        return op
    knot = op[1]
    return [op[0], knot[1:] if knot.startswith("!") else "!" + knot, *op[2:]]


def generate(slots, seed: int):
    """The seed's operation list and the choices behind it."""
    rng = random.Random(seed)
    order = list(range(len(slots)))
    rng.shuffle(order)
    ops, choices = [], []
    for i in order:
        slot, mirrorable = slots[i]
        flip = rng.random() < 0.5 and mirrorable
        slot = [mirror_op(op) if flip else op for op in slot]
        ops.extend(slot)
        choices.append({"slot": i, "mirrored": flip, "first_op": slot[0], "ops": len(slot)})
    return ops, choices


def every_op(slots):
    """Every operation that any seed can generate for these slots."""
    keys = {}
    for slot, mirrorable in slots:
        for op in slot:
            for variant in (op, mirror_op(op)) if mirrorable else (op,):
                keys[op_key(variant)] = variant
    return list(keys.values())


def load_goldens() -> dict[str, str]:
    goldens = json.loads(GOLDENS.read_text())
    for key, path in GOLDEN_STREAMS.items():
        goldens[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return goldens


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def spawn(ops, *, trace=False, setup_only=False, timeout=HARD_LIMIT_S) -> dict:
    """Run one worker to completion; return its report plus setup_s and span_s."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    payload = json.dumps({"ops": ops, "trace": trace, "setup_only": setup_only})
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crash": f"worker killed after {timeout:.0f} s", "span_s": time.monotonic() - t0}
    span = time.monotonic() - t0
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"crash": f"worker exited {proc.returncode}: {err.strip()[-2000:]}", "span_s": span}
    report["setup_s"] = report["ready"] - t0
    report["span_s"] = span
    return report


def gate(ops, rep, goldens) -> list[dict]:
    """Failures of one repetition: one entry per failed operation."""
    if "crash" in rep:
        return [{"op": op, "reason": rep["crash"]} for op in ops]
    failures = []
    for op, out in zip(ops, rep["outcomes"]):
        expected = goldens.get(op_key(op))
        if out["error"] is not None:
            reason = out["error"]
        elif expected is None:
            reason = "no golden for this operation"
        elif out["digest"] != expected:
            reason = f"digest {out['digest']} != golden {expected}"
        else:
            continue
        failure = {"op": op, "reason": reason}
        if "stdout" in out:
            failure["stdout"] = out["stdout"]
        failures.append(failure)
    return failures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    tr = rep["trace"]
    stats, counts, caches = tr["stats"], tr["counts"], tr["caches"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(prefix):
        return sum(v[1] for k, v in stats.items() if k == prefix or k.startswith(prefix + "."))

    def hit_ratio(qualname):
        hits, misses, _ = caches[qualname]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {
        "ring.self_s": self_s("ring"),
        "ring.mul.calls": calls("ring.mul"),
        "ring.mul.self_s": self_s("ring.mul"),
        "ring.exact_div.calls": calls("ring.exact_div"),
        "ring.exact_div.self_s": self_s("ring.exact_div"),
        "ring.inverse.calls": calls("ring.inverse"),
        "poly.self_s": self_s("poly"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.mul.term_pairs": counts.get("poly.mul.term_pairs", 0),
        "poly.add.self_s": self_s("poly.add"),
        "poly.substitute.calls": calls("poly.substitute"),
        "poly.substitute.self_s": self_s("poly.substitute"),
        "poly.evaluate.self_s": self_s("poly.evaluate"),
        "poly.eval_at_root.calls": calls("poly.eval_at_root"),
        "poly.eval_at_root.self_s": self_s("poly.eval_at_root"),
        "poly.exact_div.self_s": self_s("poly.exact_div"),
        "qtools.self_s": self_s("qtools"),
        "qtools.qbinomial.hit_ratio": hit_ratio("cycloknot.qtools.qbinomial"),
        "qtools.sigma_at_root.hit_ratio": hit_ratio("cycloknot.qtools.sigma_at_root"),
        "qtools.qbinomial_at_root.calls": calls("qtools.qbinomial_at_root"),
        "knots.self_s": self_s("knots"),
        "knots.habiro_a.calls": calls("knots.habiro_a"),
        "knots.habiro_a.hit_ratio": hit_ratio("cycloknot.knots.habiro_a"),
        "knots.chains": counts.get("knots.chains", 0),
        "knots.a_at_root.calls": calls("knots.a_at_root"),
        "knots.a_at_root.self_s": self_s("knots.a_at_root"),
        "invariants.self_s": self_s("invariants"),
    }
    for fn in INVARIANT_FUNCTIONS:
        m[f"invariants.{fn}.self_s"] = self_s(f"invariants.{fn}")
    for suite in SUITES:
        m[f"verify.{suite}.wall_s"] = stats.get(f"verify.{suite}", [0, 0.0, 0.0])[2]
    m["verify.self_s"] = self_s("verify")
    m["verify.checks"] = counts.get("verify.checks", 0)
    m["verify.failed"] = counts.get("verify.failed", 0)
    m["cli.self_s"] = self_s("cli")
    m["cli.output_bytes"] = sum(
        len(o["stdout"].encode()) for o in rep["outcomes"] if "stdout" in o
    )
    m["cache.entries"] = sum(c[2] for c in caches.values())
    return m


def declared_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "cycloknot" / "__init__.py").is_file():
        raise HarnessError(f"no cycloknot source under {SRC}")
    ops, choices = generate(WORKLOADS[workload], seed)
    goldens = load_goldens()
    start = time.monotonic()

    def time_left():
        return HARD_LIMIT_S - (time.monotonic() - start)

    def setup_probe():
        rep = spawn(ops, setup_only=True, timeout=time_left())
        if "crash" in rep:
            raise HarnessError(f"the worker does not start: {rep['crash']}")
        return rep["setup_s"]

    setup_probe()  # warm-up: byte-compiles the package once; not measured
    setups = [setup_probe() for _ in range(SETUP_PROBES)]

    modes = (False, True) if trace else (False,)
    reps, last_span = [], {}
    while True:
        mode = modes[len(reps) % len(modes)]
        rep = spawn(ops, trace=mode, timeout=time_left())
        rep["traced"] = mode
        reps.append(rep)
        last_span[mode] = rep["span_s"]
        # Stop when the next repetition would overrun --seconds.
        next_span = last_span.get(modes[len(reps) % len(modes)], 0.0)
        elapsed = time.monotonic() - start
        if len(reps) >= len(modes) and (
            elapsed + next_span > seconds or elapsed + next_span > HARD_LIMIT_S
        ):
            break

    failures = []
    for rep in reps:
        failures.extend(gate(ops, rep, goldens))
    attempted = len(ops) * len(reps)
    ok = [r for r in reps if "crash" not in r]
    plain = [r for r in ok if not r["traced"]]
    setups += [r["setup_s"] for r in plain]

    metrics = {}
    if not trace and plain:
        metrics = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    traced = [r for r in ok if r["traced"]]
    for r in traced:
        r["layer_metrics"] = layer_metrics(r)
    if trace and traced and plain:
        per_rep = [r["layer_metrics"] for r in traced]
        metrics = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
        metrics["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(
            [r["wall_s"] for r in plain]
        )
    units = declared_units()
    line = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "manifest": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_rev": git_rev(),
            "operations": len(ops),
            "repetitions": len(reps),
            "setup_probes": SETUP_PROBES,
        },
        "inputs": {"choices": choices, "ops": ops},
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "setup_samples_s": setups,
        "repetitions": [{k: v for k, v in r.items() if k not in ("outcomes", "trace")} for r in reps],
        "spans": [
            {"rep": i, "dropped": r["trace"]["dropped_spans"], "spans": r["trace"]["spans"]}
            for i, r in enumerate(reps)
            if "trace" in r
        ],
        "result": line,
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    line = record["result"]
    m = record["manifest"]
    print(
        f"# {m['workload']} seed={m['seed']} ops={m['operations']} reps={m['repetitions']} "
        f"fail_frac={record['fail_frac']:.4g} record={path}"
    )
    for failure in record["failures"][:5]:
        print(f"# FAIL {json.dumps(failure['op'])}: {failure['reason']}")
    for name, v in line["metrics"].items():
        print(f"# {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
