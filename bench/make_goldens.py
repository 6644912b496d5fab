#!/usr/bin/env python3
"""Regenerate the benchmark goldens from the current source tree.

    python3 bench/make_goldens.py

Runs every operation that any seed can generate, one worker per workload,
and writes bench/goldens.json (SHA-256 of each operation's canonical JSON
output) and bench/verify_all.stdout (the exact `verify --suite all` stdout).
The goldens pin the library's outputs: regenerate them only in a change
whose stated purpose is to change an output, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    goldens = {}
    for name, slots in run.WORKLOADS.items():
        ops = run.every_op(slots)
        rep = run.spawn(ops)
        if "crash" in rep:
            print(f"{name}: {rep['crash']}", file=sys.stderr)
            return 1
        for op, out in zip(ops, rep["outcomes"]):
            if out["error"] is not None:
                print(f"{name}: {json.dumps(op)} failed: {out['error']}", file=sys.stderr)
                return 1
            key = run.op_key(op)
            if key in run.GOLDEN_STREAMS:
                run.GOLDEN_STREAMS[key].write_text(out["stdout"])
            else:
                goldens[key] = out["digest"]
        print(f"{name}: {len(ops)} operations in {rep['wall_s']:.1f} s")
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
