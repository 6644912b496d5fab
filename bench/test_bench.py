"""Tests of the benchmark itself, above all of its output gate.

    python3 -m pytest bench -q

A clean run must pass with fail_frac 0; a corrupted output, a corrupted
golden digest, a raising operation and a nonzero CLI exit must each give
fail_frac > 0 and a nonzero exit code.  The runs use a tiny workload of
cheap operations, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

TINY = (([["habiro_a", "dt:2,2", n] for n in range(4)], False),)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Run the benchmark in-process on the given slots as workload "tiny"."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)

    def go(slots, trace=0):
        monkeypatch.setitem(run.WORKLOADS, "tiny", slots)
        argv = ["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        code = run.main(argv)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        record = json.loads((run.OUT / f"tiny-seed1-trace{trace}.json").read_text())
        return code, line, record

    return go


def test_clean_run_passes(bench):
    code, line, record = bench(TINY)
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 4
    assert record["fail_frac"] == 0
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    manifest = record["manifest"]
    assert manifest["operations"] == 4 and manifest["seed"] == 1 and manifest["trace"] is False


def test_corrupted_golden_fails(bench, monkeypatch):
    goldens = run.load_goldens()
    goldens[run.op_key(TINY[0][0][2])] = "0" * 64
    monkeypatch.setattr(run, "load_goldens", lambda: goldens)
    code, line, record = bench(TINY)
    assert code != 0 and not line["correct"]
    assert line["failed"] == 1 and record["fail_frac"] == 0.25
    assert record["failures"][0]["op"] == TINY[0][0][2]


def test_corrupted_output_fails(bench, monkeypatch, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(run.SRC / "cycloknot", src / "cycloknot", ignore=shutil.ignore_patterns("__pycache__"))
    knots = src / "cycloknot" / "knots.py"
    text = knots.read_text()
    line = "        return _q(n * (n + 1), sign) * habiro_c(knot, n)\n"
    assert line in text
    knots.write_text(text.replace(line, line.rstrip("\n") + " + _q(2 * n)\n"))
    monkeypatch.setattr(run, "SRC", src)
    code, out, record = bench(TINY)
    assert code != 0 and not out["correct"]
    assert out["failed"] == 4 and record["fail_frac"] == 1
    assert all("digest" in f["reason"] for f in record["failures"])


def test_raising_operation_fails(bench):
    code, line, record = bench(((TINY[0][0] + [["habiro_a", "dt:2,2", -1]], False),))
    assert code != 0 and not line["correct"]
    assert line["failed"] == 1 and record["fail_frac"] == 0.2
    assert record["failures"][0]["reason"].startswith("ValueError")


def test_nonzero_cli_exit_fails(bench):
    code, line, record = bench((([["cli", "verify", "--suite", "no-such-suite"]], False),))
    assert code != 0 and line["failed"] == 1
    assert record["failures"][0]["reason"] == "exit code 2"


def test_traced_run_reports_every_layer_metric(bench):
    code, line, record = bench((TINY[0], ([["wrt_zero_closed", "dt:2,-2", 15]], True)), trace=1)
    assert code == 0 and line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["knots.habiro_a.calls"] >= 4 and metrics["knots.a_at_root.calls"] > 0
    assert metrics["poly.mul.calls"] > 0 and metrics["poly.mul.term_pairs"] > 0
    assert metrics["ring.mul.calls"] > 0 and metrics["qtools.qbinomial_at_root.calls"] > 0
    assert metrics["invariants.self_s"] > 0 and metrics["cache.entries"] > 0
    assert record["spans"] and record["spans"][0]["spans"]


def test_goldens_cover_every_seed():
    goldens = run.load_goldens()
    for name, slots in run.WORKLOADS.items():
        possible = {run.op_key(op) for op in run.every_op(slots)}
        assert possible <= set(goldens), name
        for seed in range(50):
            ops, choices = run.generate(slots, seed)
            assert {run.op_key(op) for op in ops} <= possible
            assert sorted(c["slot"] for c in choices) == list(range(len(slots)))
            assert run.generate(slots, seed) == (ops, choices)


def test_seed_varies_order_and_mirrors():
    runs = [run.generate(run.HABIRO_GENERIC, seed)[1] for seed in range(20)]
    assert len({tuple(c["slot"] for c in choices) for choices in runs}) > 1
    mirrors = {tuple(c["mirrored"] for c in sorted(choices, key=lambda c: c["slot"])) for choices in runs}
    assert len(mirrors) > 1
    # double twist slots stay unmirrored: mirroring them changes peak RSS
    assert not any(c["mirrored"] for choices in runs for c in choices if "dt:" in c["first_op"][1])


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_self_times_add_up():
    t = tracer.Tracer()

    def leaf():
        return sum(range(20000))

    wrapped_leaf = t.wrap("poly.leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    t.wrap("knots.outer", outer)()
    calls, self_s, total_s = t.stats["knots.outer"]
    leaf_calls, leaf_self, leaf_total = t.stats["poly.leaf"]
    assert calls == 1 and leaf_calls == 2
    assert leaf_self == leaf_total
    assert self_s == pytest.approx(total_s - leaf_total)
    assert [s[0] for s in t.spans] == ["knots.outer"]
