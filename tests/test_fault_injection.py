"""Fault injection: each verify suite must be able to fail.

Every case breaks one ingredient of one suite and requires that suite to
report a FAIL and the CLI to exit 1.  Only names in the cycloknot.verify and
cycloknot.invariants namespaces are patched.  Memos live only in qtools and
knots (the q-recursions, the Habiro coefficients and the knot-free kernels
of the invariants), and those call their own module's names, so no cache
keeps a poisoned value: once the patch is undone, the same suite passes in
the same process with its caches as the mutated run left them.
"""

from __future__ import annotations

import pytest

from cycloknot import cli, invariants, verify
from cycloknot.exactring import zeta
from cycloknot.qtools import _q


def _times_q(f):
    return lambda *args: f(*args) * _q(2)


def _plus_one(f):
    return lambda *args: f(*args) + 1


def _negated(f):
    return lambda *args: -f(*args)


def _zeta_shift(f):
    def shifted(*args):
        value = f(*args)
        return value * zeta(value.order)

    return shifted


# suite -> (module, name, mutation)
MUTATIONS = {
    "habiro-goldens": (verify, "habiro_a", _times_q),
    "thm1-trunc": (verify, "alexander", _negated),
    "thm2": (verify, "a_at_one", _plus_one),
    "thm3": (invariants, "wrt_zero_closed", _plus_one),
    "thm4-vs-conj": (invariants, "_ado_torus", _negated),
    "wrt-consistency": (verify, "wrt_zero_closed", _plus_one),
    "torus-T": (verify, "wrt_torus_direct", _zeta_shift),
    "appendix-t25": (verify, "t25_a_p_closed", _plus_one),
    "jones-consistency": (verify, "colored_jones_hyper_t2", _times_q),
    "qtools-identities": (verify, "sigma_at_root", _negated),
}


def test_every_suite_has_a_mutation():
    assert set(MUTATIONS) == set(verify.SUITES)


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_is_caught(name, monkeypatch, capsys):
    module, attr, mutate = MUTATIONS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    reports = verify.run_suite(name, quick=True)
    assert any(not r.passed and not r.params.get("exploratory") for r in reports)
    assert cli.run(["verify", "--suite", name, "--quick"]) == 1
    assert "FAIL" in capsys.readouterr().err
    monkeypatch.undo()
    reports = verify.run_suite(name, quick=True)
    assert reports and all(r.passed or r.params.get("exploratory") for r in reports)


def test_one_horner_loop_serves_both_torus_sums(monkeypatch):
    # the torus ADO and the hyper-Jones sum share invariants._horner, and
    # each suite compares one of them with an independent route
    # (ado_conjectural, colored_jones from habiro_a)
    monkeypatch.setattr(invariants, "_horner", _negated(invariants._horner))
    for name in ("thm4-vs-conj", "jones-consistency"):
        reports = verify.run_suite(name, quick=True)
        assert any(not r.passed and not r.params.get("exploratory") for r in reports), name
