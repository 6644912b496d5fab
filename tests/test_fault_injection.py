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

from cycloknot import cli, invariants, parse_knot, verify
from cycloknot.exactring import CycNumber, InexactDivisionError, LaurentPoly, zeta
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


def _failed(reports, identity):
    return [r for r in reports if r.identity == identity and not r.passed]


def test_mixed_residues_fail_the_T_claim(monkeypatch):
    # a stray u^1 leaves the residue class of the direct numerator
    direct = invariants.cgp_torus_direct

    def stray(t, p):
        res = direct(t, p)
        numerator = res.numerator + LaurentPoly.univar("u", {2: 1}, 2 * p)
        return invariants.CgpResult(res.knot, p, numerator)

    monkeypatch.setattr(invariants, "cgp_torus_direct", stray)
    reports = _failed(verify.run_suite("torus-T", quick=True), "torus-T")
    assert reports and all(1 in r.params["mixed_exponents"] for r in reports)
    assert all(r.lhs is not None and r.rhs is None for r in reports)


def test_inexact_normalization_keeps_the_value(monkeypatch, capsys):
    # 7 divides no WRT value of dt:-1,1 at p = 3 (-6)
    monkeypatch.setattr(invariants, "brace_one_squared", lambda p: CycNumber.from_int(2 * p, 7))
    value = invariants.wrt_zero(parse_knot("dt:-1,1"), 3)
    assert invariants.normalized_wrt(value, 3) == (value, 7)
    assert cli.run(["wrt", "--knot", "dt:-1,1", "--p", "3", "--normalized"]) == 0
    assert "{1}^2 = 7 (does not divide; value left unnormalized)" in capsys.readouterr().out


def test_inexact_conjectural_ado_is_reported(monkeypatch):
    def inexact(*args):
        raise InexactDivisionError("forced remainder")

    monkeypatch.setattr(verify, "ado_conjectural", inexact)
    reports = _failed(verify.run_suite("thm4-vs-conj", quick=True), "thm4-vs-conj")
    assert reports and all(r.params["error"] == "forced remainder" for r in reports)


def test_a_bracket_that_is_not_monic_fails(monkeypatch):
    def not_monic(m, p):
        raise ArithmeticError("forced")

    monkeypatch.setattr(verify, "bracket_poly", not_monic)
    reports = _failed(verify.run_suite("qtools-identities", quick=True), "bracket-monic")
    assert reports and all(set(r.params) == {"p"} for r in reports)
