"""Fault injection: each verify suite must be able to fail.

Every case breaks one ingredient of one suite and requires that suite to
report a FAIL and the CLI to exit 1.  Only names in the cycloknot.verify and
cycloknot.invariants namespaces are patched.  Memos live only in qtools and
knots (the q-recursions, the Habiro coefficients and the knot-free kernels
of the invariants), and those call their own module's names, so no cache
keeps a poisoned value: once the patch is undone, the same suite passes in
the same process with its caches as the mutated run left them.  The one
exception is knots._torus_link, the link weight that both torus Habiro
routes share: the knots memos would keep the values it corrupts, so its test
clears every cache before the patch and after it.

A helper that two sides of an identity share cannot fail that identity, so
the shared-helper tests pin the exact set of identities that catch each
shared fault (README, "Which identity guards a shared helper").
"""

from __future__ import annotations

import pytest

from cycloknot import cli, clear_caches, invariants, knots, parse_knot, verify
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


def _failing_identities() -> set[str]:
    """The identities that report a counted FAIL on the quick grids of every suite."""
    return {
        r.identity
        for name in verify.SUITES
        for r in verify.run_suite(name, quick=True)
        if not r.passed and not r.params.get("exploratory")
    }


def _torus_monomials(mutate):
    """invariants._torus_double_sum with mutate(i, e, z, sign) applied to its i-th monomial."""
    double_sum = invariants._torus_double_sum
    return lambda t, p: (mutate(i, *m) for i, m in enumerate(double_sum(t, p)))


def test_one_horner_loop_serves_both_torus_sums(monkeypatch):
    # the torus ADO and the hyper-Jones sum share invariants._horner, and the
    # identities that compare one of them with an independent route
    # (ado_conjectural, colored_jones from habiro_a, the Alexander
    # polynomial, the torus recurrence, the direct torus double sum) catch it
    monkeypatch.setattr(invariants, "_horner", _negated(invariants._horner))
    assert _failing_identities() == {
        "thm4-vs-conj",
        "ado-p2-alexander",
        "jones-habiro-vs-hyper",
        "jones-recurrence",
        "torus-wrt-definition",
        "torus-cgp-cross-route",
    }


def test_one_double_sum_serves_both_torus_zero_surgeries(monkeypatch):
    # wrt_torus_direct and cgp_torus_direct read one generator, so the u = 1
    # check compares the sum with itself and passes; the T-claim, the
    # hyper-Jones odd-point sum and the ADO route catch the four monomials of
    # the (k, n) = (0, 0) term negated
    negated = _torus_monomials(lambda i, e, z, sign: (e, z, -sign if i < 4 else sign))
    monkeypatch.setattr(invariants, "_torus_double_sum", negated)
    assert _failing_identities() == {"torus-T", "torus-wrt-definition", "torus-cgp-cross-route"}


def test_a_wrong_torus_link_fails_the_routes_that_do_not_share_it(monkeypatch):
    # the generic and at-root torus Habiro routes both read knots._torus_link,
    # so thm1, thm2 and their route comparison agree on a wrong link; the
    # identities that reach a torus knot another way (the hyper-Jones sum,
    # the closed forms of the appendix) catch a link weight off by q
    link = knots._torus_link

    def shifted(*args):
        top, low, e, after = link(*args)
        return top, low, e + 1, after

    clear_caches()
    monkeypatch.setattr(knots, "_torus_link", shifted)
    try:
        failing = _failing_identities()
    finally:
        monkeypatch.undo()
        clear_caches()
    assert failing == {
        "jones-habiro-vs-hyper",
        "appendix-a_p-dual-route",
        "appendix-closed-vs-direct",
        "appendix-specializations",
    }


def test_an_odd_double_sum_is_reported(monkeypatch, capsys):
    # one monomial off by a power of zeta leaves DoubleSum(1) with no half:
    # the checks that read the WRT fail with the division error, no traceback
    odd = _torus_monomials(lambda i, e, z, sign: (e, z + (i == 0), sign))
    monkeypatch.setattr(invariants, "_torus_double_sum", odd)
    reports = verify.run_suite("torus-T", quick=True)
    errors = {r.identity for r in reports if "not divisible by 2" in r.params.get("error", "")}
    assert errors == {"torus-T", "torus-doublesum-at-1", "torus-wrt-definition"}
    assert all(not r.passed for r in reports if r.identity in errors)
    assert cli.run(["verify", "--suite", "torus-T", "--quick"]) == 1
    assert "FAIL" in capsys.readouterr().err


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
