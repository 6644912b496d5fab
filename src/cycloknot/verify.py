"""Verification suites: every identity the library implements, run on fixed
parameter grids and reported as InvariantReport values.

Suites are registered in a fixed order and each enumerates its grid
deterministically, so two runs produce identical report streams.  The quick
variants shrink the grids for smoke runs; nothing is ever skipped silently.
Reports whose params carry exploratory=True are informational and do not
count as failures.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .exactring import CycNumber, InexactDivisionError, LaurentPoly, eval_at_root, exact_div, zeta
from .invariants import (
    InvariantReport,
    _report,
    _torus_chain_sums,
    ado,
    ado_conjectural,
    cgp_from_ado,
    cgp_torus_direct,
    cgp_zero,
    check_torus_recurrence,
    colored_jones,
    colored_jones_hyper_t2,
    verify_T_claim,
    verify_thm3,
    wrt_torus_direct,
    wrt_zero,
    wrt_zero_closed,
)
from .knots import (
    KnotSpec,
    a_at_one,
    a_at_root,
    a_minus_one_closed,
    a_one_closed,
    alexander,
    double_twist,
    habiro_a,
    habiro_c,
    habiro_from_jones,
    knot_str,
    mirror,
    t25_a_mp_closed,
    t25_a_p_closed,
    torus_two_strand,
)
from .qtools import (
    _q,
    brace,
    bracket_poly,
    pochhammer_pair,
    qbinomial,
    qbinomial_balanced,
    sigma,
    sigma_at_root,
)

FIVE_KNOTS: tuple[KnotSpec, ...] = (
    double_twist(1, 1),
    double_twist(-1, 1),
    double_twist(2, 1),
    double_twist(2, -2),
    double_twist(2, 2),
)

SuiteFn = Callable[[bool, Optional[KnotSpec], Optional[int], bool], list[InvariantReport]]


def _knots(knot: Optional[KnotSpec], default: tuple[KnotSpec, ...]) -> tuple[KnotSpec, ...]:
    if knot is None:
        return default
    return tuple(k for k in default if k == knot) or ()


def _ps(p: Optional[int], default: tuple[int, ...]) -> tuple[int, ...]:
    if p is None:
        return default
    return (p,) if p in default else ()


def _x(e2: int, c=1) -> LaurentPoly:
    return LaurentPoly.univar("x", {e2: c})


# ---------------------------------------------------------------------------


def suite_habiro_goldens(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    n_max = 8 if quick else 20
    golden_knots = _knots(knot, (double_twist(1, 1), double_twist(-1, 1)))
    for K in golden_knots:
        ok, lhs, rhs = True, None, None
        for n in range(n_max + 1):
            if K.l == 1:
                expected = _q(n * (n + 3), -1 if n % 2 else 1)
            else:
                expected = _q(0)
            got = habiro_a(K, n)
            if got != expected:
                ok, lhs, rhs = False, got, expected
                break
        reports.append(_report("goldens", {"knot": knot_str(K), "n_max": n_max}, ok, lhs, rhs))
    inv_max = 3 if quick else 6
    for K in _knots(knot, FIVE_KNOTS + (mirror(torus_two_strand(2)),)):
        evals = [colored_jones(K, l) for l in range(1, inv_max + 2)]
        ok, lhs, rhs = True, None, None
        for n in range(inv_max + 1):
            got = habiro_from_jones(evals[: n + 1], n)
            expected = habiro_c(K, n)
            if got != expected:
                ok, lhs, rhs = False, got, expected
                break
        reports.append(_report("inversion", {"knot": knot_str(K), "n_max": inv_max}, ok, lhs, rhs))
    return reports


def suite_thm1_trunc(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    z = _x(2) + _x(-2) - 2
    for K in _knots(knot, FIVE_KNOTS):
        for pp in _ps(p, (2, 3, 5)):
            zp = (_x(2 * pp) + _x(-2 * pp) - 2).with_order(pp)
            ok, lhs, rhs = True, None, None
            for kk in range(1, 2 if quick else 4):
                total = LaurentPoly.zero(("x",), pp)
                for n in range(kk * pp):
                    total = total + sigma_at_root(n, pp) * a_at_root(K, n, pp)
                inner = LaurentPoly.zero(("x",), pp)
                for n in range(pp):
                    inner = inner + sigma_at_root(n, pp) * a_at_root(K, n, pp)
                outer = LaurentPoly.zero(("x",), pp)
                for k in range(kk):
                    outer = outer + zp**k * a_at_one(K, k)
                if total != inner * outer:
                    ok, lhs, rhs = False, total, inner * outer
                    break
            reports.append(
                _report("thm1-factorization", {"knot": knot_str(K), "p": pp}, ok, lhs, rhs)
            )
        kmax = 2 if quick else 4
        for pp in _ps(p, (1, 2, 3, 5)):
            series = LaurentPoly.zero(("x",), None if pp == 1 else pp)
            for k in range(kmax + 1):
                zz = z if pp == 1 else z.with_order(pp)
                coeff = a_at_one(K, k) if pp == 1 else a_at_root(K, k * pp, pp)
                series = series + zz**k * coeff
            resid = alexander(K) * series - 1
            if resid.is_zero():
                ok = True
            else:
                try:
                    exact_div(resid, z ** (kmax + 1))
                    ok = True
                except InexactDivisionError:
                    ok = False
            reports.append(
                _report(
                    "alexander-inverse-series",
                    {"knot": knot_str(K), "p": pp, "k_max": kmax},
                    ok,
                    resid if not ok else None,
                    None,
                )
            )
    return reports


def suite_thm2(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    for K in _knots(knot, FIVE_KNOTS):
        for pp in _ps(p, (2, 3, 5)):
            ok, lhs, rhs = True, None, None
            for n in range(pp):
                for k in range(2 if quick else 4):
                    got = a_at_root(K, n + k * pp, pp)
                    expected = a_at_root(K, n, pp) * a_at_one(K, k)
                    if got != expected:
                        ok, lhs, rhs = False, got, expected
                        break
                if not ok:
                    break
            reports.append(
                _report("thm2-periodicity", {"knot": knot_str(K), "p": pp}, ok, lhs, rhs)
            )
    t_max = 2 if quick else 4
    p2_knots = FIVE_KNOTS + tuple(torus_two_strand(t) for t in range(1, t_max + 1))
    for K in _knots(knot, p2_knots):
        if p is not None and p != 2:
            continue
        got = ado(K, 2).poly
        expected = alexander(K).substitute("x", coeff=-1, new_var="x", exp2=2).with_order(2)
        reports.append(
            _report("ado-p2-alexander", {"knot": knot_str(K)}, got == expected, got, expected)
        )
    return reports


def suite_thm3(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    for K in _knots(knot, FIVE_KNOTS):
        for pp in _ps(p, (3, 5) if quick else (3, 5, 7)):
            reports.append(verify_thm3(K, pp))
    if exploratory:
        for t in (2, 3):
            for pp in _ps(p, (3, 5)):
                reports.append(verify_thm3(torus_two_strand(t), pp, exploratory=True))
    return reports


def suite_thm4_vs_conj(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    for t in (1, 2) if quick else (1, 2, 3):
        K = torus_two_strand(t)
        if knot is not None and K != knot:
            continue
        for pp in _ps(p, (2, 3) if quick else (2, 3, 5)):
            params = {"knot": knot_str(K), "p": pp}
            try:
                conj = ado_conjectural(2, 2 * t + 1, pp).poly
            except InexactDivisionError as exc:
                reports.append(
                    InvariantReport("thm4-vs-conj", {**params, "error": str(exc)}, False)
                )
                continue
            direct = ado(K, pp).poly.with_order(4 * 2 * (2 * t + 1) * pp)
            reports.append(_report("thm4-vs-conj", params, conj == direct, conj, direct))
    return reports


def suite_wrt_consistency(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    ps = (3, 5) if quick else (3, 5, 7)
    for K in _knots(knot, FIVE_KNOTS):
        for pp in _ps(p, ps):
            direct = wrt_zero(K, pp)
            closed = wrt_zero_closed(K, pp)
            params = {"knot": knot_str(K), "p": pp}
            reports.append(_report("wrt-two-routes", params, direct == closed, direct, closed))
            if pp == 3:
                reports.append(
                    _report(
                        "wrt-p3-value",
                        params,
                        habiro_a(K, 0) == 1 and direct == -6,
                        direct,
                        CycNumber.from_int(6, -6),
                    )
                )
    if knot is None:
        for pp in _ps(p, ps):
            ok, lhs = True, None
            for m in range((pp - 1) // 2, pp - 1):
                total = CycNumber.zero(2 * pp)
                sig = sigma_at_root(m, pp)
                for n in range(pp):
                    br = zeta(2 * pp, 2 * n + 1) - zeta(2 * pp, -(2 * n + 1))
                    total = total + br * br * sig.evaluate({"x": zeta(pp, 2 * n + 1)}).embed(2 * pp)
                if not total.is_zero():
                    ok, lhs = False, total
                    break
            reports.append(_report("wrt-middle-vanishing", {"p": pp}, ok, lhs, None))
    return reports


def suite_torus_T(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    for t in (1,) if quick else (1, 2):
        if knot is not None and torus_two_strand(t) != knot:
            continue
        for pp in _ps(p, (3, 5)):
            reports.append(verify_T_claim(t, pp))
            res = cgp_torus_direct(t, pp)
            at_one = res.numerator.evaluate({"u": 1})
            expected = wrt_torus_direct(t, pp) * 2
            reports.append(
                _report(
                    "torus-doublesum-at-1",
                    {"t": t, "p": pp},
                    at_one == expected,
                    at_one,
                    expected,
                )
            )
            total = CycNumber.zero(2 * pp)
            for n in range(1, 2 * pp, 2):
                br = zeta(2 * pp, n) - zeta(2 * pp, -n)
                total = total + br * br * eval_at_root(
                    colored_jones_hyper_t2(t, n), pp, 1, order=2 * pp
                )
            reports.append(
                _report(
                    "torus-wrt-definition",
                    {"t": t, "p": pp},
                    wrt_torus_direct(t, pp) == total,
                    wrt_torus_direct(t, pp),
                    total,
                )
            )
            lhs = cgp_from_ado(torus_two_strand(t), pp).numerator * (
                LaurentPoly.univar("u", {0: 1, -4 * pp: 1}).with_order(2 * pp)
            )
            rhs = res.numerator * LaurentPoly.univar("u", {4 * (pp - 1) * t: 1}).with_order(2 * pp)
            reports.append(
                _report("torus-cgp-cross-route", {"t": t, "p": pp}, lhs == rhs, lhs, rhs)
            )
    return reports


def suite_appendix_t25(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    K = mirror(torus_two_strand(2))
    if knot is not None and knot != K:
        return reports
    for pp in _ps(p, (3, 5) if quick else (3, 5, 7)):
        ok, lhs, rhs = True, None, None
        for m in range(5):
            got = t25_a_mp_closed(m, pp)
            expected = CycNumber.from_int(pp, a_minus_one_closed(m))
            if m >= 1:
                expected = expected + a_one_closed(m) * (t25_a_p_closed(pp) + 2)
            if got != expected:
                ok, lhs, rhs = False, got, expected
                break
        reports.append(_report("appendix-eq25", {"p": pp, "m_max": 4}, ok, lhs, rhs))
    if p in (None, 3):
        closed = t25_a_p_closed(3)
        direct = a_at_root(K, 3, 3)
        reports.append(
            _report(
                "appendix-a_p-dual-route",
                {"p": 3},
                closed == -3 and direct == -3,
                closed,
                direct,
            )
        )
    grid = [(1, 3), (2, 3), (1, 5)] if quick else [(1, 3), (2, 3), (3, 3), (4, 3), (1, 5), (2, 5), (1, 7)]
    for m, pp in grid:
        if p is not None and pp != p:
            continue
        closed = t25_a_mp_closed(m, pp)
        direct = a_at_root(K, m * pp, pp)
        reports.append(
            _report("appendix-closed-vs-direct", {"m": m, "p": pp}, closed == direct, closed, direct)
        )
    if p is None:
        k_max = 4 if quick else 8
        ok = all(
            a_one_closed(k + 1) == a_at_one(K, k) for k in range(k_max + 1)
        ) and all(
            a_minus_one_closed(m) == eval_at_root(habiro_a(K, 2 * m), 2).as_int()
            for m in range((k_max + 1) // 2)
        )
        reports.append(_report("appendix-specializations", {"k_max": k_max}, ok))
    return reports


def suite_jones_consistency(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    n_max = 5 if quick else 8
    for t in (1, 2):
        K = torus_two_strand(t)
        if knot is not None and K != knot:
            continue
        ok, lhs, rhs = True, None, None
        for N in range(1, n_max + 1):
            got = colored_jones(K, N)
            expected = colored_jones_hyper_t2(t, N)
            if got != expected:
                ok, lhs, rhs = False, got, expected
                break
        reports.append(
            _report("jones-habiro-vs-hyper", {"knot": knot_str(K), "N_max": n_max}, ok, lhs, rhs)
        )
        ok = True
        for N in range(3, n_max + 1):
            if not check_torus_recurrence(
                2, 2 * t + 1, N, colored_jones_hyper_t2(t, N), colored_jones_hyper_t2(t, N - 2)
            ):
                ok = False
                break
        reports.append(
            _report("jones-recurrence", {"knot": knot_str(K), "N_max": n_max}, ok)
        )
    return reports


def suite_qtools_identities(quick, knot, p, exploratory) -> list[InvariantReport]:
    reports = []
    ab_max = 2 if quick else 3
    for pp in _ps(p, (2, 3, 5) if quick else (2, 3, 5, 7)):
        ok, lhs, rhs = True, None, None
        for n in range(pp):
            for k in range(pp):
                for a in range(ab_max + 1):
                    for b in range(ab_max + 1):
                        direct = eval_at_root(qbinomial(n + a * pp, k + b * pp), pp)
                        fast = eval_at_root(qbinomial(n, k), pp) * math.comb(a, b)
                        if direct != fast:
                            ok, lhs, rhs = False, direct, fast
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        reports.append(_report("qbinom-root-factorization", {"p": pp}, ok, lhs, rhs))
    for pp in _ps(p, (2, 3, 5, 7)):
        got = sigma_at_root(pp, pp)
        expected = (_x(2 * pp) + _x(-2 * pp) - 2).with_order(pp)
        reports.append(_report("sigma-at-own-root", {"p": pp}, got == expected, got, expected))
    if p is None:
        n_max = 6 if quick else 12
        ok, lhs, rhs = True, None, None
        for n in range(n_max + 1):
            lhs_poly = pochhammer_pair(n)
            rhs_poly = sigma(n) * LaurentPoly.make(("x", "q"), {(0, n * (n + 1)): -1 if n % 2 else 1})
            if lhs_poly != rhs_poly:
                ok, lhs, rhs = False, lhs_poly, rhs_poly
                break
        reports.append(_report("pochhammer-sigma", {"n_max": n_max}, ok, lhs, rhs))
    for pp in _ps(p, (2, 3) if quick else (2, 3, 5, 7)):
        ok, lhs, rhs = True, None, None
        sig_p = sigma_at_root(pp, pp)
        for n in range(pp):
            for k in range(1, 3 if quick else 4):
                got = sigma_at_root(n + k * pp, pp)
                expected = sigma_at_root(n, pp) * sig_p**k
                if got != expected:
                    ok, lhs, rhs = False, got, expected
                    break
            if not ok:
                break
        reports.append(_report("sigma-periodicity", {"p": pp}, ok, lhs, rhs))
    for pp in _ps(p, (2, 3) if quick else (1, 2, 3, 4, 5)):
        ok, lhs, rhs = True, None, None
        for t in (2, 3):
            for m in range(pp):
                got = _andrews_side(t, pp, pp + m)
                geom = LaurentPoly.univar(
                    "x", {4 * pp * j: CycNumber.from_int(pp, 1) for j in range(t)}
                )
                expected = geom * _andrews_side(t, pp, m)
                if got != expected:
                    ok, lhs, rhs = False, got, expected
                    break
            if not ok:
                break
        reports.append(_report("qbinom-multisum-cap", {"p": pp, "t_max": 3}, ok, lhs, rhs))
    for pp in _ps(p, (3, 5, 7)):
        zero_ok = brace(pp, pp) == 0 and brace(0, pp) == 0
        reports.append(_report("brace-vanishing", {"p": pp}, zero_ok))
        val = eval_at_root(qbinomial_balanced(2 * pp - 1, pp), pp)
        expected_val = CycNumber.from_int(2 * pp, 1 if (pp - 1) % 2 == 0 else -1)
        reports.append(
            _report("balanced-central-binomial", {"p": pp}, val == expected_val, val, expected_val)
        )
        ok = True
        try:
            for m in range(pp):
                bracket_poly(m, pp)
        except ArithmeticError:
            ok = False
        reports.append(_report("bracket-monic", {"p": pp}, ok))
        ok, lhs = True, None
        for a in range(-pp, pp + 1):
            total = LaurentPoly.zero(("u",), 2 * pp)
            for n in range(pp):
                total = total + LaurentPoly.univar("u", {4 * a: zeta(pp, (2 * n + 1) * a).embed(2 * pp)})
            if a == 0:
                expected_p = LaurentPoly.univar("u", {0: CycNumber.from_int(2 * pp, pp)})
            elif a in (pp, -pp):
                expected_p = LaurentPoly.univar("u", {4 * a: CycNumber.from_int(2 * pp, pp)})
            else:
                expected_p = LaurentPoly.zero(("u",), 2 * pp)
            if total != expected_p:
                ok, lhs = False, total
                break
        reports.append(_report("root-power-sum", {"p": pp}, ok, lhs, None))
        ok = all(
            brace(2 * pp * n, pp, lam_coeff=pp)
            == LaurentPoly.univar("u", {2 * pp: 1, -2 * pp: -1}).with_order(2 * pp)
            for n in range(pp)
        )
        reports.append(_report("modified-dimension-brace", {"p": pp}, ok))
    return reports


def _andrews_side(t: int, p: int, top: int) -> LaurentPoly:
    """Multi-sum over chains with fixed top of prod zeta^(k(k+1)) x^(2k) [k';k]."""
    return _torus_chain_sums(t, p, top)[top]


SUITES: dict[str, SuiteFn] = {
    "habiro-goldens": suite_habiro_goldens,
    "thm1-trunc": suite_thm1_trunc,
    "thm2": suite_thm2,
    "thm3": suite_thm3,
    "thm4-vs-conj": suite_thm4_vs_conj,
    "wrt-consistency": suite_wrt_consistency,
    "torus-T": suite_torus_T,
    "appendix-t25": suite_appendix_t25,
    "jones-consistency": suite_jones_consistency,
    "qtools-identities": suite_qtools_identities,
}


def run_suite(
    name: str,
    quick: bool = False,
    knot: Optional[KnotSpec] = None,
    p: Optional[int] = None,
    exploratory: bool = False,
) -> list[InvariantReport]:
    return SUITES[name](quick, knot, p, exploratory)
