"""Verification suites: every identity the library implements, run on fixed
parameter grids and reported as InvariantReport values.

Suites are registered in a fixed order.  Each is a generator of grid points
(knot, p, run): the knot and the root order p the point is about, or None
where it is about no knot or no order, and a callable returning the point's
reports.  The grids are enumerated deterministically, so two runs produce
identical report streams; the quick variants shrink them for smoke runs.

run_suite is the only filter: a knot keeps exactly the points whose knot is
that knot, and p keeps exactly the points whose order is p, so a point that
names no knot (or no order) is dropped by that filter.  Reports whose params
carry exploratory=True are informational and do not count as failures.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .exactring import CycNumber, InexactDivisionError, LaurentPoly, eval_at_root, exact_div, zeta
from .invariants import (
    InvariantReport,
    _ado_columns,
    _report,
    ado,
    ado_conjectural,
    cgp_from_ado,
    cgp_torus_direct,
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
    wrt_kernel,
)

FIVE_KNOTS: tuple[KnotSpec, ...] = (
    double_twist(1, 1),
    double_twist(-1, 1),
    double_twist(2, 1),
    double_twist(2, -2),
    double_twist(2, 2),
)

T25_MIRROR = mirror(torus_two_strand(2))

# One grid point of a suite: the knot and the root order it is about (None
# where it is about no knot, or no order), and a callable giving its reports.
Point = tuple[Optional[KnotSpec], Optional[int], Callable[[], Iterable[InvariantReport]]]


def _x(e2: int, c=1) -> LaurentPoly:
    return LaurentPoly.univar("x", {e2: c})


def _agree(identity: str, params: dict, pairs: Iterable[tuple]) -> InvariantReport:
    """Report whether every (got, expected) pair agrees, stopping at the first
    mismatch, whose two sides become the report's witnesses."""
    for got, expected in pairs:
        if got != expected:
            return _report(identity, params, False, got, expected)
    return _report(identity, params, True)


def _one(check: Callable[..., InvariantReport], *args, **kwargs) -> list[InvariantReport]:
    return [check(*args, **kwargs)]


# ---------------------------------------------------------------------------


def _goldens(K: KnotSpec, n_max: int) -> Iterator[InvariantReport]:
    def expected(n):
        return _q(n * (n + 3), -1 if n % 2 else 1) if K.l == 1 else _q(0)

    pairs = ((habiro_a(K, n), expected(n)) for n in range(n_max + 1))
    yield _agree("goldens", {"knot": knot_str(K), "n_max": n_max}, pairs)


def _inversion(K: KnotSpec, n_max: int) -> Iterator[InvariantReport]:
    evals = [colored_jones(K, l) for l in range(1, n_max + 2)]
    pairs = ((habiro_from_jones(evals[: n + 1], n), habiro_c(K, n)) for n in range(n_max + 1))
    yield _agree("inversion", {"knot": knot_str(K), "n_max": n_max}, pairs)


def suite_habiro_goldens(quick: bool, exploratory: bool) -> Iterator[Point]:
    for K in (double_twist(1, 1), double_twist(-1, 1)):
        yield K, None, partial(_goldens, K, 8 if quick else 20)
    for K in FIVE_KNOTS + (T25_MIRROR,):
        yield K, None, partial(_inversion, K, 3 if quick else 6)


def _thm1_factorization(K: KnotSpec, p: int, kk_end: int) -> Iterator[InvariantReport]:
    zp = _x(2 * p) + _x(-2 * p) - 2

    # truncated[n] = sum_{i<=n} sigma_i a_i, one running prefix sum
    terms = (sigma_at_root(n, p) * a_at_root(K, n, p) for n in range((kk_end - 1) * p))
    truncated = list(itertools.accumulate(terms))
    inner = truncated[p - 1]

    def factored(kk):
        outer = sum((zp**k * a_at_one(K, k) for k in range(kk)), LaurentPoly.zero(("x",), p))
        return inner * outer

    pairs = ((truncated[kk * p - 1], factored(kk)) for kk in range(1, kk_end))
    yield _agree("thm1-factorization", {"knot": knot_str(K), "p": p}, pairs)


def _alexander_inverse_series(K: KnotSpec, p: int, k_max: int) -> Iterator[InvariantReport]:
    z = _x(2) + _x(-2) - 2
    series = LaurentPoly.zero(("x",))
    for k in range(k_max + 1):
        coeff = a_at_one(K, k) if p == 1 else a_at_root(K, k * p, p)
        series = series + z**k * coeff
    resid = alexander(K) * series - 1
    ok = True
    if not resid.is_zero():
        try:
            exact_div(resid, z ** (k_max + 1))
        except InexactDivisionError:
            ok = False
    params = {"knot": knot_str(K), "p": p, "k_max": k_max}
    yield _report("alexander-inverse-series", params, ok, resid)


def suite_thm1_trunc(quick: bool, exploratory: bool) -> Iterator[Point]:
    for K in FIVE_KNOTS:
        for p in (2, 3, 5):
            yield K, p, partial(_thm1_factorization, K, p, 2 if quick else 4)
        for p in (1, 2, 3, 5):
            yield K, p, partial(_alexander_inverse_series, K, p, 2 if quick else 4)


def _thm2_periodicity(K: KnotSpec, p: int, k_end: int) -> Iterator[InvariantReport]:
    pairs = (
        (a_at_root(K, n + k * p, p), a_at_root(K, n, p) * a_at_one(K, k))
        for n in range(p)
        for k in range(k_end)
    )
    yield _agree("thm2-periodicity", {"knot": knot_str(K), "p": p}, pairs)


def _ado_p2_alexander(K: KnotSpec) -> Iterator[InvariantReport]:
    got = ado(K, 2).poly
    expected = alexander(K).substitute("x", coeff=-1, new_var="x", exp2=2)
    yield _report("ado-p2-alexander", {"knot": knot_str(K)}, got == expected, got, expected)


def suite_thm2(quick: bool, exploratory: bool) -> Iterator[Point]:
    for K in FIVE_KNOTS:
        for p in (2, 3, 5):
            yield K, p, partial(_thm2_periodicity, K, p, 2 if quick else 4)
    t_max = 2 if quick else 4
    for K in FIVE_KNOTS + tuple(torus_two_strand(t) for t in range(1, t_max + 1)):
        yield K, 2, partial(_ado_p2_alexander, K)


def suite_thm3(quick: bool, exploratory: bool) -> Iterator[Point]:
    for K in FIVE_KNOTS:
        for p in (3, 5) if quick else (3, 5, 7):
            yield K, p, partial(_one, verify_thm3, K, p)
    if exploratory:
        for K in (torus_two_strand(2), torus_two_strand(3)):
            for p in (3, 5):
                yield K, p, partial(_one, verify_thm3, K, p, exploratory=True)


def _thm4_vs_conj(t: int, p: int) -> Iterator[InvariantReport]:
    K = torus_two_strand(t)
    params = {"knot": knot_str(K), "p": p}
    try:
        conj = ado_conjectural(2, 2 * t + 1, p).poly
    except InexactDivisionError as exc:
        yield InvariantReport("thm4-vs-conj", {**params, "error": str(exc)}, False)
        return
    direct = ado(K, p).poly.with_order(4 * 2 * (2 * t + 1) * p)
    yield _report("thm4-vs-conj", params, conj == direct, conj, direct)


def suite_thm4_vs_conj(quick: bool, exploratory: bool) -> Iterator[Point]:
    for t in (1, 2) if quick else (1, 2, 3):
        for p in (2, 3) if quick else (2, 3, 5):
            yield torus_two_strand(t), p, partial(_thm4_vs_conj, t, p)


def _wrt_two_routes(K: KnotSpec, p: int) -> Iterator[InvariantReport]:
    direct = wrt_zero(K, p)
    closed = wrt_zero_closed(K, p)
    params = {"knot": knot_str(K), "p": p}
    yield _report("wrt-two-routes", params, direct == closed, direct, closed)
    if p == 3:
        ok = habiro_a(K, 0) == 1 and direct == -6
        yield _report("wrt-p3-value", params, ok, direct, CycNumber.from_int(6, -6))


def _wrt_middle_vanishing(p: int) -> Iterator[InvariantReport]:
    # a_m(e_p) for (p-1)/2 <= m < p-1 has weight 0 in the WRT invariant
    zero = CycNumber.zero(2 * p)
    pairs = ((wrt_kernel(m, p), zero) for m in range((p - 1) // 2, p - 1))
    yield _agree("wrt-middle-vanishing", {"p": p}, pairs)


def suite_wrt_consistency(quick: bool, exploratory: bool) -> Iterator[Point]:
    ps = (3, 5) if quick else (3, 5, 7)
    for K in FIVE_KNOTS:
        for p in ps:
            yield K, p, partial(_wrt_two_routes, K, p)
    for p in ps:
        yield None, p, partial(_wrt_middle_vanishing, p)


def _torus_T(t: int, p: int) -> Iterator[InvariantReport]:
    yield verify_T_claim(t, p)
    params = {"t": t, "p": p}
    res = cgp_torus_direct(t, p)
    wrt = wrt_torus_direct(t, p)
    at_one = res.numerator.evaluate({"u": 1})
    yield _report("torus-doublesum-at-1", params, at_one == wrt * 2, at_one, wrt * 2)
    total = CycNumber.zero(2 * p)
    for n in range(1, 2 * p, 2):
        br = brace(n, p)
        total = total + br * br * eval_at_root(colored_jones_hyper_t2(t, n), p, 1, order=2 * p)
    yield _report("torus-wrt-definition", params, wrt == total, wrt, total)
    lhs = cgp_from_ado(torus_two_strand(t), p).numerator * LaurentPoly.univar("u", {0: 1, -4 * p: 1})
    rhs = res.numerator * LaurentPoly.univar("u", {4 * (p - 1) * t: 1})
    yield _report("torus-cgp-cross-route", params, lhs == rhs, lhs, rhs)


def suite_torus_T(quick: bool, exploratory: bool) -> Iterator[Point]:
    for t in (1,) if quick else (1, 2):
        for p in (3, 5):
            yield torus_two_strand(t), p, partial(_torus_T, t, p)


def _appendix_eq25(p: int) -> Iterator[InvariantReport]:
    def expected(m):
        value = CycNumber.from_int(p, a_minus_one_closed(m))
        return value + a_one_closed(m) * (t25_a_p_closed(p) + 2) if m >= 1 else value

    pairs = ((t25_a_mp_closed(m, p), expected(m)) for m in range(5))
    yield _agree("appendix-eq25", {"p": p, "m_max": 4}, pairs)


def _appendix_dual_route() -> Iterator[InvariantReport]:
    closed = t25_a_p_closed(3)
    direct = a_at_root(T25_MIRROR, 3, 3)
    ok = closed == -3 and direct == -3
    yield _report("appendix-a_p-dual-route", {"p": 3}, ok, closed, direct)


def _appendix_closed_vs_direct(m: int, p: int) -> Iterator[InvariantReport]:
    closed = t25_a_mp_closed(m, p)
    direct = a_at_root(T25_MIRROR, m * p, p)
    params = {"m": m, "p": p}
    yield _report("appendix-closed-vs-direct", params, closed == direct, closed, direct)


def _appendix_specializations(k_max: int) -> Iterator[InvariantReport]:
    ok = all(a_one_closed(k + 1) == a_at_one(T25_MIRROR, k) for k in range(k_max + 1)) and all(
        a_minus_one_closed(m) == eval_at_root(habiro_a(T25_MIRROR, 2 * m), 2).as_int()
        for m in range((k_max + 1) // 2)
    )
    yield _report("appendix-specializations", {"k_max": k_max}, ok)


def suite_appendix_t25(quick: bool, exploratory: bool) -> Iterator[Point]:
    for p in (3, 5) if quick else (3, 5, 7):
        yield T25_MIRROR, p, partial(_appendix_eq25, p)
    yield T25_MIRROR, 3, _appendix_dual_route
    grid = [(1, 3), (2, 3), (1, 5)] if quick else [(1, 3), (2, 3), (3, 3), (4, 3), (1, 5), (2, 5), (1, 7)]
    for m, p in grid:
        yield T25_MIRROR, p, partial(_appendix_closed_vs_direct, m, p)
    yield T25_MIRROR, None, partial(_appendix_specializations, 4 if quick else 8)


def _jones_consistency(t: int, n_max: int) -> Iterator[InvariantReport]:
    K = torus_two_strand(t)
    params = {"knot": knot_str(K), "N_max": n_max}
    hyper = {N: colored_jones_hyper_t2(t, N) for N in range(1, n_max + 1)}
    yield _agree("jones-habiro-vs-hyper", params, ((colored_jones(K, N), hyper[N]) for N in hyper))
    ok = all(
        check_torus_recurrence(2, 2 * t + 1, N, hyper[N], hyper[N - 2])
        for N in range(3, n_max + 1)
    )
    yield _report("jones-recurrence", params, ok)


def suite_jones_consistency(quick: bool, exploratory: bool) -> Iterator[Point]:
    for t in (1, 2):
        yield torus_two_strand(t), None, partial(_jones_consistency, t, 5 if quick else 8)


def _qbinom_root_factorization(p: int, ab_max: int) -> Iterator[InvariantReport]:
    # both sides evaluate a generic q-binomial at zeta_p, independently of
    # qbinomial_at_root; the small right side once per (n, k)
    small = {(n, k): eval_at_root(qbinomial(n, k), p) for n in range(p) for k in range(p)}
    pairs = (
        (eval_at_root(qbinomial(n + a * p, k + b * p), p), small[n, k] * math.comb(a, b))
        for n in range(p)
        for k in range(p)
        for a in range(ab_max + 1)
        for b in range(ab_max + 1)
    )
    yield _agree("qbinom-root-factorization", {"p": p}, pairs)


def _sigma_at_own_root(p: int) -> Iterator[InvariantReport]:
    got = sigma_at_root(p, p)
    expected = _x(2 * p) + _x(-2 * p) - 2
    yield _report("sigma-at-own-root", {"p": p}, got == expected, got, expected)


def _pochhammer_sigma(n_max: int) -> Iterator[InvariantReport]:
    def sign_q(n):
        return LaurentPoly.make(("x", "q"), {(0, n * (n + 1)): -1 if n % 2 else 1})

    pairs = ((pochhammer_pair(n), sigma(n) * sign_q(n)) for n in range(n_max + 1))
    yield _agree("pochhammer-sigma", {"n_max": n_max}, pairs)


def _sigma_periodicity(p: int, k_end: int) -> Iterator[InvariantReport]:
    sig_p = sigma_at_root(p, p)
    pairs = (
        (sigma_at_root(n + k * p, p), sigma_at_root(n, p) * sig_p**k)
        for n in range(p)
        for k in range(1, k_end)
    )
    yield _agree("sigma-periodicity", {"p": p}, pairs)


def _qbinom_multisum_cap(p: int) -> Iterator[InvariantReport]:
    def geom(t):
        return LaurentPoly.univar("x", {4 * p * j: CycNumber.from_int(p, 1) for j in range(t)})

    pairs = []
    for t in (2, 3):
        columns = _ado_columns(t, p, 2 * p)
        pairs += [(columns[p + m], geom(t) * columns[m]) for m in range(p)]
    yield _agree("qbinom-multisum-cap", {"p": p, "t_max": 3}, pairs)


def _root_of_unity_checks(p: int) -> Iterator[InvariantReport]:
    zero_ok = brace(p, p) == 0 and brace(0, p) == 0
    yield _report("brace-vanishing", {"p": p}, zero_ok)
    val = eval_at_root(qbinomial_balanced(2 * p - 1, p), p)
    expected_val = CycNumber.from_int(2 * p, 1 if (p - 1) % 2 == 0 else -1)
    yield _report("balanced-central-binomial", {"p": p}, val == expected_val, val, expected_val)
    ok = True
    try:
        for m in range(p):
            bracket_poly(m, p)
    except ArithmeticError:
        ok = False
    yield _report("bracket-monic", {"p": p}, ok)

    def power_sum(a):
        total = LaurentPoly.zero(("u",), 2 * p)
        for n in range(p):
            total = total + LaurentPoly.univar("u", {4 * a: zeta(p, (2 * n + 1) * a).embed(2 * p)})
        return total

    def expected(a):
        if a == 0:
            return LaurentPoly.univar("u", {0: CycNumber.from_int(2 * p, p)})
        if a in (p, -p):
            return LaurentPoly.univar("u", {4 * a: CycNumber.from_int(2 * p, p)})
        return LaurentPoly.zero(("u",), 2 * p)

    pairs = ((power_sum(a), expected(a)) for a in range(-p, p + 1))
    yield _agree("root-power-sum", {"p": p}, pairs)
    ok = all(
        brace(2 * p * n, p, lam_coeff=p) == LaurentPoly.univar("u", {2 * p: 1, -2 * p: -1})
        for n in range(p)
    )
    yield _report("modified-dimension-brace", {"p": p}, ok)


def suite_qtools_identities(quick: bool, exploratory: bool) -> Iterator[Point]:
    for p in (2, 3, 5) if quick else (2, 3, 5, 7):
        yield None, p, partial(_qbinom_root_factorization, p, 2 if quick else 3)
    for p in (2, 3, 5, 7):
        yield None, p, partial(_sigma_at_own_root, p)
    yield None, None, partial(_pochhammer_sigma, 6 if quick else 12)
    for p in (2, 3) if quick else (2, 3, 5, 7):
        yield None, p, partial(_sigma_periodicity, p, 3 if quick else 4)
    for p in (2, 3) if quick else (1, 2, 3, 4, 5):
        yield None, p, partial(_qbinom_multisum_cap, p)
    for p in (3, 5, 7):
        yield None, p, partial(_root_of_unity_checks, p)


SUITES: dict[str, Callable[[bool, bool], Iterable[Point]]] = {
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
    """Run the points of one suite that the knot and p filters keep, in order."""
    return [
        report
        for point_knot, point_p, run in SUITES[name](quick, exploratory)
        if (knot is None or point_knot == knot) and (p is None or point_p == p)
        for report in run()
    ]
