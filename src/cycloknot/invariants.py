"""Colored Jones, ADO, WRT and CGP invariants, and the identities relating them.

Conventions.  Colored Jones is normalized to 1 on the unknot; J(N=1) = 1.
Roots of unity are the canonical generators zeta_p, zeta_2p of exactring.
The CGP invariant of the 0-surgery is kept symbolic in u = e_{2p}**lambda:
every statement about generic lambda becomes an exact Laurent-polynomial
identity in u.  CGP results carry their numerator polynomial together with
tags naming the normalizing factors instead of performing any division.

Every Habiro-linear invariant sums the memoized a_n against a sigma_n
kernel of qtools: for a double twist knot, ADO, WRT and the CGP numerator
are each sum_{m<p} a_m(e_p) K(m, p) (_habiro_sum, with K = sigma_at_root,
wrt_kernel, cgp_kernel), and colored_jones sums a_n against sigma_at_color.
The two chain multi-sums of T(2, 2t+1), the q-hypergeometric colored Jones
and the ADO invariant, run through the unmemoized level loop
knots._chain_levels: at generic q, and in x over Z[zeta_p] (_ado_columns).
This module holds no cache.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from .exactring import (
    CycNumber,
    Frozen,
    InexactDivisionError,
    LaurentPoly,
    exact_div,
    zeta,
)
from .knots import (
    KnotSpec,
    Mirror,
    TorusTwoStrand,
    _chain_levels,
    _require_odd,
    a_at_root,
    habiro_a,
    is_double_twist_family,
    knot_str,
)
from .qtools import (
    _cgp_operator,
    _q,
    brace,
    cgp_kernel,
    qbinomial,
    qbinomial_at_root,
    sigma_at_color,
    sigma_at_root,
    wrt_kernel,
)


# ---------------------------------------------------------------------------
# colored Jones
# ---------------------------------------------------------------------------


def colored_jones(knot: KnotSpec, N: int) -> LaurentPoly:
    """J_K(q^N, q) = sum_{n<N} a_n(K;q) sigma_n(q^N, q).

    The sum truncates at n = N-1 because sigma_n(q^N, q) vanishes beyond it;
    the products are the knot-free sigma_at_color(N).
    """
    terms = (habiro_a(knot, n) * sig for n, sig in enumerate(sigma_at_color(N)))
    return sum(terms, LaurentPoly.zero(("q",)))


def colored_jones_hyper_t2(t: int, N: int) -> LaurentPoly:
    """J_{T(2,2t+1)}(q^-N, q) from the q-hypergeometric chain multi-sum.

    (qx)^t sum_{k_t >= ... >= k_1 >= 0} (qx; q)_{k_t} x^{k_t}
    prod_{i<t} q^(k_i(k_i+1)) x^(2 k_i) [k_{i+1}; k_i]  at x = q^-N;
    the leading Pochhammer vanishes for k_t >= N, so the sum is finite.  It
    runs in Horner form over k_t, as _ado_torus does.
    """
    if t < 1 or N < 1:
        raise ValueError(f"need t >= 1 and N >= 1, got t={t}, N={N}")
    # the link weight q^(k(k+1)) x^(2k) [n; k] at x = q^-N
    columns = _chain_levels(t, [_q(0)] * N, lambda k, n: (2 * k * (k + 1 - 2 * N), qbinomial(n, k)))
    total = columns[-1]
    for k in range(N - 2, -1, -1):
        total = columns[k] + total * (_q(-2 * N) - _q(2 * (k + 1 - 2 * N)))
    return _q(2 * t * (1 - N)) * total


def check_torus_recurrence(
    s: int, t: int, N: int, j_n: LaurentPoly, j_n_minus_2: LaurentPoly
) -> bool:
    """Division-free residual check of the torus-knot colored Jones recurrence.

    Verifies (1 - q^-N) J_N = q^((s-1)(t-1)(1-N)/2)
    (1 - q^(s(1-N)-1) - q^(t(1-N)-1) + q^((s+t)(1-N)))
    + (1 - q^(2-N)) q^(st(1-N)-1) J_{N-2}, after cross-multiplication.
    """
    if N < 3:
        raise ValueError(f"recurrence check needs N >= 3, got {N}")
    lhs = (_q(0) - _q(-2 * N)) * j_n
    head = _q((s - 1) * (t - 1) * (1 - N)) * (
        _q(0)
        - _q(2 * (s * (1 - N) - 1))
        - _q(2 * (t * (1 - N) - 1))
        + _q(2 * (s + t) * (1 - N))
    )
    tail = (_q(0) - _q(2 * (2 - N))) * _q(2 * (s * t * (1 - N) - 1)) * j_n_minus_2
    return (lhs - head - tail).is_zero()


# ---------------------------------------------------------------------------
# ADO
# ---------------------------------------------------------------------------


class AdoPoly(Frozen):
    """ADO invariant at a p-th root of unity, as a Laurent polynomial in x.

    Half powers of x are carried by the doubled-exponent convention, so the
    chi-series form needs no separate variable.
    """

    __slots__ = ("knot", "p", "poly")

    def __init__(self, knot: Optional[KnotSpec], p: int, poly: LaurentPoly) -> None:
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "poly", poly)


def ado(knot: KnotSpec, p: int) -> AdoPoly:
    """ADO_K(x, e_p), from the sigma expansion for double twist knots and the
    chain multi-sum for T(2, 2t+1); mirrors apply the Galois map zeta -> 1/zeta."""
    if p < 1:
        raise ValueError(f"root order must be >= 1, got {p}")
    if isinstance(knot, Mirror):
        return AdoPoly(knot, p, ado(knot.inner, p).poly.galois(-1 % p if p > 1 else 1))
    if isinstance(knot, TorusTwoStrand):
        return AdoPoly(knot, p, _ado_torus(knot.t, p))
    return AdoPoly(knot, p, _habiro_sum(sigma_at_root, knot, p, LaurentPoly.zero(("x",), p)))


def _habiro_sum(
    kernel: Callable, knot: KnotSpec, p: int, zero: Union[CycNumber, LaurentPoly]
) -> Union[CycNumber, LaurentPoly]:
    """sum_{m<p} kernel(m, p) a_m(e_p), in the ring of zero (a_m embedded there)."""
    return sum((kernel(m, p) * a_at_root(knot, m, p).embed(zero.order) for m in range(p)), zero)


def _ado_columns(t: int, p: int, tops: int) -> list[LaurentPoly]:
    """[A(t, n) for n < tops]: the sums over the chains k_1 <= ... <= k_t = n
    of the products of the ADO link weights x^(2k) zeta_p^(k(k+1)) [n; k]_{e_p},
    polynomials in x over Z[zeta_p], the q-binomials taken at the root."""

    def weight(k: int, n: int) -> Optional[tuple[int, CycNumber]]:
        binom = qbinomial_at_root(n, k, p)
        return (4 * k, binom.times_zeta(k * (k + 1))) if binom else None

    return _chain_levels(t, [LaurentPoly.univar("x", {0: 1}, p)] * tops, weight)


def _ado_torus(t: int, p: int) -> LaurentPoly:
    """x^(t(1-p)) zeta_p^t sum_{k<p} A(t, k) x^k (x; zeta_p)_k, in Horner form: H = A(t, p-1),
    then H <- A(t, k) + x (1 - zeta_p^(k+1) x) H for k = p-2 down to 0."""
    columns = _ado_columns(t, p, p)
    total = columns[-1]
    for k in range(p - 2, -1, -1):
        total = columns[k] + total * LaurentPoly.univar("x", {2: 1, 4: -zeta(p, k + 1)}, p)
    return total * LaurentPoly.univar("x", {2 * t * (1 - p): zeta(p, t)})


def chi_st(s: int, t: int, n: int) -> int:
    """The period-2st indicator: +1 at st +- (s+t), -1 at st +- (s-t), else 0."""
    period = 2 * s * t
    r = n % period
    if r in ((s * t + s + t) % period, (s * t - s - t) % period):
        return 1
    if r in ((s * t + s - t) % period, (s * t - s + t) % period):
        return -1
    return 0


def ado_conjectural(s: int, t: int, p: int) -> AdoPoly:
    """ADO of T(s,t) from the chi-series closed form, in Z[zeta_{4stp}].

    x^(1/2 - (s-1)(t-1)p/2) (1 - x^p) / ((1-x)(1-x^(sp))(1-x^(tp)))
    * e_p^((st - s/t - t/s)/4) * sum_{l=0}^{2stp} chi_{s,t}(l) e_p^(l^2/4st) x^(l/2),
    with the fractional e_p powers realized as powers of zeta_{4stp} and the
    prefactor resolved by exact division.  An inexact division signals a
    violation of the closed form for these parameters and is raised as
    InexactDivisionError.
    """
    if p < 1:
        raise ValueError(f"root order must be >= 1, got {p}")
    M = 4 * s * t * p
    series = LaurentPoly.univar(
        "x", {l: zeta(M, l * l) * c for l in range(2 * s * t * p + 1) if (c := chi_st(s, t, l))}, M
    )
    pref = LaurentPoly.univar(
        "x", {1 - (s - 1) * (t - 1) * p: zeta(M, (s * t) ** 2 - s * s - t * t)}
    )
    num = pref * LaurentPoly.univar("x", {0: 1, 2 * p: -1}) * series
    den = (
        LaurentPoly.univar("x", {0: 1, 2: -1})
        * LaurentPoly.univar("x", {0: 1, 2 * s * p: -1})
        * LaurentPoly.univar("x", {0: 1, 2 * t * p: -1})
    )
    poly = exact_div(num, den)
    knot = TorusTwoStrand((t - 1) // 2) if s == 2 and t % 2 == 1 and t >= 3 else None
    return AdoPoly(knot, p, poly)


# ---------------------------------------------------------------------------
# WRT of the 0-surgery
# ---------------------------------------------------------------------------


def wrt_zero(knot: KnotSpec, p: int) -> CycNumber:
    """WRT of the 0-surgery on a double twist knot, as the odd-colour sum

    sum_{0<n<2p odd} (zeta_2p^n - zeta_2p^-n)^2 ADO_K(zeta_p^-n, e_p),

    returned unnormalized in Z[zeta_2p] (multiply by {1}^-2 for the usual
    normalization; see normalized_wrt).  ADO is the sigma expansion, so this
    is sum_{m<p} wrt_kernel(m, p) a_m(e_p)."""
    _require_odd(p)
    if not is_double_twist_family(knot):
        raise ValueError("wrt_zero covers double twist knots; use wrt_torus_direct")
    return _habiro_sum(wrt_kernel, knot, p, CycNumber.zero(2 * p))


def wrt_zero_closed(knot: KnotSpec, p: int) -> CycNumber:
    """Closed form -2p sum_{m<= (p-3)/2} (-1)^m a_m(e_p) [2m+1; m]_{e_p} e_p^(-m(m+1)/2)."""
    _require_odd(p)
    if not is_double_twist_family(knot):
        raise ValueError("the closed form covers double twist knots")
    terms = (
        a_at_root(knot, m, p) * qbinomial_at_root(2 * m + 1, m, p)
        * zeta(p, -(m * (m + 1)) // 2) * (-1) ** m
        for m in range((p - 1) // 2)
    )
    return (sum(terms, CycNumber.zero(p)) * (-2 * p)).embed(2 * p)


def brace_one_squared(p: int) -> CycNumber:
    """{1}^2 = (zeta_2p - zeta_2p^-1)^2, the usual WRT normalization factor."""
    return brace(1, p) ** 2


def normalized_wrt(value: CycNumber, p: int) -> tuple[CycNumber, Optional[CycNumber]]:
    """Multiply by {1}^-2 when {1}^2 divides exactly.

    Returns (normalized, None) on success and (value, {1}^2) when the division
    is inexact, leaving the caller to report the pair.
    """
    b2 = brace_one_squared(p)
    try:
        return value.exact_div(b2), None
    except InexactDivisionError:
        return value, b2


# ---------------------------------------------------------------------------
# CGP of the 0-surgery, symbolic in u = e_{2p}^lambda
# ---------------------------------------------------------------------------


class CgpResult(Frozen):
    """CGP of a 0-surgery: numerator polynomial plus normalization tags.

    The invariant itself is numerator / (u^p - u^-p)^2, times the extra tagged
    factors for the direct torus form; no division is performed, so statements
    stay denominator-free.
    """

    __slots__ = (
        "knot", "p", "numerator", "denominator_tag", "numerator_prefactor_tag",
        "denominator_extra_tag",
    )

    def __init__(
        self,
        knot: KnotSpec,
        p: int,
        numerator: LaurentPoly,
        denominator_tag: str = "(u^p - u^-p)^2",
        numerator_prefactor_tag: Optional[str] = None,
        denominator_extra_tag: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator_tag", denominator_tag)
        object.__setattr__(self, "numerator_prefactor_tag", numerator_prefactor_tag)
        object.__setattr__(self, "denominator_extra_tag", denominator_extra_tag)

    def value_at(self, u_value: CycNumber) -> CycNumber:
        """Specialize u to a concrete root of unity and divide exactly.

        The denominator (u^p - u^-p)^2 vanishes whenever u^2p = 1 (integer
        lambda), so admissible values come from higher-order roots, e.g.
        zeta_6p for lambda = 1/3.  The specialized invariant need not be an
        algebraic integer; InexactDivisionError is raised when it is not, and
        the numerator/denominator can then be inspected directly.
        """
        order = math.lcm(2 * self.p, u_value.order)
        u = u_value.embed(order)
        num = self.numerator.with_order(order).evaluate({"u": u})
        d = u**self.p - u ** (-self.p)
        den = d * d
        if self.numerator_prefactor_tag is not None:
            num = num * u ** (2 * (self.p - 1) * _torus_t(self.knot))
        if self.denominator_extra_tag is not None:
            den = den * (1 + u ** (-2 * self.p))
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at this u (lambda = 0 or 1 mod 2)")
        return num.exact_div(den)


def _torus_t(knot: KnotSpec) -> int:
    if isinstance(knot, TorusTwoStrand):
        return knot.t
    raise ValueError(f"expected a torus knot, got {knot!r}")


def cgp_zero(knot: KnotSpec, p: int) -> CgpResult:
    """CGP numerator sum_m a_m(e_p) sum_n {lambda+2n+1}^2 sigma_m(e_p^(lambda+2n+1), e_p),

    with e_p^(lambda+2n+1) realized as zeta_p^(2n+1) u^2: sum_{m<p}
    cgp_kernel(m, p) a_m(e_p)."""
    _require_odd(p)
    if not is_double_twist_family(knot):
        raise ValueError("cgp_zero covers double twist knots; use cgp_torus_direct")
    return CgpResult(knot, p, _habiro_sum(cgp_kernel, knot, p, LaurentPoly.zero(("u",), 2 * p)))


def cgp_from_ado(knot: KnotSpec, p: int) -> CgpResult:
    """CGP numerator sum_n {lambda+2n+1}^2 ADO_K(zeta_p^(2n+1) u^2, e_p).

    Identical to cgp_zero for double twist knots since their ADO is the sigma
    expansion; also applicable to torus knots for exploratory comparisons.
    """
    _require_odd(p)
    return CgpResult(knot, p, _cgp_operator(ado(knot, p).poly, p))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class InvariantReport(Frozen):
    """Outcome of one verified identity, with witnesses kept on failure."""

    __slots__ = ("identity", "params", "passed", "lhs", "rhs")

    def __init__(
        self,
        identity: str,
        params: dict,
        passed: bool,
        lhs: Optional[Union[LaurentPoly, CycNumber]] = None,
        rhs: Optional[Union[LaurentPoly, CycNumber]] = None,
    ) -> None:
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "pass": self.passed,
            "lhs": None if self.lhs is None else self.lhs.to_json_obj(),
            "rhs": None if self.rhs is None else self.rhs.to_json_obj(),
        }


def _report(identity: str, params: dict, passed: bool, lhs=None, rhs=None) -> InvariantReport:
    if passed:
        lhs = rhs = None
    return InvariantReport(identity, params, passed, lhs, rhs)


def verify_thm3(knot: KnotSpec, p: int, exploratory: bool = False) -> InvariantReport:
    """Check N(u) = WRT + p a_{p-1}(e_p) (u^2p + u^-2p - 2) as a Laurent identity.

    N(u) is the CGP numerator over (u^p - u^-p)^2; the identity says the CGP
    equals WRT/{p lambda}^2 plus p times the top Habiro coefficient.  It is
    an established fact for double twist knots; torus-knot runs are
    informational only (exploratory), since the identity can fail there.
    """
    _require_odd(p)
    if is_double_twist_family(knot):
        # the closed form keeps the WRT side off the kernels' exponent filter
        num = cgp_zero(knot, p).numerator
        wrt = wrt_zero_closed(knot, p)
    else:
        num = cgp_from_ado(knot, p).numerator
        wrt = wrt_torus_direct(_torus_t(knot), p)
    a_top = a_at_root(knot, p - 1, p).embed(2 * p)
    rhs = (
        LaurentPoly.univar("u", {4 * p: 1, -4 * p: 1, 0: -2}) * (p * a_top)
        + LaurentPoly.univar("u", {0: wrt})
    )
    params = {"knot": knot_str(knot), "p": p, "exploratory": exploratory}
    return _report("thm3", params, num == rhs, num, rhs)


# ---------------------------------------------------------------------------
# torus knot 0-surgeries: direct WRT / CGP double sums
# ---------------------------------------------------------------------------


def wrt_torus_direct(t: int, p: int) -> CycNumber:
    """WRT of the 0-surgery on T(2,2t+1) by the Laplace-transformed double sum

    (1/2) sum_{k<p} (-1)^k e_p^((2t+1)k^2/2 + (2t-1)k/2 - (2t+1)k)
          sum_{n<p} e_p^(-2n(t+(2t+1)k)) (e_p^(2n+1) - 1)(1 - e_p^(2k-4n-1)),

    with the half powers of e_p realized in Z[zeta_2p].  Each (k, n) term is
    expanded into its four signed powers of zeta_2p, and the exponents of all
    terms are accumulated and reduced once."""
    _require_odd(p)
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    powers: list[tuple[int, int]] = []
    for k in range(p):
        sign = -1 if k % 2 else 1
        pref = (2 * t + 1) * k * k + (2 * t - 1) * k - 2 * (2 * t + 1) * k
        for n in range(p):
            a = pref - 4 * n * (t + (2 * t + 1) * k)
            b = 2 * (2 * n + 1)
            c = 2 * (2 * k - 4 * n - 1)
            # zeta^a (zeta^b - 1)(1 - zeta^c)
            powers += ((a + b, sign), (a + b + c, -sign), (a, -sign), (a + c, sign))
    return CycNumber.from_powers(2 * p, powers).exact_div(2)


def cgp_torus_direct(t: int, p: int) -> CgpResult:
    """CGP numerator DoubleSum(u) for the 0-surgery on T(2,2t+1):

    sum_{k<p} (-1)^k e_p^((2t+1)k^2/2 + (2t-1)k/2 - (lambda+1)(2t+1)k)
      sum_{n<p} e_p^(-2n(k(2t+1)+t)) (e_p^(lambda+2n+1) - 1)(1 - e_p^(2k-1-2lambda-4n)),

    kept symbolic in u = e_{2p}^lambda.  Each (k, n) term is expanded into
    four signed monomials zeta_2p^z u^e; the zeta-exponents are accumulated
    per u-exponent and each coefficient is reduced once.  The tagged
    normalization is u^(2(p-1)t) / ((u^p - u^-p)^2 (1 + u^-2p)); DoubleSum(1)
    equals twice wrt_torus_direct(t, p)."""
    _require_odd(p)
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    by_u: dict[int, list[tuple[int, int]]] = {}
    for k in range(p):
        sign = -1 if k % 2 else 1
        pref = (2 * t + 1) * k * k + (2 * t - 1) * k - 2 * (2 * t + 1) * k
        shift = -4 * (2 * t + 1) * k
        for n in range(p):
            a = pref - 4 * n * (k * (2 * t + 1) + t)
            b = 2 * (2 * n + 1)
            c = 2 * (2 * k - 1 - 4 * n)
            # zeta^a u^(shift/2) (zeta^b u^2 - 1)(1 - zeta^c u^-4); e is a doubled u-exponent
            for e, z, s in (
                (4, a + b, sign), (-4, a + b + c, -sign), (0, a, -sign), (-8, a + c, sign)
            ):
                by_u.setdefault(shift + e, []).append((z, s))
    total = LaurentPoly.univar(
        "u", {e: CycNumber.from_powers(2 * p, pairs) for e, pairs in by_u.items()}, 2 * p
    )
    return CgpResult(
        TorusTwoStrand(t),
        p,
        total,
        numerator_prefactor_tag=f"u^{2 * (p - 1) * t}",
        denominator_extra_tag="(1 + u^-2p)",
    )


# ---------------------------------------------------------------------------
# the T-polynomial observation
# ---------------------------------------------------------------------------


class MixedResidueError(ValueError):
    """The u-exponents do not share a common residue class modulo 2p."""

    def __init__(self, message: str, exponents: tuple[int, ...]):
        super().__init__(message)
        self.exponents = exponents


def extract_T(f: LaurentPoly, p: int) -> tuple[int, LaurentPoly]:
    """Rewrite f(u) as u^r g(T) with T = u^2p; requires one residue class.

    Returns the residue r (0 <= r < 2p) and g; mixed residues raise
    MixedResidueError naming the offending exponents.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if len(f.variables) != 1:
        raise ValueError("extract_T needs a univariate polynomial in u")
    if f.is_zero():
        return 0, LaurentPoly.zero(("T",), f.order)
    exps = []
    for (e,), _ in f.terms:
        if e % 2:
            raise MixedResidueError(
                f"half-integer u-exponent {e}/2 cannot be a power of u^{2 * p}", (e,)
            )
        exps.append(e // 2)
    residues = sorted({e % (2 * p) for e in exps})
    if len(residues) != 1:
        raise MixedResidueError(
            f"u-exponents {sorted(exps)} fall in {len(residues)} residue classes "
            f"modulo {2 * p}: {residues}",
            tuple(sorted(exps)),
        )
    r = residues[0]
    terms = {(2 * ((e[0] // 2 - r) // (2 * p)),): c for e, c in f.terms}
    return r, LaurentPoly.make(("T",), terms, f.order)


def verify_T_claim(t: int, p: int) -> InvariantReport:
    """Check the T-polynomial structure of the torus CGP numerator.

    The bare double sum carries the uniform residue 2t mod 2p (each surviving
    term has e_p^(lambda a) with a = t mod p), so the residue-0 statement
    holds for the lambda-normalized numerator u^(2(p-1)t) * DoubleSum(u):
    that polynomial is extracted as g(T), T = u^2p, with residue asserted 0
    and g(1) asserted equal to 2 wrt_torus_direct(t, p).  The bare residue is
    recorded in the report parameters.
    """
    result = cgp_torus_direct(t, p)
    params = {"t": t, "p": p}
    try:
        bare_r, _ = extract_T(result.numerator, p)
        normalized = result.numerator * LaurentPoly.univar("u", {4 * (p - 1) * t: 1})
        r, g = extract_T(normalized, p)
    except MixedResidueError as exc:
        return InvariantReport(
            "torus-T", {**params, "mixed_exponents": list(exc.exponents)}, False,
            result.numerator, None,
        )
    expected = wrt_torus_direct(t, p) * 2
    value = g.evaluate({"T": 1})
    passed = r == 0 and value == expected
    return _report(
        "torus-T",
        {**params, "residue": r, "bare_residue": bare_r},
        passed,
        g,
        LaurentPoly.univar("T", {0: expected}),
    )
