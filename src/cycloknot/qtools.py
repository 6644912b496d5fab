"""q-combinatorics: q-factorials, q-binomials, Pochhammer products, sigma
products and brace polynomials, at generic q and at roots of unity.

Polynomials at generic q live in the variable q; the bivariate products use
(x, q).  Values at a root of unity are CycNumber elements, or polynomials in
x over a cyclotomic ring for the specialized sigma products.  Everything is
exact; memoized results are immutable and shared.  A memoized recursion
first fills the levels below the one asked for, lowest first, so a cold
cache needs no Python stack depth that grows with n.

Every memoized product extends its predecessor by one factor rather than
multiplying from i = 1: qfactorial, qpochhammer, pochhammer_pair, sigma,
sigma_at_root and the tuple sigma_at_color(N).

The knot-free kernels of the invariants are memoized here, once for all
knots, all in the sigma basis: for a double twist knot, ADO, WRT and the CGP
numerator are sum_{m<p} a_m(e_p) times sigma_at_root, wrt_kernel and
cgp_kernel of (m, p), and J_K(q^N, q) = sum_n a_n sigma_at_color(N)[n] for
every knot.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from typing import Optional

from .exactring import CycNumber, LaurentPoly, eval_at_root, zeta


def _q(e2: int, c: int = 1) -> LaurentPoly:
    """Monomial c * q**(e2/2), in the doubled-exponent convention."""
    return LaurentPoly.univar("q", {e2: c})


def _fill_below(
    cell: Callable[..., object],
    level: int,
    keys: Optional[Callable[[int], Iterable[int]]] = None,
    step: int = 1,
) -> None:
    """Evaluate the memoized cell(i, k) for i = step, 2 step, ... < level and
    k in keys(i), or cell(i) when keys is None.

    Levels go lowest first, so each new entry finds the levels below it
    cached and the Python stack grows with step, not with the level.
    """
    for i in range(step, level, step):
        if keys is None:
            cell(i)
        else:
            for k in keys(i):
                cell(i, k)


@functools.lru_cache(maxsize=None)
def qfactorial(n: int) -> LaurentPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q."""
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got {n}")
    if n == 0:
        return LaurentPoly.univar("q", {0: 1})
    _fill_below(qfactorial, n)
    # [n-1]_q! has positive coefficients at every exponent from 0 to its
    # degree, and [n]_q has n coefficients 1, so the product is a width-n
    # window sum of prefix sums, positive and in order: canonical terms
    coeffs = [c for _, c in qfactorial(n - 1).terms] + [0] * (n - 1)
    sums = [0, *itertools.accumulate(coeffs)]
    terms = tuple(((2 * j,), sums[j + 1] - sums[max(0, j - n + 1)]) for j in range(len(coeffs)))
    return LaurentPoly(("q",), terms, None)


@functools.lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial [n; k]_q via the Pascal recursion; 0 outside 0<=k<=n."""
    if n < 0:
        raise ValueError(f"q-binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return LaurentPoly.zero(("q",))
    if k == 0 or k == n:
        return LaurentPoly.univar("q", {0: 1})
    # the cells of lower rows that the Pascal recursion reaches
    _fill_below(qbinomial, n, lambda i: range(max(0, k - n + i), min(k, i) + 1))
    return qbinomial(n - 1, k - 1) + _q(2 * k) * qbinomial(n - 1, k)


def qbinomial_balanced(n: int, k: int) -> LaurentPoly:
    """Balanced (quantum) binomial q**(-k(n-k)/2) [n; k]_q.

    Symmetric under q -> 1/q; built from quantum integers
    (q**(a/2) - q**(-a/2)) / (q**(1/2) - q**(-1/2)).  Evaluating it with
    eval_at_root(..., p) realizes q**(1/2) as zeta_2p.
    """
    shift = LaurentPoly.univar("q", {-k * (n - k): 1})
    return shift * qbinomial(n, k)


@functools.lru_cache(maxsize=None)
def qpochhammer(n: int) -> LaurentPoly:
    """(q; q)_n = (1-q)(1-q**2)...(1-q**n)."""
    if n < 0:
        raise ValueError(f"q-Pochhammer needs n >= 0, got {n}")
    if n == 0:
        return LaurentPoly.univar("q", {0: 1})
    _fill_below(qpochhammer, n)
    return qpochhammer(n - 1) * (_q(0) - _q(2 * n))


def qbinomial_at_root(n: int, k: int, p: int) -> CycNumber:
    """[n; k] evaluated at q = zeta_p.

    The q-Lucas factorization [n + a*p; k + b*p] = [n mod p; k mod p] *
    binomial(a, b) reduces the computation to a small q-binomial, whose
    value at zeta_p is memoized, and an ordinary binomial coefficient (at
    p = 1 it is binomial(n, k) itself).
    """
    if p < 1:
        raise ValueError(f"root order must be >= 1, got {p}")
    if k < 0 or k > n:
        return CycNumber.zero(p)
    a, n0 = divmod(n, p)
    b, k0 = divmod(k, p)
    scale = math.comb(a, b)
    value = _qbinomial_residue(n0, k0, p)
    return value if scale == 1 else value * scale


@functools.lru_cache(maxsize=None)
def _qbinomial_residue(n0: int, k0: int, p: int) -> CycNumber:
    """[n0; k0] at q = zeta_p for n0, k0 < p: the small q-binomials that
    q-Lucas reduces every [n; k] to, each evaluated once."""
    return eval_at_root(qbinomial(n0, k0), p)


@functools.lru_cache(maxsize=None)
def pochhammer_pair(n: int) -> LaurentPoly:
    """(xq; q)_n (x**-1 q; q)_n, bivariate in (x, q); step n multiplies by
    (1 - x q**n)(1 - x**-1 q**n) = 1 - x q**n - x**-1 q**n + q**(2n)."""
    if n < 0:
        raise ValueError(f"Pochhammer length must be >= 0, got {n}")
    if n == 0:
        return LaurentPoly.const(("x", "q"), 1)
    _fill_below(pochhammer_pair, n)
    return pochhammer_pair(n - 1) * LaurentPoly.make(
        ("x", "q"), {(0, 0): 1, (2, 2 * n): -1, (-2, 2 * n): -1, (0, 4 * n): 1}
    )


@functools.lru_cache(maxsize=None)
def sigma(m: int) -> LaurentPoly:
    """sigma_m(x, q) = sigma_{m-1}(x, q) (x + x**-1 - q**m - q**-m)."""
    if m < 0:
        raise ValueError(f"sigma index must be >= 0, got {m}")
    if m == 0:
        return LaurentPoly.const(("x", "q"), 1)
    _fill_below(sigma, m)
    return sigma(m - 1) * LaurentPoly.make(
        ("x", "q"), {(2, 0): 1, (-2, 0): 1, (0, 2 * m): -1, (0, -2 * m): -1}
    )


@functools.lru_cache(maxsize=None)
def sigma_at_root(m: int, p: int) -> LaurentPoly:
    """sigma_m(x, zeta_p) as a polynomial in x over Z[zeta_p].

    sigma_m = sigma_{m-1} * (x + x**-1 - zeta**m - zeta**-m), so every
    m shares the products of the smaller ones.
    """
    if m < 0 or p < 1:
        raise ValueError(f"need m >= 0 and p >= 1, got m={m}, p={p}")
    if m == 0:
        return LaurentPoly.univar("x", {0: 1}, p)
    _fill_below(sigma_at_root, m, lambda i: (p,))
    factor = LaurentPoly.univar("x", {2: 1, -2: 1, 0: -(zeta(p, m) + zeta(p, -m))}, p)
    return sigma_at_root(m - 1, p) * factor


@functools.lru_cache(maxsize=None)
def sigma_at_color(N: int) -> tuple[LaurentPoly, ...]:
    """sigma_n(q^N, q) for n < N; step n multiplies by q^N + q^-N - q^n - q^-n,
    which vanishes at n = N."""
    if N < 1:
        raise ValueError(f"color must be >= 1, got {N}")
    sigmas = [_q(0)]
    for n in range(1, N):
        step = LaurentPoly.univar("q", {2 * N: 1, -2 * N: 1, 2 * n: -1, -2 * n: -1})
        sigmas.append(sigmas[-1] * step)
    return tuple(sigmas)


@functools.lru_cache(maxsize=None)
def wrt_kernel(m: int, p: int) -> CycNumber:
    """sum_{0<n<2p odd} (zeta_2p^n - zeta_2p^-n)^2 sigma_m(zeta_p^-n, e_p) in Z[zeta_2p]."""
    total = CycNumber.zero(2 * p)
    for n in range(1, 2 * p, 2):
        br = brace(n, p)
        total = total + br * br * eval_at_root(sigma_at_root(m, p), p, -n, order=2 * p)
    return total


@functools.lru_cache(maxsize=None)
def cgp_kernel(m: int, p: int) -> LaurentPoly:
    """sum_{n<p} {lambda+2n+1}^2 sigma_m(zeta_p^(2n+1) u^2, e_p) over Z[zeta_2p]."""
    return _cgp_operator(sigma_at_root(m, p), p)


def _cgp_operator(f: LaurentPoly, p: int) -> LaurentPoly:
    """sum_{n<p} {lambda+2n+1}^2 f(zeta_p^(2n+1) u^2) over Z[zeta_2p], for f in x,
    with e_p^(lambda+2n+1) realized as zeta_p^(2n+1) u^2."""
    f = f.with_order(2 * p)
    total = LaurentPoly.zero(("u",), 2 * p)
    for n in range(p):
        b = brace(2 * n + 1, p, lam_coeff=1)
        at_point = f.substitute("x", coeff=zeta(2 * p, 2 * (2 * n + 1)), new_var="u", exp2=4)
        total = total + b * b * at_point
    return total


def brace(j: int, p: int, lam_coeff: int = 0, var: str = "u"):
    """{lam_coeff * lambda + j} in Z[zeta_2p], with u standing for e_{2p}**lambda.

    With lam_coeff = 0 this is the scalar zeta_2p**j - zeta_2p**(-j); otherwise
    it is the Laurent polynomial u**lam_coeff * zeta_2p**j -
    u**(-lam_coeff) * zeta_2p**(-j).
    """
    if lam_coeff == 0:
        return zeta(2 * p, j) - zeta(2 * p, -j)
    return LaurentPoly.univar(
        var, {2 * lam_coeff: zeta(2 * p, j), -2 * lam_coeff: -zeta(2 * p, -j)}
    )


def bracket_poly(m: int, p: int) -> LaurentPoly:
    """{z+m}...{z+1} {z}^2 {z-1}...{z-m} with v = e_{2p}**z kept symbolic.

    The result is returned as a Laurent polynomial in v; it is checked to be a
    monic polynomial of degree m+1 in w = v**2 + v**-2, which is an internal
    consistency requirement.
    """
    if not 0 <= m <= p - 1:
        raise ValueError(f"need 0 <= m <= p-1, got m={m}, p={p}")
    acc = brace(0, p, lam_coeff=1, var="v") ** 2
    for j in range(1, m + 1):
        acc = acc * brace(j, p, lam_coeff=1, var="v")
        acc = acc * brace(-j, p, lam_coeff=1, var="v")
    _check_monic_in_w(acc, m + 1)
    return acc


def _check_monic_in_w(f: LaurentPoly, degree: int) -> None:
    """Assert f = w**degree + lower order terms for w = v**2 + v**-2."""
    w = LaurentPoly.univar("v", {4: 1, -4: 1})
    rem = f
    seen_degree = -1
    while not rem.is_zero():
        top = rem.max_exp2("v")
        if top % 4 or top < 0:
            raise ArithmeticError(f"not a polynomial in v^2 + v^-2: exponent {top}/2")
        d = top // 4
        lead = rem.coefficient((top,))
        if seen_degree == -1:
            seen_degree = d
            if d != degree or lead != 1:
                raise ArithmeticError(
                    f"expected monic of degree {degree} in w, found degree {d} "
                    f"with leading coefficient {lead}"
                )
        rem = rem - (w**d) * lead
    if seen_degree != degree:
        raise ArithmeticError(f"expected degree {degree} in w, got {seen_degree}")
