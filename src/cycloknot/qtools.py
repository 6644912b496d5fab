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
sigma_at_root and the tuple sigma_at_color(N).  The integer tables among
them are built on dense coefficient rows, whose supports are known:
qfactorial as a window sum, qbinomial's Pascal cell as one slice add of its
two predecessors' coefficients, and qpochhammer, pochhammer_pair, sigma and
sigma_at_color by adding one shifted copy of the predecessor's rows per
term of their 2- or 4-term factor (_extend).

The knot-free kernels of the invariants are memoized here, once for all
knots, all in the sigma basis: for a double twist knot, ADO, WRT and the CGP
numerator are sum_{m<p} a_m(e_p) times sigma_at_root, wrt_kernel and
cgp_kernel of (m, p), and J_K(q^N, q) = sum_n a_n sigma_at_color(N)[n].  WRT
and CGP sum over the odd powers j of zeta_p, and sum_j zeta_p^(j a) is p if
p | a, else 0: each kernel keeps the x-exponents 0, +-1 mod p, times p, the
factor p of the paper's CGP = WRT/{p lambda}^2 + p a_{p-1}(e_p).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from typing import Optional

from .exactring import Coeff, CycNumber, LaurentPoly, zeta


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


def _extend(prev: LaurentPoly, factor: tuple[tuple[int, ...], ...]) -> LaurentPoly:
    """prev times the sum of sign * (monomial) over the factor's (exponents..., sign).

    prev has integer coefficients and even doubled exponents in its last
    variable, and every sign is 1 or -1.  prev's terms are read into one
    dense coefficient row per leading exponent (x's, or the one row of a
    univariate polynomial) over the last exponent in steps of 2.  Each term
    of the factor adds or subtracts a shifted copy of every row through one
    slice add, and the rows' nonzero entries, read in order, are already
    the canonical terms.
    """
    rows = []
    for lead, run in itertools.groupby(prev.terms, key=lambda term: term[0][:-1]):
        run = list(run)
        lo = run[0][0][-1]
        row = [0] * ((run[-1][0][-1] - lo) // 2 + 1)
        for exps, c in run:
            row[(exps[-1] - lo) // 2] = c
        rows.append((lead, lo, row))
    copies = []
    for *shift, last, sign in factor:
        op = operator.add if sign > 0 else operator.sub
        for lead, lo, row in rows:
            copies.append((tuple(map(operator.add, lead, shift)), lo + last, row, op))
    spans: dict[tuple[int, ...], tuple[int, int]] = {}
    for lead, lo, row, _ in copies:
        hi = lo + 2 * len(row)
        a, b = spans.get(lead, (lo, hi))
        spans[lead] = (min(a, lo), max(b, hi))
    sums = {lead: [0] * ((b - a) // 2) for lead, (a, b) in spans.items()}
    for lead, lo, row, op in copies:
        acc = sums[lead]
        i = (lo - spans[lead][0]) // 2
        acc[i : i + len(row)] = map(op, acc[i : i + len(row)], row)
    terms = []
    for lead in sorted(sums):
        a, b = spans[lead]
        keys = zip(*map(itertools.repeat, lead), range(a, b, 2))
        terms.extend(itertools.compress(zip(keys, sums[lead]), sums[lead]))
    return LaurentPoly(prev.variables, tuple(terms), None)


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
    # every 8th row of the cells that the Pascal recursion reaches is filled
    # first: a cold cell recurses through fewer than 8 rows, and its fill
    # looks up n/8 rows rather than n (a cold qbinomial(100, 50): 0.48 s
    # when every row is filled, 0.32 s)
    _fill_below(qbinomial, n, lambda i: range(max(0, k - n + i), min(k, i) + 1), 8)
    # [n-1; k-1] and [n-1; k] have positive coefficients at every exponent
    # from 0 to their degrees (k-1)(n-k) and k(n-k-1), so [n-1; k-1] +
    # q^k [n-1; k] is one slice add, positive from 0 to k(n-k) and in
    # order: canonical terms
    low, high = qbinomial(n - 1, k - 1).terms, qbinomial(n - 1, k).terms
    a = list(map(operator.itemgetter(1), low))
    b = list(map(operator.itemgetter(1), high))
    coeffs = a[:k] + list(map(operator.add, a[k:], b)) + b[len(a) - k :]
    # share the longer predecessor's exponent keys: a fresh key per term
    # raised the peak memory of qbinomial(100, 50) from 194 to 306 MB
    longer = max(low, high, key=len)
    keys = itertools.chain(
        map(operator.itemgetter(0), longer), zip(range(2 * len(longer), 2 * len(coeffs), 2))
    )
    return LaurentPoly(("q",), tuple(zip(keys, coeffs)), None)


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
    return _extend(qpochhammer(n - 1), ((0, 1), (2 * n, -1)))


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
    """[n0; k0] at q = zeta_p for n0, k0 < p, the q-binomials that q-Lucas reduces
    every [n; k] to, each computed once in Z[zeta_p] by the Pascal rule
    [n; k] = [n-1; k-1] + zeta^k [n-1; k], and 0 for k0 > n0.  Every 32nd row of
    the cells it reaches is filled first: a cold cell recurses through fewer
    than 32 rows, and its fill looks up n0/32 rows rather than n0."""
    if k0 > n0:
        return CycNumber.zero(p)
    if k0 == 0 or k0 == n0:
        return CycNumber.from_int(p, 1)
    reach = lambda i: range(max(0, k0 - n0 + i), min(k0, i) + 1)
    _fill_below(lambda i, k: _qbinomial_residue(i, k, p), n0, reach, 32)
    return _qbinomial_residue(n0 - 1, k0 - 1, p) + _qbinomial_residue(n0 - 1, k0, p).times_zeta(k0)


@functools.lru_cache(maxsize=None)
def pochhammer_pair(n: int) -> LaurentPoly:
    """(xq; q)_n (x**-1 q; q)_n, bivariate in (x, q); step n multiplies by
    (1 - x q**n)(1 - x**-1 q**n) = 1 - x q**n - x**-1 q**n + q**(2n)."""
    if n < 0:
        raise ValueError(f"Pochhammer length must be >= 0, got {n}")
    if n == 0:
        return LaurentPoly.const(("x", "q"), 1)
    _fill_below(pochhammer_pair, n)
    step = ((0, 0, 1), (2, 2 * n, -1), (-2, 2 * n, -1), (0, 4 * n, 1))
    return _extend(pochhammer_pair(n - 1), step)


@functools.lru_cache(maxsize=None)
def sigma(m: int) -> LaurentPoly:
    """sigma_m(x, q) = sigma_{m-1}(x, q) (x + x**-1 - q**m - q**-m)."""
    if m < 0:
        raise ValueError(f"sigma index must be >= 0, got {m}")
    if m == 0:
        return LaurentPoly.const(("x", "q"), 1)
    _fill_below(sigma, m)
    return _extend(sigma(m - 1), ((2, 0, 1), (-2, 0, 1), (0, 2 * m, -1), (0, -2 * m, -1)))


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
        sigmas.append(_extend(sigmas[-1], ((2 * N, 1), (-2 * N, 1), (2 * n, -1), (-2 * n, -1))))
    return tuple(sigmas)


def _character_filter(f: LaurentPoly, p: int) -> Iterator[tuple[int, Coeff]]:
    """(e + s, w f_e) for the terms f_e x^e of f and s, w in (1, p), (0, -2p), (-1, p)
    with p | e + s, tested independently: what the odd j < 2p leave of
    sum_j (zeta_p^j - 2 + zeta_p^-j) f_e zeta_p^(j e)."""
    for (k,), c in f.terms:
        if k % 2:
            raise ValueError(f"half-integer exponent {k}/2 of 'x' has no value at a root of unity")
        for s, w in ((1, p), (0, -2 * p), (-1, p)):
            if (k // 2 + s) % p == 0:
                yield k // 2 + s, c * w


@functools.lru_cache(maxsize=None)
def wrt_kernel(m: int, p: int) -> CycNumber:
    """sum_{0<n<2p odd} (zeta_2p^n - zeta_2p^-n)^2 sigma_m(zeta_p^-n, e_p) in Z[zeta_2p]:
    p sum_e sigma_{m,e} ([e = 1] - 2 [e = 0] + [e = -1]), e mod p, summed in Z[zeta_p]."""
    terms = (c for _, c in _character_filter(sigma_at_root(m, p), p))
    return sum(terms, CycNumber.zero(p)).embed(2 * p)


@functools.lru_cache(maxsize=None)
def cgp_kernel(m: int, p: int) -> LaurentPoly:
    """sum_{n<p} {lambda+2n+1}^2 sigma_m(zeta_p^(2n+1) u^2, e_p) over Z[zeta_2p]."""
    return _cgp_operator(sigma_at_root(m, p), p)


def _cgp_operator(f: LaurentPoly, p: int) -> LaurentPoly:
    """sum_{n<p} {lambda+2n+1}^2 f(zeta_p^(2n+1) u^2) over Z[zeta_2p], for f in x, as the
    filter p sum_e f_e ([e = -1] u^(2e+2) - 2 [e = 0] u^(2e) + [e = 1] u^(2e-2)), e mod p."""
    terms = (((4 * a,), c) for a, c in _character_filter(f, p))
    return LaurentPoly.make(("u",), terms, f.order).with_order(2 * p)


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
