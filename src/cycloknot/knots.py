"""Knot descriptors, Alexander polynomials and Habiro cyclotomic coefficients.

Supported knots are the double twist family K(l, m) (two boxes of 2l and 2m
half twists), the two-strand torus knots T(2, 2t+1), and mirror images of
either.  The Habiro coefficients a_n / C_n are the coefficients of the
cyclotomic expansion of the colored Jones polynomial,

    J_K(x, q) = sum_n C_n(K; q) (xq; q)_n (x^-1 q; q)_n
              = sum_n a_n(K; q) sigma_n(x, q),

with a_n = (-1)^n q^(n(n+1)/2) C_n.  Only a_n is memoized, and every
invariant sums it against a sigma_n kernel; C_n is one monomial away.  The
coefficients are computed from the known nondecreasing-chain multi-sum
formulas for these families.  Each multi-sum is split at its last link into
memoized columns: the sums over the chains of a given length that end at a
given value k.  One kernel, _chain_column, holds every column whose link
weight is a monomial times a q-binomial: the double twist sums here and the
hyper-Jones and torus ADO sums of invariants.  It is keyed by a link-weight
descriptor and a ring, generic q or q = e_p over Z[zeta_p].  A column
depends neither on the index n nor on the twist parameters, so a_0, ..., a_N,
and knots whose chains share a prefix, share one set of columns.  The cost is
polynomial in the chain length rather than one product per chain, and
columns are filled from below, lowest level first, so chains of any length
need no deep recursion.

The mirror-torus sum, whose q-binomial depends on the prefix sum, is taken at
generic q as one integer.  Each of its link weights q^(j^2) [top; low] has
nonnegative coefficients, so the whole sum S(q) does too, and no coefficient
exceeds S(1), a sum of products of ordinary binomials.  With W the bit length
of S(1), the same (k, prefix) recursion runs once more at q = 2^W, where a
weight is a shift and the q-binomials come from q-Pascal shift-adds, and the
coefficients of S are the base-2^W digits of S(2^W).  Only at q = e_p does
the sum keep memoized columns, _torus_column, keyed also by the prefix sum.

a_at_root computes a_n(e_p) in Z[zeta_p] throughout: it reads the same
columns in the ring p, where each column entry is one element of Z[zeta_p]
(the q-binomials through q-Lucas), the prefactors are powers of zeta_p, and
q -> 1/q is the Galois map zeta -> 1/zeta.  No polynomial in q is built, so
its cost does not grow with the degree of a_n(q).  The generic route,
eval_at_root(habiro_a(K, n), p), gives the same value and stays an
independent oracle in the tests; a_at_one keeps to the generic route, so
that the periodicity check a_{n+kp}(e_p) = a_n(e_p) a_k(1) compares the two.
The evaluation inversion habiro_from_jones recovers C_n from colored Jones
values (its formula is written in the C basis) and serves as an independent
cross-check.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from .exactring import CycNumber, LaurentPoly, exact_div, zeta
from .qtools import _fill_below, _q, qbinomial, qbinomial_at_root, qpochhammer


# ---------------------------------------------------------------------------
# knot descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleTwist:
    """K(l, m); canonical form has l <= m, both nonzero, not both negative."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l == 0 or self.m == 0:
            raise ValueError("twist parameters must be nonzero")
        if self.l > self.m:
            raise ValueError(f"not in canonical order: l={self.l} > m={self.m}")
        if self.l < 0 and self.m < 0:
            raise ValueError("both-negative twists normalize to a mirror; use double_twist()")


@dataclass(frozen=True)
class TorusTwoStrand:
    """The torus knot T(2, 2t+1) with t >= 1."""

    t: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"torus parameter must be >= 1, got {self.t}")


@dataclass(frozen=True)
class Mirror:
    inner: Union[DoubleTwist, TorusTwoStrand]

    def __post_init__(self) -> None:
        if isinstance(self.inner, Mirror):
            raise ValueError("nested mirrors normalize away; use mirror()")


KnotSpec = Union[DoubleTwist, TorusTwoStrand, Mirror]


def double_twist(l: int, m: int) -> KnotSpec:
    """Canonical K(l, m): sorted parameters, both-negative reduced to a mirror."""
    if l == 0 or m == 0:
        raise ValueError("twist parameters must be nonzero")
    if l > m:
        l, m = m, l
    if l < 0 and m < 0:
        return Mirror(DoubleTwist(-m, -l))
    return DoubleTwist(l, m)


def torus_two_strand(t: int) -> TorusTwoStrand:
    return TorusTwoStrand(t)


def mirror(knot: KnotSpec) -> KnotSpec:
    if isinstance(knot, Mirror):
        return knot.inner
    return Mirror(knot)


_KNOT_GRAMMAR = "knot spec grammar: dt:L,M | t2:T | prefix ! for mirror (e.g. !t2:2)"
_DT_RE = re.compile(r"^dt:(-?\d+),(-?\d+)$")
_T2_RE = re.compile(r"^t2:(\d+)$")


class KnotParseError(ValueError):
    """Malformed knot spec text."""


def parse_knot(text: str) -> KnotSpec:
    """Parse the CLI knot syntax: dt:l,m / t2:t, with ! prefix for mirror."""
    mirrored = text.startswith("!")
    body = text[1:] if mirrored else text
    dt, t2 = _DT_RE.match(body), _T2_RE.match(body)
    if not (dt or t2):
        raise KnotParseError(f"unrecognized knot spec {text!r}; {_KNOT_GRAMMAR}")
    try:
        if dt:
            knot: KnotSpec = double_twist(int(dt.group(1)), int(dt.group(2)))
        else:
            knot = torus_two_strand(int(t2.group(1)))
    except ValueError as exc:
        raise KnotParseError(f"bad knot spec {text!r}: {exc}; {_KNOT_GRAMMAR}") from None
    return mirror(knot) if mirrored else knot


def knot_str(knot: KnotSpec) -> str:
    """Inverse of parse_knot, used for deterministic output."""
    if isinstance(knot, Mirror):
        return "!" + knot_str(knot.inner)
    if isinstance(knot, DoubleTwist):
        return f"dt:{knot.l},{knot.m}"
    return f"t2:{knot.t}"


def is_double_twist_family(knot: KnotSpec) -> bool:
    """True for double twist knots and their mirrors."""
    inner = knot.inner if isinstance(knot, Mirror) else knot
    return isinstance(inner, DoubleTwist)


# ---------------------------------------------------------------------------
# chain multi-sums
# ---------------------------------------------------------------------------


_ONE_TERMS = (((0,), 1),)


def _shifted_sum(
    terms: Iterable[tuple[int, object, LaurentPoly]], var: str = "q", order: Optional[int] = None
) -> LaurentPoly:
    """sum of var^(e/2) w f over the triples (e, w, f), in one dict.

    The weight w is a polynomial or a scalar.  Each term is added into one
    accumulator and the result is normalized once, instead of building a
    polynomial per partial sum; a polynomial factor equal to 1 costs no
    product.
    """
    acc: dict[int, object] = {}
    for e, w, f in terms:
        if not isinstance(w, LaurentPoly):
            w = f * w
        elif f.terms != _ONE_TERMS:
            w = f if w.terms == _ONE_TERMS else w * f
        for (x,), c in w.terms:
            x += e
            acc[x] = acc[x] + c if x in acc else c
    return LaurentPoly((var,), tuple([((x,), c) for x, c in sorted(acc.items()) if c]), order)


# Link weights w(k, n) = q^(a k^2 + b k + c k n) x^(d k) of the chain
# columns, named by (a, b, c, d).  A descriptor is a tuple of ints, so a
# column's memo key holds no function (the benchmark tracer rebinds those).
_TWIST_PLUS = (1, 1, 0, 0)  # q^(k(k+1)): twist boxes of positive sign
_TWIST_MINUS = (0, -1, -1, 0)  # q^(-k(n+1)): twist boxes of negative sign
_TORUS_ADO = (1, 1, 0, 2)  # x^(2k) q^(k(k+1)) at q = e_p: ADO of T(2, 2t+1)


@functools.lru_cache(maxsize=None)
def _chain_column(
    link: tuple[int, int, int, int], ring: Optional[int], length: int, n: int
) -> LaurentPoly:
    """C(length, n) = sum_{k<=n} w(k, n) [n; k] C(length-1, k), C(1, n) = 1.

    This is the sum over the chains k_1 <= ... <= k_length = n of the
    products of the link weights w(k_i, k_{i+1}) [k_{i+1}; k_i], with w
    named by the descriptor link = (a, b, c, d).  With ring None it is a
    polynomial in q (d must be 0); with ring p it is a polynomial in x over
    Z[zeta_p], at q = e_p, with the q-binomials taken at the root (their
    zeros skipped).  A column does not depend on any bound on the chain, so
    every top n, and every sum over a range of tops, shares it.
    """
    a, b, c, d = link
    if length == 1:
        return _q(0) if ring is None else LaurentPoly.univar("x", {0: 1}, ring)
    # Every 64th level is filled, so a cold column recurses through fewer
    # than 64 levels, and the fill that each new column starts with costs
    # length/64 lookups per key rather than length.
    _fill_below(functools.partial(_chain_column, link, ring), length, lambda i: range(n + 1), 64)

    def terms():
        for k in range(n + 1):
            e = k * (a * k + b + c * n)
            if ring is None:
                yield 2 * e, qbinomial(n, k), _chain_column(link, ring, length - 1, k)
            elif binom := qbinomial_at_root(n, k, ring):
                yield 2 * d * k, binom.times_zeta(e), _chain_column(link, ring, length - 1, k)

    return _shifted_sum(terms(), "q" if ring is None else "x", ring)


def _monomial(e2: int, sign: int, ring: Optional[int]):
    """sign * q^(e2/2), or with ring p its value at q = e_p (e2 even)."""
    return _q(e2, sign) if ring is None else zeta(ring, e2 // 2) * sign


def _torus_link(i: int, k: int, j: int, prefix: int) -> tuple[int, int, int, int]:
    """(top, low, e, prefix + j): the mirror torus link j = k_{i-1} <= k = k_i
    after the prefix P' = k_1 + ... + k_{i-2} has the weight q^e [top; low],
    q^(j^2) [k + j - i + 1 + 2P'; k - j], and leads to the prefix P' + j.
    Both torus routes, at q = 2^W and at q = e_p, read this one rule."""
    return k + j - i + 1 + 2 * prefix, k - j, j * j, prefix + j


def _qbinomials_at(width: int, reach: list[int]) -> Callable[[int, int], int]:
    """[top; low] at q = 2^width, for low < len(reach) and top - low <= reach[low].

    The table H(b, m) = [m + b; b] is filled by q-Pascal shift-adds,
    H(b, m) = H(b, m - 1) + 2^(width m) H(b - 1, m), with no product or
    division; reach must be nonincreasing, so each row's cells exist in the
    row below.  Width 0 gives the ordinary binomials, the values at q = 1.
    Outside 0 <= low <= top the binomial is 0.
    """
    rows = [[1] * (reach[0] + 1)]
    for b in range(1, len(reach)):
        below, row, acc = rows[-1], [], 0
        for m in range(reach[b] + 1):
            acc += below[m] << width * m
            row.append(acc)
        rows.append(row)

    def binom(top: int, low: int) -> int:
        return rows[low][top - low] if 0 <= low <= top else 0

    return binom


def _torus_chain_value(t: int, top: int, width: int) -> int:
    """S(2^width) for the chain sum S(q) = sum over 1 <= k_1 <= ... <= k_t = top
    of the product of the t - 1 link weights of _torus_link; S(1) at width 0.

    Levels go lowest first and only the level below is kept: one int per
    state (k, P), where each weight q^e is a shift by width e and each
    q-binomial an entry of the shift-add table.  A link j <= k has
    low = k - j < top and top - low <= 2 (t - 1) j - t + 1, as P' <= (t - 2) j.
    """
    binom = _qbinomials_at(width, [max(0, 2 * (t - 1) * (top - b) - t + 1) for b in range(top)])
    columns = {k: {0: 1} for k in range(1, top + 1)}
    for i in range(2, t + 1):
        level = {}
        for k in range(1, top + 1) if i < t else (top,):
            column: dict[int, int] = {}
            for j in range(1, k + 1):
                for prefix, value in columns[j].items():
                    b_top, low, e, after = _torus_link(i, k, j, prefix)
                    term = binom(b_top, low) * value << width * e
                    column[after] = column[after] + term if after in column else term
            level[k] = column
        columns = level
    return sum(columns[top].values())


def _torus_links(
    p: int, i: int, k: int
) -> Iterator[tuple[int, tuple[int, CycNumber, CycNumber]]]:
    """The terms of T(i, k, .) at q = e_p by the last link j = k_{i-1} <= k.

    Yields (P, (2e, [top; low] at e_p, T(i-1, j, P'))) for the links of
    _torus_link, skipping those whose binomial vanishes at e_p.
    """
    for j in range(1, k + 1):
        for prefix, value in _torus_column(p, i - 1, j).items():
            b_top, low, e, after = _torus_link(i, k, j, prefix)
            if binom := qbinomial_at_root(b_top, low, p):
                yield after, (2 * e, binom, value)


def _link_sum(p: int, terms: Iterable[tuple[int, CycNumber, CycNumber]]) -> CycNumber:
    """sum of zeta_p^(e/2) w f over the triples (e, w, f), with every power of
    zeta added into one vector and reduced once."""
    return CycNumber.from_powers(
        p, [(e // 2 + i, c) for e, w, f in terms for i, c in enumerate((w * f).coeffs) if c]
    )


@functools.lru_cache(maxsize=None)
def _torus_column(p: int, i: int, k: int) -> dict[int, CycNumber]:
    """{P: T(i, k, P)}: the sum over chains 1 <= k_1 <= ... <= k_i = k with
    k_1 + ... + k_{i-1} = P of the first i - 1 link weights of the mirror
    torus sum, at q = e_p: one element of Z[zeta_p] per prefix.  T depends on
    neither t nor n, so every T(2, 2t+1) shares it.
    """
    if i == 1:
        return {0: CycNumber.from_int(p, 1)}
    parts: dict[int, list] = {}
    for prefix, term in _torus_links(p, i, k):
        parts.setdefault(prefix, []).append(term)
    return {prefix: _link_sum(p, terms) for prefix, terms in parts.items()}


def _mirror_torus_a(t: int, n: int, ring: Optional[int]):
    """a_n of the mirror of T(2, 2t+1), as a chain multi-sum.

    a_n = (-1)^n q^(n(n+1)/2 + n + 1 - t)
          sum_{n+1 = k_t >= ... >= k_1 >= 1}
          prod_{i=1}^{t-1} q^(k_i^2) [k_{i+1} + k_i - i + 2(k_1+...+k_{i-1}); k_{i+1} - k_i]

    With ring None the sum S(q) is read off the integer S(2^W), W the bit
    length of S(1), as its base-2^W digits: every link weight has
    nonnegative coefficients, so S does too, and none exceeds S(1).  With
    ring p the sum is taken at q = e_p over the memoized columns T(i, k, P);
    its top level is summed on the fly, as it is used once per (t, n).
    """
    sign = -1 if n % 2 else 1
    top = n + 1
    shift = n * (n + 1) + 2 * (top - t)
    if ring is None:
        width = _torus_chain_value(t, top, 0).bit_length()
        bits = format(_torus_chain_value(t, top, width), "b")
        digits = (int(bits[max(0, end - width) : end], 2) for end in range(len(bits), 0, -width))
        terms = [((shift + 2 * d,), sign * c) for d, c in enumerate(digits) if c]
        return LaurentPoly(("q",), tuple(terms), None)
    _fill_below(functools.partial(_torus_column, ring), t, lambda i: range(1, top + 1))
    total = CycNumber.from_int(ring, 1)
    if t > 1:
        total = _link_sum(ring, (term for _, term in _torus_links(ring, t, top)))
    return total.times_zeta(shift // 2) * sign


# ---------------------------------------------------------------------------
# Habiro coefficients
# ---------------------------------------------------------------------------


def _q_inverted(f: LaurentPoly) -> LaurentPoly:
    return f.substitute("q", new_var="q", exp2=-2)


def _twist_column(link: tuple[int, int, int, int], ring: Optional[int], length: int, n: int):
    """The twist column C(length, n) in q, or with ring p its value at q = e_p
    (a twist link carries no x, so the column over Z[zeta_p] is a constant)."""
    column = _chain_column(link, ring, length, n)
    return column if ring is None else column.coefficient((0,))


def _twist_c(knot: DoubleTwist, n: int, ring: Optional[int]):
    """C_n of a double twist knot, the product of two twist columns and a
    monomial: a polynomial in q, or with ring p its value at q = e_p."""
    plus = _twist_column(_TWIST_PLUS, ring, knot.m, n)
    if knot.l > 0:
        return _monomial(2 * n, 1, ring) * _twist_column(_TWIST_PLUS, ring, knot.l, n) * plus
    sign = -1 if n % 2 else 1
    return _monomial(-n * (n + 1), sign, ring) * plus * _twist_column(_TWIST_MINUS, ring, -knot.l, n)


def habiro_c(knot: KnotSpec, n: int) -> LaurentPoly:
    """Coefficient C_n(K; q) of (xq;q)_n (x^-1 q;q)_n: the unmemoized view
    (-1)^n q^(-n(n+1)/2) a_n of habiro_a, or for a double twist knot the
    column product that habiro_a reads."""
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if isinstance(knot, DoubleTwist):
        return _twist_c(knot, n, None)
    if isinstance(knot, (TorusTwoStrand, Mirror)):
        sign = -1 if n % 2 else 1
        return _q(-n * (n + 1), sign) * habiro_a(knot, n)
    raise ValueError(f"unsupported knot spec {knot!r}")


@functools.lru_cache(maxsize=None)
def habiro_a(knot: KnotSpec, n: int) -> LaurentPoly:
    """Coefficient a_n(K; q) of sigma_n(x, q) in the cyclotomic expansion."""
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if isinstance(knot, DoubleTwist):
        sign = -1 if n % 2 else 1
        return _q(n * (n + 1), sign) * habiro_c(knot, n)
    if isinstance(knot, TorusTwoStrand):
        return _q_inverted(_mirror_torus_a(knot.t, n, None))
    if isinstance(knot, Mirror):
        if isinstance(knot.inner, TorusTwoStrand):
            return _mirror_torus_a(knot.inner.t, n, None)
        return _q_inverted(habiro_a(knot.inner, n))
    raise ValueError(f"unsupported knot spec {knot!r}")


def a_at_one(knot: KnotSpec, k: int) -> int:
    """a_k(K; 1): the generic coefficient with q set to 1."""
    total = 0
    for _, c in habiro_a(knot, k).terms:
        total += c
    return total


@functools.lru_cache(maxsize=None)
def a_at_root(knot: KnotSpec, n: int, p: int) -> CycNumber:
    """a_n(K; e_p) in Z[zeta_p], computed in Z[zeta_p] throughout.

    It reads habiro_a's columns and prefactors in the ring p, where each
    column entry is one element of Z[zeta_p] and q -> 1/q is the Galois map
    zeta -> 1/zeta, so no polynomial in q is built.  eval_at_root(habiro_a(K,
    n), p) is the same value by the generic route.
    """
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if p < 1:
        raise ValueError(f"root order must be >= 1, got {p}")
    if isinstance(knot, DoubleTwist):
        sign = -1 if n % 2 else 1
        return _monomial(n * (n + 1), sign, p) * _twist_c(knot, n, p)
    if isinstance(knot, TorusTwoStrand):
        return _mirror_torus_a(knot.t, n, p).galois(-1)
    if isinstance(knot, Mirror):
        if isinstance(knot.inner, TorusTwoStrand):
            return _mirror_torus_a(knot.inner.t, n, p)
        return a_at_root(knot.inner, n, p).galois(-1)
    raise ValueError(f"unsupported knot spec {knot!r}")


# ---------------------------------------------------------------------------
# evaluation inversion
# ---------------------------------------------------------------------------


def habiro_from_jones(evals: list[LaurentPoly], n: int) -> LaurentPoly:
    """Recover C_n from colored Jones evaluations J_K(q^l, q), l = 1..n+1.

    C_n = -q^(n+1) sum_{l=1}^{n+1} (1-q^l)(1-q^(2l)) / ((q;q)_{n+1-l} (q;q)_{n+1+l})
          * (-1)^l q^(l(l-3)/2) J_K(q^l, q).

    The sum is taken over the common denominator (q;q)_{2n+2}, where each term
    picks up the Gaussian binomial [2n+2; n+1-l], and a single exact division
    finishes; an inexact division means the evaluations are inconsistent.
    """
    if len(evals) < n + 1:
        raise ValueError(f"need J_K(q^l, q) for l = 1..{n + 1}, got {len(evals)} values")
    total = LaurentPoly.zero(("q",))
    for l in range(1, n + 2):
        total = total + _inversion_weight(n, l) * evals[l - 1]
    return exact_div(_q(2 * (n + 1), -1) * total, qpochhammer(2 * n + 2))


@functools.lru_cache(maxsize=None)
def _inversion_weight(n: int, l: int) -> LaurentPoly:
    """The knot-free weight (1-q^l)(1-q^(2l)) [2n+2; n+1-l] (-1)^l q^(l(l-3)/2)
    of J_K(q^l, q) in habiro_from_jones."""
    return (
        (_q(0) - _q(2 * l))
        * (_q(0) - _q(4 * l))
        * qbinomial(2 * n + 2, n + 1 - l)
        * _q(l * (l - 3), -1 if l % 2 else 1)
    )


# ---------------------------------------------------------------------------
# Alexander polynomials
# ---------------------------------------------------------------------------


def alexander(knot: KnotSpec) -> LaurentPoly:
    """Alexander polynomial in x, normalized so that it is symmetric and 1 at x=1."""
    if isinstance(knot, Mirror):
        return alexander(knot.inner)
    if isinstance(knot, DoubleTwist):
        lm = knot.l * knot.m
        return LaurentPoly.univar("x", {0: 1 - 2 * lm, 2: lm, -2: lm})
    if isinstance(knot, TorusTwoStrand):
        t = knot.t
        num = LaurentPoly.univar("x", {-2 * t: 1, 2 * (t + 1): 1})
        den = LaurentPoly.univar("x", {0: 1, 2: 1})
        return exact_div(num, den)
    raise ValueError(f"unsupported knot spec {knot!r}")


# ---------------------------------------------------------------------------
# closed forms for the mirror of T(2, 5)
# ---------------------------------------------------------------------------


def a_one_closed(n: int) -> int:
    """a_{n-1}(q=1) for the mirror of T(2,5): (-1)^(n-1) sum_l C(n+l, 2l+1)."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    sign = -1 if (n - 1) % 2 else 1
    return sign * sum(math.comb(n + l, 2 * l + 1) for l in range(n + 1))


def a_minus_one_closed(m: int) -> int:
    """a_{2m}(q=-1) for the mirror of T(2,5): (-1)^m (1 + sum_l C(m+l, 2l))."""
    if m < 0:
        raise ValueError(f"index must be >= 0, got {m}")
    sign = -1 if m % 2 else 1
    return sign * (1 + sum(math.comb(m + l, 2 * l) for l in range(m)))


def _t25_root_sum(p: int) -> CycNumber:
    """sum_{j=floor(p/2)+1}^{p-1} zeta_p^(j^2) [j; 2j-1-p] at e_p."""
    acc = CycNumber.zero(p)
    for j in range(p // 2 + 1, p):
        acc = acc + qbinomial_at_root(j, 2 * j - 1 - p, p).times_zeta(j * j)
    return acc


def _require_odd(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"need an odd p >= 3, got {p}")


def t25_a_p_closed(p: int) -> CycNumber:
    """a_p(e_p) for the mirror of T(2,5): -2 - sum_j zeta_p^(j^2-1) [j; 2j-1-p]."""
    _require_odd(p)
    return CycNumber.from_int(p, -2) - zeta(p, -1) * _t25_root_sum(p)


def t25_a_mp_closed(m: int, p: int) -> CycNumber:
    """a_{mp}(e_p) for the mirror of T(2,5), from the binomial-reduced double sum."""
    _require_odd(p)
    if m < 0:
        raise ValueError(f"index must be >= 0, got {m}")
    sign = -1 if m % 2 else 1
    inner = sum(math.comb(m + l, 2 * l) for l in range(m))
    outer = sum(math.comb(m + l, 2 * l + 1) for l in range(m))
    return sign * (
        CycNumber.from_int(p, 1 + inner) + zeta(p, -1) * outer * _t25_root_sum(p)
    )


def t25_closed_forms(p: int, m: int) -> dict[str, CycNumber]:
    """Closed-form values {a_p(e_p), a_{mp}(e_p)} for the mirror of T(2,5)."""
    return {"a_p": t25_a_p_closed(p), "a_mp": t25_a_mp_closed(m, p)}
