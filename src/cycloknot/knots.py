"""Knot descriptors, Alexander polynomials and Habiro cyclotomic coefficients.

Supported knots are the double twist family K(l, m) (two boxes of 2l and 2m
half twists), the two-strand torus knots T(2, 2t+1), and mirror images of
either.  The Habiro coefficients a_n / C_n are the coefficients of the
cyclotomic expansion of the colored Jones polynomial,

    J_K(x, q) = sum_n C_n(K; q) (xq; q)_n (x^-1 q; q)_n
              = sum_n a_n(K; q) sigma_n(x, q),

with a_n = (-1)^n q^(n(n+1)/2) C_n.  They are computed from the known
nondecreasing-chain multi-sum formulas for these families.  Each multi-sum is
split at its last link into memoized columns: the sums over the chains of a
given length that end at a given value k.  One kernel, _chain_column, holds
every column whose link weight is a monomial times a q-binomial: the double
twist sums here and the hyper-Jones and torus ADO sums of invariants.  It is
keyed by a link-weight descriptor and a ring, generic q or q = e_p over
Z[zeta_p].  The mirror-torus sum, whose q-binomial depends on the prefix sum,
keeps its own columns, keyed also by that prefix sum.  A column depends
neither on the index n nor on the twist parameters, so a_0, ..., a_N, and
knots whose chains share a prefix, share one set of columns.  The cost is
polynomial in the chain length rather than one product per chain, and
columns are filled from below, lowest level first, so chains of any length
need no deep recursion.  The evaluation inversion habiro_from_jones recovers
C_n from colored Jones values and serves as an independent cross-check.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .exactring import CycNumber, LaurentPoly, eval_at_root, exact_div, zeta
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
    body = text
    mirrored = False
    if body.startswith("!"):
        mirrored = True
        body = body[1:]
    m = _DT_RE.match(body)
    if m:
        try:
            knot: KnotSpec = double_twist(int(m.group(1)), int(m.group(2)))
        except ValueError as exc:
            raise KnotParseError(f"bad knot spec {text!r}: {exc}; {_KNOT_GRAMMAR}") from None
    else:
        m = _T2_RE.match(body)
        if m:
            try:
                knot = torus_two_strand(int(m.group(1)))
            except ValueError as exc:
                raise KnotParseError(f"bad knot spec {text!r}: {exc}; {_KNOT_GRAMMAR}") from None
        else:
            raise KnotParseError(f"unrecognized knot spec {text!r}; {_KNOT_GRAMMAR}")
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
                yield 2 * d * k, zeta(ring, e) * binom, _chain_column(link, ring, length - 1, k)

    return _shifted_sum(terms(), "q" if ring is None else "x", ring)


def _torus_links(i: int, k: int) -> Iterator[tuple[int, tuple[int, LaurentPoly, LaurentPoly]]]:
    """The terms of T(i, k, .) by the last link j = k_{i-1} <= k = k_i.

    Yields (P, (e, w, T(i-1, j, P'))) with P = P' + j, where w q^(e/2) is
    the link weight q^(j^2) [k + j - (i-1) + 2P'; k - j] of the mirror torus
    sum.
    """
    for j in range(1, k + 1):
        for prefix, value in _torus_column(i - 1, j).items():
            yield prefix + j, (2 * j * j, qbinomial(k + j - i + 1 + 2 * prefix, k - j), value)


@functools.lru_cache(maxsize=None)
def _torus_column(i: int, k: int) -> dict[int, LaurentPoly]:
    """{P: T(i, k, P)}: the sum over chains 1 <= k_1 <= ... <= k_i = k with
    k_1 + ... + k_{i-1} = P of the first i - 1 link weights of the mirror
    torus sum.  T depends on neither t nor n, so every T(2, 2t+1) shares it.
    """
    if i == 1:
        return {0: _q(0)}
    parts: dict[int, list] = {}
    for prefix, term in _torus_links(i, k):
        parts.setdefault(prefix, []).append(term)
    return {prefix: _shifted_sum(terms) for prefix, terms in parts.items()}


def _mirror_torus_a(t: int, n: int) -> LaurentPoly:
    """a_n of the mirror of T(2, 2t+1), as a chain multi-sum.

    a_n = (-1)^n q^(n(n+1)/2 + n + 1 - t)
          sum_{n+1 = k_t >= ... >= k_1 >= 1}
          prod_{i=1}^{t-1} q^(k_i^2) [k_{i+1} + k_i - i + 2(k_1+...+k_{i-1}); k_{i+1} - k_i]

    The q-binomial depends on the prefix sum, so the sum is sum_P T(t, n+1, P)
    over the memoized columns T(i, k, P) of _torus_column.  The top level is
    summed on the fly rather than cached: it is used once per (t, n).
    """
    sign = -1 if n % 2 else 1
    top = n + 1
    _fill_below(_torus_column, t, lambda i: range(1, top + 1))
    total = _shifted_sum(term for _, term in _torus_links(t, top)) if t > 1 else _q(0)
    return _q(n * (n + 1) + 2 * (top - t), sign) * total


# ---------------------------------------------------------------------------
# Habiro coefficients
# ---------------------------------------------------------------------------


def _q_inverted(f: LaurentPoly) -> LaurentPoly:
    return f.substitute("q", new_var="q", exp2=-2)


@functools.lru_cache(maxsize=None)
def habiro_c(knot: KnotSpec, n: int) -> LaurentPoly:
    """Coefficient C_n(K; q) of (xq;q)_n (x^-1 q;q)_n in the cyclotomic expansion."""
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if isinstance(knot, DoubleTwist):
        plus = _chain_column(_TWIST_PLUS, None, knot.m, n)
        if knot.l > 0:
            return _q(2 * n) * _chain_column(_TWIST_PLUS, None, knot.l, n) * plus
        sign = -1 if n % 2 else 1
        return _q(-n * (n + 1), sign) * plus * _chain_column(_TWIST_MINUS, None, -knot.l, n)
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
        return _q_inverted(_mirror_torus_a(knot.t, n))
    if isinstance(knot, Mirror):
        if isinstance(knot.inner, TorusTwoStrand):
            return _mirror_torus_a(knot.inner.t, n)
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
    """a_n(K; e_p) in Z[zeta_p]."""
    return eval_at_root(habiro_a(knot, n), p)


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
        acc = acc + zeta(p, j * j) * qbinomial_at_root(j, 2 * j - 1 - p, p)
    return acc


def t25_a_p_closed(p: int) -> CycNumber:
    """a_p(e_p) for the mirror of T(2,5): -2 - sum_j zeta_p^(j^2-1) [j; 2j-1-p]."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"need an odd p >= 3, got {p}")
    return CycNumber.from_int(p, -2) - zeta(p, -1) * _t25_root_sum(p)


def t25_a_mp_closed(m: int, p: int) -> CycNumber:
    """a_{mp}(e_p) for the mirror of T(2,5), from the binomial-reduced double sum."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"need an odd p >= 3, got {p}")
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
