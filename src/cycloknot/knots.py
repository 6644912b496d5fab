"""Knot descriptors, Alexander polynomials and Habiro cyclotomic coefficients.

Supported knots are the double twist family K(l, m) (two boxes of 2l and 2m
half twists), the two-strand torus knots T(2, 2t+1), and mirror images of
either.  The Habiro coefficients a_n / C_n are the coefficients of the
cyclotomic expansion of the colored Jones polynomial,

    J_K(x, q) = sum_n C_n(K; q) (xq; q)_n (x^-1 q; q)_n
              = sum_n a_n(K; q) sigma_n(x, q),

with a_n = (-1)^n q^(n(n+1)/2) C_n.  Only a_n is memoized, and every
invariant sums it against a sigma_n kernel; C_n is one monomial away.

Every generic a_n is read off one integer.  The double twist and mirror
torus coefficients are the known nondecreasing-chain multi-sums for these
families, and every link weight has nonnegative coefficients, so each sum
S(q) does too and no coefficient exceeds S(1), known in closed form: for a
double twist knot K(l, m) it is (|l|m)^n, and for the torus knots |a_n(1)|,
the z^n coefficient of 1/Delta(z) with z = x + 1/x - 2.  With W the bit
length of S(1), rounded up to a whole byte up to 64 bits, the recursion
runs once, at q = 2^W, where a weight q^e is a shift by W e and the
q-binomials come from q-Pascal shift-adds, and the coefficients of S are
the base-2^W digits of S(2^W), read in one pass by exactring's digit
reader, which checks that they sum to S(1).  For a double twist knot S is
the product of two entries of one twist column, a negative-twist entry read
at q -> 1/q by reversing its digits; the mirror torus q-binomial depends on
the prefix sum, so its recursion runs over the states (k, prefix).  The
torus knots and the mirrors of double twist knots are the images under
q -> 1/q, read off the same digits from the top with the exponents
negated.  No polynomial in q is multiplied or substituted on any of these
routes.

At q = e_p both sums keep memoized columns in one kernel, _chain_column:
the sums over the chains of a given length that end at a given value k,
one element of Z[zeta_p] per prefix sum, keyed by the link function
(_twist_link or _torus_link) and the root order.  The twist link keeps
every chain at prefix 0, and a negative twist reads its column's Galois
image zeta -> 1/zeta; the mirror torus link is the link of the integer
route.  A column depends neither on the index n nor on the knot's
parameters, so a_0, ..., a_N, and knots whose chains share a prefix, share
one set of columns, and columns are filled from below, lowest level first,
so chains of any length need no deep recursion.  The chain sums whose
values are polynomials, the hyper-Jones and ADO sums of invariants and the
tests' generic twist columns, run through one unmemoized level loop,
_chain_levels.

a_at_root computes a_n(e_p) in Z[zeta_p] throughout: it reads the chain
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
import operator
import re
from typing import Callable, Iterator, Optional, Union

from .exactring import (
    CycNumber,
    Frozen,
    LaurentPoly,
    _dense_terms,
    exact_div,
    nonnegative_digits,
    reversed_digits,
    zeta,
)
from .qtools import _fill_below, _q, qbinomial, qbinomial_at_root, qpochhammer


# ---------------------------------------------------------------------------
# knot descriptors
# ---------------------------------------------------------------------------


class DoubleTwist(Frozen):
    """K(l, m); canonical form has l <= m, both nonzero, not both negative."""

    __slots__ = ("l", "m")

    def __init__(self, l: int, m: int) -> None:
        if l == 0 or m == 0:
            raise ValueError("twist parameters must be nonzero")
        if l > m:
            raise ValueError(f"not in canonical order: l={l} > m={m}")
        if l < 0 and m < 0:
            raise ValueError("both-negative twists normalize to a mirror; use double_twist()")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)


class TorusTwoStrand(Frozen):
    """The torus knot T(2, 2t+1) with t >= 1."""

    __slots__ = ("t",)

    def __init__(self, t: int) -> None:
        if t < 1:
            raise ValueError(f"torus parameter must be >= 1, got {t}")
        object.__setattr__(self, "t", t)


class Mirror(Frozen):
    __slots__ = ("inner",)

    def __init__(self, inner: Union[DoubleTwist, TorusTwoStrand]) -> None:
        if isinstance(inner, Mirror):
            raise ValueError("nested mirrors normalize away; use mirror()")
        object.__setattr__(self, "inner", inner)


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


def _chain_levels(
    length: int, column: list[LaurentPoly], weight: Callable[[int, int], Optional[tuple[int, object]]]
) -> list[LaurentPoly]:
    """[C(length, n) for n < len(column)]: C(1, n) = column[n] and
    C(L, n) = sum_{k<=n} v^(e/2) w C(L-1, k) over (e, w) = weight(k, n),
    with v the columns' variable, w a polynomial or a scalar, and None from
    weight for a link that vanishes.

    Unmemoized: levels go lowest first and only the level below is kept.
    Each entry adds its terms into one dict and is normalized once; a
    factor equal to 1 costs no product.
    """
    variables, order = column[0].variables, column[0].order
    for _ in range(length - 1):
        below, column = column, []
        for n in range(len(below)):
            acc: dict[int, object] = {}
            for k in range(n + 1):
                if (link := weight(k, n)) is None:
                    continue
                e, w = link
                f = below[k]
                if not isinstance(w, LaurentPoly):
                    w = f * w
                elif f.terms != _ONE_TERMS:
                    w = f if w.terms == _ONE_TERMS else w * f
                for (x,), c in w.terms:
                    x += e
                    acc[x] = acc[x] + c if x in acc else c
            terms = tuple([((x,), c) for x, c in sorted(acc.items()) if c])
            column.append(LaurentPoly(variables, terms, order))
    return column


def _torus_link(i: int, k: int, j: int, prefix: int) -> tuple[int, int, int, int]:
    """(top, low, e, prefix + j): the mirror torus link j = k_{i-1} <= k = k_i
    after the prefix P' = k_1 + ... + k_{i-2} has the weight q^e [top; low],
    q^(j^2) [k + j - i + 1 + 2P'; k - j], and leads to the prefix P' + j.
    Both torus routes, at q = 2^W and at q = e_p, read this one link."""
    return k + j - i + 1 + 2 * prefix, k - j, j * j, prefix + j


def _twist_link(i: int, n: int, k: int, prefix: int) -> tuple[int, int, int, int]:
    """(n, k, k(k+1), prefix): the twist link k = k_(i-1) <= n = k_i has the
    weight q^(k(k+1)) [n; k] and keeps the prefix, so a twist chain stays at prefix 0."""
    return n, k, k * (k + 1), prefix


@functools.lru_cache(maxsize=None)
def _chain_column(link: Callable, p: int, length: int, n: int) -> dict[int, CycNumber]:
    """{P: C(length, n, P)} at q = e_p, one element of Z[zeta_p] per prefix P.

    C(length, n, P) is the sum over the chains k_1 <= ... <= k_length = n,
    with k_1 >= 1 for _torus_link and k_1 >= 0 for _twist_link, whose links
    lead to the prefix P, of the products of the weights q^e [top; low] that
    link(i, k_i, k_(i-1), prefix) gives as (top, low, e, after), with the
    q-binomials taken at the root (their zeros skipped); C(1, n, 0) = 1.
    Each prefix's terms are added into one vector of the p powers of zeta_p
    and reduced once.  A column does not depend on any bound on the chain,
    so every top n, and every knot of a shape, shares it; a negative twist
    reads its Galois image.
    """
    if length == 1:
        return {0: CycNumber.from_int(p, 1)}
    low = 1 if link is _torus_link else 0
    # Every 64th level is filled, so a cold column recurses through fewer
    # than 64 levels, and the fill that each new column starts with costs
    # length/64 lookups per key rather than length.
    _fill_below(functools.partial(_chain_column, link, p), length, lambda i: range(low, n + 1), 64)
    parts: dict[int, list[int]] = {}
    for k in range(low, n + 1):
        for prefix, value in _chain_column(link, p, length - 1, k).items():
            b_top, b_low, e, after = link(length, n, k, prefix)
            if binom := qbinomial_at_root(b_top, b_low, p):
                acc = parts[after] if after in parts else parts.setdefault(after, [0] * p)
                for i, c in enumerate((binom * value).coeffs, e):
                    acc[i % p] += c
    return {after: CycNumber.from_powers(p, enumerate(acc)) for after, acc in parts.items()}


def _qbinomial_rows(width: int, reach: list[int]) -> Iterator[list[int]]:
    """The rows [H(b, 0), ..., H(b, reach[b])] of H(b, m) = [m + b; b] at
    q = 2^width, for b = 0, 1, ..., len(reach) - 1.

    Each row comes from the one before by q-Pascal shift-adds,
    H(b, m) = H(b, m - 1) + 2^(width m) H(b - 1, m), with no product or
    division; reach must be nonincreasing, so each row's cells exist in the
    row below.  Width 0 gives the ordinary binomials, the values at q = 1.
    """
    row = [1] * (reach[0] + 1)
    yield row
    for b in range(1, len(reach)):
        below, row, acc = row, [], 0
        for m in range(reach[b] + 1):
            acc += below[m] << width * m
            row.append(acc)
        yield row


def _read_off(
    value_at: Callable[[int], int], at_one: int, e2: int, sign: int, image: bool = False
) -> LaurentPoly:
    """sign q^(e2/2) S(q) for a sum S(q) with nonnegative coefficients, from
    S(1) = at_one and value_at(W) = S(2^W), whose base-2^W digits
    exactring.nonnegative_digits reads as the coefficients of S; with image,
    its image sign q^(-e2/2) S(1/q) under q -> 1/q, the same digits read from
    the top with the exponents negated."""
    digits = nonnegative_digits(value_at, at_one)
    if image:
        e2, digits = -e2 - 2 * (len(digits) - 1), digits[::-1]
    if sign < 0:
        digits = list(map(operator.neg, digits))
    return LaurentPoly(("q",), _dense_terms(e2, 2, digits), None)


def _twist_chain_values(length: int, top: int, width: int) -> list[int]:
    """[P(i, top) at q = 2^width for i = 1..length].

    P(i, n) = sum_{k<=n} q^(k(k+1)) [n; k] P(i-1, k), P(1, n) = 1, is the
    twist column of _twist_link; at q = 1 it is i^n by the binomial theorem, so
    the digit read needs no run at width 0.  Every weight is a shift and
    every q-binomial [n; k] a cell of row k of the shift-add table.  The
    rows are read one at a time, k outermost, each adding its terms to every
    level lowest first: the entry k of a level is then complete before the
    level above reads it, and at most two rows of the table are alive, a
    row and the one it is built from.  The last level is kept at the top
    only.
    """
    columns = [[1] * (top + 1)] + [[0] * (top + 1) for _ in range(1, length)]
    for k, row in enumerate(_qbinomial_rows(width, [top - b for b in range(top + 1)])):
        shift = width * k * (k + 1)
        for i in range(2, length + 1):
            low, column = columns[i - 2][k], columns[i - 1]
            for n in range(k, top + 1) if i < length else (top,):
                column[n] += row[n - k] * low << shift
    return [column[top] for column in columns]


def _double_twist_value(l: int, m: int, n: int, width: int) -> int:
    """D(2^width) for the double twist sum D = P(l, n) P(m, n), or P(m, n) R(-l, n)
    for l < 0, from one run of _twist_chain_values: R(i, n) = q^((i-1)n(n+1)) P(i, n)(1/q)
    is P(i, n) with its (i-1)n(n+1) + 1 base-2^width digits in reverse order."""
    plus = _twist_chain_values(max(m, -l), n, width)
    if l > 0:
        return plus[l - 1] * plus[m - 1]
    return plus[m - 1] * reversed_digits(plus[-l - 1], (-l - 1) * n * (n + 1) + 1, width)


def _double_twist_c(knot: DoubleTwist, n: int, image: bool = False) -> LaurentPoly:
    """C_n of K(l, m) as a chain multi-sum, read off one integer; with image,
    a_n of the mirror of K(l, m), the image of a_n = (-1)^n q^(n(n+1)/2) C_n
    under q -> 1/q, read off the same integer.

    For l > 0, C_n = q^n P(l, n) P(m, n); for l < 0,
    C_n = (-1)^n q^(-n(n+1)/2) P(m, n) M(-l, n)
        = (-1)^n q^((l+1/2)n(n+1)) P(m, n) R(-l, n).
    M(i, n) = P(i, n)(1/q), as [n; k](1/q) = q^(-k(n-k)) [n; k].  Every link
    weight has nonnegative coefficients, so D does too, read off D(2^W);
    D(1) = (|l|m)^n, as P(i, n) = R(i, n) = i^n at q = 1.
    """
    l, m = knot.l, knot.m
    if l > 0:
        e2, sign = 2 * n, 1
    else:
        e2, sign = (2 * l + 1) * n * (n + 1), -1 if n % 2 else 1
    if image:
        e2, sign = e2 + n * (n + 1), -sign if n % 2 else sign
    return _read_off(functools.partial(_double_twist_value, l, m, n), abs(l * m) ** n, e2, sign, image)


def _torus_chain_value(t: int, top: int, width: int) -> int:
    """S(2^width) for the chain sum S(q) = sum over 1 <= k_1 <= ... <= k_t = top
    of the product of the t - 1 link weights of _torus_link.

    Levels go lowest first and only the level below is kept: one int per
    state (k, P), where each weight q^e is a shift by width e and each
    q-binomial a cell rows[low][top - low] of the shift-add table.  A link j <= k has
    low = k - j < top and 1 <= top - low <= 2 (t - 1) j - t + 1, as i - 2 <= P' <= (t - 2) j.
    """
    rows = list(_qbinomial_rows(width, [max(0, 2 * (t - 1) * (top - b) - t + 1) for b in range(top)]))
    columns = {k: {0: 1} for k in range(1, top + 1)}
    for i in range(2, t + 1):
        level = {}
        for k in range(1, top + 1) if i < t else (top,):
            column: dict[int, int] = {}
            for j in range(1, k + 1):
                for prefix, value in columns[j].items():
                    b_top, low, e, after = _torus_link(i, k, j, prefix)
                    term = rows[low][b_top - low] * value << width * e
                    column[after] = column[after] + term if after in column else term
            level[k] = column
        columns = level
    return sum(columns[top].values())


def _torus_at_one(t: int, n: int) -> int:
    """S(1) for the chain sum of _mirror_torus_a: |a_n(1)| = |b_n|, with
    1/Delta(z) = sum_n b_n z^n for the Alexander polynomial of T(2, 2t+1)
    in z = x + 1/x - 2, Delta(z) = sum_{j<=t} C(t+j, t-j) z^j."""
    b = [1]
    for i in range(1, n + 1):
        b.append(-sum(math.comb(t + j, t - j) * b[i - j] for j in range(1, min(i, t) + 1)))
    return abs(b[n])


def _mirror_torus_a(t: int, n: int, ring: Optional[int], image: bool = False):
    """a_n of the mirror of T(2, 2t+1), as a chain multi-sum, or with image
    its image under q -> 1/q, a_n of T(2, 2t+1).

    a_n = (-1)^n q^(n(n+1)/2 + n + 1 - t)
          sum_{n+1 = k_t >= ... >= k_1 >= 1}
          prod_{i=1}^{t-1} q^(k_i^2) [k_{i+1} + k_i - i + 2(k_1+...+k_{i-1}); k_{i+1} - k_i]

    With ring None the sum S(q) is read off the integer S(2^W) by _read_off:
    every link weight has nonnegative coefficients, so S does too, and none
    exceeds S(1), which _torus_at_one gives in closed form.  With ring p the
    sum is the sum over the prefixes of the top column of _chain_column at
    q = e_p, and the image its Galois image zeta -> 1/zeta.  The levels are
    filled here one by one, lowest first: on long chains that is quicker
    than the column's own fill of every 64th level (a_at_root(t2:400, 1, 3):
    6 %).
    """
    sign = -1 if n % 2 else 1
    top = n + 1
    shift = n * (n + 1) + 2 * (top - t)
    if ring is None:
        value_at = functools.partial(_torus_chain_value, t, top)
        return _read_off(value_at, _torus_at_one(t, n), shift, sign, image)
    _fill_below(functools.partial(_chain_column, _torus_link, ring), t, lambda i: range(1, top + 1))
    total = sum(_chain_column(_torus_link, ring, t, top).values(), CycNumber.zero(ring))
    total = total.times_zeta(shift // 2) * sign
    return total.galois(-1) if image else total


# ---------------------------------------------------------------------------
# Habiro coefficients
# ---------------------------------------------------------------------------


def _twist_a(knot: DoubleTwist, n: int, p: int) -> CycNumber:
    """a_n(e_p) of a double twist knot: (-1)^n q^(n(n+1)/2) times the product of
    _double_twist_c, with P the prefix-0 entry of the twist column at q = e_p
    and M(i, n) = P(i, n)(1/q) its Galois image zeta -> 1/zeta."""
    plus = _chain_column(_twist_link, p, knot.m, n)[0]
    if knot.l > 0:
        sign = -1 if n % 2 else 1
        return (_chain_column(_twist_link, p, knot.l, n)[0] * plus).times_zeta(n * (n + 3) // 2) * sign
    return plus * _chain_column(_twist_link, p, -knot.l, n)[0].galois(-1)


def habiro_c(knot: KnotSpec, n: int) -> LaurentPoly:
    """Coefficient C_n(K; q) of (xq;q)_n (x^-1 q;q)_n, unmemoized.

    For a double twist knot it is read off one integer, and habiro_a is its
    monomial shift; for the other shapes it is the monomial shift
    (-1)^n q^(-n(n+1)/2) a_n of habiro_a.
    """
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if isinstance(knot, DoubleTwist):
        return _double_twist_c(knot, n)
    sign = -1 if n % 2 else 1
    return _q(-n * (n + 1), sign) * habiro_a(knot, n)


@functools.lru_cache(maxsize=None)
def habiro_a(knot: KnotSpec, n: int) -> LaurentPoly:
    """Coefficient a_n(K; q) of sigma_n(x, q) in the cyclotomic expansion.

    Every generic a_n is read off one integer: the double twist and mirror
    torus chain sums at q = 2^W (for a double twist knot through C_n, one
    monomial away), whose digits read from the top give the other two
    shapes, the images under q -> 1/q.
    """
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if isinstance(knot, DoubleTwist):
        sign = -1 if n % 2 else 1
        return _q(n * (n + 1), sign) * habiro_c(knot, n)
    if isinstance(knot, TorusTwoStrand):
        return _mirror_torus_a(knot.t, n, None, image=True)
    if isinstance(knot, Mirror):
        if isinstance(knot.inner, TorusTwoStrand):
            return _mirror_torus_a(knot.inner.t, n, None)
        return _double_twist_c(knot.inner, n, image=True)
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
        return _twist_a(knot, n, p)
    if isinstance(knot, TorusTwoStrand):
        return _mirror_torus_a(knot.t, n, p, image=True)
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
