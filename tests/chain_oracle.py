"""Independent enumeration oracle for the chain multi-sums.

The library evaluates every nondecreasing-chain multi-sum through memoized
columns at a root of unity (knots._chain_column, one kernel for the twist
sum and the mirror torus sum), through the unmemoized level
loop knots._chain_levels (the hyper-Jones and ADO sums, and the tests'
generic twist columns), or at one integer point (the double twist and
mirror torus sums at generic q, knots._twist_chain_values and
knots._torus_chain_value).  The library keeps only the positive twist sum
and reads the negative one as its image under q -> 1/q.  This module keeps
the direct route: list every chain with
itertools.combinations_with_replacement and add up the product of its link
weights, one chain at a time, with the negative weights of chain_sum_minus
enumerated on their own rather than derived from chain_sum_plus.  The cost
grows like C(n+len-1, len-1), so it is only for the small grids of the
tests; it shares no code with the kernel.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from cycloknot.exactring import CycNumber, LaurentPoly, zeta
from cycloknot.qtools import qbinomial, qbinomial_at_root


def chains_fixed_top(length: int, top: int, low: int = 0) -> Iterator[tuple[int, ...]]:
    """Nondecreasing chains (k_1, ..., k_length) with k_length == top, k_1 >= low.

    Enumerated lexicographically; the sums below do not depend on the order.
    """
    if length < 1 or top < low:
        return
    for prefix in itertools.combinations_with_replacement(range(low, top + 1), length - 1):
        yield prefix + (top,)


def chains_bounded(length: int, bound: int, low: int = 0) -> Iterator[tuple[int, ...]]:
    """Nondecreasing chains (k_1, ..., k_length) with low <= k_i <= bound."""
    if length < 1 or bound < low:
        return
    yield from itertools.combinations_with_replacement(range(low, bound + 1), length)


def _q(e2: int, c: int = 1) -> LaurentPoly:
    return LaurentPoly.univar("q", {e2: c})


def chain_sum_plus(length: int, n: int) -> LaurentPoly:
    """sum over n = k_length >= ... >= k_1 >= 0 of prod q^(k_i(k_i+1)) [k_{i+1}; k_i]."""
    acc = LaurentPoly.zero(("q",))
    for chain in chains_fixed_top(length, n):
        term = _q(0)
        for i in range(length - 1):
            term = term * _q(2 * chain[i] * (chain[i] + 1)) * qbinomial(chain[i + 1], chain[i])
        acc = acc + term
    return acc


def chain_sum_minus(length: int, n: int) -> LaurentPoly:
    """Like chain_sum_plus but with the factors q^(-k_i(k_{i+1}+1))."""
    acc = LaurentPoly.zero(("q",))
    for chain in chains_fixed_top(length, n):
        term = _q(0)
        for i in range(length - 1):
            term = term * _q(-2 * chain[i] * (chain[i + 1] + 1)) * qbinomial(chain[i + 1], chain[i])
        acc = acc + term
    return acc


def _torus_chains(length: int, top: int) -> Iterator[tuple[int, LaurentPoly]]:
    """(k_1 + ... + k_{length-1}, product of the link weights) for each chain
    1 <= k_1 <= ... <= k_length = top of the mirror torus sum."""
    for chain in chains_fixed_top(length, top, low=1):
        term = _q(0)
        prefix = 0
        for i in range(length - 1):
            ki, kj = chain[i], chain[i + 1]
            term = term * _q(2 * ki * ki) * qbinomial(kj + ki - (i + 1) + 2 * prefix, kj - ki)
            prefix += ki
        yield prefix, term


def mirror_torus_a(t: int, n: int) -> LaurentPoly:
    """a_n of the mirror of T(2, 2t+1): the chain sum with the prefix-sum q-binomial."""
    sign = -1 if n % 2 else 1
    acc = LaurentPoly.zero(("q",))
    for _, term in _torus_chains(t, n + 1):
        acc = acc + term
    return _q(n * (n + 1) + 2 * (n + 1 - t), sign) * acc


def torus_column(i: int, k: int) -> dict[int, LaurentPoly]:
    """{P: the sum of the mirror torus chains of length i with top k and
    prefix sum k_1 + ... + k_{i-1} = P}, a polynomial in q per prefix."""
    column: dict[int, LaurentPoly] = {}
    for prefix, term in _torus_chains(i, k):
        column[prefix] = column.get(prefix, LaurentPoly.zero(("q",))) + term
    return column


def colored_jones_hyper_t2(t: int, N: int) -> LaurentPoly:
    """J_{T(2,2t+1)}(q^-N, q) from the q-hypergeometric chain multi-sum."""
    poch = [_q(0)]
    for i in range(1, N):
        poch.append(poch[-1] * (_q(0) - _q(2 * (i - N))))
    total = LaurentPoly.zero(("q",))
    for chain in chains_bounded(t, N - 1):
        kt = chain[-1]
        term = poch[kt] * _q(-2 * N * kt)
        for i in range(t - 1):
            ki, kj = chain[i], chain[i + 1]
            term = term * _q(2 * ki * (ki + 1) - 4 * N * ki) * qbinomial(kj, ki)
        total = total + term
    return _q(2 * t * (1 - N)) * total


def _root_link(ki: int, kj: int, p: int) -> LaurentPoly:
    return LaurentPoly.univar("x", {4 * ki: zeta(p, ki * (ki + 1)) * qbinomial_at_root(kj, ki, p)})


def ado_torus(t: int, p: int) -> LaurentPoly:
    """ADO of T(2, 2t+1) at e_p, summed chain by chain."""
    one = CycNumber.from_int(p, 1)
    poch = [LaurentPoly.univar("x", {0: one})]
    for i in range(1, p):
        poch.append(poch[-1] * LaurentPoly.univar("x", {0: one, 2: -zeta(p, i)}))
    total = LaurentPoly.zero(("x",), p)
    for chain in chains_bounded(t, p - 1):
        kt = chain[-1]
        term = poch[kt] * LaurentPoly.univar("x", {2 * kt: one})
        for i in range(t - 1):
            term = term * _root_link(chain[i], chain[i + 1], p)
        total = total + term
    return total * LaurentPoly.univar("x", {2 * t * (1 - p): zeta(p, t)})


def andrews_side(t: int, p: int, top: int) -> LaurentPoly:
    """Multi-sum over chains with fixed top of prod zeta^(k(k+1)) x^(2k) [k';k]."""
    total = LaurentPoly.zero(("x",), p)
    for chain in chains_fixed_top(t, top):
        term = LaurentPoly.univar("x", {0: CycNumber.from_int(p, 1)})
        for i in range(t - 1):
            term = term * _root_link(chain[i], chain[i + 1], p)
        total = total + term
    return total
