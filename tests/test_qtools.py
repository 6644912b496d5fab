"""Tests for the q-combinatorics layer."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cycloknot
from cycloknot.exactring import LaurentPoly, eval_at_root, exact_div, zeta
from cycloknot.qtools import (
    _cgp_operator,
    brace,
    bracket_poly,
    pochhammer_pair,
    qbinomial,
    qbinomial_at_root,
    qbinomial_balanced,
    qfactorial,
    qpochhammer,
    sigma,
    sigma_at_color,
    sigma_at_root,
)


def qp(d):
    return LaurentPoly.univar("q", {2 * e: c for e, c in d.items()})


def qbinomial_by_division(n: int, k: int) -> LaurentPoly:
    """Independent oracle: [n; k]_q as [n]_q! / ([k]_q! [n-k]_q!), by exact division."""
    if k < 0 or k > n:
        return LaurentPoly.zero(("q",))
    return exact_div(qfactorial(n), qfactorial(k) * qfactorial(n - k))


def xq(d):
    return LaurentPoly.make(("x", "q"), {(2 * a, 2 * b): c for (a, b), c in d.items()})


def qint(n: int) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q**(n-1), written out term by term."""
    return LaurentPoly.univar("q", {2 * j: 1 for j in range(n)})


class TestQIntegers:
    def test_qfactorial_against_expansion_oracle(self):
        oracle = qp({0: 1, 1: 1}) * qp({0: 1, 1: 1, 2: 1})  # [2]_q [3]_q
        assert oracle == qp({0: 1, 1: 2, 2: 2, 3: 1})
        assert qfactorial(3) == oracle

    def test_qpochhammer(self):
        assert qpochhammer(0) == 1
        assert qpochhammer(2) == (qp({0: 1}) - qp({1: 1})) * (qp({0: 1}) - qp({2: 1}))
        # labelled oracle for the dense build: the product of the factors
        cycloknot.clear_caches()
        expected = qp({0: 1})
        for n in range(1, 41):
            expected = expected * qp({0: 1, n: -1})
            assert qpochhammer(n) == expected, n


class TestQBinomial:
    def test_edges(self):
        for n in range(6):
            assert qbinomial(n, 0) == 1
            assert qbinomial(n, n) == 1
            assert qbinomial(n, -1) == 0
            assert qbinomial(n, n + 1) == 0
        assert qbinomial(2, 1) == qp({0: 1, 1: 1})

    def test_4_choose_2_against_pascal_oracle(self):
        # independent bottom-up Pascal table
        table = {(0, 0): qp({0: 1})}
        for n in range(1, 5):
            for k in range(n + 1):
                left = table.get((n - 1, k - 1), qp({}))
                right = table.get((n - 1, k), qp({}))
                table[(n, k)] = left + qp({k: 1}) * right
        assert table[(4, 2)] == qp({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert qbinomial(4, 2) == table[(4, 2)]

    def test_pascal_equals_division_route(self):
        # the dense Pascal build against the division oracle
        for n in range(31):
            for k in range(-1, n + 2):
                assert qbinomial(n, k) == qbinomial_by_division(n, k)

    def test_specializes_to_binomial_at_1(self):
        for n in range(8):
            for k in range(n + 1):
                assert eval_at_root(qbinomial(n, k), 1, 0) == math.comb(n, k)


class TestQBinomialAtRoot:
    def test_5_3_at_minus_one(self):
        # direct oracle: evaluate the degree-6 polynomial at q = -1 over Z
        poly = qbinomial(5, 3)
        direct = sum(c * (-1) ** (e[0] // 2) for e, c in poly.terms)
        assert direct == 2
        assert qbinomial_at_root(5, 3, 2) == 2

    def test_p_choose_k_vanishes(self):
        for p in (3, 5, 7):
            for k in range(1, p):
                assert qbinomial_at_root(p, k, p).is_zero()
                assert eval_at_root(qbinomial(p, k), p).is_zero()

    def test_fast_path_matches_direct(self):
        for p in (1, 2, 3, 5):
            for n in range(2 * p + 2):
                for k in range(n + 1):
                    assert qbinomial_at_root(n, k, p) == eval_at_root(qbinomial(n, k), p)

    def test_central_balanced_binomial(self):
        # balanced [2p-1; p] with q^(1/2) = zeta_2p equals (-1)^(p-1) = 1;
        # the plain Gaussian binomial at zeta_2p gives (-1)^((p-1)/2) instead
        for p in (3, 5, 7):
            balanced = eval_at_root(qbinomial_balanced(2 * p - 1, p), p)
            assert balanced == (-1) ** (p - 1) == 1
            plain = eval_at_root(qbinomial(2 * p - 1, p), 2 * p)
            assert plain == (-1) ** ((p - 1) // 2)

    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(1, 7),
        st.data(),
    )
    def test_root_factorization_property(self, p, data):
        n = data.draw(st.integers(0, p - 1))
        k = data.draw(st.integers(0, p - 1))
        a = data.draw(st.integers(0, 3))
        b = data.draw(st.integers(0, 3))
        direct = eval_at_root(qbinomial(n + a * p, k + b * p), p)
        assert direct == eval_at_root(qbinomial(n, k), p) * math.comb(a, b)


# Product oracle: the from-scratch loops that pochhammer_pair and sigma ran
# before they extended their memoized predecessors.  Each n multiplies its
# factors from i = 1, and the pair uses two 2-term factors where the library
# uses one merged 4-term factor.
def _product_oracle(factor, n: int) -> LaurentPoly:
    acc = LaurentPoly.const(("x", "q"), 1)
    for i in range(1, n + 1):
        acc = acc * factor(i)
    return acc


def _xq_factor(i: int) -> LaurentPoly:
    return LaurentPoly.make(("x", "q"), {(0, 0): 1, (2, 2 * i): -1})


def _x_inv_q_factor(i: int) -> LaurentPoly:
    return LaurentPoly.make(("x", "q"), {(0, 0): 1, (-2, 2 * i): -1})


def _sigma_factor(i: int) -> LaurentPoly:
    return LaurentPoly.make(("x", "q"), {(2, 0): 1, (-2, 0): 1, (0, 2 * i): -1, (0, -2 * i): -1})


_PRODUCT_ORACLES = {
    "pochhammer_pair": (
        pochhammer_pair,
        lambda n: _product_oracle(_xq_factor, n) * _product_oracle(_x_inv_q_factor, n),
    ),
    "sigma": (sigma, lambda n: _product_oracle(_sigma_factor, n)),
}


class TestProductOracle:
    @pytest.mark.parametrize("name", sorted(_PRODUCT_ORACLES))
    @pytest.mark.parametrize("order", ["descending", "ascending"])
    def test_recursion_matches_from_scratch_product(self, name, order):
        library, oracle = _PRODUCT_ORACLES[name]
        ns = range(20, -1, -1) if order == "descending" else range(21)
        cycloknot.clear_caches()
        for n in ns:
            assert library(n) == oracle(n), (name, n)

    def test_qfactorial_matches_product_of_qints(self):
        cycloknot.clear_caches()
        expected = LaurentPoly.const(("q",), 1)
        for n in range(1, 31):
            expected = expected * qint(n)
            assert qfactorial(n) == expected, n


class TestPochhammer:
    def test_small(self):
        assert pochhammer_pair(0) == 1
        assert pochhammer_pair(1) == xq({(0, 0): 1, (1, 1): -1, (-1, 1): -1, (0, 2): 1})

    def test_pair_equals_sigma_with_prefactor(self):
        for n in range(13):
            sign = -1 if n % 2 else 1
            pref = LaurentPoly.make(("x", "q"), {(0, n * (n + 1)): sign})
            assert pochhammer_pair(n) == pref * sigma(n)


class TestSigma:
    def test_small(self):
        assert sigma(0) == 1
        assert sigma(1) == xq({(1, 0): 1, (-1, 0): 1, (0, 1): -1, (0, -1): -1})

    def test_symmetries(self):
        for m in range(13):
            s = sigma(m)
            assert s.substitute("x", new_var="x", exp2=-2) == s
            assert s.substitute("q", new_var="q", exp2=-2) == s

    def test_top_coefficient_is_one(self):
        for m in range(1, 8):
            s = sigma(m)
            assert s.max_exp2("x") == 2 * m
            assert s.coefficient((2 * m, 0)) == 1

    def test_sigma_at_color_matches_the_product_of_its_factors(self):
        # labelled oracle for the dense build: each entry as the LaurentPoly
        # product of the factors q^N + q^-N - q^i - q^-i, i <= n
        cycloknot.clear_caches()
        for N in range(1, 13):
            expected = [qp({0: 1})]
            for n in range(1, N):
                expected.append(expected[-1] * qp({N: 1, -N: 1, n: -1, -n: -1}))
            assert sigma_at_color(N) == tuple(expected), N

    def test_sigma_at_own_root(self):
        for p in (2, 3, 5, 7):
            expected = LaurentPoly.univar("x", {2 * p: 1, -2 * p: 1, 0: -2}).with_order(p)
            assert sigma_at_root(p, p) == expected

    def test_sigma_at_root_matches_generic(self):
        for p in (2, 3, 5):
            for m in range(5):
                generic = sigma(m)
                spec = LaurentPoly.zero(("x",), p)
                for (ex, eq), c in generic.terms:
                    spec = spec + LaurentPoly.univar("x", {ex: zeta(p, eq // 2) * c})
                assert spec == sigma_at_root(m, p)

    def test_periodicity_at_root(self):
        for p in (2, 3, 5, 7):
            sp = sigma_at_root(p, p)
            for n in range(p):
                for k in range(4):
                    assert sigma_at_root(n + k * p, p) == sigma_at_root(n, p) * sp**k


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestColdCacheDepth:
    def test_recursions_fill_lowest_first(self):
        # Each memoized recursion fills its lower levels lowest first, so a
        # cold cache needs no stack depth that grows with n.
        depth = _stack_depth()
        cycloknot.clear_caches()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            binom = qbinomial(100, 2)
            poch = qpochhammer(100)
            fact = qfactorial(100)
            sig = sigma_at_root(100, 5)
        finally:
            sys.setrecursionlimit(limit)
        assert binom.evaluate({"q": 1}) == math.comb(100, 2)
        assert poch.evaluate({"q": 1}) == 0 and poch.max_exp2("q") == 100 * 101
        assert fact.evaluate({"q": 1}) == math.factorial(100)
        assert sig == sigma_at_root(95, 5) * sigma_at_root(5, 5)

    def test_bivariate_products_fill_lowest_first(self):
        # Filled lowest first, each product needs under 20 frames above the
        # caller here; a recursion that descended one level per frame to
        # n = 20 would need more than the 25 this limit leaves.
        depth = _stack_depth()
        cycloknot.clear_caches()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            got = {name: library(20) for name, (library, _) in _PRODUCT_ORACLES.items()}
        finally:
            sys.setrecursionlimit(limit)
        for name, (_, oracle) in _PRODUCT_ORACLES.items():
            assert got[name] == oracle(20), name


    def test_residue_binomials_fill_every_32nd_row(self):
        # A cold [n0; k0] at zeta_p recurses through fewer than 32 rows above
        # the filled ones, about 2 frames a row; a recursion one row at a
        # time down from n0 = 150 would need about 300.
        depth = _stack_depth()
        cycloknot.clear_caches()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            got = qbinomial_at_root(150, 5, 151)
        finally:
            sys.setrecursionlimit(limit)
        assert got == eval_at_root(qbinomial(150, 5), 151)


class TestBraces:
    def test_scalar_braces(self):
        assert brace(0, 3) == 0
        for p in (3, 5, 7):
            assert brace(p, p) == 0
            assert brace(1, p) == zeta(2 * p) - zeta(2 * p, -1)

    def test_symbolic_braces(self):
        assert brace(0, 3, lam_coeff=3) == LaurentPoly.univar("u", {6: 1, -6: -1}).with_order(6)
        b = brace(2, 5, lam_coeff=1)
        assert b == LaurentPoly.univar("u", {2: zeta(10, 2), -2: -zeta(10, -2)})

    def test_brace_pair_identity(self):
        # {z+i}{z-i} = (v^2 + v^-2) - (zeta_p^i + zeta_p^-i)
        for p in (3, 5):
            for i in range(1, p):
                lhs = brace(i, p, lam_coeff=1, var="v") * brace(-i, p, lam_coeff=1, var="v")
                w = LaurentPoly.univar("v", {4: 1, -4: 1})
                rhs = (w - (zeta(p, i) + zeta(p, -i)).embed(2 * p)).with_order(2 * p)
                assert lhs == rhs


def test_cgp_operator_rejects_a_half_integer_exponent():
    with pytest.raises(ValueError):
        _cgp_operator(LaurentPoly.univar("x", {1: 1, 0: 1}, 5), 5)


class TestBracketPoly:
    def test_m0_is_w_minus_2(self):
        for p in (3, 5):
            expected = (LaurentPoly.univar("v", {4: 1, -4: 1}) - 2).with_order(2 * p)
            assert bracket_poly(0, p) == expected

    def test_direct_product_oracle(self):
        # expand the defining product literally for m=1, p=3
        p = 3
        z = lambda j: zeta(2 * p, j)
        f = (
            LaurentPoly.univar("v", {2: z(1), -2: -z(-1)})
            * LaurentPoly.univar("v", {2: z(0), -2: -z(0)}) ** 2
            * LaurentPoly.univar("v", {2: z(-1), -2: -z(1)})
        )
        assert bracket_poly(1, 3) == f

    def test_monicity_enforced_on_grid(self):
        for p in (3, 5, 7):
            for m in range(p):
                bracket_poly(m, p)  # raises on failure

    def test_w_expansion_matches_sigma_factors(self):
        # B_m = (w - 2) prod_{j<=m} (w - zeta_p^j - zeta_p^-j)
        for p in (3, 5):
            for m in range(p - 1):
                w = LaurentPoly.univar("v", {4: 1, -4: 1}).with_order(2 * p)
                expected = w - 2
                for j in range(1, m + 1):
                    expected = expected * (w - (zeta(p, j) + zeta(p, -j)).embed(2 * p))
                assert bracket_poly(m, p) == expected

    def test_range_check(self):
        with pytest.raises(ValueError):
            bracket_poly(3, 3)
