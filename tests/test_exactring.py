"""Tests for the exact arithmetic core."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cycloknot import exactring
from cycloknot.exactring import (
    CycNumber,
    InexactDivisionError,
    LaurentPoly,
    _CAST_CODES,
    _PACK_MIN_PAIRS,
    _digit_rows,
    _digit_width,
    _kronecker_mul,
    _pack,
    _unpack,
    cyclotomic_coeffs,
    cyclotomic_polynomial,
    euler_phi,
    eval_at_root,
    exact_div,
    nonnegative_digits,
    reversed_digits,
    zeta,
)
from cycloknot.qtools import qbinomial, qpochhammer


def tpoly(d):
    return LaurentPoly.univar("t", {2 * e: c for e, c in d.items()})


class TestCyclotomic:
    def test_base_cases(self):
        assert cyclotomic_polynomial(1) == tpoly({1: 1, 0: -1})
        assert cyclotomic_polynomial(2) == tpoly({1: 1, 0: 1})

    def test_m6_against_division_oracle(self):
        # divide t^6 - 1 by Phi_1 Phi_2 Phi_3, all written out literally
        t6m1 = tpoly({6: 1, 0: -1})
        phi1 = tpoly({1: 1, 0: -1})
        phi2 = tpoly({1: 1, 0: 1})
        phi3 = tpoly({2: 1, 1: 1, 0: 1})
        oracle = exact_div(t6m1, phi1 * phi2 * phi3)
        assert oracle == tpoly({2: 1, 1: -1, 0: 1})
        assert cyclotomic_polynomial(6) == oracle

    def test_product_over_divisors_recovers_t_m_minus_1(self):
        for m in (1, 2, 3, 4, 6, 8, 12, 30):
            prod = tpoly({0: 1})
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            assert prod == tpoly({m: 1, 0: -1})

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for m in range(1, 31):
            expected = sympy.Poly(sympy.cyclotomic_poly(m, t), t).all_coeffs()[::-1]
            assert list(cyclotomic_coeffs(m)) == [int(c) for c in expected]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestCycNumber:
    def test_root_of_unity_power(self):
        z3 = zeta(3)
        assert z3 * z3 * z3 == 1
        assert zeta(7) ** 7 == 1

    def test_reduction_examples(self):
        assert zeta(3) + zeta(3, 2) == -1
        assert zeta(4) * zeta(4) == -1

    def test_prime_root_sum_vanishes(self):
        for p in (2, 3, 5, 7, 11):
            total = CycNumber.zero(p)
            for k in range(p):
                total = total + zeta(p, k)
            assert total.is_zero()

    def test_order_mismatch_is_error(self):
        with pytest.raises(ValueError):
            zeta(3) + zeta(4)
        with pytest.raises(ValueError):
            zeta(3) * zeta(6)

    def test_embed_examples(self):
        assert CycNumber.from_int(2, 1).embed(6) == 1
        assert zeta(2).embed(6) == -1  # zeta_6^3
        assert (zeta(3) + zeta(3, 2)).embed(6) == -1

    def test_embed_requires_divisibility(self):
        with pytest.raises(ValueError):
            zeta(4).embed(6)

    def test_cross_order_equality(self):
        assert zeta(3) == zeta(3).embed(6)
        assert zeta(3) != zeta(6)

    def test_galois(self):
        a = zeta(5) + 2 * zeta(5, 2)
        assert a.galois(2) == zeta(5, 2) + 2 * zeta(5, 4)
        with pytest.raises(ValueError):
            zeta(6).galois(2)

    def test_exact_div_and_inverse(self):
        a = (zeta(5) - zeta(5, 4)) ** 2
        b = zeta(5, 2) + zeta(5, 3) - 2
        assert a.exact_div(b) == 1
        assert zeta(7, 3).inverse() == zeta(7, -3)
        with pytest.raises(InexactDivisionError):
            CycNumber.from_int(5, 3).exact_div(CycNumber.from_int(5, 2))
        with pytest.raises(ZeroDivisionError):
            CycNumber.from_int(5, 1).exact_div(CycNumber.zero(5))

    def test_subtracting_a_polynomial_hands_off_to_it(self):
        f = LaurentPoly.univar("x", {2: 1}, 3)
        assert zeta(3) - f == LaurentPoly.univar("x", {0: zeta(3), 2: -1}, 3)
        assert zeta(3) - f == -(f - zeta(3))

    @pytest.mark.parametrize(
        "left, right",
        [
            (LaurentPoly.univar("x", {0: 1}), "a"),
            ("a", zeta(3)),
            (LaurentPoly.univar("x", {2: 1}), 1.5),
            ("a", LaurentPoly.univar("x", {2: 1})),
        ],
        ids=["poly-str", "str-cyc", "poly-float", "str-poly"],
    )
    def test_failed_subtraction_names_minus(self, left, right):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
            left - right

    def test_truthiness_is_nonzero(self):
        # like an int: zero is falsy, including a sum that reduces to zero
        assert not CycNumber.zero(5)
        assert not sum((zeta(5, k) for k in range(5)), CycNumber.zero(5))
        assert zeta(5) and CycNumber.from_int(5, -1)

    def test_zero_has_no_negative_powers(self):
        with pytest.raises(ZeroDivisionError):
            CycNumber.zero(5) ** -1
        assert CycNumber.zero(5) ** 0 == 1

    def test_serialization_round_trip(self):
        a = zeta(12, 5) - 3 * zeta(12, 2) + 7
        blob = json.dumps(a.to_json_obj())
        assert CycNumber.from_json_obj(json.loads(blob)) == a


orders = st.integers(min_value=1, max_value=12)
small_ints = st.integers(min_value=-6, max_value=6)


def cyc_numbers(order):
    return st.lists(small_ints, min_size=euler_phi(order), max_size=euler_phi(order)).map(
        lambda cs: CycNumber(order, tuple(cs))
    )


@st.composite
def cyc_triples(draw):
    m = draw(orders)
    return tuple(draw(cyc_numbers(m)) for _ in range(3))


class TestCycProperties:
    @settings(deadline=None)
    @given(cyc_triples())
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_group_algebra_reduction_is_multiplicative(self, m, data):
        # multiplying power expansions before or after reduction agrees
        d1 = data.draw(st.dictionaries(st.integers(0, 2 * m), small_ints, max_size=4))
        d2 = data.draw(st.dictionaries(st.integers(0, 2 * m), small_ints, max_size=4))
        conv: dict[int, int] = {}
        for e1, c1 in d1.items():
            for e2, c2 in d2.items():
                conv[e1 + e2] = conv.get(e1 + e2, 0) + c1 * c2
        lhs = CycNumber.from_powers(m, d1) * CycNumber.from_powers(m, d2)
        assert lhs == CycNumber.from_powers(m, conv)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_embed_is_injective_ring_map(self, d, k, data):
        m = d * k
        a = data.draw(cyc_numbers(d))
        b = data.draw(cyc_numbers(d))
        assert (a + b).embed(m) == a.embed(m) + b.embed(m)
        assert (a * b).embed(m) == a.embed(m) * b.embed(m)
        assert (a.embed(m) == b.embed(m)) == (a == b)


def repeated_power(base, n):
    """Oracle for CycNumber.__pow__: |n| multiplications by base, or by base.inverse()."""
    factor = base if n >= 0 else base.inverse()
    out = CycNumber.from_int(base.order, 1)
    for _ in range(abs(n)):
        out = out * factor
    return out


class TestCycPowers:
    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 15]), st.integers(-30, 30), st.sampled_from([1, -1]),
           st.integers(-7, 7))
    def test_unit_powers_match_repeated_multiplication(self, m, k, sign, n):
        # at odd m, -zeta**k is no power of zeta
        base = zeta(m, k) * sign
        assert base**n == repeated_power(base, n)
        assert base**n == zeta(m, k * n) * (sign if n % 2 else 1)

    @pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 5])
    def test_a_unit_that_is_no_root_of_unity(self, n):
        # 1 + zeta_5 is a unit (its inverse is -zeta_5 - zeta_5**3), not +-zeta**k
        base = 1 + zeta(5)
        assert CycNumber._unit_exponent(base) is None
        assert base**n == repeated_power(base, n)

    @pytest.mark.parametrize("m", [3, 7, 12])
    def test_non_unit_powers(self, m):
        base = 2 + zeta(m)
        for n in range(6):
            assert base**n == repeated_power(base, n)
        with pytest.raises(InexactDivisionError):
            base**-1


@pytest.mark.parametrize(
    "base", [zeta(5) + 2, LaurentPoly.univar("v", {4: 1, -4: 1})], ids=["cyc", "poly"]
)
def test_power_takes_no_wasted_products(base, monkeypatch):
    # square-and-multiply from the top bit: no product by one, no square past the top bit
    cls = type(base)
    mul = cls.__mul__
    count = [0]

    def counting_mul(a, b):
        count[0] += 1
        return mul(a, b)

    for n, products in [(0, 0), (1, 0), (2, 1), (4, 2)]:
        monkeypatch.setattr(cls, "__mul__", counting_mul)
        count[0] = 0
        value = base**n
        monkeypatch.undo()
        assert count[0] == products, n
        want = base
        for _ in range(n - 1):
            want = want * base
        assert value == (want if n else 1)


class TestCycDivisionAndHash:
    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([1, 2, 3, 4, 6, 15, 30, 728]), st.data())
    def test_unit_division_round_trip(self, m, data):
        # at orders 1 and 2 the unit is +-1 and its exponent is ambiguous;
        # at odd orders -zeta**k is not a power of zeta
        k = data.draw(st.integers(-2 * m, 2 * m))
        sign = data.draw(st.sampled_from([1, -1]))
        powers = data.draw(st.dictionaries(st.integers(0, m - 1), small_ints, max_size=6))
        a = CycNumber.from_powers(m, powers)
        u = sign * zeta(m, k)
        assert (a * u).exact_div(u) == a
        assert u.inverse() == sign * zeta(m, -k)

    @settings(deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_exact_div_round_trip(self, m, data):
        a = data.draw(cyc_numbers(m))
        b = data.draw(cyc_numbers(m))
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
    def test_non_unit_exact_quotient(self, p):
        # {1}^2 = (q^(1/2) - q^(-1/2))^2 at q = zeta_p lives in Z[zeta_2p]
        brace_sq = (zeta(2 * p) - zeta(2 * p, -1)) ** 2
        assert CycNumber._unit_exponent(brace_sq) is None
        b = zeta(2 * p, 3) - 2 * zeta(2 * p) + 5
        assert (b * brace_sq).exact_div(brace_sq) == b
        with pytest.raises(InexactDivisionError):
            (b * brace_sq + 1).exact_div(brace_sq)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_one_minus_zeta_is_not_a_unit(self, p):
        with pytest.raises(InexactDivisionError):
            (1 - zeta(p)).inverse()

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.data())
    def test_equal_values_hash_alike_across_embeddings(self, d, k, data):
        a = data.draw(cyc_numbers(d))
        b = a.embed(d * k)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert b._at_conductor() == a
        if a.is_integer():
            assert hash(b) == hash(a.as_int())

    def test_hash_examples(self):
        assert len({zeta(3), zeta(3).embed(6), zeta(6, 2), zeta(12, 4)}) == 1
        assert hash(zeta(6, 3)) == hash(-1)
        assert hash(zeta(10, 5) + 3) == hash(2)
        assert len({zeta(3), zeta(6)}) == 2
        conductors = {zeta(15): 15, zeta(15, 5): 3, zeta(12, 4): 3, zeta(10): 5, zeta(9, 3): 3}
        for value, order in conductors.items():
            assert value._at_conductor().order == order


def xq_polys(order=None):
    exps = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    return st.dictionaries(exps, small_ints, max_size=5).map(
        lambda d: LaurentPoly.make(("x", "q"), {(2 * a, 2 * b): c for (a, b), c in d.items()}, order)
    )


class TestLaurentPoly:
    def test_canonical_zero_and_stripping(self):
        f = LaurentPoly.make(("x",), {(2,): 1, (0,): 0})
        assert f.terms == (((2,), 1),)
        assert (f - f).is_zero()

    def test_equality_against_scalars(self):
        assert LaurentPoly.univar("q", {0: 5}) == 5
        assert LaurentPoly.univar("q", {0: 5}).with_order(4) == 5
        assert LaurentPoly.zero(("q",)) == 0
        assert LaurentPoly.univar("q", {2: 1}) != 1

    def test_substitute_examples(self):
        f = LaurentPoly.univar("x", {2: 1, -2: 1})
        assert f.substitute("x", new_var="u", exp2=4) == LaurentPoly.univar("u", {4: 1, -4: 1})
        # x^p with x -> zeta_p^(2n+1) u^2 gives u^(2p)
        p, n = 5, 2
        g = LaurentPoly.univar("x", {2 * p: 1})
        img = g.substitute("x", coeff=zeta(p, 2 * n + 1), new_var="u", exp2=4)
        assert img == LaurentPoly.univar("u", {4 * p: 1}).with_order(p)
        # 3 x q^2 - x^-1 + 2 q^-1
        h = LaurentPoly.make(("x", "q"), {(2, 4): 3, (-2, 0): -1, (0, -2): 2})
        # rename: x -> u^2, then q -> v
        renamed = LaurentPoly.make(("u", "q"), {(4, 4): 3, (-4, 0): -1, (0, -2): 2})
        assert h.substitute("x", new_var="u", exp2=4) == renamed
        assert h.substitute("q", new_var="v", exp2=2) == LaurentPoly.make(("x", "v"), h.terms)
        # merge: x -> q, x -> -q^(1/2), q -> x^2
        assert h.substitute("x", new_var="q", exp2=2) == LaurentPoly.univar("q", {6: 3, -2: 1})
        merged = h.substitute("x", coeff=-1, new_var="q", exp2=1)
        assert merged == LaurentPoly.univar("q", {5: -3, -1: 1, -2: 2})
        assert h.substitute("q", new_var="x", exp2=4) == LaurentPoly.univar("x", {10: 3, -2: -1, -4: 2})

    def test_substitute_sigma1_cancellation(self):
        # sigma_1(x, q) at q = zeta_3, x -> zeta_3 collapses to 0
        sigma1 = LaurentPoly.univar("x", {2: 1, -2: 1, 0: -(zeta(3) + zeta(3, -1))})
        val = sigma1.evaluate({"x": zeta(3)})
        assert val == 0

    def test_zero_evaluates_to_the_zero_of_its_ring(self):
        for value in (zeta(30), zeta(30, 7)):
            got = LaurentPoly.zero(("u",), 30).evaluate({"u": value})
            assert isinstance(got, CycNumber) and got.order == 30 and got.is_zero()
            assert got.exact_div(value) == 0
        assert LaurentPoly.zero(("q",)).evaluate({"q": 2}) == 0

    def test_substitute_round_trip_identity(self):
        f = LaurentPoly.make(("x", "q"), {(2, 4): 3, (-2, 0): -1, (0, -2): 2})
        assert f.substitute("x", new_var="x", exp2=2) == f

    def test_substitute_rejects_bad_exponents(self):
        half = LaurentPoly.univar("x", {1: 1})
        with pytest.raises(ValueError):
            half.substitute("x", coeff=-1, new_var="x", exp2=2)
        with pytest.raises(ValueError):
            half.substitute("x", new_var="u", exp2=1)

    def test_constant_substitution_drops_variable(self):
        f = LaurentPoly.make(("x", "q"), {(2, 2): 1})
        g = f.substitute("x", coeff=zeta(3))
        assert g == LaurentPoly.univar("q", {2: zeta(3)})

    def test_mul_against_rational_point_oracle(self):
        from fractions import Fraction

        f = LaurentPoly.make(("x", "q"), {(2, 0): 3, (-2, 2): -1, (0, 4): 2})
        g = LaurentPoly.make(("x", "q"), {(0, -2): 1, (4, 0): 5})

        def at(h, xv, qv):
            total = Fraction(0)
            for (a, b), c in h.terms:
                total += c * Fraction(xv) ** (a // 2) * Fraction(qv) ** (b // 2)
            return total

        prod = f * g
        for xv, qv in [(2, 3), (-2, 5), (7, -3)]:
            assert at(prod, xv, qv) == at(f, xv, qv) * at(g, xv, qv)

    def test_pow_matches_repeated_mul(self):
        f = LaurentPoly.univar("x", {2: 1, 0: -2, -2: 1})
        assert f**3 == f * f * f
        assert f**0 == 1

    def test_variable_mismatch_is_error(self):
        with pytest.raises(ValueError):
            LaurentPoly.univar("x", {0: 1}) + LaurentPoly.univar("q", {0: 1})

    def test_order_mixing_is_explicit(self):
        f = LaurentPoly.univar("x", {0: zeta(3)})
        g = LaurentPoly.univar("x", {0: zeta(4)})
        with pytest.raises(ValueError):
            f + g
        assert f.with_order(12) + g.with_order(12) == LaurentPoly.univar(
            "x", {0: zeta(12, 4) + zeta(12, 3)}
        )

    def test_scalar_product_keeps_the_ring_of_zero(self):
        zero5 = LaurentPoly.zero(("x",), 5)
        assert (zero5 * 3).order == 5
        assert (zero5 * zeta(5)).order == 5
        assert (3 * zero5).order == 5
        assert (LaurentPoly.zero(("x",)) * zeta(5)).order == 5
        with pytest.raises(ValueError):
            zero5 * zeta(3)

    def test_integers_promote_into_the_ring(self):
        f = LaurentPoly.make(("x",), {(0,): 2, (2,): zeta(5)})
        assert f.order == 5 and f.terms == (((0,), 2), ((2,), zeta(5)))
        assert_one_ring(f)
        assert_one_ring(LaurentPoly.univar("x", {0: 1}, 5))

    def test_serialization_round_trip_bit_exact(self):
        f = LaurentPoly.make(("x", "q"), {(1, -2): 4, (0, 0): -7, (3, 5): 1})
        blob = json.dumps(f.to_json_obj())
        g = LaurentPoly.from_json_obj(json.loads(blob))
        assert g == f and g.to_json_obj() == f.to_json_obj()
        h = LaurentPoly.univar("u", {2: zeta(6), -2: -1}).with_order(6)
        blob2 = json.dumps(h.to_json_obj())
        assert LaurentPoly.from_json_obj(json.loads(blob2)) == h

    @pytest.mark.parametrize("order", (None, 1, 7, 12))
    def test_serialization_keeps_the_order_of_zero_and_nonzero(self, order):
        for f in (LaurentPoly.zero(("x",), order), LaurentPoly.univar("x", {2: 3, -1: -1}, order)):
            g = LaurentPoly.from_json_obj(json.loads(json.dumps(f.to_json_obj())))
            assert g == f and g.order == f.order and g.to_json_obj() == f.to_json_obj()
        # only a zero polynomial writes its order; a nonzero one reads it off its coefficients
        assert "order" not in LaurentPoly.zero(("x",)).to_json_obj()
        assert "order" not in LaurentPoly.univar("x", {2: 3}, order).to_json_obj()

    def test_serialized_terms_sorted(self):
        f = LaurentPoly.make(("x", "q"), {(2, 0): 1, (-2, 4): 2, (2, -2): 3})
        exps = [tuple(e) for e, _ in f.to_json_obj()["terms"]]
        assert exps == sorted(exps)


@st.composite
def q_polys(draw):
    d = draw(st.dictionaries(st.integers(-5, 5), small_ints, max_size=5))
    return LaurentPoly.univar("q", {2 * e: c for e, c in d.items()})


class TestLaurentProperties:
    @settings(deadline=None)
    @given(xq_polys(), xq_polys(), xq_polys())
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f

    @settings(deadline=None, max_examples=60)
    @given(q_polys(), q_polys(), st.integers(1, 10), st.integers(-3, 3))
    def test_eval_at_root_is_ring_hom(self, f, g, m, k):
        assert eval_at_root(f * g, m, k) == eval_at_root(f, m, k) * eval_at_root(g, m, k)
        assert eval_at_root(f + g, m, k) == eval_at_root(f, m, k) + eval_at_root(g, m, k)

    @settings(deadline=None, max_examples=60)
    @given(q_polys(), q_polys())
    def test_exact_div_round_trip(self, f, g):
        if g.is_zero():
            return
        assert exact_div(f * g, g) == f


def assert_one_ring(h):
    """Every stored coefficient lies in the ring that h.order names."""
    if h.order is None:
        assert all(type(c) is int for _, c in h.terms)
    else:
        assert all(isinstance(c, CycNumber) and c.order == h.order for _, c in h.terms)


@st.composite
def promotion_cases(draw):
    """An integer polynomial f and a polynomial g over Z[zeta_m], both in x."""
    m = draw(orders)
    exps = st.integers(-4, 4)
    f = LaurentPoly.univar("x", draw(st.dictionaries(exps, small_ints, max_size=4)))
    g = LaurentPoly.univar("x", draw(st.dictionaries(exps, cyc_numbers(m), max_size=3)), m)
    return f, g, m


class TestIntegerPromotion:
    """An integer operand gives the same result as its explicit lift with_order(m)."""

    @settings(deadline=None, max_examples=80)
    @given(promotion_cases(), small_ints)
    def test_operators_match_the_explicit_lift(self, case, k):
        f, g, m = case
        lifted = f.with_order(m)
        assert_one_ring(lifted)
        ops = (
            lambda a, b: a + b,
            lambda a, b: b + a,
            lambda a, b: a - b,
            lambda a, b: b - a,
            lambda a, b: a * b,
            lambda a, b: b * a,
        )
        for op in ops:
            got, want = op(f, g), op(lifted, g)
            assert_one_ring(got)
            assert got.order == m and got == want
            assert got.to_json_obj() == want.to_json_obj()
        assert (f == g) == (lifted == g)
        for got, want in ((g + k, g + CycNumber.from_int(m, k)), (g * k, g * CycNumber.from_int(m, k))):
            assert_one_ring(got)
            assert got.order == m and got.to_json_obj() == want.to_json_obj()

    @settings(deadline=None, max_examples=60)
    @given(promotion_cases())
    def test_exact_div_matches_the_explicit_lift(self, case):
        f, g, m = case
        lifted = f.with_order(m)
        if not g.is_zero():
            got, want = exact_div(f * g, g), exact_div(lifted * g, g)
            assert_one_ring(got)
            assert got.order == m and got == want == lifted
            assert got.to_json_obj() == want.to_json_obj()
        if not f.is_zero():
            got, want = exact_div(g * f, f), exact_div(g * f, lifted)
            assert_one_ring(got)
            assert got == want == g and got.to_json_obj() == want.to_json_obj()


def schoolbook_mul(f, g):
    """Independent oracle for LaurentPoly products: the plain term-pair loop."""
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return LaurentPoly.make(f.variables, acc)


# values at the edges of a packed digit's byte width, and far past 4300 digits
byte_edges = st.sampled_from([s * (2**k + d) for k in (7, 8, 63, 64) for d in (-1, 0) for s in (1, -1)])
big_ints = st.one_of(small_ints, byte_edges, st.integers(-(2**8000), 2**8000))


@st.composite
def int_polys(draw, nvars):
    # doubled exponents: odd values are half-integer exponents
    exps = st.tuples(*[st.integers(-9, 9)] * nvars)
    d = draw(st.dictionaries(exps, big_ints, max_size=6))
    return LaurentPoly.make(("x", "q")[:nvars], d)


class TestPackedProduct:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(int_polys(n), int_polys(n))))
    def test_matches_schoolbook_oracle(self, pair):
        f, g = pair
        expected = schoolbook_mul(f, g)
        assert f * g == expected
        # the packed kernel takes nonempty univariate operands only
        if len(f.variables) == 1 and f.terms and g.terms:
            packed = _kronecker_mul(f.terms, g.terms)
            if packed is not None:
                assert packed == expected.terms

    def test_dense_products_are_packed(self, monkeypatch):
        import cycloknot.exactring as exactring

        f = LaurentPoly.univar("q", {e: e - 3 for e in range(-5, 20, 2)})
        assert _kronecker_mul(f.terms, f.terms) == schoolbook_mul(f, f).terms
        # a bivariate product of 21 x 21 term pairs goes pair by pair
        g = LaurentPoly.make(("x", "q"), {(a, b): 2**8000 + a - b for a in range(3) for b in range(-3, 4)})

        def unpacked(t1, t2):
            raise AssertionError("bivariate operands reached the packed kernel")

        monkeypatch.setattr(exactring, "_kronecker_mul", unpacked)
        assert len(g.terms) ** 2 >= _PACK_MIN_PAIRS
        assert g * g == schoolbook_mul(g, g)

    @pytest.mark.parametrize("c", [64, 100, 127, 2**62, 2**63 - 1, -(2**62)])
    def test_coefficients_at_the_digit_bound(self, c):
        # (c + c*x) * (1 + x) has the middle coefficient 2c, the bound itself
        f = LaurentPoly.univar("x", {0: c, 2: c})
        g = LaurentPoly.univar("x", {0: 1, 2: 1})
        assert f * g == LaurentPoly.univar("x", {0: c, 2: 2 * c, 4: c})

    def test_products_past_the_decimal_digit_limit(self):
        f = LaurentPoly.univar("x", {-3: 2**8000 - 1, 1: -(2**8000), 4: 7})
        prod = f * f
        assert max(abs(c) for _, c in prod.terms).bit_length() > 15000
        assert prod == schoolbook_mul(f, f)

    def test_wide_gaps_multiply_term_by_term(self):
        f = LaurentPoly.univar("x", {2 * 10**9: 1, 0: 1})
        g = LaurentPoly.univar("x", {2: 1, 0: 1})
        assert _kronecker_mul(f.terms, g.terms) is None
        assert f * g == LaurentPoly.univar("x", {2 * 10**9 + 2: 1, 2 * 10**9: 1, 2: 1, 0: 1})


# Digit widths in bits: whole bytes up to 64 convert in C (24 by way of
# 8-byte slots), the others (narrow, not whole bytes or past 64 bits) are
# sliced from the binary digits.
_DIGIT_WIDTHS = [2, 5, 8, 16, 24, 32, 41, 64, 72, 100]
# Every width _digit_width gives for 1 to 80 bits: the whole bytes up to 64,
# then each bit count itself.
_READER_WIDTHS = sorted({_digit_width(bits) for bits in range(1, 81)})


@st.composite
def digit_runs(draw):
    """(width, digits): balanced digits of one width, with the extreme
    digits +-(2**(width-1) - 1) and runs of one repeated digit."""
    width = draw(st.sampled_from(_DIGIT_WIDTHS))
    top = 2 ** (width - 1) - 1
    digit = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 1, -1, 0]))
    runs = st.tuples(st.sampled_from([0, -top, -1, top]), st.integers(1, 40)).map(lambda r: [r[0]] * r[1])
    return width, draw(st.one_of(st.lists(digit, min_size=1, max_size=40), runs))


class TestDigitReader:
    @settings(deadline=None, max_examples=300)
    @given(digit_runs())
    def test_pack_and_unpack_round_trip(self, case):
        width, digits = case
        size = len(digits)
        value = _pack([digits], width)
        assert value == sum(d << width * k for k, d in enumerate(digits))
        assert _unpack(value, size, width) == digits

    @settings(deadline=None, max_examples=200)
    @given(digit_runs())
    def test_unsigned_digits_round_trip(self, case):
        # the same runs read as unsigned digits, 0 <= d < 2**width
        width, digits = case
        digits = [d % 2**width for d in digits]
        value = sum(d << width * k for k, d in enumerate(digits))
        assert _unpack(value, len(digits), width, signed=False) == digits

    @pytest.mark.parametrize("width", _READER_WIDTHS)
    def test_round_trips_at_every_reader_width(self, width):
        # signed rows and unsigned digits, extremes included, at every width
        # the library reads: 24, 40, 48 and 56 bits go through 8-byte slots
        rng = random.Random(width)
        top = 2 ** (width - 1) - 1
        digits = [top, -top, 0, 1, -1, top, 0] + [rng.randint(-top, top) for _ in range(40)]
        rows = [digits, digits[::-1]]
        value = _pack(rows, width)
        assert value == sum(d << width * k for k, d in enumerate(digits + digits[::-1]))
        assert [list(row) for row in _digit_rows(value, len(digits), 2, width)] == rows
        assert _unpack(value, 2 * len(digits), width) == digits + digits[::-1]
        unsigned = [d % 2**width for d in digits]
        value = sum(d << width * k for k, d in enumerate(unsigned))
        assert _unpack(value, len(unsigned), width, signed=False) == unsigned

    @pytest.mark.parametrize(
        "coeffs",
        [[], [1], [0, 0, 7], [3, 0, 255, 1], [2**40, 5, 2**40], [2**70, 0, 1], [1] * 300],
    )
    def test_nonnegative_digits_read_a_polynomial_off_its_integer_points(self, coeffs):
        # S(1) bounds every coefficient, so the width read off S(1) holds
        # each digit, and the polynomial is evaluated once
        calls = []

        def value_at(width):
            calls.append(width)
            return sum(c << width * k for k, c in enumerate(coeffs))

        assert nonnegative_digits(value_at, sum(coeffs)) == coeffs
        assert calls == [_digit_width(sum(coeffs).bit_length())]

    def test_nonnegative_digits_raise_on_a_wrong_s1_or_width(self, monkeypatch):
        # S(1) = 2^21 + 2 gives 24-bit digits; the digits sum to S(1) only
        # when none overflowed, so an S(1) one off, or 16-bit digits, which
        # carry out of the 2^20 ones, raise instead of reading wrong digits
        coeffs = [2**20, 3, 2**20 - 1]

        def value_at(width):
            return sum(c << width * k for k, c in enumerate(coeffs))

        assert nonnegative_digits(value_at, sum(coeffs)) == coeffs
        for at_one in (sum(coeffs) - 1, sum(coeffs) + 1):
            with pytest.raises(ArithmeticError):
                nonnegative_digits(value_at, at_one)
        monkeypatch.setattr(exactring, "_digit_width", lambda bits, width=_digit_width: width(bits) - 8)
        with pytest.raises(ArithmeticError):
            nonnegative_digits(value_at, sum(coeffs))

    @pytest.mark.parametrize("width", [3, 8, 13, 16, 24, 32, 40, 56, 64, 65])
    def test_reversed_digits(self, width):
        # the digits 5, 0, 1, 2**width - 1, 0 read from the top: the zero top
        # digit, inside size, becomes the bottom one
        top = 2**width - 1
        value = 5 + (1 << 2 * width) + (top << 3 * width)
        reversed_value = (top << width) + (1 << 2 * width) + (5 << 4 * width)
        assert reversed_digits(value, 5, width) == reversed_value
        assert reversed_digits(reversed_value, 5, width) == value

    def test_reversed_digits_at_width_0_is_the_value(self):
        # at q = 1 a polynomial and its reverse have one value
        assert reversed_digits(12345, 7, 0) == 12345

    def test_digit_widths(self):
        # the next whole byte up to 64 bits, else the bits themselves
        assert sorted(_CAST_CODES) == [8, 16, 32, 64]
        bits = (0, 1, 8, 9, 16, 17, 23, 24, 33, 55, 56, 64, 65, 72)
        assert [_digit_width(b) for b in bits] == [8, 8, 8, 16, 16, 24, 24, 24, 40, 56, 56, 64, 65, 72]
        assert _READER_WIDTHS == [8, 16, 24, 32, 40, 48, 56, 64, *range(65, 81)]


def per_pair_reduced_mul(f, g):
    """Labelled oracle for LaurentPoly products over Z[zeta_m]: the per-pair loop.

    This is the product as computed before the one-reduction kernel: every
    term pair's coefficient product is reduced mod Phi_m on its own, here by
    long division by the cyclotomic polynomial, and then added.  It shares
    no reduction code with the kernel under test.
    """
    m = f.order or g.order
    phi = cyclotomic_coeffs(m)
    deg = len(phi) - 1

    def coords(c):
        return c.coeffs if isinstance(c, CycNumber) else (c,) + (0,) * (deg - 1)

    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            prod = [0] * (2 * deg - 1)
            for i, x in enumerate(coords(c1)):
                for j, y in enumerate(coords(c2)):
                    prod[i + j] += x * y
            for top in range(len(prod) - 1, deg - 1, -1):
                lead = prod[top]
                for i, d in enumerate(phi):
                    prod[top - deg + i] -= lead * d
            key = tuple(a + b for a, b in zip(e1, e2))
            total = acc.get(key, (0,) * deg)
            acc[key] = tuple(a + b for a, b in zip(total, prod))
    return tuple(sorted((key, CycNumber(m, c)) for key, c in acc.items() if any(c)))


KERNEL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 12, 14, 15, 46]


@st.composite
def kernel_operands(draw, order, nvars):
    """A polynomial in x (and q) over Z[zeta_order], or over Z for order None."""
    exps = st.tuples(*[st.integers(-5, 5)] * nvars)
    if order is None:
        coeffs = small_ints
    else:
        deg = euler_phi(order)
        # sparse in zeta, as the library's coefficients mostly are, or dense
        coords = st.dictionaries(st.integers(0, deg - 1), small_ints, min_size=1, max_size=min(deg, 6))
        coeffs = coords.map(lambda d: CycNumber(order, tuple(d.get(i, 0) for i in range(deg))))
    terms = draw(st.dictionaries(exps, coeffs, max_size=draw(st.sampled_from([1, 1, 2, 4, 7]))))
    return LaurentPoly.make(("x", "q")[:nvars], {tuple(2 * e for e in k): c for k, c in terms.items()}, order)


@st.composite
def kernel_pairs(draw):
    m = draw(st.sampled_from(KERNEL_ORDERS))
    nvars = draw(st.integers(1, 2))
    orders = draw(st.sampled_from([(m, m), (None, m), (m, None)]))
    return tuple(draw(kernel_operands(order, nvars)) for order in orders)


def assert_canonical(h):
    exps = [e for e, _ in h.terms]
    assert exps == sorted(set(exps))
    assert all(c for _, c in h.terms)
    assert_one_ring(h)


class TestCyclotomicProductKernel:
    @settings(deadline=None, max_examples=200)
    @given(kernel_pairs())
    def test_matches_per_pair_reduced_oracle(self, pair):
        f, g = pair
        expected = per_pair_reduced_mul(f, g)
        for h in (f * g, g * f):
            assert_canonical(h)
            assert h.terms == expected
            assert h.order == (f.order or g.order)

    def test_buffer_that_reduces_to_zero_is_dropped(self):
        # the x buffer is 1 + zeta + ... + zeta**4, which is 0 in Z[zeta_5]
        z = zeta(5)
        f = LaurentPoly.univar("x", {2: z**2, 0: 1})
        g = LaurentPoly.univar("x", {0: z**2, 2: 1 + z + z**2 + z**3})
        expected = LaurentPoly.univar("x", {4: -z, 0: z**2})
        for h in (f * g, g * f):
            assert_canonical(h)
            assert h == expected and h.terms == per_pair_reduced_mul(f, g)
            assert h.coefficient((2,)).is_zero()

    def test_one_term_factors_shift(self):
        f = LaurentPoly.make(("x", "q"), {(2, -1): zeta(7, 3), (0, 4): 2, (-2, 0): zeta(7, 6)}, 7)
        mono = LaurentPoly.make(("x", "q"), {(4, 3): -zeta(7, 2)})
        expected = LaurentPoly.make(("x", "q"), {(6, 2): -zeta(7, 5), (4, 7): -2 * zeta(7, 2), (2, 3): -zeta(7, 1)})
        for h in (f * mono, mono * f):
            assert_canonical(h)
            assert h == expected and h.terms == per_pair_reduced_mul(f, mono)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 15]), st.integers(-30, 30), st.sampled_from([1, -1]),
           st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    def test_unit_scalars_shift_without_products(self, m, k, sign, coords):
        # a scalar +-zeta**k shifts the powers of zeta in each coefficient: no CycNumber product
        coeffs = {2 * i: CycNumber.from_powers(m, {i: c, i + 1: 1}) for i, c in enumerate(coords)}
        f = LaurentPoly.univar("x", coeffs, m)
        g = LaurentPoly.univar("x", {2 * i: c for i, c in enumerate(coords)})
        unit = zeta(m, k) * sign
        expected = [LaurentPoly.make(("x",), [(e, c * unit) for e, c in h.terms], m) for h in (f, g)]
        products = []
        mul = CycNumber.__mul__
        CycNumber.__mul__ = CycNumber.__rmul__ = lambda a, b: products.append(1) or mul(a, b)
        try:
            got = [f * unit, g * unit]
        finally:
            CycNumber.__mul__ = CycNumber.__rmul__ = mul
        assert not products
        assert got == expected
        for h in got:
            assert_canonical(h)


class TestEvalAtRoot:
    def test_examples(self):
        f = LaurentPoly.univar("q", {2: 1, -2: 1})
        assert eval_at_root(f, 3, 1) == -1
        for p in (2, 3, 5, 7):
            g = LaurentPoly.univar("q", {2 * p: 1, -2 * p: 1, 0: -2})
            assert eval_at_root(g, p, 1).is_zero()
        assert eval_at_root(LaurentPoly.univar("q", {0: 1, 2: 1}), 2, 1).is_zero()

    def test_half_exponents_lift_to_even_order(self):
        f = LaurentPoly.univar("q", {1: 1})  # q^(1/2)
        v = eval_at_root(f, 3, 1)
        assert v.order == 6 and v == zeta(6)
        with pytest.raises(ValueError):
            eval_at_root(f, 3, 1, order=3)

    def test_declared_higher_order(self):
        f = LaurentPoly.univar("q", {2: 1})
        assert eval_at_root(f, 3, 1, order=12) == zeta(12, 4)

    def test_cyclotomic_coefficients(self):
        f = LaurentPoly.univar("q", {2: zeta(3) + 2, -1: zeta(3, 2)}).with_order(3)
        # q = zeta_4 and q^(1/2) = zeta_8, with coefficients from Z[zeta_3]
        expected = (zeta(3) + 2).embed(24) * zeta(24, 6) + zeta(3, 2).embed(24) * zeta(24, -3)
        assert eval_at_root(f, 4, 1, order=24) == expected
        with pytest.raises(ValueError):
            eval_at_root(f, 4, 1, order=8)

    def test_cancelling_half_exponents_stay_in_even_order(self):
        # q^(1/2) and q^(1/2 + m) share their residue and cancel at zeta_m,
        # but a half-integer exponent is present: the value lives in order 2m
        for m in (1, 2, 3, 5):
            f = LaurentPoly.univar("q", {1: 1, 1 + 2 * m: -1})
            v = eval_at_root(f, m)
            assert v.order == 2 * m and v.is_zero()
            g = LaurentPoly.univar("q", {1: 1, 1 + 2 * m: -1, 2: 3})
            assert eval_at_root(g, m) == CycNumber.from_powers(2 * m, {2: 3})
            assert eval_at_root(g, m).order == 2 * m

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_power_sum_oracle(self, m):
        # Labelled oracle: each term's own power of zeta_target, summed by
        # CycNumber.from_powers, over k != 1, explicit orders and Z[zeta_d]
        # coefficients, with exponents that collide modulo 2m
        def oracle(f, k, target):
            powers = []
            for (e,), c in f.terms:
                shift = k * e * target // (2 * m)
                if f.order is None:
                    powers.append((shift, c))
                else:
                    step = target // f.order
                    powers.extend((shift + i * step, ci) for i, ci in enumerate(c.coeffs))
            return CycNumber.from_powers(target, powers)

        integral = {-3: 2, 1: -1, 1 + 2 * m: 4, 4 * m + 1: -3, 2 * m: 5, 6: 1, -4 * m - 3: 7}
        whole = {e: c for e, c in integral.items() if e % 2 == 0}
        for terms, natural in ((integral, 2 * m), (whole, m)):
            f = LaurentPoly.univar("q", terms)
            for k in (-3, -1, 0, 1, 2, 5):
                for target in (natural, 2 * natural, 3 * natural):
                    order = None if target == natural else target
                    got = eval_at_root(f, m, k, order=order)
                    assert got.order == target and got == oracle(f, k, target), (terms, k, target)
        d = 2 * m if m % 2 else m
        cyc = LaurentPoly.univar("q", {2: zeta(d) + 2, 2 + 2 * m: zeta(d, -1), -1: 3, 4: -1}, d)
        for k in (-1, 1, 2):
            got = eval_at_root(cyc, m, k, order=2 * m)
            assert got == oracle(cyc, k, 2 * m), k


class TestExactDivErrors:
    def test_inexact_division_raises(self):
        num = LaurentPoly.univar("x", {2: 1, 0: 1})  # x + 1
        den = LaurentPoly.univar("x", {2: 1, 0: -1})  # x - 1
        with pytest.raises(InexactDivisionError, match="remainder"):
            exact_div(num, den)
        zeta_num = LaurentPoly.univar("x", {2: zeta(5), 0: 2}, 5)
        with pytest.raises(InexactDivisionError, match="remainder"):
            exact_div(zeta_num, den)

    def test_a_zero_packed_remainder_is_no_quotient(self):
        # (x + zeta_3) / (1 + x) is inexact, yet packed at every width w its
        # coordinate blocks x and 1 give N(2^w) = 2^w + 2^(2w) = D(2^w) 2^w:
        # the packed quotient's first block carries the digit 1 past the
        # quotient's one coefficient, so no quotient may be read off it
        num = LaurentPoly.univar("x", {0: zeta(3), 2: 1}, 3)
        den = LaurentPoly.univar("x", {0: 1, 2: 1})
        with pytest.raises(InexactDivisionError, match="Mignotte"):
            exact_div(num, den)

    def test_laurent_shifts(self):
        num = LaurentPoly.univar("x", {-2: 1, 4: 1})  # x^-1 + x^2
        den = LaurentPoly.univar("x", {0: 1, 2: 1})  # 1 + x
        assert exact_div(num, den) == LaurentPoly.univar("x", {2: 1, 0: -1, -2: 1})

    def test_scalar_denominator(self):
        num = LaurentPoly.univar("x", {2: 4, 0: -6})
        den = LaurentPoly.univar("x", {0: 2})
        assert exact_div(num, den) == LaurentPoly.univar("x", {2: 2, 0: -3})
        with pytest.raises(InexactDivisionError):
            exact_div(LaurentPoly.univar("x", {0: 3}), den)


def schoolbook_div(num, den):
    """Labelled oracle for exact_div: the schoolbook long division that the
    packed kernel replaced.

    Each step divides the remainder's leading coefficient by the
    denominator's, in Z or through CycNumber.exact_div in Z[zeta_m], and
    subtracts that quotient term times the denominator.  It shares no code
    with the kernel under test.
    """
    order = num.order or den.order
    if order is not None:
        num, den = num.with_order(order), den.with_order(order)

    def div(a, b):
        if order is not None:
            return a.exact_div(b)
        q, r = divmod(a, b)
        if r:
            raise InexactDivisionError(f"{a} is not divisible by {b}")
        return q

    if num.is_zero():
        return LaurentPoly.zero(num.variables, order)
    num_min = min(e for (e,), _ in num.terms)
    den_min = min(e for (e,), _ in den.terms)
    rem = {e - num_min: c for (e,), c in num.terms}
    dterms = sorted((e - den_min, c) for (e,), c in den.terms)
    dlead_e, dlead_c = dterms[-1]
    quo = {}
    while rem:
        top = max(rem)
        if top < dlead_e:
            raise InexactDivisionError("nonzero remainder")
        q = div(rem[top], dlead_c)
        quo[top - dlead_e] = q
        for de, dc in dterms:
            key = de + top - dlead_e
            val = rem.get(key, 0) - dc * q
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    shift = num_min - den_min
    return LaurentPoly.make(num.variables, {(e + shift,): c for e, c in quo.items()}, order)


def outcome(divide, num, den):
    try:
        return divide(num, den)
    except InexactDivisionError:
        return InexactDivisionError


# integer coefficients up to and past 2**64
wide_ints = st.one_of(small_ints, byte_edges, st.integers(-(2**200), 2**200))


@st.composite
def division_cases(draw):
    """(q, d, r): a quotient, a denominator of two or more terms and a
    perturbation, over Z or Z[zeta_m] for m <= 12; the denominator is over Z
    or over the numerator's ring.  Exponents are doubled, so odd ones are
    half-integer shifts."""
    m = draw(st.sampled_from([None, *range(1, 13)]))

    def polys(order, coeffs, min_size, max_size):
        terms = st.dictionaries(st.integers(-9, 9), coeffs, min_size=min_size, max_size=max_size)
        return terms.map(lambda d: LaurentPoly.univar("x", d, order))

    def coeffs(order):
        if order is None:
            return wide_ints
        deg = euler_phi(order)
        coords = st.lists(st.one_of(small_ints, wide_ints), min_size=deg, max_size=deg)
        return coords.map(lambda cs: CycNumber(order, tuple(cs)))

    q = draw(polys(m, coeffs(m), 0, 6))
    d_order = draw(st.sampled_from([None, m]))
    d = draw(polys(d_order, coeffs(d_order), 2, 4).filter(lambda p: len(p.terms) >= 2))
    r = draw(polys(m, coeffs(m), 0, 2))
    return q, d, r


class TestPackedDivision:
    @settings(deadline=None, max_examples=100)
    @given(division_cases())
    def test_matches_the_schoolbook_oracle(self, case):
        q, d, r = case
        num = q * d
        got = exact_div(num, d)
        assert got == q and got == schoolbook_div(num, d)
        assert_canonical(got)
        assert got.order == (q.order or d.order)
        perturbed = num + r
        if not perturbed.is_zero():
            got = outcome(exact_div, perturbed, d)
            assert got == outcome(schoolbook_div, perturbed, d)
            if got is not InexactDivisionError:
                assert_canonical(got)

    def test_quotient_and_denominator_wider_than_the_numerator(self):
        # the start width must hold the denominator's 17 bits as well as the
        # numerator's 13, and widen for the q-binomial's 50
        num, den = qpochhammer(60), qpochhammer(30) * qpochhammer(30)
        bits = [max(abs(c) for _, c in p.terms).bit_length() for p in (num, den, qbinomial(60, 30))]
        assert bits[0] < bits[1] and 2 * bits[1] < bits[2]
        assert exact_div(num, den) == qbinomial(60, 30)
        # and one past 64-bit digits: (x + 1) * (2**70 x**2 + 3x - 2**70)
        den = LaurentPoly.univar("x", {4: 2**70, 2: 3, 0: -(2**70)})
        num = den * LaurentPoly.univar("x", {2: 1, 0: 1})
        assert max(abs(c) for _, c in num.terms) < 2 ** 71
        assert exact_div(num, den) == LaurentPoly.univar("x", {2: 1, 0: 1})

    def test_widening_past_the_degree(self):
        # C (t**105 - 1) / prod(Phi_d, d | 105, d < 105) is C Phi_105, whose
        # coefficient -2C needs one bit more than the start width holds:
        # the bound that stops the widening must count ||N||_2, not only
        # the quotient's 49 terms
        c = 2**200 - 1
        den = LaurentPoly.univar("t", {0: 1})
        for d in (1, 3, 5, 7, 15, 21, 35):
            den = den * cyclotomic_polynomial(d)
        num = LaurentPoly.univar("t", {210: c, 0: -c})
        assert exact_div(num, den) == cyclotomic_polynomial(105) * c

    def test_failed_check_product_raises(self):
        # (x + 3)(x**2 + x + 2) / (2x + 6) is (x**2 + x + 2)/2, not in Z[x],
        # yet (4**w + 2**w + 2)/2 is an integer at every width w: no remainder
        # ever shows, and only the check product rejects the digits
        num = LaurentPoly.univar("x", {6: 1, 4: 4, 2: 5, 0: 6})
        den = LaurentPoly.univar("x", {2: 2, 0: 6})
        with pytest.raises(InexactDivisionError, match="Mignotte"):
            exact_div(num, den)
        with pytest.raises(InexactDivisionError):
            schoolbook_div(num, den)


def recursive_cyclotomic_oracle(limit):
    """Labelled oracle for cyclotomic_coeffs: Phi_m as t**m - 1 divided, by
    schoolbook long division, by Phi_d for each proper divisor d of m, the
    largest first; every m <= limit."""
    table = {}
    for m in range(1, limit + 1):
        poly = [-1] + [0] * (m - 1) + [1]
        for d in range(m - 1, 0, -1):
            if m % d:
                continue
            den = table[d]
            assert den[-1] == 1  # monic: every step divides exactly
            terms = [(j, c) for j, c in enumerate(den) if c]
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                q = out[i] = poly[i + len(den) - 1]
                if q:
                    for j, c in terms:
                        poly[i + j] -= q * c
            assert not any(poly)
            poly = out
        table[m] = tuple(poly)
    return table


class TestCyclotomicTables:
    def test_every_order_to_1000_matches_the_recursive_division_oracle(self):
        # includes 280 = 2**3 * 5 * 7, 210 = 2 * 3 * 5 * 7, prime powers and 2 * odd
        for m, coeffs in recursive_cyclotomic_oracle(1000).items():
            assert cyclotomic_coeffs(m) == coeffs, m

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 27, 30, 60, 105, 280]),
           st.one_of(st.integers(-50, 50), st.integers(-(10**12), 10**12)))
    def test_zeta_is_the_reduced_power(self, m, k):
        assert zeta(m, k) == CycNumber.from_powers(m, {k: 1})
        assert zeta(m, k).coeffs == CycNumber.from_powers(m, {k: 1}).coeffs

    @pytest.mark.parametrize("m", [*range(1, 41), 120, 280, 728])
    def test_table_oracle_against_sympy(self, m):
        # The oracle of the table of reduced powers of zeta_m: sympy's
        # remainder of t**e modulo Phi_m, for every e < m, owes nothing to
        # exactring, whose zeta, unit index, unit quotients and unit powers
        # all read that one table.
        sympy = pytest.importorskip("sympy")
        from sympy.polys.densearith import dup_rem

        t, phi = sympy.Symbol("t"), euler_phi(m)
        modulus = [sympy.ZZ(int(c)) for c in sympy.Poly(sympy.cyclotomic_poly(m, t), t).all_coeffs()]
        residues = []
        for e in range(m):
            rem = [int(c) for c in reversed(dup_rem([sympy.ZZ(1)] + [sympy.ZZ(0)] * e, modulus, sympy.ZZ))]
            residues.append(tuple(rem) + (0,) * (phi - len(rem)))

        def oracle(powers):
            """sum(c * zeta_m**e) over the (e, c) pairs, through sympy's residues."""
            return tuple(map(sum, zip(*[[c * x for x in residues[e % m]] for e, c in powers])))

        for e in range(-m, 2 * m):
            assert zeta(m, e).coeffs == residues[e % m], e
        units = {residues[e] for e in range(m)} | {tuple(-x for x in r) for r in residues}
        a = 3 - 2 * zeta(m) + 5 * zeta(m, m // 2 + 1)
        for e in range(m):
            for sign in (1, -1):
                u = sign * zeta(m, e)
                k, s = CycNumber._unit_exponent(u)
                assert s * zeta(m, k) == u, (e, sign)
                if e % max(1, m // 40):
                    continue
                assert a.exact_div(u).coeffs == oracle([(i - e, sign * c) for i, c in enumerate(a.coeffs)])
                assert (a * u).exact_div(u) == a
                for n in range(-3, 4):
                    assert (u**n).coeffs == oracle([(e * n, sign**abs(n))]), (e, sign, n)
                    assert u**n == repeated_power(u, n), (e, sign, n)
        brace = zeta(m) - zeta(m, -1)
        for x in (CycNumber.zero(m), CycNumber.from_int(m, 2), 1 + zeta(m), brace * brace):
            # 1 + zeta_3 = -zeta_3**2 and {1}**2 = -1 at m = 12 are units
            assert (CycNumber._unit_exponent(x) is None) == (x.coeffs not in units), x


class TestSmallIntegerProducts:
    def test_below_the_crossover_products_loop_over_pairs(self, monkeypatch):
        import cycloknot.exactring as exactring

        calls = []
        monkeypatch.setattr(exactring, "_kronecker_mul", lambda a, b: calls.append(1) or None)
        f = LaurentPoly.make(("x", "q"), {(0, 1): 3, (2, -1): -2, (4, 0): 5})
        g = LaurentPoly.univar("q", {e: 2**70 + e for e in range((_PACK_MIN_PAIRS - 1) // 2)})
        two = LaurentPoly.univar("q", {0: 1, 3: -2})
        for a, b in ((f, f), (g, two), (two, g)):
            assert len(a.terms) * len(b.terms) < _PACK_MIN_PAIRS
            assert a * b == schoolbook_mul(a, b)
        assert not calls
        h = LaurentPoly.univar("q", {e: e + 1 for e in range(_PACK_MIN_PAIRS // 2)})
        assert h * two == schoolbook_mul(h, two)
        assert calls


def listed_terms(start, step, coeffs):
    """Labelled oracle of exactring._dense_terms: the list comprehension that
    built the terms of a dense row, a fresh key per term."""
    return tuple([((start + step * k,), c) for k, c in enumerate(coeffs) if c])


def random_rows(rng, count):
    """(start, step, coeffs) rows: negative and far starts, rows that start or
    end on either side of a key block edge, steps 1, 2 and a gcd step, runs
    of zeros, all-zero and empty rows."""
    block = exactring._KEY_BLOCK
    for i in range(count):
        step = rng.choice((1, 2, 6))
        near_edge = block * rng.randrange(-40, 40) + rng.randrange(-3, 4)
        far = rng.choice((-1, 1)) * 10**7 + rng.randrange(-3, 4)
        start = rng.choice((near_edge, rng.randrange(-500, 500), far))
        size = rng.choice((0, 1, 2, rng.randrange(3, 300)))
        if i % 3 == 0:
            # the last exponent within three of a later block edge
            edge = (start // block + rng.randrange(1, 4)) * block
            size = max(0, (edge + rng.randrange(-3, 4) - start) // step + 1)
        coeffs = [rng.choice((0, 0, 1, -1, rng.randrange(-(2**80), 2**80))) for _ in range(size)]
        if size and i % 5 == 0:
            lo = rng.randrange(size)
            coeffs[lo : lo + rng.randrange(1, 70)] = [0] * 70  # a run of zeros
            coeffs = coeffs[:size]
        if i % 17 == 0:
            coeffs = [0] * size
        yield start, step, coeffs


def shared_key(e):
    return exactring._key_block(e // exactring._KEY_BLOCK)[e % exactring._KEY_BLOCK]


class TestDenseTerms:
    """exactring._dense_terms, the one builder of univariate terms from a row."""

    def test_matches_the_list_comprehension(self):
        rng = random.Random(27)
        for start, step, coeffs in random_rows(rng, 600):
            terms = exactring._dense_terms(start, step, coeffs)
            assert terms == listed_terms(start, step, coeffs), (start, step, len(coeffs))
            assert all(type(key) is tuple and type(c) is int for key, c in terms)
            if step * (len(coeffs) - 1) < 4 * len(terms):
                assert all(key is shared_key(key[0]) for key, _ in terms)

    def test_cyclotomic_rows_drop_their_zeros(self):
        row = [zeta(5, 2), CycNumber.zero(5), zeta(5) + 1, CycNumber.zero(5)]
        assert exactring._dense_terms(-3, 2, row) == listed_terms(-3, 2, row)

    def test_far_offsets_take_blocks_by_the_count_of_terms(self):
        # a dense row reaches span / 64 + 2 blocks, and its span is below four
        # times its terms, wherever the row starts
        block = exactring._key_block
        for start in (10**7, -(10**7), 10**7 + 63, -(10**7) - 1):
            for size in (1, 2, 50, 500):
                before = block.cache_info().currsize
                terms = exactring._dense_terms(start, 2, [1] * size)
                grown = block.cache_info().currsize - before
                assert len(terms) == size
                assert grown <= 2 * (size - 1) // exactring._KEY_BLOCK + 2 <= len(terms) + 1

    def test_sparse_rows_and_operands_take_no_blocks(self):
        block = exactring._key_block
        before = block.cache_info().currsize
        row = [0] * 10**5
        row[0] = row[-1] = 7
        assert exactring._dense_terms(-(10**5), 2, row) == ((((-(10**5),), 7), ((10**5 - 2,), 7)))
        f = LaurentPoly.univar("q", {-(10**7): 1, 10**7: -1})
        g = f * LaurentPoly.univar("q", {2 * 10**7 + 2: 3})
        assert g == LaurentPoly.univar("q", {10**7 + 2: 3, 3 * 10**7 + 2: -3})
        assert 3 * f == LaurentPoly.univar("q", {-(10**7): 3, 10**7: -3})
        assert block.cache_info().currsize == before

    def test_a_shifted_dense_polynomial_takes_the_shared_keys(self):
        f = LaurentPoly.univar("q", {2 * e: e + 1 for e in range(-300, 300) if e % 7})
        for shift in (-(10**7) - 5, -1, 0, 3, 10**7):
            for c in (1, -1, 5, zeta(3) + 2):
                g = f * LaurentPoly.univar("q", {shift: c})
                oracle = tuple(((e + shift,), d * c) for (e,), d in f.terms)
                assert g.terms == oracle
                assert all(key is shared_key(key[0]) for key, _ in g.terms)


class TestIntegerInput:
    """Exponents and coordinates must be integers: none is truncated."""

    def test_fractional_exponent_is_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly.univar("q", {2.5: 1})

    def test_fractional_coordinate_is_rejected(self):
        with pytest.raises(TypeError):
            CycNumber.from_json_obj({"order": 3, "coeffs": [1.7, 2]})

    def test_fractional_order_is_rejected(self):
        with pytest.raises(TypeError):
            CycNumber.from_json_obj({"order": 3.2, "coeffs": [1, 2]})

    def test_repeated_exponent_in_json_is_rejected(self):
        obj = {"vars": ["q"], "den": 2, "terms": [[[2], 1], [[2], 4]]}
        with pytest.raises(ValueError, match="appears twice"):
            LaurentPoly.from_json_obj(obj)
        obj["terms"] = [[[2], 1], [[4], 4]]
        assert LaurentPoly.from_json_obj(obj) == LaurentPoly.univar("q", {2: 1, 4: 4})
