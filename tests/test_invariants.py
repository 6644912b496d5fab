"""Tests for the invariant computations and their relating identities."""

from __future__ import annotations

import pytest

from cycloknot.exactring import (
    CycNumber,
    InexactDivisionError,
    LaurentPoly,
    eval_at_root,
    exact_div,
    zeta,
)
from cycloknot.invariants import (
    MixedResidueError,
    _ado_columns,
    _ado_torus,
    ado,
    ado_conjectural,
    cgp_from_ado,
    cgp_torus_direct,
    cgp_zero,
    check_torus_recurrence,
    chi_st,
    colored_jones,
    colored_jones_hyper_t2,
    extract_T,
    normalized_wrt,
    verify_T_claim,
    verify_thm3,
    wrt_torus_direct,
    wrt_zero,
    wrt_zero_closed,
)
from cycloknot.knots import (
    a_at_one,
    a_at_root,
    alexander,
    double_twist,
    habiro_a,
    habiro_c,
    knot_str,
    mirror,
    torus_two_strand,
)
from cycloknot.qtools import (
    brace,
    cgp_kernel,
    pochhammer_pair,
    sigma,
    sigma_at_color,
    sigma_at_root,
    wrt_kernel,
)

K11 = double_twist(1, 1)
K41 = double_twist(-1, 1)
K21 = double_twist(2, 1)
K2M2 = double_twist(2, -2)
K22 = double_twist(2, 2)
FIVE = (K11, K41, K21, K2M2, K22)


def qp(d):
    return LaurentPoly.univar("q", {2 * e: c for e, c in d.items()})


def up(d, order=None):
    f = LaurentPoly.univar("u", {2 * e: c for e, c in d.items()})
    return f.with_order(order) if order else f


def alex_minus_x(K):
    return alexander(K).substitute("x", coeff=-1, new_var="x", exp2=2)


# Labelled oracles: the odd-point sums that the knot-free kernels ran before
# they became exponent filters of the x-exponents mod p.
def wrt_kernel_oracle(m, p):
    """sum_{n<p} {2n+1}^2 sigma_m(zeta_p^(2n+1), e_p), one point at a time."""
    total = CycNumber.zero(2 * p)
    for n in range(p):
        br = brace(2 * n + 1, p)
        total = total + br * br * sigma_at_root(m, p).evaluate({"x": zeta(p, 2 * n + 1)}).embed(2 * p)
    return total


def cgp_kernel_oracle(m, p):
    """sum_{n<p} {lambda+2n+1}^2 sigma_m(zeta_p^(2n+1) u^2, e_p), one substitution per point."""
    sig = sigma_at_root(m, p).with_order(2 * p)
    total = LaurentPoly.zero(("u",), 2 * p)
    for n in range(p):
        b = brace(2 * n + 1, p, lam_coeff=1)
        total = total + b * b * sig.substitute("x", coeff=zeta(2 * p, 2 * (2 * n + 1)), new_var="u", exp2=4)
    return total


# Labelled oracles: the per-knot loops that wrt_zero, cgp_zero and
# colored_jones ran before they became weighted sums over the knot-free
# kernels of qtools.  They take ADO (or sigma, or the Pochhammer pairs) at
# each point directly and share no helper with the kernels.
def wrt_zero_oracle(K, p):
    """sum over odd n < 2p of {n}^2 ADO_K(zeta_p^-n, e_p), ADO evaluated per point."""
    poly = ado(K, p).poly
    total = CycNumber.zero(2 * p)
    for n in range(1, 2 * p, 2):
        br = zeta(2 * p, n) - zeta(2 * p, -n)
        total = total + br * br * poly.evaluate({"x": zeta(p, -n)}).embed(2 * p)
    return total


def cgp_zero_oracle(K, p):
    """sum_m a_m(e_p) sum_n {lambda+2n+1}^2 sigma_m(zeta_p^(2n+1) u^2, e_p), per knot."""
    total = LaurentPoly.zero(("u",), 2 * p)
    for m in range(p):
        total = total + cgp_kernel_oracle(m, p) * a_at_root(K, m, p).embed(2 * p)
    return total


def colored_jones_oracle(K, N):
    """sum_{n<N} C_n(K; q) (xq; q)_n (x^-1 q; q)_n at x = q^N: the C-basis loop
    that colored_jones ran before it summed a_n against sigma_at_color."""
    total = LaurentPoly.zero(("q",))
    for n in range(N):
        total = total + habiro_c(K, n) * pochhammer_pair(n).substitute("x", new_var="q", exp2=2 * N)
    return total


# Labelled oracles: the per-term loops that wrt_torus_direct, cgp_torus_direct
# and the chi-series of ado_conjectural ran before they accumulated exponents
# and reduced once.  Each (k, n) term is a CycNumber or LaurentPoly product,
# added one at a time.
def wrt_torus_direct_oracle(t, p):
    total = CycNumber.zero(2 * p)
    for k in range(p):
        sign = -1 if k % 2 else 1
        pref = zeta(2 * p, (2 * t + 1) * k * k + (2 * t - 1) * k - 2 * (2 * t + 1) * k)
        inner = CycNumber.zero(2 * p)
        for n in range(p):
            a = zeta(2 * p, -4 * n * (t + (2 * t + 1) * k))
            b = zeta(2 * p, 2 * (2 * n + 1)) - 1
            c = 1 - zeta(2 * p, 2 * (2 * k - 4 * n - 1))
            inner = inner + a * b * c
        total = total + pref * inner * sign
    return total.exact_div(2)


def cgp_torus_direct_oracle(t, p):
    """The DoubleSum(u) numerator, one LaurentPoly product per (k, n) term."""
    total = LaurentPoly.zero(("u",), 2 * p)
    for k in range(p):
        sign = -1 if k % 2 else 1
        pref_zeta = zeta(2 * p, (2 * t + 1) * k * k + (2 * t - 1) * k - 2 * (2 * t + 1) * k)
        pref = LaurentPoly.univar("u", {-4 * (2 * t + 1) * k: pref_zeta * sign})
        inner = LaurentPoly.zero(("u",), 2 * p)
        for n in range(p):
            a = zeta(2 * p, -4 * n * (k * (2 * t + 1) + t))
            first = LaurentPoly.univar(
                "u", {4: zeta(2 * p, 2 * (2 * n + 1)), 0: CycNumber.from_int(2 * p, -1)}
            )
            second = LaurentPoly.univar(
                "u", {0: CycNumber.from_int(2 * p, 1), -8: -zeta(2 * p, 2 * (2 * k - 1 - 4 * n))}
            )
            inner = inner + first * second * a
        total = total + pref * inner
    return total


# Labelled oracle: the torus ADO sum with its Pochhammer products in full,
# as it ran before the Horner form.
def ado_torus_oracle(t, p):
    """x^(t(1-p)) zeta_p^t sum_{k<p} A(t, k) x^k (x; zeta_p)_k with every
    Pochhammer product (x; zeta_p)_k built in full."""
    one = CycNumber.from_int(p, 1)
    poch = [LaurentPoly.univar("x", {0: one})]
    for i in range(1, p):
        poch.append(poch[-1] * LaurentPoly.univar("x", {0: one, 2: -zeta(p, i)}))
    total = LaurentPoly.zero(("x",), p)
    for k, column in enumerate(_ado_columns(t, p, p)):
        total = total + column * poch[k] * LaurentPoly.univar("x", {2 * k: one})
    return total * LaurentPoly.univar("x", {2 * t * (1 - p): zeta(p, t)})


def ado_conjectural_oracle(s, t, p):
    """The chi-series closed form with the series built one added term at a time."""
    M = 4 * s * t * p
    series = LaurentPoly.zero(("x",), M)
    for l in range(2 * s * t * p + 1):
        c = chi_st(s, t, l)
        if c:
            series = series + LaurentPoly.univar("x", {l: zeta(M, l * l) * c})
    pref = LaurentPoly.univar(
        "x", {1 - (s - 1) * (t - 1) * p: zeta(M, (s * t) ** 2 - s * s - t * t)}
    )
    num = pref * LaurentPoly.univar("x", {0: 1, 2 * p: -1}) * series
    den = (
        LaurentPoly.univar("x", {0: 1, 2: -1})
        * LaurentPoly.univar("x", {0: 1, 2 * s * p: -1})
        * LaurentPoly.univar("x", {0: 1, 2 * t * p: -1})
    )
    return exact_div(num, den)


FIVE_AND_MIRRORS = FIVE + tuple(mirror(K) for K in FIVE)
JONES_KNOTS = FIVE_AND_MIRRORS + tuple(map(torus_two_strand, (1, 2, 3))) + (mirror(torus_two_strand(2)),)
KERNEL_GRID = [(K, p) for K in FIVE_AND_MIRRORS for p in (3, 5, 7)]
KERNEL_IDS = [f"{knot_str(K)}-p{p}" for K, p in KERNEL_GRID]


class TestColoredJones:
    def test_color_one_is_one(self):
        for K in FIVE + (torus_two_strand(2), mirror(torus_two_strand(2))):
            assert colored_jones(K, 1) == 1

    def test_trefoil_color_two_hand_expansion(self):
        # 1 + q (q^3; q)_1 (q^-1; q)_1, multiplied out literally
        oracle = 1 + qp({1: 1}) * (1 - qp({3: 1})) * (1 - qp({-1: 1}))
        assert oracle == qp({1: 1, 3: 1, 4: -1})
        assert colored_jones(K11, 2) == oracle

    def test_torus_habiro_matches_hypergeometric(self):
        for t in (1, 2):
            for N in range(1, 7):
                assert colored_jones(torus_two_strand(t), N) == colored_jones_hyper_t2(t, N)

    def test_hyper_color_one(self):
        for t in (1, 2, 3):
            assert colored_jones_hyper_t2(t, 1) == 1

    def test_recurrence_residual(self):
        for t, N in [(1, 3), (2, 4), (2, 3)]:
            jn = colored_jones_hyper_t2(t, N)
            jn2 = colored_jones_hyper_t2(t, N - 2)
            assert check_torus_recurrence(2, 2 * t + 1, N, jn, jn2)
            assert not check_torus_recurrence(2, 2 * t + 1, N, jn + 1, jn2)

    @pytest.mark.parametrize("K", JONES_KNOTS, ids=knot_str)
    def test_sigma_basis_matches_the_c_basis_oracle(self, K):
        for N in range(1, 9):
            assert colored_jones(K, N) == colored_jones_oracle(K, N), N

    def test_recurrence_with_habiro_values(self):
        K = torus_two_strand(1)
        assert check_torus_recurrence(
            2, 3, 3, colored_jones(K, 3), colored_jones(K, 1)
        )


class TestAdo:
    def test_p1_is_one(self):
        for K in FIVE + (torus_two_strand(2),):
            assert ado(K, 1).poly == 1

    def test_trefoil_p2(self):
        expected = LaurentPoly.univar("x", {2: -1, 0: -1, -2: -1})
        assert ado(K11, 2).poly == expected.with_order(2)
        assert ado(K11, 2).poly == alex_minus_x(K11).with_order(2)

    def test_p2_matches_alexander(self):
        for K in FIVE:
            assert ado(K, 2).poly == alex_minus_x(K).with_order(2)
        for t in range(1, 5):
            K = torus_two_strand(t)
            assert ado(K, 2).poly == alex_minus_x(K).with_order(2)
        for K in (mirror(K21), mirror(torus_two_strand(2))):
            assert ado(K, 2).poly == alex_minus_x(K).with_order(2)

    def test_double_twist_symmetry(self):
        for K in FIVE:
            a = ado(K, 5).poly
            assert a.substitute("x", new_var="x", exp2=-2) == a

    def test_mirror_is_galois(self):
        for K in (K21, torus_two_strand(2)):
            assert ado(mirror(K), 3).poly == ado(K, 3).poly.galois(2)

    def test_sigma_expansion_definition(self):
        for K, p in KERNEL_GRID:
            total = LaurentPoly.zero(("x",), p)
            for n in range(p):
                total = total + sigma_at_root(n, p) * a_at_root(K, n, p)
            assert ado(K, p).poly == total, (K, p)


@pytest.mark.parametrize("t, p", [(1, 3), (2, 5), (3, 7), (4, 11), (3, 13)])
def test_horner_torus_ado_matches_the_product_form(t, p):
    assert _ado_torus(t, p) == ado_torus_oracle(t, p)


class TestAdoConjectural:
    def test_chi_support(self):
        support = {l: chi_st(2, 3, l) for l in range(12) if chi_st(2, 3, l)}
        assert support == {1: 1, 5: -1, 7: -1, 11: 1}

    def test_matches_multisum_route(self):
        for t, p in [(1, 2), (2, 3), (1, 5)]:
            conj = ado_conjectural(2, 2 * t + 1, p).poly
            direct = ado(torus_two_strand(t), p).poly
            assert conj == direct.with_order(4 * 2 * (2 * t + 1) * p)

    @pytest.mark.parametrize("t, p", [(1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 3)])
    def test_one_call_series_matches_the_per_term_oracle(self, t, p):
        assert ado_conjectural(2, 2 * t + 1, p).poly == ado_conjectural_oracle(2, 2 * t + 1, p)

    def test_no_half_exponents_after_division(self):
        poly = ado_conjectural(2, 5, 3).poly
        assert all(e[0] % 2 == 0 for e, _ in poly.terms)


class TestWrt:
    def test_p3_value_is_minus_6(self):
        for K in FIVE:
            assert wrt_zero(K, 3) == -6
            assert wrt_zero_closed(K, 3) == -6

    def test_routes_agree(self):
        for K in (K11, K21, K2M2):
            for p in (3, 5):
                assert wrt_zero(K, p) == wrt_zero_closed(K, p)

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            wrt_zero(K11, 4)
        with pytest.raises(ValueError):
            wrt_zero_closed(K11, 4)

    def test_torus_rejected_in_double_twist_routes(self):
        with pytest.raises(ValueError):
            wrt_zero(torus_two_strand(2), 3)

    def test_normalized(self):
        value, remainder = normalized_wrt(wrt_zero(K11, 3), 3)
        assert remainder is None and value == 2  # -6 / ({1}^2 = -3)

    def test_middle_coefficients_vanish(self):
        for p in (3, 5, 7):
            for m in range((p - 1) // 2, p - 1):
                assert wrt_kernel_oracle(m, p).is_zero()


class TestKnotFreeKernels:
    @pytest.mark.parametrize("K, p", KERNEL_GRID, ids=KERNEL_IDS)
    def test_kernel_routes_match_their_oracles(self, K, p):
        assert wrt_zero(K, p) == wrt_zero_oracle(K, p)
        assert cgp_zero(K, p).numerator == cgp_zero_oracle(K, p)

    def test_sigma_at_color_is_sigma_at_x_q_to_the_N(self):
        for N in range(1, 9):
            sigmas = sigma_at_color(N)
            assert len(sigmas) == N
            for n, sig in enumerate(sigmas):
                assert sig == sigma(n).substitute("x", new_var="q", exp2=2 * N), (N, n)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_wrt_kernel_is_the_sum_over_the_odd_points(self, p):
        # the points zeta_p^-n, n odd in (0, 2p), are the zeta_p^(2n+1), n < p,
        # and the squared brace depends only on the point up to inversion
        for m in range(p):
            assert wrt_kernel(m, p) == wrt_kernel_oracle(m, p), (m, p)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_cgp_kernel_is_the_sum_over_the_odd_points(self, p):
        for m in range(p):
            assert cgp_kernel(m, p) == cgp_kernel_oracle(m, p), (m, p)

    @pytest.mark.parametrize("p", (1, 3, 5, 7, 9, 11, 13))
    def test_theorem_3_is_one_kernel_identity_per_p(self, p):
        # |e| <= m < p: below the top, only e = 0, +-1 survive, each at u^0;
        # the top sigma_{p-1} adds p (u^2p + u^-2p - 2) through e = +-(p-1)
        for m in range(p - 1):
            assert cgp_kernel(m, p) == up({0: wrt_kernel(m, p)}, 2 * p), (m, p)
        top = cgp_kernel(p - 1, p) - up({0: wrt_kernel(p - 1, p)}, 2 * p)
        assert top == up({2 * p: p, -2 * p: p, 0: -2 * p}, 2 * p)

    def test_kernels_are_memoized_and_immutable(self):
        assert cgp_kernel(2, 5) is cgp_kernel(2, 5)
        assert wrt_kernel(2, 5) is wrt_kernel(2, 5)
        assert isinstance(sigma_at_color(4), tuple)


class TestRootPowerSums:
    def test_sum_ep(self):
        # sum_n e_p^((lambda+2n+1)a) as a function of a in [-p, p]
        for p in (3, 5, 7):
            for a in range(-p, p + 1):
                total = LaurentPoly.zero(("u",), 2 * p)
                for n in range(p):
                    total = total + LaurentPoly.univar(
                        "u", {4 * a: zeta(p, (2 * n + 1) * a).embed(2 * p)}
                    )
                if a == 0:
                    assert total == up({0: p}, 2 * p)
                elif a in (p, -p):
                    assert total == up({2 * a: p}, 2 * p)
                else:
                    assert total.is_zero()

    def test_modified_dimension_brace(self):
        # {p(lambda + 2n)} = u^p - u^-p independent of n
        for p in (3, 5, 7):
            expected = up({p: 1, -p: -1}, 2 * p)
            for n in range(p):
                assert brace(2 * p * n, p, lam_coeff=p) == expected


class TestCgp:
    def test_figure_eight_p3_numerator(self):
        expected = up({6: 3, 0: -12, -6: 3}, 6)  # -6 + 3 (u^6 + u^-6 - 2)
        assert a_at_root(K41, 2, 3) == 1
        assert cgp_zero(K41, 3).numerator == expected

    def test_routes_identical(self):
        # the kernel sum against the CGP operator applied to ADO itself
        for K, p in KERNEL_GRID:
            assert cgp_zero(K, p).numerator == cgp_from_ado(K, p).numerator, (K, p)

    def test_numerator_at_u1_is_wrt(self):
        for K in FIVE:
            for p in (3, 5):
                assert cgp_zero(K, p).numerator.evaluate({"u": 1}) == wrt_zero(K, p)

    def test_even_exponents_only(self):
        num = cgp_zero(K21, 5).numerator
        assert all(e[0] % 4 == 0 for e, _ in num.terms)  # even u-exponents, doubled

    def test_thm3(self):
        for K in FIVE:
            for p in (3, 5):
                assert verify_thm3(K, p).passed

    def test_thm3_witnesses_on_failure(self):
        report = verify_thm3(torus_two_strand(3), 3, exploratory=True)
        assert not report.passed
        assert report.lhs is not None and report.rhs is not None
        blob = report.to_json_obj()
        assert blob["pass"] is False and blob["params"]["exploratory"] is True

    def test_value_at_lambda_one_third(self):
        # u = zeta_6p realizes lambda = 1/3; thm3 predicts the exact value
        res = cgp_zero(K41, 3)
        assert res.value_at(zeta(18)) == 5
        with pytest.raises(InexactDivisionError):
            res.value_at(zeta(12))  # lambda = 1/2 value is not an algebraic integer

    def test_value_at_integer_lambda_rejected(self):
        with pytest.raises(ZeroDivisionError):
            cgp_zero(K41, 3).value_at(zeta(6))


class TestTorusSurgeries:
    def test_wrt_against_definition(self):
        for t, p in [(1, 3), (2, 3), (1, 5)]:
            total = CycNumber.zero(2 * p)
            for n in range(1, 2 * p, 2):
                br = zeta(2 * p, n) - zeta(2 * p, -n)
                total = total + br * br * eval_at_root(
                    colored_jones_hyper_t2(t, n), p, 1, order=2 * p
                )
            assert wrt_torus_direct(t, p) == total

    def test_doublesum_at_one(self):
        for t, p in [(1, 3), (2, 3), (1, 5), (2, 5)]:
            res = cgp_torus_direct(t, p)
            assert res.numerator.evaluate({"u": 1}) == wrt_torus_direct(t, p) * 2

    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_exponent_sums_match_the_per_term_oracles(self, t, p):
        assert wrt_torus_direct(t, p) == wrt_torus_direct_oracle(t, p)
        numerator = cgp_torus_direct(t, p).numerator
        assert numerator.order == 2 * p
        assert numerator == cgp_torus_direct_oracle(t, p)

    def test_tags(self):
        res = cgp_torus_direct(2, 3)
        assert res.denominator_tag == "(u^p - u^-p)^2"
        assert res.numerator_prefactor_tag == "u^8"
        assert res.denominator_extra_tag == "(1 + u^-2p)"

    def test_cross_route_with_ado(self):
        # from-ado numerator * (1 + u^-2p) == u^(2(p-1)t) * DoubleSum
        for t, p in [(1, 3), (1, 5), (2, 3)]:
            res = cgp_torus_direct(t, p)
            lhs = cgp_from_ado(torus_two_strand(t), p).numerator * up({-2 * p: 1, 0: 1}, 2 * p)
            rhs = res.numerator * up({2 * (p - 1) * t: 1}, 2 * p)
            assert lhs == rhs

    def test_t_claim(self):
        for t, p in [(1, 3), (2, 3), (1, 5), (2, 5)]:
            report = verify_T_claim(t, p)
            assert report.passed
            assert report.params["residue"] == 0
            assert report.params["bare_residue"] == (2 * t) % (2 * p) or (
                report.params["bare_residue"] == 0
            )

    def test_bare_double_sum_residue_is_2t(self):
        # the un-normalized sum sits in the residue class 2t mod 2p
        res = cgp_torus_direct(1, 3)
        r, g = extract_T(res.numerator, 3)
        assert r == 2
        assert g.evaluate({"T": 1}) == wrt_torus_direct(1, 3) * 2


class TestExtractT:
    def test_examples(self):
        p = 3
        f = LaurentPoly.univar("u", {4 * p: 1, 0: 3, -4 * p: 1})
        r, g = extract_T(f, p)
        assert r == 0 and g == LaurentPoly.univar("T", {2: 1, 0: 3, -2: 1})
        f2 = LaurentPoly.univar("u", {2 * (2 * p + 1): 1, 2: 1})
        r2, g2 = extract_T(f2, p)
        assert r2 == 1 and g2 == LaurentPoly.univar("T", {2: 1, 0: 1})

    def test_mixed_residues_raise_with_exponents(self):
        with pytest.raises(MixedResidueError) as err:
            extract_T(LaurentPoly.univar("u", {2: 1, 4: 1}), 3)
        assert err.value.exponents == (1, 2)

    def test_zero_poly(self):
        r, g = extract_T(LaurentPoly.zero(("u",)), 3)
        assert r == 0 and g.is_zero()


class TestTruncationIdentity:
    def test_factorization(self):
        for K in (K11, K2M2):
            for p in (2, 3):
                for kk in (1, 2, 3):
                    total = LaurentPoly.zero(("x",), p)
                    for n in range(kk * p):
                        total = total + sigma_at_root(n, p) * a_at_root(K, n, p)
                    inner = LaurentPoly.zero(("x",), p)
                    for n in range(p):
                        inner = inner + sigma_at_root(n, p) * a_at_root(K, n, p)
                    outer = LaurentPoly.zero(("x",), p)
                    zp = (
                        LaurentPoly.univar("x", {2 * p: 1, -2 * p: 1, 0: -2}).with_order(p)
                    )
                    for k in range(kk):
                        outer = outer + zp**k * a_at_one(K, k)
                    assert total == inner * outer

    def test_alexander_inverse_series(self):
        z = LaurentPoly.univar("x", {2: 1, -2: 1, 0: -2})
        for K in FIVE:
            for p in (1, 3):
                series = LaurentPoly.zero(("x",), None if p == 1 else p)
                for k in range(5):
                    coeff = a_at_one(K, k) if p == 1 else a_at_root(K, k * p, p)
                    zz = z if p == 1 else z.with_order(p)
                    series = series + zz**k * coeff
                resid = alexander(K) * series - 1
                if not resid.is_zero():
                    exact_div(resid, z**5)  # raises if not divisible
