"""Tests for knot descriptors, Alexander polynomials and Habiro coefficients."""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import cycloknot
from cycloknot import invariants, knots
from cycloknot.exactring import CycNumber, LaurentPoly, eval_at_root, exact_div
from cycloknot.knots import (
    DoubleTwist,
    KnotParseError,
    Mirror,
    TorusTwoStrand,
    a_at_one,
    a_at_root,
    a_minus_one_closed,
    a_one_closed,
    alexander,
    double_twist,
    habiro_a,
    habiro_c,
    habiro_from_jones,
    knot_str,
    mirror,
    parse_knot,
    t25_a_mp_closed,
    t25_a_p_closed,
    t25_closed_forms,
    torus_two_strand,
)
from cycloknot.qtools import qbinomial

import chain_oracle
from chain_oracle import chains_bounded, chains_fixed_top

K11 = double_twist(1, 1)
K41 = double_twist(-1, 1)
K21 = double_twist(2, 1)
K2M2 = double_twist(2, -2)
K22 = double_twist(2, 2)
FIVE = (K11, K41, K21, K2M2, K22)


def qp(d):
    return LaurentPoly.univar("q", {2 * e: c for e, c in d.items()})


class TestKnotSpec:
    def test_symmetry_normalization(self):
        assert double_twist(2, 1) == double_twist(1, 2)
        assert double_twist(2, -2) == double_twist(-2, 2) == DoubleTwist(-2, 2)

    def test_both_negative_becomes_mirror(self):
        assert double_twist(-1, -2) == Mirror(DoubleTwist(1, 2))

    def test_mirror_involution(self):
        assert mirror(mirror(K21)) == K21
        assert mirror(torus_two_strand(2)) == Mirror(TorusTwoStrand(2))

    def test_rejects_zero_twists(self):
        with pytest.raises(ValueError):
            double_twist(0, 3)

    def test_parse_and_format(self):
        for text in ("dt:1,1", "dt:-2,2", "t2:3", "!t2:2", "!dt:1,2"):
            assert knot_str(parse_knot(text)) == text
        assert parse_knot("dt:2,-2") == K2M2
        assert parse_knot("dt:2,1") == K21

    def test_parse_errors_name_grammar(self):
        for bad in ("dt:1", "t2:-1", "torus:2", "dt:0,1", "!!t2:1", "dt:1,2,3"):
            with pytest.raises(KnotParseError) as err:
                parse_knot(bad)
            assert "dt:L,M" in str(err.value)


class TestChains:
    def test_fixed_top(self):
        assert list(chains_fixed_top(1, 3)) == [(3,)]
        assert list(chains_fixed_top(2, 2)) == [(0, 2), (1, 2), (2, 2)]
        assert list(chains_fixed_top(2, 2, low=1)) == [(1, 2), (2, 2)]
        assert list(chains_fixed_top(2, -1)) == []

    def test_bounded(self):
        assert list(chains_bounded(2, 1)) == [(0, 0), (0, 1), (1, 1)]

    def test_lexicographic_order(self):
        chains = list(chains_fixed_top(3, 2))
        assert chains == sorted(chains)


# Each library multi-sum next to its chain-by-chain oracle, on the grid it is
# compared over: (library call, oracle call, parameter tuples).
_TRANSFER_SITES = {
    "chain_sum_plus": (
        lambda length, n: knots._chain_column(knots._TWIST_PLUS, None, length, n),
        chain_oracle.chain_sum_plus,
        [(length, n) for length in range(1, 7) for n in range(5)],
    ),
    "chain_sum_minus": (
        lambda length, n: knots._chain_column(knots._TWIST_MINUS, None, length, n),
        chain_oracle.chain_sum_minus,
        [(length, n) for length in range(1, 7) for n in range(5)],
    ),
    "mirror_torus_a": (
        lambda t, n: habiro_a(parse_knot(f"!t2:{t}"), n),
        chain_oracle.mirror_torus_a,
        [(t, n) for t in range(1, 7) for n in range(7)],
    ),
    "torus_a": (
        lambda t, n: habiro_a(torus_two_strand(t), n),
        lambda t, n: chain_oracle.mirror_torus_a(t, n).substitute("q", new_var="q", exp2=-2),
        [(4, n) for n in range(7)],
    ),
    "colored_jones_hyper_t2": (
        invariants.colored_jones_hyper_t2,
        chain_oracle.colored_jones_hyper_t2,
        [(t, N) for t in range(1, 4) for N in range(1, 6)],
    ),
    "ado_torus": (
        invariants._ado_torus,
        chain_oracle.ado_torus,
        [(t, p) for t in range(1, 4) for p in range(1, 8)],
    ),
    "andrews_side": (
        lambda t, p, top: knots._chain_column(knots._TORUS_ADO, p, t, top),
        chain_oracle.andrews_side,
        [(t, p, top) for t in range(1, 4) for p in range(1, 6) for top in range(2 * p)],
    ),
}


@pytest.mark.parametrize("site", sorted(_TRANSFER_SITES))
def test_transfer_kernel_matches_enumeration(site):
    library, oracle, grid = _TRANSFER_SITES[site]
    for args in grid:
        assert library(*args) == oracle(*args), (site, args)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_column_at_root_is_the_generic_column_at_the_root(p):
    # the twist columns over Z[zeta_p] are constant in x and equal the
    # generic columns evaluated at e_p, so a_n(e_p) can be read from them
    for link in (knots._TWIST_PLUS, knots._TWIST_MINUS):
        for length in range(1, 6):
            for n in range(2 * p):
                generic = eval_at_root(knots._chain_column(link, None, length, n), p)
                expected = LaurentPoly.univar("x", {0: generic}, p)
                assert knots._chain_column(link, p, length, n) == expected, (link, length, n)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
def test_mirror_torus_at_root_is_the_oracle_at_the_root(p):
    # the (k, P) columns over Z[zeta_p] hold the chain-by-chain columns'
    # values at e_p (a prefix whose binomials all vanish there is left out),
    # and their sum is the chain-by-chain oracle evaluated at e_p
    for t in range(1, 6):
        for n in range(7):
            expected = eval_at_root(chain_oracle.mirror_torus_a(t, n), p)
            assert knots._mirror_torus_a(t, n, p) == expected, (t, n)
    for i in range(1, 5):
        for k in range(1, 7):
            at_root = knots._torus_column(p, i, k)
            oracle = chain_oracle.torus_column(i, k)
            assert set(at_root) <= set(oracle), (i, k)
            for prefix, value in oracle.items():
                assert at_root.get(prefix, 0) == eval_at_root(value, p), (i, k, prefix)


@pytest.mark.parametrize("width", [0, 1, 7])
def test_shift_add_qbinomials_are_the_qbinomials_at_a_power_of_two(width):
    # the q-Pascal table read at q = 2^width, also outside 0 <= b <= a;
    # width 0 gives the ordinary binomials
    binom = knots._qbinomials_at(width, [40] * 41)
    for a in range(41):
        for b in range(-2, a + 3):
            expected = sum(c << width * (e // 2) for (e,), c in qbinomial(a, b).terms)
            assert binom(a, b) == expected, (a, b)


def test_torus_at_large_t_is_the_root_route_at_the_root():
    # 400 levels at generic q, through the integer point, against the
    # Z[zeta_p] columns of a_at_root
    K = torus_two_strand(400)
    a = habiro_a(K, 1)
    for p in (2, 3):
        assert eval_at_root(a, p) == a_at_root(K, 1, p), p


def test_one_digit_chain_sums():
    # t = 1 has no link and n = 0 one chain, so the chain sum is a monomial
    # with value 1 at q = 1, read as a single digit of width 1
    for n in range(6):
        assert habiro_a(parse_knot("!t2:1"), n) == qp({n * (n + 3) // 2: -1 if n % 2 else 1}), n
    for t in range(1, 8):
        assert knots._torus_chain_value(t, 1, 0) == 1, t
        assert habiro_a(parse_knot(f"!t2:{t}"), 0) == 1, t
        assert habiro_a(torus_two_strand(t), 0) == 1, t


# Oracle: the generic route, eval_at_root(habiro_a(K, n), p), for a_at_root,
# which never builds a polynomial in q.  Every shape and sign pattern at every
# p; the longer chains only up to p = 7, where the generic route is still quick.
_AT_ROOT_KNOTS = ("dt:1,2", "dt:-1,2", "!dt:2,1", "t2:2", "!t2:2")
_AT_ROOT_LONGER = ("dt:2,-2", "dt:-2,3", "!dt:-1,3", "t2:3", "!t2:3")


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 13])
def test_a_at_root_matches_the_generic_route_oracle(p):
    for spec in _AT_ROOT_KNOTS + (_AT_ROOT_LONGER if p <= 7 else ()):
        K = parse_knot(spec)
        for n in range(2 * p if "t2:" in spec else 4 * p):
            assert a_at_root(K, n, p) == eval_at_root(habiro_a(K, n), p), (spec, n)


def test_a_at_root_builds_no_generic_coefficient(monkeypatch):
    # the at-root route reads only Z[zeta_p] columns: no habiro_a entry and no
    # column call with the generic ring None
    cycloknot.clear_caches()
    rings = []

    def record(column, ring_slot):
        def wrapper(*args):
            rings.append(args[ring_slot])
            return column(*args)

        return wrapper

    monkeypatch.setattr(knots, "_chain_column", record(knots._chain_column, 1))
    monkeypatch.setattr(knots, "_torus_column", record(knots._torus_column, 0))
    a_at_root(parse_knot("dt:-2,3"), 40, 13)
    a_at_root(parse_knot("!t2:3"), 20, 13)
    assert habiro_a.cache_info().currsize == 0
    assert rings and set(rings) == {13}


# The knots of the habiro-generic benchmark workload, with the mirrors of its
# torus slots.
_GENERIC_KNOTS = ("dt:2,2", "dt:-2,3", "dt:3,3", "t2:4", "!t2:4", "!t2:5", "t2:5")


def _memoized_functions() -> dict:
    found = {}
    for info in pkgutil.iter_modules(cycloknot.__path__, cycloknot.__name__ + "."):
        for obj in vars(importlib.import_module(info.name)).values():
            if hasattr(obj, "cache_info"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


class TestSharedColumns:
    """The chain sums share memoized columns across every top n."""

    def test_order_of_n_does_not_change_values(self):
        knots_ = [parse_knot(spec) for spec in _GENERIC_KNOTS]
        cycloknot.clear_caches()
        down = {(K, n): habiro_a(K, n) for K in knots_ for n in range(8, -1, -1)}
        cycloknot.clear_caches()
        up = {(K, n): habiro_a(K, n) for K in reversed(knots_) for n in range(9)}
        assert down == up

    def test_chains_deeper_than_the_recursion_limit(self):
        length = 1100
        assert length > sys.getrecursionlimit()
        plus = knots._chain_column(knots._TWIST_PLUS, None, length, 1)
        minus = knots._chain_column(knots._TWIST_MINUS, None, length, 1)
        assert plus == LaurentPoly.univar("q", {4 * m: 1 for m in range(length)})
        assert minus == LaurentPoly.univar("q", {-4 * m: 1 for m in range(length)})
        at_root = knots._chain_column(knots._TWIST_PLUS, 3, length, 1)
        total = CycNumber.from_powers(3, ((2 * m, 1) for m in range(length)))
        assert at_root == LaurentPoly.univar("x", {0: total}, 3)
        for spec in (f"t2:{length}", f"dt:1,{length}", f"dt:-{length},1"):
            assert habiro_a(parse_knot(spec), 0) == 1, spec

    def test_clear_caches_empties_every_cache(self):
        grid = [(parse_knot(spec), n) for spec in ("dt:2,2", "dt:-2,3", "t2:3", "!t2:4") for n in range(6)]
        before = [habiro_a(K, n) for K, n in grid]
        caches = _memoized_functions()
        names = (
            "knots.habiro_a", "knots.a_at_root", "knots._chain_column", "knots._torus_column",
            "qtools.qbinomial", "qtools._qbinomial_residue",
        )
        assert {f"cycloknot.{name}" for name in names} <= set(caches)
        cycloknot.clear_caches()
        assert {name: fn.cache_info().currsize for name, fn in caches.items()} == dict.fromkeys(caches, 0)
        assert [habiro_a(K, n) for K, n in grid] == before


class TestHabiroGoldens:
    def test_trefoil_family_closed_form(self):
        for n in range(21):
            sign = -1 if n % 2 else 1
            assert habiro_a(K11, n) == qp({n * (n + 3) // 2: sign})
            assert habiro_c(K11, n) == qp({n: 1})

    def test_figure_eight_constant(self):
        for n in range(21):
            assert habiro_a(K41, n) == 1

    def test_a0_is_one_for_every_knot(self):
        for K in FIVE + (torus_two_strand(1), torus_two_strand(3), mirror(torus_two_strand(2)), mirror(K21)):
            assert habiro_a(K, 0) == 1

    def test_a_c_relation(self):
        for K in FIVE + (torus_two_strand(2), mirror(torus_two_strand(2))):
            for n in range(13):
                sign = -1 if n % 2 else 1
                assert habiro_a(K, n) == qp({n * (n + 1) // 2: sign}) * habiro_c(K, n)

    def test_chirality_match_with_mirror_torus(self):
        barT23 = mirror(torus_two_strand(1))
        for n in range(11):
            assert habiro_a(K11, n) == habiro_a(barT23, n)

    def test_mirror_inverts_q(self):
        for K in (K21, K2M2):
            for n in range(6):
                assert habiro_a(mirror(K), n) == habiro_a(K, n).substitute(
                    "q", new_var="q", exp2=-2
                )

    def test_enumeration_order_independence(self):
        # re-derive C_n for K(2,1) summing chains in reversed order
        for n in range(6):
            total = LaurentPoly.zero(("q",))
            for chain in reversed(list(chains_fixed_top(2, n))):
                s1 = chain[0]
                total = total + qp({s1 * (s1 + 1): 1}) * qbinomial(n, s1)
            assert habiro_c(K21, n) == qp({n: 1}) * total

    def test_unsupported_spec_rejected(self):
        with pytest.raises(ValueError):
            habiro_a("not-a-knot", 0)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            habiro_a(K11, -1)


class TestAlexander:
    def test_double_twist_examples(self):
        assert alexander(K11) == LaurentPoly.univar("x", {2: 1, 0: -1, -2: 1})
        assert alexander(K41) == LaurentPoly.univar("x", {2: -1, 0: 3, -2: -1})

    def test_torus_division_oracle(self):
        # x^-1 (1 + x^3) / (1 + x), divided out literally
        num = LaurentPoly.univar("x", {-2: 1, 4: 1})
        den = LaurentPoly.univar("x", {0: 1, 2: 1})
        oracle = exact_div(num, den)
        assert oracle == LaurentPoly.univar("x", {-2: 1, 0: -1, 2: 1})
        assert alexander(torus_two_strand(1)) == oracle

    def test_normalization_and_symmetry(self):
        for K in FIVE + (torus_two_strand(2), torus_two_strand(4), mirror(K2M2)):
            d = alexander(K)
            assert d.evaluate({"x": 1}) == 1
            assert d.substitute("x", new_var="x", exp2=-2) == d

    def test_mirror_invariance(self):
        assert alexander(mirror(K21)) == alexander(K21)


class TestInversion:
    def test_c0_is_one(self):
        from cycloknot.invariants import colored_jones

        for K in (K11, K21):
            assert habiro_from_jones([colored_jones(K, 1)], 0) == 1

    def test_trefoil_c1(self):
        from cycloknot.invariants import colored_jones

        evals = [colored_jones(K11, 1), colored_jones(K11, 2)]
        assert habiro_from_jones(evals, 1) == qp({1: 1})
        assert habiro_a(K11, 1) == qp({2: -1})

    def test_matches_chain_sums(self):
        from cycloknot.invariants import colored_jones

        for K in (K2M2, K22):
            evals = [colored_jones(K, l) for l in range(1, 6)]
            for n in range(5):
                assert habiro_from_jones(evals[: n + 1], n) == habiro_c(K, n)

    def test_inconsistent_evaluations_detected(self):
        from cycloknot.exactring import InexactDivisionError
        from cycloknot.invariants import colored_jones

        evals = [colored_jones(K11, 1), colored_jones(K11, 2) + 1]
        with pytest.raises(InexactDivisionError):
            habiro_from_jones(evals, 1)


class TestEvaluations:
    def test_a_at_one(self):
        for k in range(8):
            assert a_at_one(K11, k) == (-1) ** k
            assert a_at_one(K41, k) == 1

    def test_a_at_root_example(self):
        assert a_at_root(K11, 1, 2) == -1

    def test_periodicity_sample(self):
        for K in (K21, K2M2):
            for p in (2, 3):
                for n in range(p):
                    for k in range(3):
                        assert a_at_root(K, n + k * p, p) == a_at_root(K, n, p) * a_at_one(K, k)


class TestT25ClosedForms:
    def test_a_p_at_3(self):
        assert t25_a_p_closed(3) == -3
        assert a_at_root(mirror(torus_two_strand(2)), 3, 3) == -3

    def test_a_one_closed(self):
        K = mirror(torus_two_strand(2))
        assert a_one_closed(1) == 1
        for k in range(8):
            assert a_one_closed(k + 1) == a_at_one(K, k)

    def test_a_minus_one_closed(self):
        K = mirror(torus_two_strand(2))
        for m in range(5):
            assert a_minus_one_closed(m) == eval_at_root(habiro_a(K, 2 * m), 2).as_int()

    def test_eq25(self):
        for p in (3, 5, 7):
            for m in range(5):
                rhs = CycNumber.from_int(p, a_minus_one_closed(m))
                if m >= 1:
                    rhs = rhs + a_one_closed(m) * (t25_a_p_closed(p) + 2)
                assert t25_a_mp_closed(m, p) == rhs

    def test_closed_matches_direct_evaluation(self):
        K = mirror(torus_two_strand(2))
        for m, p in [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (1, 7)]:
            assert t25_a_mp_closed(m, p) == a_at_root(K, m * p, p)

    def test_combined_accessor(self):
        forms = t25_closed_forms(3, 2)
        assert forms["a_p"] == t25_a_p_closed(3)
        assert forms["a_mp"] == t25_a_mp_closed(2, 3)

    def test_requires_odd_p(self):
        with pytest.raises(ValueError):
            t25_a_p_closed(4)
