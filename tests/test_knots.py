"""Tests for knot descriptors, Alexander polynomials and Habiro coefficients."""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import cycloknot
from cycloknot import invariants, knots
from cycloknot.exactring import CycNumber, LaurentPoly, _digit_width, eval_at_root, exact_div
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


def _double_twist_a_oracle(l: int, m: int, n: int, mirrored: bool) -> LaurentPoly:
    """a_n = (-1)^n q^(n(n+1)/2) C_n of K(l, m), or of its mirror, from the
    chain-by-chain twist sums: C_n = q^n P_l P_m for l > 0 and
    (-1)^n q^(-n(n+1)/2) P_m M_-l for l < 0."""
    sign = -1 if n % 2 else 1
    plus = chain_oracle.chain_sum_plus(m, n)
    if l > 0:
        c = qp({n: 1}) * chain_oracle.chain_sum_plus(l, n) * plus
    else:
        c = qp({-n * (n + 1) // 2: sign}) * plus * chain_oracle.chain_sum_minus(-l, n)
    a = qp({n * (n + 1) // 2: sign}) * c
    return a.substitute("q", new_var="q", exp2=-2) if mirrored else a


# The twist link weights q^(a k^2 + b k + c k n) [n; k] of the two box signs,
# as (a, b, c): q^(k(k+1)) for positive boxes, q^(-k(n+1)) for negative ones.
# The library keeps only the positive column; these keep the oracle apart
# from it.
_PLUS = (1, 1, 0)
_MINUS = (0, -1, -1)


def _generic_columns(link: tuple[int, int, int], length: int, top: int) -> list[LaurentPoly]:
    """Labelled oracle of habiro_a's integer route: the generic twist columns
    [C(length, n) for n <= top] of the link weight q^(a k^2 + b k + c k n) [n; k]
    named by link = (a, b, c), from knots._chain_levels."""
    a, b, c = link
    return knots._chain_levels(
        length, [qp({0: 1})] * (top + 1), lambda k, n: (2 * k * (a * k + b + c * n), qbinomial(n, k))
    )


# Each library multi-sum next to its chain-by-chain oracle, on the grid it is
# compared over: (library call, oracle call, parameter tuples).
_TRANSFER_SITES = {
    "chain_sum_plus": (
        lambda length, n: _generic_columns(_PLUS, length, n)[n],
        chain_oracle.chain_sum_plus,
        [(length, n) for length in range(1, 7) for n in range(5)],
    ),
    "chain_sum_minus": (
        lambda length, n: _generic_columns(_MINUS, length, n)[n],
        chain_oracle.chain_sum_minus,
        [(length, n) for length in range(1, 7) for n in range(5)],
    ),
    "double_twist_a": (
        lambda l, m, n, mirrored: habiro_a(Mirror(DoubleTwist(l, m)) if mirrored else DoubleTwist(l, m), n),
        _double_twist_a_oracle,
        [
            (l, m, n, mirrored)
            for l in (-3, -2, -1, 1, 2, 3)
            for m in range(max(l, 1), 5)
            for n in range(7)
            for mirrored in (False, True)
        ],
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
        lambda t, p, top: invariants._ado_columns(t, p, 2 * p)[top],
        chain_oracle.andrews_side,
        [(t, p, top) for t in range(1, 4) for p in range(1, 6) for top in range(2 * p)],
    ),
}


@pytest.mark.parametrize("site", sorted(_TRANSFER_SITES))
def test_transfer_kernel_matches_enumeration(site):
    library, oracle, grid = _TRANSFER_SITES[site]
    for args in grid:
        assert library(*args) == oracle(*args), (site, args)


def test_negative_twist_sum_is_the_positive_one_at_the_inverse_of_q():
    # [n; k] at 1/q is q^(-k(n-k)) [n; k], so the negative link weight
    # q^(-k(n+1)) [n; k] is the positive one, q^(k(k+1)) [n; k], at 1/q: the
    # identity by which the library keeps one twist column
    for length in range(1, 7):
        for n in range(7):
            plus = chain_oracle.chain_sum_plus(length, n)
            inverted = plus.substitute("q", new_var="q", exp2=-2)
            assert chain_oracle.chain_sum_minus(length, n) == inverted, (length, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_column_at_root_is_the_generic_column_at_the_root(p):
    # the twist column over Z[zeta_p] equals the generic positive column
    # evaluated at e_p, and its Galois image zeta -> 1/zeta the negative
    # one, so a_n(e_p) can be read from it for either sign
    for link, galois in ((_PLUS, 1), (_MINUS, -1)):
        for length in range(1, 6):
            generic = _generic_columns(link, length, 2 * p - 1)
            for n in range(2 * p):
                expected = eval_at_root(generic[n], p)
                at_root = knots._chain_column(knots._twist_link, p, length, n)[0].galois(galois)
                assert at_root == expected, (link, length, n)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
def test_mirror_torus_at_root_is_the_oracle_at_the_root(p):
    # the (k, P) columns of the mirror torus rule over Z[zeta_p] hold the
    # chain-by-chain columns' values at e_p (a prefix whose binomials all
    # vanish there is left out), and their sum is the chain-by-chain oracle
    # evaluated at e_p
    for t in range(1, 6):
        for n in range(7):
            expected = eval_at_root(chain_oracle.mirror_torus_a(t, n), p)
            assert knots._mirror_torus_a(t, n, p) == expected, (t, n)
    for i in range(1, 5):
        for k in range(1, 7):
            at_root = knots._chain_column(knots._torus_link, p, i, k)
            oracle = chain_oracle.torus_column(i, k)
            assert set(at_root) <= set(oracle), (i, k)
            for prefix, value in oracle.items():
                assert at_root.get(prefix, 0) == eval_at_root(value, p), (i, k, prefix)


@pytest.mark.parametrize("width", [0, 1, 7])
def test_shift_add_qbinomials_are_the_qbinomials_at_a_power_of_two(width):
    # the q-Pascal table read at q = 2^width: row b holds [a; b] at a - b;
    # width 0 gives the ordinary binomials
    rows = list(knots._qbinomial_rows(width, [40] * 41))
    for a in range(41):
        for b in range(a + 1):
            expected = sum(c << width * (e // 2) for (e,), c in qbinomial(a, b).terms)
            assert rows[b][a - b] == expected, (a, b)


def test_torus_at_large_t_is_the_root_route_at_the_root():
    # 400 levels at generic q, through the integer point, against the
    # Z[zeta_p] columns of a_at_root
    K = torus_two_strand(400)
    a = habiro_a(K, 1)
    for p in (2, 3):
        assert eval_at_root(a, p) == a_at_root(K, 1, p), p


def _column_product_a(knot: DoubleTwist, n: int) -> LaurentPoly:
    """Labelled oracle for habiro_a on a double twist knot: a_n as the
    product of the generic twist columns of _generic_columns, the
    polynomial route that the integer route replaced."""
    sign = -1 if n % 2 else 1
    plus = _generic_columns(_PLUS, knot.m, n)[n]
    if knot.l > 0:
        return qp({n * (n + 3) // 2: sign}) * _generic_columns(_PLUS, knot.l, n)[n] * plus
    return plus * _generic_columns(_MINUS, -knot.l, n)[n]


@pytest.mark.parametrize("spec", ["dt:2,2", "dt:-2,3"])
def test_double_twist_a_is_the_column_product_at_every_digit_width(spec):
    # the integer route reads whole-byte digits up to 64 bits in C, those of
    # 3 and 7 bytes through 8-byte slots, and slices the widths past 64
    # bits; n = 36 and 40 have coefficients past 2^64
    K = parse_knot(spec)
    widths = set()
    for n in (3, 4, 8, 12, 20, 24, 28, 36, 40):
        widths.add(_digit_width(knots._double_twist_value(K.l, K.m, n, 0).bit_length()))
        a = habiro_a(K, n)
        assert a == _column_product_a(K, n), (spec, n)
    assert {8, 16, 24, 32, 56, 64} < widths and max(widths) > 64, widths
    assert max(abs(c) for _, c in a.terms) > 2**64


def test_one_digit_chain_sums():
    # t = 1 has no link and n = 0 one chain, so the chain sum is a monomial
    # with value 1 at q = 1, read as a single digit
    for n in range(6):
        assert habiro_a(parse_knot("!t2:1"), n) == qp({n * (n + 3) // 2: -1 if n % 2 else 1}), n
    for t in range(1, 8):
        assert knots._torus_chain_value(t, 1, 0) == 1, t
        assert habiro_a(parse_knot(f"!t2:{t}"), 0) == 1, t
        assert habiro_a(torus_two_strand(t), 0) == 1, t


# Oracle: the chain sums run at width 0, that is at q = 1, for the closed
# forms of S(1) that the integer routes read their digit width off.
def test_twist_sum_at_one_is_the_binomial_theorem_form():
    # l <= m, as in the canonical K(l, m)
    for l in (-4, -3, -2, -1, 1, 2, 3, 4):
        for m in range(max(1, l), 5):
            for n in range(13):
                assert knots._double_twist_value(l, m, n, 0) == (abs(l) * m) ** n, (l, m, n)


def test_torus_sum_at_one_is_the_alexander_recurrence():
    for t in range(1, 9):
        for n in range(13):
            assert knots._torus_at_one(t, n) == knots._torus_chain_value(t, n + 1, 0), (t, n)


_SHAPES = ("dt:2,3", "dt:-2,3", "!dt:2,3", "!dt:-2,3", "t2:3", "!t2:3")


@pytest.mark.parametrize("spec", _SHAPES)
def test_an_s1_one_too_small_makes_the_read_raise(monkeypatch, spec):
    # the digits of S(2^W) sum to the true S(1), so the read refuses them
    real = knots.nonnegative_digits
    monkeypatch.setattr(knots, "nonnegative_digits", lambda value_at, at_one: real(value_at, at_one - 1))
    cycloknot.clear_caches()
    with pytest.raises(ArithmeticError):
        habiro_a(parse_knot(spec), 4)


def test_the_generic_route_makes_no_substitution(monkeypatch):
    # every shape is read off its integer, the images under q -> 1/q (torus
    # knots and mirrored double twist knots) by reading its digits from the top
    calls = []
    real = LaurentPoly.substitute

    def record(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(LaurentPoly, "substitute", record)
    cycloknot.clear_caches()
    for spec in _SHAPES:
        for n in range(6):
            habiro_a(parse_knot(spec), n)
    assert calls == []


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
    # the at-root route reads only Z[zeta_p] columns of the order asked for,
    # and makes no habiro_a entry
    cycloknot.clear_caches()
    rings = []

    def record(column, ring_slot):
        def wrapper(*args):
            rings.append(args[ring_slot])
            return column(*args)

        return wrapper

    monkeypatch.setattr(knots, "_chain_column", record(knots._chain_column, 1))
    a_at_root(parse_knot("dt:-2,3"), 40, 13)
    a_at_root(parse_knot("!t2:3"), 20, 13)
    assert habiro_a.cache_info().currsize == 0
    assert qbinomial.cache_info().currsize == 0
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
        plus = _generic_columns(_PLUS, length, 1)[1]
        minus = _generic_columns(_MINUS, length, 1)[1]
        assert plus == LaurentPoly.univar("q", {4 * m: 1 for m in range(length)})
        assert minus == LaurentPoly.univar("q", {-4 * m: 1 for m in range(length)})
        at_root = knots._chain_column(knots._twist_link, 3, length, 1)[0]
        assert at_root == CycNumber.from_powers(3, ((2 * m, 1) for m in range(length)))
        for spec in (f"t2:{length}", f"dt:1,{length}", f"dt:-{length},1"):
            assert habiro_a(parse_knot(spec), 0) == 1, spec
            assert a_at_root(parse_knot(spec), 0, 3) == 1, spec

    def test_clear_caches_empties_every_cache(self):
        grid = [(parse_knot(spec), n) for spec in ("dt:2,2", "dt:-2,3", "t2:3", "!t2:4") for n in range(6)]
        before = [habiro_a(K, n) for K, n in grid]
        caches = _memoized_functions()
        names = (
            "knots.habiro_a", "knots.a_at_root", "knots._chain_column",
            "qtools.qbinomial", "qtools._qbinomial_residue", "exactring._key_block",
        )
        assert {f"cycloknot.{name}" for name in names} <= set(caches)
        cycloknot.clear_caches()
        assert {name: fn.cache_info().currsize for name, fn in caches.items()} == dict.fromkeys(caches, 0)
        assert [habiro_a(K, n) for K, n in grid] == before


def test_cached_coefficients_share_their_exponent_keys():
    # the read off and the monomial shift of habiro_a both take the shared
    # keys, so across the memoized a_n each exponent is one object
    cycloknot.clear_caches()
    keys = [key for n in range(21) for key, _ in habiro_a(K22, n).terms]
    by_exponent: dict[tuple[int], set[int]] = {}
    for key in keys:
        by_exponent.setdefault(key, set()).add(id(key))
    assert len(keys) > len(by_exponent) > 1000
    assert all(len(ids) == 1 for ids in by_exponent.values())


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
        for K in (K21, K2M2, double_twist(-2, 3), torus_two_strand(2), torus_two_strand(3)):
            for n in range(6):
                assert habiro_a(mirror(K), n) == habiro_a(K, n).substitute(
                    "q", new_var="q", exp2=-2
                )
        # both directions of the read from the top, which verify does not
        # run: the mirrors of a double twist and of a torus knot, and the
        # images that read their own digits in order
        for spec in ("!dt:2,3", "dt:-2,3", "t2:4", "!t2:5"):
            K = parse_knot(spec)
            for n in range(13):
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
