"""Value semantics of the package's immutable types.

CycNumber and LaurentPoly (exactring), the knot specs (knots) and the result
records (invariants) all derive from exactring.Frozen: their fields cannot be
assigned or deleted, they compare and hash field by field unless they define
their own equality, and their repr names every field.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from cycloknot.exactring import CycNumber, Frozen, LaurentPoly, zeta
from cycloknot.invariants import AdoPoly, CgpResult, InvariantReport
from cycloknot.knots import DoubleTwist, Mirror, TorusTwoStrand

X = LaurentPoly.univar("x", {2: 1, 0: -3})
U = LaurentPoly.univar("u", {4: zeta(6)}, 6)

VALUES = [
    zeta(5, 2),
    X,
    DoubleTwist(2, 3),
    TorusTwoStrand(3),
    Mirror(DoubleTwist(-1, 2)),
    AdoPoly(DoubleTwist(1, 1), 3, X),
    CgpResult(TorusTwoStrand(2), 3, U, numerator_prefactor_tag="u^8"),
    InvariantReport("demo", {"p": 3}, False, zeta(3), None),
]


def test_every_value_type_is_covered():
    package = {cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("cycloknot.")}
    assert {type(v) for v in VALUES} == package and len(package) == 8


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
class TestImmutable:
    def test_fields_cannot_be_assigned(self, value):
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_fields_cannot_be_deleted(self, value):
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                delattr(value, name)
            getattr(value, name)

    def test_copy_and_pickle_rebuild_an_equal_value(self, value):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value


class TestKnotSpecs:
    def test_equal_specs_are_equal_and_hash_alike(self):
        pairs = [
            (DoubleTwist(2, 3), DoubleTwist(2, 3)),
            (TorusTwoStrand(4), TorusTwoStrand(4)),
            (Mirror(TorusTwoStrand(4)), Mirror(TorusTwoStrand(4))),
        ]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
        assert len({a for pair in pairs for a in pair}) == 3
        assert DoubleTwist(2, 3) != DoubleTwist(2, 4)
        assert Mirror(DoubleTwist(1, 1)) != Mirror(DoubleTwist(1, 2))

    def test_specs_of_different_classes_are_never_equal(self):
        class Twin(Frozen):
            __slots__ = ("t",)

            def __init__(self, t):
                object.__setattr__(self, "t", t)

        specs = [DoubleTwist(1, 1), TorusTwoStrand(1), Mirror(TorusTwoStrand(1)), Twin(1), (1,), 1]
        for i, a in enumerate(specs):
            for j, b in enumerate(specs):
                assert (a == b) == (i == j)

    def test_repr_names_every_field(self):
        assert repr(DoubleTwist(2, 2)) == "DoubleTwist(l=2, m=2)"
        assert repr(TorusTwoStrand(3)) == "TorusTwoStrand(t=3)"
        assert repr(Mirror(TorusTwoStrand(3))) == "Mirror(inner=TorusTwoStrand(t=3))"
        assert repr(Mirror(DoubleTwist(-1, 2))) == "Mirror(inner=DoubleTwist(l=-1, m=2))"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DoubleTwist(0, 1),
            lambda: DoubleTwist(1, 0),
            lambda: DoubleTwist(2, 1),
            lambda: DoubleTwist(-2, -1),
            lambda: TorusTwoStrand(0),
            lambda: Mirror(Mirror(TorusTwoStrand(1))),
        ],
    )
    def test_invalid_specs_raise(self, build):
        with pytest.raises(ValueError):
            build()


class TestResultRecords:
    def test_records_compare_field_by_field(self):
        assert AdoPoly(DoubleTwist(1, 1), 3, X) == AdoPoly(DoubleTwist(1, 1), 3, X + 0)
        assert AdoPoly(DoubleTwist(1, 1), 3, X) != AdoPoly(DoubleTwist(1, 1), 5, X)
        assert AdoPoly(None, 3, X) != AdoPoly(DoubleTwist(1, 1), 3, X)
        cgp = CgpResult(TorusTwoStrand(2), 3, U)
        assert cgp == CgpResult(TorusTwoStrand(2), 3, U, "(u^p - u^-p)^2", None, None)
        assert cgp != CgpResult(TorusTwoStrand(2), 3, U, denominator_extra_tag="(1 + u^-2p)")
        report = InvariantReport("demo", {"p": 3}, True)
        assert report == InvariantReport("demo", {"p": 3}, True, None, None)
        assert report != InvariantReport("demo", {"p": 5}, True)
        assert report != InvariantReport("demo", {"p": 3}, True, lhs=zeta(3))

    def test_defaults_and_keywords(self):
        cgp = CgpResult(knot=TorusTwoStrand(2), p=3, numerator=U)
        assert (cgp.denominator_tag, cgp.numerator_prefactor_tag, cgp.denominator_extra_tag) == (
            "(u^p - u^-p)^2", None, None,
        )
        report = InvariantReport(identity="demo", params={}, passed=True)
        assert report.lhs is None and report.rhs is None

    def test_repr_names_every_field(self):
        assert repr(InvariantReport("demo", {"p": 3}, True)) == (
            "InvariantReport(identity='demo', params={'p': 3}, passed=True, lhs=None, rhs=None)"
        )
        assert repr(AdoPoly(TorusTwoStrand(1), 3, X)) == (
            f"AdoPoly(knot=TorusTwoStrand(t=1), p=3, poly={X!r})"
        )

    def test_records_holding_a_polynomial_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(AdoPoly(DoubleTwist(1, 1), 3, X))
        with pytest.raises(TypeError):
            hash(InvariantReport("demo", {"p": 3}, True))


class TestRingValues:
    def test_cyc_number_needs_phi_coefficients(self):
        with pytest.raises(ValueError, match="order 5 needs 4 coefficients, got 3"):
            CycNumber(5, (1, 2, 3))
        assert CycNumber(5, (1, 2, 3, 4)).coeffs == (1, 2, 3, 4)

    def test_ring_values_keep_their_own_equality_hash_and_repr(self):
        assert zeta(3) == zeta(6, 2) and hash(zeta(3)) == hash(zeta(6, 2))
        assert CycNumber.from_int(4, 2) == 2
        assert repr(zeta(5)) == "CycNumber(5, 'z5')"
        assert LaurentPoly.univar("x", {0: 2}) == 2
        assert repr(X) == "LaurentPoly(x: 'x - 3')"

    def test_laurent_poly_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(X)
        with pytest.raises(TypeError):
            hash(U)
