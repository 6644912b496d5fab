"""Exact arithmetic core: cyclotomic integers and sparse Laurent polynomials.

Two value types are provided.  CycNumber is an element of Z[zeta_m], stored as
the unique residue modulo the m-th cyclotomic polynomial.  LaurentPoly is a
sparse Laurent polynomial in one or two named variables whose exponents live
in (1/2)*Z: every exponent is stored doubled, so a stored integer e means the
mathematical exponent e/2.

The coefficient ring of a polynomial is its `order` alone: order None means
every stored coefficient is an int, order m means every stored coefficient is
a CycNumber of order m.  Integers promote into Z[zeta_m] implicitly, so an
integer polynomial or scalar may meet an order-m polynomial in make, +, -, *,
==, substitute and exact_div, and the result has order m.  The embedding
Z[zeta_d] -> Z[zeta_m] for d | m stays explicit through with_order(); two
different cyclotomic orders meeting is a ValueError.

All values are immutable and all operations are pure.  Both types, and the
package's other value types, derive from Frozen: slotted classes whose
fields cannot be assigned or deleted once built.  Results are reduced to a
canonical form: no zero coefficients, terms sorted by exponent vector,
cyclotomic residues fully reduced.

Kernels.  Each cyclotomic order m keeps one table, _reduction_rows, of the
nonzero coordinates of each residue of zeta**e, e >= phi(m): _reduce (the
one reduction modulo Phi_m) and the units' reverse index read it.
A product of two polynomials takes one of three shapes:

- A one-term factor (or a scalar) is an exponent shift and a scalar
  multiply: Z and Z[zeta_m] are integral domains and a shift keeps the term
  order, so nothing is dropped or sorted.
- Univariate integer products of _PACK_MIN_PAIRS or more term pairs use
  Kronecker substitution: each operand is shifted to exponent 0, its
  exponents are divided by their common gcd, and its coefficients become
  balanced base-2**width digits of one Python int.  One bigint product
  replaces the term-pair loop.  Coefficient size is unlimited.  One digit
  reader, _unpack, reads these products and, through nonnegative_digits and
  reversed_digits, the integer points of knots alike, with digits as wide as
  _digit_width gives: digits of whole bytes up to 64 bits convert in C
  through struct (3-, 5-, 6- and 7-byte digits by way of 8-byte slots), and
  only wider digits are sliced from the binary text.
- Every other product goes by term pairs.  Over Z[zeta_m] each pair's
  unreduced convolution is added into one power vector per product
  exponent; each vector is reduced once and dropped if it reduces to 0 (the
  coefficients are sparse in zeta, and packing zeta too was measured to be
  slower).  Bivariate and small integer products, and those whose packed
  layout would hold more digits than there are term pairs, sum into a dict:
  no product of two bivariate operands this large is made (the Pochhammer
  and sigma tables are built by shifted row additions).

A product by a unit +-zeta**k (times_zeta, a power of or a division by the
unit, a polynomial times it) is one rotation and reduction, _unit_times.
Such units are found by one lookup in a memoized reverse index of the
table's rows and their negations; zeta**k itself is 1 times the unit.
Every other power, of either type, is the one square-and-multiply loop
_power over the bits of n from the top: w**1 takes no product and w**4 two.
Every other division, of either type, is made integral first: a non-integer
divisor in Z[zeta_m] and the dividend are both multiplied by the divisor's
other Galois conjugates, so the divisor becomes its norm.  A CycNumber then
divides coordinate by coordinate, and polynomial divisors of two or more
terms, and so the cyclotomic tables, go through one packed kernel,
_packed_div.

Terms.  A univariate exponent key (e,) is shared: _key_block memoizes the
keys of 64 consecutive exponents, so equal exponents of different
polynomials are one object and a term costs only its pair.  Every builder
that holds a dense coefficient row (start exponent, step, coefficients) --
the packed product and division, the cyclotomic polynomials, the univariate
q-tables of qtools and the integer reads of knots -- turns it into terms
through one codec, _dense_terms, which pairs the row with its keys and drops
its zeros in C; the shift by a one-term factor looks its exponents up in the
same blocks.  The key memo grows with the terms built, never with the size
of an exponent: keys are shared only when the terms are dense, their
doubled-exponent span below four times their count, so a row or operand
reaches at most span/64 + 2 blocks wherever it lies, and a sparse one builds
its own keys.  clear_caches() empties the memo with every other cache.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Optional, Union


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


@functools.lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Dense coefficients (constant term first) of the m-th cyclotomic polynomial.

    Phi_m(t) = Phi_r(t**(m/r)) for the radical r of m, and Phi_r is the
    product of (t**d - 1)**mu(r/d) over the divisors d of r: each factor is
    one shifted subtraction, and the product of the factors with mu = -1 is
    divided out once, by the packed kernel.
    """
    if m < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {m}")
    primes = _prime_factors(m)
    r = math.prod(primes)
    num, den = [1], [1]  # the products over mu(r/d) = 1 and over mu(r/d) = -1
    for mask in range(1 << len(primes)):
        d = r // math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        f = den if bin(mask).count("1") % 2 else num
        f[:] = [a - b for a, b in zip([0] * d + f, f + [0] * d)]
    phi_r = [c for (c,) in _packed_div([(c,) for c in num], den)]
    out = [0] * ((m // r) * (len(phi_r) - 1) + 1)
    out[:: m // r] = phi_r
    return tuple(out)


@functools.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Degree of the m-th cyclotomic polynomial."""
    return len(cyclotomic_coeffs(m)) - 1


@functools.lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e - phi(m) lists the nonzero (i, c) of the residue of zeta_m**e, for
    phi(m) <= e < max(m, 2 phi(m) - 1): the longest buffer given to _reduce.

    Each residue is the one before times zeta, built dense and kept sparse:
    the coordinates move up one, and a top coordinate c that leaves the
    basis comes back as -c times the lower coefficients of Phi_m.
    """
    phi, rows = euler_phi(m), []
    low = _nonzero(cyclotomic_coeffs(m)[:phi])
    cur = [0] * (phi - 1) + [1]  # zeta**(phi-1)
    for _ in range(phi, max(m, 2 * phi - 1)):
        top, cur = cur[-1], [0] + cur[:-1]
        if top:
            for i, c in low:
                cur[i] -= top * c
        rows.append(tuple(_nonzero(cur)))
    return tuple(rows)


def _reduce(m: int, powers: list[int]) -> tuple[int, ...]:
    """Canonical coordinates of sum(powers[e] * zeta_m**e), for
    phi(m) <= len(powers) <= max(m, 2 phi(m) - 1).

    The one reduction modulo Phi_m: from_powers, CycNumber products and
    LaurentPoly products all reach the canonical basis through it.
    """
    phi = euler_phi(m)
    acc = powers[:phi]
    for c, row in zip(powers[phi:], _reduction_rows(m)):
        if c:
            for i, r in row:
                acc[i] += c * r
    return tuple(acc)


def _nonzero(coords: Sequence[int]) -> list[tuple[int, int]]:
    """The (index, coordinate) pairs of the nonzero coordinates, picked in C."""
    return list(itertools.compress(enumerate(coords), coords))


def _convolve_into(acc: list[int], a: list[tuple[int, int]], b: list[tuple[int, int]]) -> None:
    """Add the unreduced product of two sparse power vectors into acc."""
    for i, x in a:
        for j, y in b:
            acc[i + j] += x * y


@functools.lru_cache(maxsize=None)
def _power_index(m: int) -> dict[tuple[tuple[int, int], ...], tuple[int, int]]:
    """Reverse index of the units sign * zeta_m**e, e < m, to (e, sign), keyed
    by the nonzero (i, c) of their residues: ((e, 1),) below phi(m), the
    reduction row above, and each negated.  For even m, -zeta**e is
    zeta**(e + m/2), and the positive entry is kept."""
    phi = euler_phi(m)
    rows = [((e, 1),) for e in range(phi)] + list(_reduction_rows(m)[: m - phi])
    index = {tuple([(i, -c) for i, c in row]): (e, -1) for e, row in enumerate(rows)}
    index.update((row, (e, 1)) for e, row in enumerate(rows))
    return index


def _power(base, n: int, one):
    """base**n for n >= 0 (`one` at n = 0): no product by one, no square past the top bit."""
    if n == 0:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# immutable values
# ---------------------------------------------------------------------------


# CycNumber and LaurentPoly are built in the inner loops: one global lookup
_set = object.__setattr__


class Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields, in order, as its __slots__ and stores them
    in __init__ through object.__setattr__; afterwards, assigning or deleting
    any attribute raises AttributeError.  Unless a subclass defines its own,
    equality, hashing and repr go field by field: instances are equal when
    they are of one class and their fields are equal, the hash is that of
    the tuple of fields, and repr reads Name(field=value, ...).  The value
    types are written this way, not with the standard library's generated
    record classes, because importing that module pulls in inspect, ast and
    dis: about a fifth of the package's start-up.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: restoring the slots one by
        # one would go through __setattr__
        return self.__class__, self._fields()


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------


class CycNumber(Frozen):
    """An element of Z[zeta_m], reduced modulo the m-th cyclotomic polynomial.

    `coeffs` has length phi(m) and lists the coordinates on the power basis
    1, zeta, ..., zeta**(phi(m)-1).  Equality against another CycNumber of a
    different order compares the canonical images in the compositum
    (zeta_d -> zeta_lcm**(lcm/d)); equality against an int compares with the
    rational-integer value when there is one.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"order {order} needs {euler_phi(order)} coefficients, "
                f"got {len(coeffs)}"
            )
        _set(self, "order", order)
        _set(self, "coeffs", coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(order: int) -> CycNumber:
        return _cyc(order, (0,) * euler_phi(order))

    @staticmethod
    def from_int(order: int, n: int) -> CycNumber:
        return _cyc(order, (n,) + (0,) * (euler_phi(order) - 1))

    @staticmethod
    def from_powers(order: int, powers: Mapping[int, int] | Iterable[tuple[int, int]]) -> CycNumber:
        """Sum of c * zeta_order**e over the given (e, c) pairs; e may be any integer."""
        items = powers.items() if isinstance(powers, Mapping) else powers
        buckets = [0] * order
        for e, c in items:
            buckets[e % order] += c
        return _cyc(order, _reduce(order, buckets))

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other: Union[int, "CycNumber"]) -> "CycNumber":
        if isinstance(other, int):
            return CycNumber.from_int(self.order, other)
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}; "
                    "embed explicitly"
                )
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union[int, "CycNumber"]) -> "CycNumber":
        if other.__class__ is not CycNumber or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _cyc(self.order, tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: Union[int, "CycNumber"]) -> "CycNumber":
        if other.__class__ is not CycNumber or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _cyc(self.order, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other: int) -> "CycNumber":
        # only an int reaches here: a CycNumber on the left runs its own __sub__
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __neg__(self) -> "CycNumber":
        return _cyc(self.order, tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other: Union[int, "CycNumber"]) -> "CycNumber":
        if isinstance(other, int):
            return _cyc(self.order, tuple(map(operator.mul, self.coeffs, itertools.repeat(other))))
        if other.__class__ is not CycNumber or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        conv = [0] * (2 * len(self.coeffs) - 1)
        _convolve_into(conv, _nonzero(self.coeffs), _nonzero(other.coeffs))
        return _cyc(self.order, _reduce(self.order, conv))

    __rmul__ = __mul__

    def times_zeta(self, k: int) -> "CycNumber":
        """self * zeta**k, as the power vector rotated by k and reduced once: no product."""
        return _unit_times(self, self.order, k, 1)

    def __pow__(self, n: int) -> "CycNumber":
        unit = self._unit_exponent(self)
        if unit is not None:
            # (sign * zeta**k)**n is one index shift, for either sign of n
            k, sign = unit
            return _unit_times(1, self.order, k * n, sign if n % 2 else 1)
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, CycNumber.from_int(self.order, 1))

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        # like an int, so that `not c` tests zero for either coefficient type
        return any(self.coeffs)

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def embed(self, order: int) -> "CycNumber":
        """Image under zeta_d -> zeta_order**(order/d); requires d | order."""
        if order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        if order == self.order:
            return self
        step = order // self.order
        return CycNumber.from_powers(order, ((i * step, c) for i, c in enumerate(self.coeffs)))

    def galois(self, k: int) -> "CycNumber":
        """Image under zeta -> zeta**k; requires gcd(k, order) == 1."""
        if math.gcd(k, self.order) != 1:
            raise ValueError(f"{k} is not invertible modulo {self.order}")
        return CycNumber.from_powers(self.order, ((i * k, c) for i, c in enumerate(self.coeffs)))

    def exact_div(self, other: Union[int, "CycNumber"]) -> "CycNumber":
        """self / other when the quotient lies in Z[zeta]; raises otherwise."""
        if isinstance(other, int):
            other = CycNumber.from_int(self.order, other)
        if other.order != self.order:
            raise ValueError("cyclotomic order mismatch")
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Z[zeta]")
        num = self
        if not other.is_integer():
            unit = self._unit_exponent(other)
            if unit is not None:
                k, sign = unit
                return _unit_times(self, self.order, -k, sign)
            cofactor = _norm_cofactor(other)
            num, other = self * cofactor, other * cofactor
        d = other.as_int()
        return _cyc(self.order, tuple(_int_exact_div(a, d) for a in num.coeffs))

    @staticmethod
    def _unit_exponent(u: "CycNumber") -> Optional[tuple[int, int]]:
        """(k, sign) with u == sign * zeta**k, or None when u is no such unit."""
        return _power_index(u.order).get(tuple(_nonzero(u.coeffs)))

    def inverse(self) -> "CycNumber":
        return CycNumber.from_int(self.order, 1).exact_div(self)

    # -- equality and rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if isinstance(other, CycNumber):
            if self.order == other.order:
                return self.coeffs == other.coeffs
            m = math.lcm(self.order, other.order)
            return self.embed(m).coeffs == other.embed(m).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # Equal values of different orders must hash alike, so hash the image
        # at the conductor; at order 1 that is the hash of the integer.
        c = self._at_conductor()
        return hash(c.coeffs[0]) if c.order == 1 else hash((c.order, c.coeffs))

    def _at_conductor(self) -> "CycNumber":
        """The equal value at the least order whose ring holds it (the conductor)."""
        x = self
        while True:
            for p in _prime_factors(x.order):
                y = x._descend(p)
                if y is not None:
                    x = y
                    break
            else:
                return x

    def _descend(self, p: int) -> Optional["CycNumber"]:
        """The equal value at order m/p for a prime p | m, or None if it has none."""
        m = self.order
        d = m // p
        if d % p == 0:
            # Phi_m(t) = Phi_d(t**p), so 1, zeta, ..., zeta**(p-1) is a basis
            # of Q(zeta_m) over Q(zeta_d) and only the exponents divisible by
            # p may carry coefficients.
            if any(c for i, c in enumerate(self.coeffs) if i % p):
                return None
            return _cyc(d, self.coeffs[::p])
        # m = p*d with p prime to d: zeta_m**i = zeta_d**(s*i) * zeta_p**(t*i)
        # where s*p + t*d = 1.  Averaging over Gal(Q(zeta_m)/Q(zeta_d)) turns
        # zeta_p**(t*i) into 1 when p | i and into -1/(p-1) otherwise; the
        # average equals self exactly when self lies in Q(zeta_d).
        s = pow(p, -1, d)
        scaled = CycNumber.from_powers(
            d, ((s * i, c * (p - 1) if i % p == 0 else -c) for i, c in enumerate(self.coeffs))
        )
        coeffs = []
        for c in scaled.coeffs:
            q, r = divmod(c, p - 1)
            if r:
                return None
            coeffs.append(q)
        y = _cyc(d, tuple(coeffs))
        return y if y.embed(m).coeffs == self.coeffs else None

    def render(self) -> str:
        """Deterministic text form; the generator is written z{order}."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                gen = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                body = gen if abs(c) == 1 else f"{abs(c)}*{gen}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CycNumber({self.order}, {self.render()!r})"

    # -- serialization --------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json_obj(obj: Mapping) -> "CycNumber":
        return CycNumber(operator.index(obj["order"]), tuple(map(operator.index, obj["coeffs"])))


def _norm_cofactor(x: Union[CycNumber, LaurentPoly]) -> Union[CycNumber, LaurentPoly]:
    """The product of the Galois conjugates zeta -> zeta**k of x other than x
    itself, k a unit mod x.order: times it, x becomes its norm, which has
    integer coefficients.  CycNumber.exact_div and exact_div divide by a
    non-integral x through it."""
    order = x.order
    return functools.reduce(operator.mul, [x.galois(k) for k in range(2, order) if math.gcd(k, order) == 1])


def _cyc(order: int, coeffs: tuple[int, ...]) -> CycNumber:
    """The CycNumber with these coordinates, which the ring layer computed.

    Every result of a ring operation is built here, without the length
    check of CycNumber(...), which stays for outside input.
    """
    c = object.__new__(CycNumber)
    _set(c, "order", order)
    _set(c, "coeffs", coeffs)
    return c


def zeta(order: int, k: int = 1) -> CycNumber:
    """zeta_order**k, the standard primitive root when k = 1: a basis vector
    below phi(order), else one row of the reduction table."""
    phi, k = euler_phi(order), k % order
    coeffs = [0] * phi
    for i, c in ((k, 1),) if k < phi else _reduction_rows(order)[k - phi]:
        coeffs[i] = c
    return _cyc(order, tuple(coeffs))


Coeff = Union[int, CycNumber]
_Terms = tuple[tuple[tuple[int, ...], Coeff], ...]


def _coeff_pow(c: Coeff, k: int) -> Coeff:
    """c**k for a caller's scalar: a substitution image or an evaluation value."""
    if isinstance(c, int):
        if c == 1:
            return 1
        if c == -1:
            return -1 if k % 2 else 1
        if k < 0:
            raise ValueError(f"{c} is not a unit; cannot raise to {k}")
    return c**k


def _order_of(c: Coeff) -> Optional[int]:
    """The ring of a caller's scalar: None for an int, m for Z[zeta_m]."""
    return c.order if isinstance(c, CycNumber) else None


def _combine_orders(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The ring that holds both rings: integers promote into any Z[zeta_m]."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError(f"cyclotomic order mismatch: {a} vs {b}; lift with with_order()")


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError(f"{a} is not divisible by {b}")
    return q


# ---------------------------------------------------------------------------
# shared exponent keys
# ---------------------------------------------------------------------------


_KEY_BLOCK = 64


@functools.lru_cache(maxsize=None)
def _key_block(b: int) -> tuple[tuple[int], ...]:
    """The univariate exponent keys (e,) for 64 b <= e < 64 (b + 1), built
    once and shared by every polynomial that holds one of these exponents."""
    return tuple(zip(range(b * _KEY_BLOCK, (b + 1) * _KEY_BLOCK)))


def _key_run(lo: int, hi: int) -> list[tuple[int]]:
    """The shared keys of every exponent from the start of lo's block to
    the end of hi's, in order: the key of e is at e - lo // 64 * 64."""
    run: list[tuple[int]] = []
    for block in map(_key_block, range(lo // _KEY_BLOCK, hi // _KEY_BLOCK + 1)):
        run += block
    return run


def _is_dense(span: int, count: int) -> bool:
    """Whether count terms over an exponent span take shared keys: the span,
    in doubled exponents, is below 4 count, so the blocks it reaches hold
    fewer than 4 count + 2 * 64 keys, however far from 0 the terms lie."""
    return span < 4 * count


def _dense_terms(start: int, step: int, coeffs: Sequence[Coeff]) -> _Terms:
    """The canonical univariate terms of sum(coeffs[k] v**((start + step k)/2))
    for a step >= 1: the nonzero entries of the row with their keys, picked
    in C.  A dense row takes its keys from the shared blocks, a sparse one
    (like an empty or all-zero row) builds its own."""
    nonzero = len(coeffs) - coeffs.count(0)
    if not nonzero:
        return ()
    last = start + step * (len(coeffs) - 1)
    if _is_dense(last - start, nonzero):
        keys = _key_run(start, last)[start % _KEY_BLOCK :: step]
    else:
        keys = zip(range(start, last + 1, step))
    return tuple(itertools.compress(zip(keys, coeffs), coeffs))


# ---------------------------------------------------------------------------
# polynomial product kernels
# ---------------------------------------------------------------------------


_IntTerms = tuple[tuple[tuple[int, ...], int], ...]

# Below this many term pairs an integer product loops over the pairs: packing
# costs 16-24 us, and the pair loop overtook it between 36 and 64 pairs
# (CPython 3.11.7, 2-vCPU VM).
_PACK_MIN_PAIRS = 40


def _kronecker_mul(t1: _IntTerms, t2: _IntTerms) -> Optional[_IntTerms]:
    """Canonical terms of the product of two nonempty canonical univariate
    integer term tuples.

    Returns None when the packed layout would have more digits than there
    are term pairs, so that the caller multiplies term by term instead.
    """
    # shift to exponent 0 (the terms are sorted, so the lowest comes first)
    # and divide by the common gcd
    lo1, lo2 = t1[0][0][0], t2[0][0][0]
    k1 = [e - lo1 for (e,), _ in t1]
    k2 = [e - lo2 for (e,), _ in t2]
    step = math.gcd(*k1, *k2) or 1
    size1, size2 = k1[-1] // step + 1, k2[-1] // step + 1
    size = size1 + size2 - 1
    if size > len(t1) * len(t2):
        return None
    # A product coefficient sums at most min(len) products of two
    # coefficients; digits of `width` bits hold it as a balanced digit.
    bound = min(len(t1), len(t2)) * max(abs(c) for _, c in t1) * max(abs(c) for _, c in t2)
    width = _digit_width(bound.bit_length() + 1)
    dense1, dense2 = [0] * size1, [0] * size2
    for dense, slots, terms in ((dense1, k1, t1), (dense2, k2, t2)):
        for k, (_, c) in zip(slots, terms):
            dense[k // step] = c
    digits = _unpack(_pack((dense1,), width) * _pack((dense2,), width), size, width)
    return _dense_terms(lo1 + lo2, step, digits)


# The signed struct codes of the digit widths, in bits, that struct reads
# directly: with "<", these standard sizes are little-endian on every
# platform.  Digits of 24, 40, 48 and 56 bits go through 8-byte slots.
_CAST_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}
# bytes.translate table from a digit's top byte to its sign-extension byte
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _digit_width(bits: int) -> int:
    """The width, in bits, of digits that hold `bits` bits: the next whole
    byte up to 64 bits, where the digits convert in C, else `bits` itself.

    Past 64 bits the digits are sliced from the binary text at any width,
    so a wider digit would only make every integer that carries it longer.
    """
    bits = max(1, bits)
    return -(-bits // 8) * 8 if bits <= 64 else bits


def _in_c(width: int) -> bool:
    """Whether digits of this width convert in C: whole bytes up to 64 bits."""
    return width <= 64 and not width % 8


def _regroup(buf: bytes, src: int, dst: int, signed: bool = False) -> bytearray:
    """The little-endian digits of buf, in slots of src bytes, laid again in
    slots of dst bytes, byte j of every digit by one strided slice.  A
    narrower slot keeps the low bytes; a wider one adds zero bytes, or for
    signed digits copies of each digit's sign."""
    out = bytearray(len(buf) // src * dst)
    for j in range(min(src, dst)):
        out[j::dst] = buf[j::src]
    if signed and dst > src:
        fill = buf[src - 1 :: src].translate(_SIGN_FILL)
        for j in range(src, dst):
            out[j::dst] = fill
    return out


def _halves(size: int, width: int) -> int:
    """sum(2**(width-1) * 2**(width*k)) for k < size: the top bit of every digit."""
    return ((1 << width * size) - 1) // ((1 << width) - 1) << (width - 1)


def _pack(rows: Iterable[Sequence[int]], width: int) -> int:
    """sum(d_k * 2**(width*k)) over the digits d_k of the rows laid end to end.

    Every digit must satisfy |d| < 2**(width-1), so that d plus the
    half 2**(width-1) is a nonnegative digit: the digits are written with the
    half added, and subtracting the halves again leaves the sum.  In C a
    digit is written in two's complement, which flipping its top bit turns
    into the same digit plus the half (a 3-, 5-, 6- or 7-byte digit is
    written in an 8-byte slot first).  No list of all the digits is built.
    """
    if _in_c(width):
        code = _CAST_CODES.get(width, "q")
        buf = b"".join([struct.pack(f"<{len(row)}{code}", *row) for row in rows])
        if width not in _CAST_CODES:
            buf = _regroup(buf, 8, width // 8)
        half = _halves(len(buf) * 8 // width, width)
        return (int.from_bytes(buf, "little") ^ half) - half
    top = 1 << (width - 1)
    text = [format(c + top, f"0{width}b") for row in rows for c in row]
    text.reverse()
    return int("".join(text), 2) - _halves(len(text), width)


def _digit_rows(value: int, span: int, count: int, width: int, signed: bool = True) -> Iterator:
    """The digits d_k of value = sum(d_k * 2**(width*k)), k < span*count, as
    `count` rows of `span`; OverflowError when there are no such digits.

    Signed digits are balanced, |d_k| < 2**(width-1): adding the half to
    every digit makes them all nonnegative, so none borrows.  Unsigned
    digits satisfy 0 <= d_k < 2**width.  Digits of whole bytes up to 64
    bits convert in C, where flipping the top bits back leaves each signed
    digit in two's complement (a 3-, 5-, 6- or 7-byte digit is then widened
    to an 8-byte slot); wider digits are sliced from the binary text.
    """
    size = span * count
    half = _halves(size, width) if signed else 0
    value += half
    if value < 0 or value >> width * size:
        raise OverflowError(f"{size} digits of {width} bits cannot hold the value")
    if _in_c(width):
        buf = (value ^ half).to_bytes(size * width // 8, "little")
        code = _CAST_CODES.get(width)
        if code is None:
            buf, code = _regroup(buf, width // 8, 8, signed), "q"
        fmt = struct.Struct(f"<{span}{code if signed else code.upper()}")
        return (fmt.unpack_from(buf, k * fmt.size) for k in range(count))
    text = format(value, f"0{size * width}b")
    top = 1 << (width - 1) if signed else 0
    ends = range(size * width, 0, -width)
    rows = (ends[k * span : k * span + span] for k in range(count))
    return ([int(text[e - width : e], 2) - top for e in row] for row in rows)


def _unpack(value: int, size: int, width: int, signed: bool = True) -> list[int]:
    """The size digits of value, one row of _digit_rows."""
    (digits,) = _digit_rows(value, size, 1, width, signed)
    return list(digits)


def nonnegative_digits(value_at: Callable[[int], int], at_one: int) -> list[int]:
    """The coefficients c_0, c_1, ... of a polynomial S(q) with nonnegative
    integer coefficients, from at_one = S(1) and value_at(W) = S(2^W).

    No coefficient exceeds S(1), so each fits in a digit of its bit length,
    or of the width _digit_width widens it to; the coefficients are then
    the base-2^W digits of S(2^W), read by _unpack.  Each carry out of a
    digit lowers the digit sum by 2^W - 1, so the digits sum to S(1) exactly
    when none overflowed, and ArithmeticError is raised when they do not.
    """
    width = _digit_width(at_one.bit_length())
    value = value_at(width)
    digits = _unpack(value, -(-value.bit_length() // width), width, signed=False)
    if (total := sum(digits)) != at_one:
        raise ArithmeticError(f"base-2^{width} digits summing to {total}, not to S(1) = {at_one}")
    return digits


def reversed_digits(value: int, size: int, width: int) -> int:
    """S(2**width) = value, S of degree below size, with its size digits reversed:
    q^(size-1) S(1/q) at q = 2**width, and value itself at width 0, q = 1.
    Whole-byte digits up to 64 bits are reversed in C, byte j of every digit
    by one slice; OverflowError when size digits do not hold value."""
    if not width:
        return value
    if _in_c(width):
        step = width // 8
        buf, out = value.to_bytes(size * step, "little"), bytearray(size * step)
        for j in range(step):
            out[j::step] = buf[j::step][::-1]
        return int.from_bytes(out, "little")
    digits = _unpack(value, size, width, signed=False)
    return int("".join([format(d, f"0{width}b") for d in digits]), 2)


def _packed_div(cols: list[tuple[int, ...]], den: list[int]) -> list[tuple[int, ...]]:
    """N / den for an integer polynomial den and a dense N whose coefficients
    are integer vectors (constant term first); InexactDivisionError unless
    the quotient is integral.

    Each coordinate of N is one block of balanced base-2**w digits, as long
    as N, so one integer division N(2**w) // D(2**w) divides every block,
    and a nonzero remainder proves the division inexact.  The quotient's
    digits are its coefficients once they fit in w bits: the check product
    Q*D == N, at a width that holds both sides, makes that sound.  Else w
    doubles, up to the Mignotte bound: a factor of degree k of N has
    coefficients below 2**k * ||N||_2.
    """
    span, size, count = len(cols), len(cols) - len(den) + 1, len(cols[0])
    if size < 1:
        raise InexactDivisionError("nonzero remainder in polynomial division")
    n_max, d_max = max(max(map(max, cols)), -min(map(min, cols))), max(map(abs, den))
    width, limit = _digit_width(max(n_max, d_max).bit_length() + 1), 0
    while True:
        value, rem = divmod(_pack(zip(*cols), width), _pack((den,), width))
        if rem:
            raise InexactDivisionError("nonzero remainder in polynomial division")
        try:
            digits = _digit_rows(value, span, count, width)
            # A digit past the quotient's degree reads no quotient at this
            # width, even after a zero remainder: x + zeta_3 over 1 + x packs
            # to N(2**w) = D(2**w) 2**w, whose first block is (0, 1).
            rows = [row[:size] for row in digits if not any(row[size:])]
        except OverflowError:
            rows = []
        if len(rows) == count:
            q_max = max(max(map(max, rows)), -min(map(min, rows)))
            check = _digit_width(max(min(size, len(den)) * q_max * d_max, n_max).bit_length() + 1)
            # at check <= width it is value * D(2**width) == N(2**width); else block by block
            d_at = _pack((den,), check)
            checks = (_pack((q,), check) * d_at == _pack((n,), check) for q, n in zip(rows, zip(*cols)))
            if check <= width or all(checks):
                return list(zip(*rows))
        if not limit:
            limit = size + (max(sum(c * c for c in row) for row in zip(*cols)).bit_length() + 1) // 2
        if width >= limit:
            raise InexactDivisionError("no quotient in Z[x] within the Mignotte bound")
        width = _digit_width(min(2 * width, limit))


def _shift_mul(terms: _Terms, shift: tuple[int, ...], c: Coeff) -> _Terms:
    """The canonical terms times the monomial with coefficient c != 0 and exponents shift.

    Z and Z[zeta_m] are integral domains, so no coefficient vanishes, and a
    shift keeps the lexicographic order, so nothing is dropped or sorted.  A
    unit c = +-zeta**k is found once, and then shifts each coefficient's
    powers of zeta by k instead of multiplying.  Univariate terms whose
    exponents are dense take the shared keys of the shifted exponents from
    one run of key blocks; a coefficient times 1 is kept as it is.
    """
    if isinstance(c, CycNumber) and (unit := CycNumber._unit_exponent(c)) is not None:
        k, sign = unit
        return tuple(
            [(tuple(map(operator.add, e, shift)), _unit_times(d, c.order, k, sign)) for e, d in terms]
        )
    if not terms:
        return ()
    if len(shift) == 1:
        (s,) = shift
        lo, hi = terms[0][0][0] + s, terms[-1][0][0] + s
        if not _is_dense(hi - lo, len(terms)):
            return tuple([((e + s,), d * c) for (e,), d in terms])
        # the run starts at the block of lo, so the key of e + s is run[e + k]
        run, k = _key_run(lo, hi), s - lo // _KEY_BLOCK * _KEY_BLOCK
        if c == 1:
            return tuple([(run[e + k], d) for (e,), d in terms])
        return tuple([(run[e + k], d * c) for (e,), d in terms])
    s, t = shift
    return tuple([((e + s, f + t), d * c) for (e, f), d in terms])


def _unit_times(d: Coeff, m: int, k: int, sign: int) -> CycNumber:
    """sign * zeta_m**k * d, the one product by a unit: d's power vector
    rotated by k mod m and reduced once."""
    if isinstance(d, int):
        d = CycNumber.from_int(m, d)
    k %= m
    if k == 0 and sign == 1:
        return d
    coeffs = d.coeffs
    powers = [sign * x for x in coeffs] + [0] * (m - len(coeffs))
    return _cyc(m, _reduce(m, powers[m - k :] + powers[: m - k]))


def _sparse_coords(terms: _Terms) -> list[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """Each term's exponents with the nonzero coordinates of its coefficient."""
    return [(e, _nonzero(c.coeffs) if isinstance(c, CycNumber) else [(0, c)]) for e, c in terms]


def _int_pair_mul(t1: _IntTerms, t2: _IntTerms) -> _IntTerms:
    """Canonical terms of the product of two canonical integer term tuples, pair by pair."""
    acc: dict[tuple[int, ...], int] = {}
    for e1, a in t1:
        for e2, b in t2:
            key = tuple(map(operator.add, e1, e2))
            acc[key] = acc.get(key, 0) + a * b
    return tuple(sorted([(key, c) for key, c in acc.items() if c]))


def _pair_mul(t1: _Terms, t2: _Terms, m: int) -> _Terms:
    """Canonical terms of the product over Z[zeta_m] of two canonical term tuples, pair by pair.

    Each term pair's coefficient product is added, unreduced, into one power
    vector per product exponent; each vector is then reduced mod Phi_m once
    (integer coefficients promote here), and dropped if it is 0.
    """
    size = 2 * euler_phi(m) - 1
    s2 = _sparse_coords(t2)
    bufs: dict[tuple[int, ...], list[int]] = {}
    for e1, a in _sparse_coords(t1):
        for e2, b in s2:
            key = tuple(map(operator.add, e1, e2))
            buf = bufs.get(key)
            if buf is None:
                buf = bufs[key] = [0] * size
            _convolve_into(buf, a, b)
    out = []
    for key in sorted(bufs):
        c = _cyc(m, _reduce(m, bufs[key]))
        if c:
            out.append((key, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# sparse Laurent polynomials with doubled exponents
# ---------------------------------------------------------------------------


class LaurentPoly(Frozen):
    """Sparse Laurent polynomial; stored exponent e means actual exponent e/2.

    `terms` maps exponent vectors (one doubled integer per variable) to
    nonzero coefficients and is kept sorted lexicographically.  `order` is the
    cyclotomic order of the coefficients, or None for integer coefficients.
    """

    __slots__ = ("variables", "terms", "order")

    def __init__(
        self,
        variables: tuple[str, ...],
        terms: tuple[tuple[tuple[int, ...], Coeff], ...],
        order: Optional[int] = None,
    ) -> None:
        _set(self, "variables", variables)
        _set(self, "terms", terms)
        _set(self, "order", order)

    # -- construction --------------------------------------------------------

    @staticmethod
    def make(
        variables: Iterable[str],
        terms: Mapping[tuple[int, ...], Coeff] | Iterable[tuple[tuple[int, ...], Coeff]],
        order: Optional[int] = None,
    ) -> "LaurentPoly":
        vs = tuple(variables)
        if not 1 <= len(vs) <= 2 or len(set(vs)) != len(vs):
            raise ValueError(f"need one or two distinct variables, got {vs!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], Coeff] = {}
        for exps, c in items:
            exps = tuple(map(operator.index, exps))
            if len(exps) != len(vs):
                raise ValueError(f"exponent vector {exps} does not match {vs}")
            if isinstance(c, CycNumber):
                order = _combine_orders(order, c.order)
            acc[exps] = acc[exps] + c if exps in acc else c  # type: ignore[operator]
        norm = sorted((e, c) for e, c in acc.items() if c)
        if order is not None:
            norm = [(e, CycNumber.from_int(order, c) if isinstance(c, int) else c) for e, c in norm]
        return LaurentPoly(vs, tuple(norm), order)

    @staticmethod
    def zero(variables: Iterable[str], order: Optional[int] = None) -> "LaurentPoly":
        return LaurentPoly.make(variables, {}, order)

    @staticmethod
    def const(variables: Iterable[str], c: Coeff) -> "LaurentPoly":
        vs = tuple(variables)
        return LaurentPoly.make(vs, {(0,) * len(vs): c})

    @staticmethod
    def univar(name: str, terms: Mapping[int, Coeff], order: Optional[int] = None) -> "LaurentPoly":
        """Univariate constructor; keys are doubled exponents."""
        return LaurentPoly.make((name,), {(e,): c for e, c in terms.items()}, order)

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps2: tuple[int, ...]) -> Coeff:
        for e, c in self.terms:
            if e == exps2:
                return c
        return 0 if self.order is None else CycNumber.zero(self.order)

    def _var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"no variable {name!r} in {self.variables}") from None

    def max_exp2(self, name: str) -> int:
        i = self._var_index(name)
        if self.is_zero():
            raise ValueError("zero polynomial has no exponents")
        return max(e[i] for e, _ in self.terms)

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: Union[Coeff, "LaurentPoly"]) -> "LaurentPoly":
        if isinstance(other, (int, CycNumber)):
            other = LaurentPoly.const(self.variables, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")
        if self.order != other.order:
            # an integer operand promotes through make
            order = _combine_orders(self.order, other.order)
            return LaurentPoly.make(self.variables, self.terms + other.terms, order)
        acc = dict(self.terms)
        for exps, c in other.terms:
            acc[exps] = acc[exps] + c if exps in acc else c  # type: ignore[operator]
        terms = tuple(sorted((e, c) for e, c in acc.items() if c))
        return LaurentPoly(self.variables, terms, self.order)

    __radd__ = __add__

    def __sub__(self, other: Union[Coeff, "LaurentPoly"]) -> "LaurentPoly":
        if not isinstance(other, (int, CycNumber, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "LaurentPoly":
        if not isinstance(other, (int, CycNumber)):
            return NotImplemented
        return (-self) + other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables, tuple((e, -c) for e, c in self.terms), self.order)

    def __mul__(self, other: Union[Coeff, "LaurentPoly"]) -> "LaurentPoly":
        if isinstance(other, (int, CycNumber)):
            order = _combine_orders(self.order, _order_of(other))
            if not other:
                return LaurentPoly.zero(self.variables, order)
            shift = (0,) * len(self.variables)
            return LaurentPoly(self.variables, _shift_mul(self.terms, shift, other), order)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")
        order = _combine_orders(self.order, other.order)
        t1, t2 = sorted((self.terms, other.terms), key=len)
        if not t1:
            terms = ()
        elif len(t1) == 1:
            terms = _shift_mul(t2, *t1[0])
        elif order is not None:
            terms = _pair_mul(t1, t2, order)
        elif (
            len(self.variables) == 2
            or len(t1) * len(t2) < _PACK_MIN_PAIRS
            or (terms := _kronecker_mul(t1, t2)) is None
        ):
            terms = _int_pair_mul(t1, t2)
        return LaurentPoly(self.variables, terms, order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        one = LaurentPoly.make(self.variables, {(0,) * len(self.variables): 1}, self.order)
        return _power(self, n, one)

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, CycNumber)):
            if self.is_zero():
                return not other
            if len(self.terms) != 1 or any(self.terms[0][0]):
                return False
            return self.terms[0][1] == other
        if isinstance(other, LaurentPoly):
            if self.variables != other.variables or len(self.terms) != len(other.terms):
                return False
            return all(
                e1 == e2 and c1 == c2
                for (e1, c1), (e2, c2) in zip(self.terms, other.terms)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- coefficient-domain maps -------------------------------------------------

    def with_order(self, order: int) -> "LaurentPoly":
        """Embed the coefficients into Z[zeta_order]; the current order must divide it."""
        if self.order == order:
            return self
        if self.order is None:
            return LaurentPoly.make(self.variables, self.terms, order)
        terms = tuple((e, c.embed(order)) for e, c in self.terms)
        return LaurentPoly(self.variables, terms, order)

    def galois(self, k: int) -> "LaurentPoly":
        """Apply zeta -> zeta**k to every coefficient; integers are fixed."""
        if self.order is None:
            return self
        terms = tuple((e, c.galois(k)) for e, c in self.terms)
        return LaurentPoly(self.variables, terms, self.order)

    # -- substitution and evaluation ----------------------------------------------

    def substitute(
        self,
        name: str,
        *,
        coeff: Coeff = 1,
        new_var: Optional[str] = None,
        exp2: int = 0,
    ) -> "LaurentPoly":
        """Replace the variable `name` by the monomial coeff * new_var**(exp2/2).

        With new_var None (and exp2 0) the image is the constant `coeff`; the
        polynomial must then have another variable left.  Exponent arithmetic
        must stay in (1/2)*Z and coefficient powers must stay integral.
        """
        idx = self._var_index(name)
        others = tuple(v for i, v in enumerate(self.variables) if i != idx)
        # One key rule for every image: drop the old slot (constant image, or
        # a merge into the other variable) or zero it (in place, or a rename),
        # then add exp2*e/2 at the target slot.
        if new_var is None:
            if exp2:
                raise ValueError("constant image cannot carry an exponent")
            if not others:
                raise ValueError("constant substitution would leave no variables; use evaluate()")
            new_vars, tgt = others, 0
        elif new_var in others:
            new_vars, tgt = others, others.index(new_var)
        else:
            new_vars = tuple(new_var if i == idx else v for i, v in enumerate(self.variables))
            tgt = idx
        drop = len(new_vars) < len(self.variables)
        order = _combine_orders(self.order, _order_of(coeff))
        acc: dict[tuple[int, ...], Coeff] = {}
        trivial_coeff = coeff == 1
        for exps, c in self.terms:
            e = exps[idx]
            if not trivial_coeff:
                if e % 2:
                    raise ValueError(
                        f"half-integer exponent {e}/2 of {name!r} needs a square root "
                        "of the image coefficient"
                    )
                c = c * _coeff_pow(coeff, e // 2)
            add, half = divmod(exp2 * e, 2)
            if half:
                raise ValueError("substitution leaves the (1/2)Z exponent lattice")
            slots = list(exps)
            if drop:
                del slots[idx]
            else:
                slots[idx] = 0
            slots[tgt] += add
            key = tuple(slots)
            acc[key] = acc[key] + c if key in acc else c  # type: ignore[operator]
        return LaurentPoly.make(new_vars, acc, order)

    def evaluate(self, values: Mapping[str, Coeff]) -> Coeff:
        """Full evaluation; every variable exponent must be an integer.

        Negative exponents require the value to be a unit (an int +-1 or an
        invertible cyclotomic number such as a root of unity).  The zero
        polynomial evaluates to the zero of its coefficient ring.
        """
        if set(values) != set(self.variables):
            raise ValueError(f"need values for exactly {self.variables}")
        acc: Coeff = 0 if self.order is None else CycNumber.zero(self.order)
        for exps, c in self.terms:
            term: Coeff = c
            for i, v in enumerate(self.variables):
                e = exps[i]
                if e % 2:
                    raise ValueError(
                        f"half-integer exponent of {v!r}; use eval_at_root for root values"
                    )
                if e:
                    term = term * _coeff_pow(values[v], e // 2)
            acc = term + acc
        return acc

    # -- rendering and serialization ------------------------------------------------

    def render_text(self) -> str:
        """Deterministic text form: terms in descending exponent order."""
        if self.is_zero():
            return "0"
        parts = []
        cyclotomic = self.order is not None
        for exps, c in sorted(self.terms, reverse=True):
            monos = []
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if e % 2 == 0:
                    ee = e // 2
                    monos.append(v if ee == 1 else f"{v}^{ee}")
                else:
                    monos.append(f"{v}^({e}/2)")
            mono = "*".join(monos)
            if cyclotomic and not c.is_integer():
                cs = f"({c.render()})"
                sign = "+"
            else:
                n = c.as_int() if cyclotomic else c
                sign = "-" if n < 0 else "+"
                cs = str(abs(n))
            if mono:
                body = mono if cs == "1" else f"{cs}*{mono}"
            else:
                body = cs
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({'*'.join(self.variables)}: {self.render_text()!r})"

    def to_json_obj(self) -> dict:
        if self.order is None:
            terms = [[list(exps), c] for exps, c in self.terms]
        else:
            terms = [[list(exps), c.to_json_obj()] for exps, c in self.terms]
        # only a zero polynomial writes its order: the coefficients carry it otherwise
        order = {"order": self.order} if not terms and self.order is not None else {}
        return {"vars": list(self.variables), "den": 2, "terms": terms, **order}

    @staticmethod
    def from_json_obj(obj: Mapping) -> "LaurentPoly":
        if obj.get("den") != 2:
            raise ValueError("unsupported exponent denominator")
        terms: dict[tuple[int, ...], Coeff] = {}
        for exps, c in obj["terms"]:
            coeff: Coeff = int(c) if isinstance(c, int) else CycNumber.from_json_obj(c)
            key = tuple(map(operator.index, exps))
            if key in terms:
                raise ValueError(f"exponent vector {list(key)} appears twice")
            terms[key] = coeff
        return LaurentPoly.make(tuple(obj["vars"]), terms, obj.get("order"))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def cyclotomic_polynomial(m: int) -> LaurentPoly:
    """The m-th cyclotomic polynomial as a polynomial in t."""
    return LaurentPoly(("t",), _dense_terms(0, 2, cyclotomic_coeffs(m)), None)


def eval_at_root(
    f: LaurentPoly, m: int, k: int = 1, order: Optional[int] = None
) -> CycNumber:
    """Exact value of the univariate f at its variable = zeta_m**k.

    Half-integer exponents are realized through zeta_{2m}, so they force the
    result into order 2m (or any requested multiple); asking for an order that
    cannot hold the value is an error.  The value of q**(e/2) depends on e
    only modulo 2m, so the terms are first summed by that residue, and each
    residue present is then checked and placed once.  A residue counts as
    present even when its sum is 0: q**(1/2) - q**(1/2 + m) still lands in
    order 2m.
    """
    if len(f.variables) != 1:
        raise ValueError("eval_at_root needs a univariate polynomial")
    if m < 1:
        raise ValueError("root order must be >= 1")
    two_m = 2 * m
    sums: dict[int, Coeff] = {}
    for (e,), c in f.terms:
        r = e % two_m
        sums[r] = sums[r] + c if r in sums else c  # type: ignore[operator]
    halves = any(r % 2 for r in sums)
    natural = two_m if halves else m
    target = natural if order is None else order
    if target % natural:
        raise ValueError(
            f"order {target} cannot hold the value: half-integer exponents need "
            f"the even lift of order {natural}"
        )
    step = 0 if f.order is None else target // f.order
    if f.order is not None and target % f.order:
        raise ValueError(f"order {f.order} does not divide {target}")
    buckets = [0] * target
    for r, c in sums.items():
        shift, off = divmod(k * r * target, two_m)
        if off:
            raise ValueError("exponent does not land in the target ring")
        if f.order is None:
            buckets[shift % target] += c
        else:
            for i, ci in enumerate(c.coeffs):
                buckets[(shift + i * step) % target] += ci
    return _cyc(target, _reduce(target, buckets))


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises InexactDivisionError.

    The denominator must be constant or univariate in the numerator's single
    variable.  A constant or a monomial divides coefficient by coefficient;
    other denominators go through _packed_div, which divides every Z[zeta_m]
    coordinate at once.  A denominator outside Z[x] is first made integral:
    times its other Galois conjugates, it becomes its norm.
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    order = _combine_orders(num.order, den.order)
    if order is None:
        div = _int_exact_div
    else:
        num, den, div = num.with_order(order), den.with_order(order), CycNumber.exact_div
    if len(den.terms) == 1 and not any(den.terms[0][0]):
        d = den.terms[0][1]
        return LaurentPoly.make(num.variables, {e: div(c, d) for e, c in num.terms}, order)
    if len(num.variables) != 1 or num.variables != den.variables:
        raise ValueError("non-constant division needs matching univariate polynomials")
    if num.is_zero():
        return LaurentPoly.zero(num.variables, order)
    if len(den.terms) == 1:
        (((de,), d),) = den.terms
        return LaurentPoly.make(num.variables, {(e - de,): div(c, d) for (e,), c in num.terms}, order)
    if order is not None and not all(c.is_integer() for _, c in den.terms):
        cofactor = _norm_cofactor(den)
        num, den = num * cofactor, den * cofactor
    nexps, dexps = [e for (e,), _ in num.terms], [e for (e,), _ in den.terms]
    # the exponents step by the gcd of all offsets, and so do the quotient's
    step = math.gcd(*[e - nexps[0] for e in nexps], *[e - dexps[0] for e in dexps])
    dense = [0] * ((dexps[-1] - dexps[0]) // step + 1)
    for e, (_, c) in zip(dexps, den.terms):
        dense[(e - dexps[0]) // step] = c if order is None else c.as_int()
    # the coordinate vector of every exponent in num's span, (c,) over Z
    cols = [(0,) * (1 if order is None else euler_phi(order))] * ((nexps[-1] - nexps[0]) // step + 1)
    for e, (_, c) in zip(nexps, num.terms):
        cols[(e - nexps[0]) // step] = (c,) if order is None else c.coeffs
    rows = _packed_div(cols, dense)
    coeffs = [c for (c,) in rows] if order is None else [_cyc(order, c) for c in rows]
    return LaurentPoly(num.variables, _dense_terms(nexps[0] - dexps[0], step, coeffs), order)
