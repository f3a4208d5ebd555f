"""Exact element arithmetic for doubled algebras and their split variants.

An element of the level-n algebra is a dense vector of 2**n rational
coefficients; coefficient A multiplies the basis element e_A. Generator
g_i is the unit vector at index 2**i, and e_A is the left-to-right product
of the generators selected by the set bits of A (lowest bit first). The
algebra itself is described by an `AlgebraSignature`: the level n plus one
doubling parameter per level, each -1 (imaginary new unit) or +1
(hyperbolic new unit).

Two multiplication engines are provided and must agree wherever both are
defined:

* ``mul_twist`` expands the product bilinearly over basis pairs using the
  closed-form twist exponents (standard and split signatures only).
* ``mul_doubling`` splits each operand into (low, high) halves and
  recurses with the level's doubling parameter, bottoming out at real
  multiplication. It accepts arbitrary +-1 parameter vectors and serves
  as the independent oracle.

Coefficients must be exact rationals (int or Fraction); floats are
rejected so that engine-equivalence checks stay bit-exact. Elements are
immutable values and every operation here is pure, so everything is safe
to share across threads; the small sign-table caches are filled
idempotently from deterministic inputs.
"""

from __future__ import annotations

import numbers
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .twist import split_twist, twist, twist_matrix

__all__ = [
    "AlgebraSignature",
    "Element",
    "InvariantViolation",
    "SignedIndex",
    "basis_element",
    "basis_from_generators",
    "basis_mul",
    "conjugate",
    "conjugate_recursive",
    "format_coeffs",
    "mul_doubling",
    "mul_twist",
    "norm",
    "parse_coeffs",
    "parse_element",
    "random_element",
    "trace",
    "unit",
    "zero",
]


class InvariantViolation(RuntimeError):
    """An internal cross-check failed: this signals an engine bug, not bad input."""


@dataclass(frozen=True)
class AlgebraSignature:
    """Level plus per-level doubling parameters.

    ``gammas[i]`` is the parameter of the i-th doubling step. The standard
    algebra uses -1 at every level; the split variant flips only the last
    one to +1. Closed-form twists exist only for those two shapes, but the
    doubling engine works for any +-1 vector.
    """

    level: int
    gammas: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if len(self.gammas) != self.level:
            raise ValueError(
                f"need {self.level} doubling parameters, got {len(self.gammas)}"
            )
        if any(g not in (-1, 1) for g in self.gammas):
            raise ValueError(f"doubling parameters must be +-1, got {self.gammas}")

    @classmethod
    def standard(cls, level: int) -> "AlgebraSignature":
        return cls(level, (-1,) * level)

    @classmethod
    def split(cls, level: int) -> "AlgebraSignature":
        if level < 1:
            raise ValueError("split algebras need level >= 1")
        return cls(level, (-1,) * (level - 1) + (1,))

    @classmethod
    def from_gammas(cls, gammas: Sequence[int]) -> "AlgebraSignature":
        return cls(len(gammas), tuple(gammas))

    @property
    def dimension(self) -> int:
        return 1 << self.level

    @property
    def is_standard(self) -> bool:
        return all(g == -1 for g in self.gammas)

    @property
    def is_split(self) -> bool:
        return (
            self.level >= 1
            and self.gammas[-1] == 1
            and all(g == -1 for g in self.gammas[:-1])
        )

    @property
    def has_closed_form(self) -> bool:
        return self.is_standard or self.is_split

    @property
    def kind(self) -> str:
        if self.is_standard:
            return "standard"
        if self.is_split:
            return "split"
        return "gamma:" + ",".join(f"{g:+d}" for g in self.gammas)

    def __str__(self):
        return f"n={self.level} kind={self.kind}"


class SignedIndex(NamedTuple):
    """A signed basis element: sign * e_index."""

    sign: int
    index: int


def _check_scalar(c):
    # bool is an int subclass; exclude it to keep coefficient vectors sane.
    if isinstance(c, bool) or not isinstance(c, numbers.Rational):
        raise ValueError(
            f"coefficients must be exact rationals (int or Fraction), got {c!r}"
        )


class Element:
    """Immutable dense element of a doubled algebra.

    ``coeffs[A]`` multiplies e_A. Supports +, -, scalar and element
    multiplication (`*` picks the twist engine when the signature has a
    closed form, the doubling engine otherwise). Equality is exact and
    only defined between elements of the same signature; comparing across
    signatures raises instead of returning False.
    """

    __slots__ = ("signature", "coeffs")

    def __init__(self, signature: AlgebraSignature, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if len(coeffs) != signature.dimension:
            raise ValueError(
                f"need {signature.dimension} coefficients for level "
                f"{signature.level}, got {len(coeffs)}"
            )
        for c in coeffs:
            _check_scalar(c)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_same_signature(self, other: "Element") -> None:
        if self.signature != other.signature:
            raise ValueError(
                f"signature mismatch: {self.signature} vs {other.signature}"
            )

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_signature(other)
        return self.coeffs == other.coeffs

    __hash__ = None  # mutable-feeling value type; not meant for dict keys

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_signature(other)
        return Element(
            self.signature, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_signature(other)
        return Element(
            self.signature, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return Element(self.signature, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same_signature(other)
            if self.signature.has_closed_form:
                return mul_twist(self, other)
            return mul_doubling(self, other)
        if isinstance(other, bool) or not isinstance(other, numbers.Rational):
            return NotImplemented
        return Element(self.signature, tuple(c * other for c in self.coeffs))

    def __rmul__(self, other):
        if isinstance(other, bool) or not isinstance(other, numbers.Rational):
            return NotImplemented
        return Element(self.signature, tuple(other * c for c in self.coeffs))

    def __repr__(self):
        return f"Element({self.signature}, [{format_coeffs(self.coeffs)}])"


def zero(signature: AlgebraSignature) -> Element:
    return Element(signature, (0,) * signature.dimension)


def unit(signature: AlgebraSignature):
    return basis_element(signature, 0)


def basis_element(signature: AlgebraSignature, index: int) -> Element:
    if not 0 <= index < signature.dimension:
        raise ValueError(
            f"basis index must lie in [0, {signature.dimension}), got {index}"
        )
    coeffs = [0] * signature.dimension
    coeffs[index] = 1
    return Element(signature, coeffs)


def random_element(signature, rng) -> Element:
    """Element with integer coefficients drawn uniformly from [-9, 9]."""
    return Element(
        signature, tuple(rng.randint(-9, 9) for _ in range(signature.dimension))
    )


def _closed_form(signature: AlgebraSignature):
    """The scalar closed-form twist of ``signature``: ``twist`` or ``split_twist``."""
    if not signature.has_closed_form:
        raise ValueError(f"no closed-form twist for this signature: {signature}")
    return twist if signature.is_standard else split_twist


def basis_mul(A: int, B: int, signature: AlgebraSignature) -> SignedIndex:
    """Product of two basis elements: e_A * e_B = sign * e_{A ^ B}."""
    exponent = _closed_form(signature)(A, B, signature.level)
    return SignedIndex(-1 if exponent else 1, A ^ B)


# Block-doubling twist exponent tables for the bilinear engine, one bytes-row
# per first index. Cached only for small levels; 4**8 entries = 64 KiB each.
_TWIST_TABLE_CACHE_MAX_LEVEL = 8
_twist_tables: dict[tuple[int, bool], list[bytes]] = {}


def _twist_table(signature: AlgebraSignature) -> list[bytes]:
    key = (signature.level, signature.is_standard)
    table = _twist_tables.get(key)
    if table is None:
        n = signature.level
        matrix = twist_matrix(n, split=not signature.is_standard)
        fn = _closed_form(signature)
        rng = random.Random(n)
        for A, B in ((rng.getrandbits(n), rng.getrandbits(n)) for _ in range(256)):
            if matrix[A, B] != fn(A, B, n):
                raise InvariantViolation(
                    f"block-doubling table != closed form at ({A}, {B}) for {signature}"
                )
        table = _twist_tables[key] = [row.tobytes() for row in matrix]
    return table


def mul_twist(x: Element, y: Element) -> Element:
    """Bilinear product over basis pairs with closed-form signs.

    Cost is O(4**n) exact scalar operations on dense operands; zero
    coefficients are skipped.
    """
    x._require_same_signature(y)
    sig = x.signature
    fn = _closed_form(sig)
    n = sig.level
    table = _twist_table(sig) if n <= _TWIST_TABLE_CACHE_MAX_LEVEL else None
    ys = [(B, yb) for B, yb in enumerate(y.coeffs) if yb]
    out = [0] * sig.dimension
    for A, xa in enumerate(x.coeffs):
        if not xa:
            continue
        row = table[A] if table else {B: fn(A, B, n) for B, _ in ys}
        for B, yb in ys:
            if row[B]:
                out[A ^ B] -= xa * yb
            else:
                out[A ^ B] += xa * yb
    return Element(sig, out)


def _conj_tuple(v: tuple) -> tuple:
    return (v[0], *map(operator.neg, v[1:]))


def _mul_rec(x: tuple, y: tuple, gammas: tuple[int, ...]) -> tuple:
    # (a,b)(c,d) = (ac + g * conj(d) b, da + b conj(c)) with g = gammas[-1].
    if not gammas:
        return (x[0] * y[0],)
    # A zero operand gives a zero product without recursing; a sparse
    # level-14 operand would otherwise unfold all 4**14 leaf products.
    if not (any(x) and any(y)):
        return (0,) * len(x)
    h, sub = len(x) // 2, gammas[:-1]
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    add_db = operator.sub if gammas[-1] == -1 else operator.add
    low = map(add_db, _mul_rec(a, c, sub), _mul_rec(_conj_tuple(d), b, sub))
    high = map(operator.add, _mul_rec(d, a, sub), _mul_rec(b, _conj_tuple(c), sub))
    return (*low, *high)


def mul_doubling(x: Element, y: Element) -> Element:
    """Product through the recursive doubling construction.

    Splits each operand into (low, high) halves and recurses with the
    level's doubling parameter, bottoming out at real multiplication.
    Works for every +-1 parameter vector, so it is strictly more general
    than the twist engine and serves as its oracle.
    """
    x._require_same_signature(y)
    return Element(x.signature, _mul_rec(x.coeffs, y.coeffs, x.signature.gammas))


def conjugate(x: Element) -> Element:
    """Conjugation: negate every coefficient except the real one."""
    return Element(x.signature, _conj_tuple(x.coeffs))


def conjugate_recursive(x: Element) -> Element:
    """Conjugation by the pair rule conj(a, b) = (conj(a), -b).

    Exists to witness that the recursive definition collapses to the
    closed form used by ``conjugate``.
    """

    def rec(v: tuple) -> tuple:
        if len(v) == 1:
            return v
        h = len(v) // 2
        return rec(v[:h]) + tuple(-c for c in v[h:])

    return Element(x.signature, rec(x.coeffs))


def trace(x: Element):
    """Scalar t with x + conj(x) = t * e_0; equals twice the real part."""
    return 2 * x.coeffs[0]


def norm(x: Element):
    """Scalar n with x * conj(x) = n * e_0, computed by the doubling engine.

    The product is required to come out exactly scalar; a nonzero
    imaginary coefficient would mean an engine bug, not a bad input.
    """
    product = mul_doubling(x, conjugate(x))
    if any(product.coeffs[1:]):
        raise InvariantViolation(
            f"x * conj(x) is not scalar for {x!r}: got {product!r}"
        )
    return product.coeffs[0]


def basis_from_generators(bits: int, signature: AlgebraSignature) -> Element:
    """Left-to-right product of the generators selected by ``bits``.

    Multiplies the g_i = e_{2**i} with set bit i, lowest first, using only
    the doubling engine. For a consistent indexing convention the result
    must equal +e_bits; the analysis layer asserts that rather than this
    function, so any discrepancy is reported, not silently patched.
    """
    if not 0 <= bits < signature.dimension:
        raise ValueError(
            f"basis index must lie in [0, {signature.dimension}), got {bits}"
        )
    acc = unit(signature)
    for i in range(signature.level):
        if (bits >> i) & 1:
            acc = mul_doubling(acc, basis_element(signature, 1 << i))
    return acc


def parse_coeffs(text: str) -> tuple:
    """Parse the comma-separated exact-rational element format.

    Example: ``0,1,-3/2,0``. Integer entries stay ints; fractional ones
    become Fractions.
    """
    parts = [p.strip() for p in text.split(",")]
    out = []
    for p in parts:
        if not p:
            raise ValueError(f"empty coefficient in {text!r}")
        try:
            f = Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coefficient {p!r}: {exc}") from None
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def format_coeffs(coeffs: Sequence) -> str:
    return ",".join(str(c) for c in coeffs)


def parse_element(text: str, signature: AlgebraSignature) -> Element:
    return Element(signature, parse_coeffs(text))
