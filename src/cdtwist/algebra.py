"""Exact element arithmetic for doubled algebras and their split variants.

An element of the level-n algebra is a dense vector of 2**n rational
coefficients; coefficient A multiplies the basis element e_A. Generator
g_i is the unit vector at index 2**i, and e_A is the left-to-right product
of the generators selected by the set bits of A (lowest bit first). The
algebra itself is described by an `AlgebraSignature`: the level n plus one
doubling parameter per level, each -1 (imaginary new unit) or +1
(hyperbolic new unit).

Two multiplication engines are provided, for every parameter vector, and
must agree:

* ``mul_twist`` expands the product bilinearly over basis pairs using the
  closed-form twist exponents. It reads one standard sign table and gets
  every other kind's signs from it by the mask rule, sigma_gamma(A, B) =
  sigma(A, B) + popcount(A & B & mask) (mod 2), where the signature's
  ``mask`` has bit k set where gammas[k] = +1; coefficients are multiplied
  as Python ints over one common denominator per operand.
* ``mul_doubling`` splits each operand into (low, high) halves and
  recurses with the level's doubling parameter, ending at the scalar
  (level-1) step. It calls nothing from the twist layer and serves as the
  independent oracle.

Coefficients must be exact rationals (int or Fraction); floats are
rejected so that engine-equivalence checks stay bit-exact. Dense elements
stop at level ``MAX_DENSE_LEVEL``. Elements are immutable values and every
operation here is pure, so everything is safe to share across threads; the
one sign-table cache only ever holds a checked table from deterministic
inputs, so a concurrent refill is harmless.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

# ``split_twist`` has no caller here; perfbench/tracer.py wraps
# ``algebra.split_twist`` by name, so the name stays importable.
from .twist import split_twist, twist, twist_matrix  # noqa: F401

__all__ = [
    "AlgebraSignature",
    "Element",
    "InvariantViolation",
    "MAX_DENSE_LEVEL",
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
    one to +1. Any +-1 vector is allowed, and ``mask`` is all the twist
    layer needs of it: both engines work for every vector.
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
    def mask(self) -> int:
        """Bit k set where ``gammas[k]`` is +1: the twist's one dependence on the kind."""
        return sum(1 << k for k, g in enumerate(self.gammas) if g == 1)

    @property
    def is_standard(self) -> bool:
        return self.mask == 0

    @property
    def is_split(self) -> bool:
        return self.level >= 1 and self.mask == 1 << (self.level - 1)

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


# An element holds all 2**level coefficients, so one above this level
# would take gigabytes; every dense constructor refuses it before
# allocating. Signs and tables have their own limits.
MAX_DENSE_LEVEL = 20


def _check_dense_level(signature: AlgebraSignature) -> None:
    if signature.level > MAX_DENSE_LEVEL:
        raise ValueError(
            f"dense elements are capped at level {MAX_DENSE_LEVEL} "
            f"(2**{MAX_DENSE_LEVEL} coefficients), got level {signature.level}"
        )


# The common coefficient types, accepted without a per-coefficient check.
_EXACT_TYPES = frozenset({int, Fraction})


def _exact_scalar(c):
    # bool is an int subclass; exclude it to keep coefficient vectors sane.
    # Other Rationals become int or Fraction: numpy fixed-width ints wrap.
    if isinstance(c, bool) or not isinstance(c, numbers.Rational):
        raise ValueError(
            f"coefficients must be exact rationals (int or Fraction), got {c!r}"
        )
    return int(c) if isinstance(c, numbers.Integral) else Fraction(c)


class Element:
    """Immutable dense element of a doubled algebra.

    ``coeffs[A]`` multiplies e_A. Supports +, -, scalar and element
    multiplication (`*` is ``mul_twist``). Equality is exact and only
    defined between elements of the same signature; comparing across
    signatures raises instead of returning False.
    """

    __slots__ = ("signature", "coeffs")

    def __init__(self, signature: AlgebraSignature, coeffs: Sequence):
        _check_dense_level(signature)
        coeffs = tuple(coeffs)
        if len(coeffs) != signature.dimension:
            raise ValueError(
                f"need {signature.dimension} coefficients for level "
                f"{signature.level}, got {len(coeffs)}"
            )
        if not _EXACT_TYPES.issuperset(map(type, coeffs)):
            coeffs = tuple(map(_exact_scalar, coeffs))
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
            return mul_twist(self, other)
        if isinstance(other, bool) or not isinstance(other, numbers.Rational):
            return NotImplemented
        other = _exact_scalar(other)
        return Element(self.signature, tuple(c * other for c in self.coeffs))

    def __rmul__(self, other):
        if isinstance(other, bool) or not isinstance(other, numbers.Rational):
            return NotImplemented
        other = _exact_scalar(other)
        return Element(self.signature, tuple(other * c for c in self.coeffs))

    def __repr__(self):
        return f"Element({self.signature}, [{format_coeffs(self.coeffs)}])"


def zero(signature: AlgebraSignature) -> Element:
    _check_dense_level(signature)
    return Element(signature, (0,) * signature.dimension)


def unit(signature: AlgebraSignature):
    return basis_element(signature, 0)


def basis_element(signature: AlgebraSignature, index: int) -> Element:
    _check_dense_level(signature)
    if not 0 <= index < signature.dimension:
        raise ValueError(
            f"basis index must lie in [0, {signature.dimension}), got {index}"
        )
    coeffs = [0] * signature.dimension
    coeffs[index] = 1
    return Element(signature, coeffs)


def random_element(signature, rng) -> Element:
    """Element with integer coefficients drawn uniformly from [-9, 9]."""
    _check_dense_level(signature)
    return Element(
        signature, tuple(rng.randint(-9, 9) for _ in range(signature.dimension))
    )


def basis_mul(A: int, B: int, signature: AlgebraSignature) -> SignedIndex:
    """Product of two basis elements: e_A * e_B = sign * e_{A ^ B}."""
    exponent = twist(A, B, signature.level, signature.mask)
    return SignedIndex(-1 if exponent else 1, A ^ B)


# The standard twist exponent table, one bytes row per first index. The
# standard twist does not depend on the level (padding it upward changes
# nothing), so the level-n table is the top-left 2**n block of any larger
# one: the cache holds one table, at the highest level used so far, and
# serves every level up to it. Levels above the cap take the scalar closed
# form; 4**9 entries = 256 KiB.
_TWIST_TABLE_CACHE_MAX_LEVEL = 9
_twist_tables: dict[int, list[bytes]] = {}


def _twist_table(level: int) -> list[bytes]:
    for cached_level, table in list(_twist_tables.items()):
        if cached_level >= level:
            return table
    table = [row.tobytes() for row in twist_matrix(level)]
    rng = random.Random(level)
    for A, B in ((rng.getrandbits(level), rng.getrandbits(level)) for _ in range(256)):
        if table[A][B] != twist(A, B, level):
            raise InvariantViolation(
                f"block-doubling table != closed form at ({A}, {B}) for level {level}"
            )
    _twist_tables.clear()
    _twist_tables[level] = table
    return table


def _common_denominator(coeffs) -> int | None:
    """lcm of the nonzero coefficients' denominators; None if those are all ints."""
    denominators = {c.denominator for c in filter(None, coeffs) if type(c) is not int}
    return math.lcm(*denominators) if denominators else None


def _scaled(c, d: int | None) -> int:
    """``c`` times its operand's common denominator ``d``, as a Python int."""
    return c if d is None else int(c.numerator) * (d // c.denominator)


def mul_twist(x: Element, y: Element) -> Element:
    """Bilinear product over basis pairs with closed-form signs.

    Every sign comes from the standard twist: the twist of a parameter
    vector adds popcount(A & B & mask) to it, so y's terms are grouped by
    g = B & mask and row A takes a group negated when A & g has odd
    popcount (one group for the standard kind, y's two halves for the
    split one). Up to level 9 the signs are read from the cached table,
    above it from scalar ``twist``. Coefficients are brought to one common
    denominator per operand and multiplied as Python ints; the sums are
    divided back once. Cost is O(4**n) integer operations on dense
    operands; zero coefficients are skipped.
    """
    x._require_same_signature(y)
    sig = x.signature
    n, mask = sig.level, sig.mask
    table = _twist_table(n) if n <= _TWIST_TABLE_CACHE_MAX_LEVEL else None
    dx, dy = _common_denominator(x.coeffs), _common_denominator(y.coeffs)
    groups: dict[int, list] = {}
    ys = y.coeffs
    for B in itertools.compress(range(len(ys)), ys):
        groups.setdefault(B & mask, []).append((B, _scaled(ys[B], dy)))
    out = [0] * sig.dimension
    for A, xa in enumerate(x.coeffs):
        if not xa:
            continue
        xa = _scaled(xa, dx)
        if table:
            row = table[A]
        else:
            row = {B: twist(A, B, n) for terms in groups.values() for B, _ in terms}
        for g, terms in groups.items():
            xs = -xa if (A & g).bit_count() & 1 else xa
            for B, yb in terms:
                if row[B]:
                    out[A ^ B] -= xs * yb
                else:
                    out[A ^ B] += xs * yb
    if dx or dy:
        d = (dx or 1) * (dy or 1)
        for C in itertools.compress(range(len(out)), out):
            out[C] = Fraction(out[C], d)
    return Element(sig, out)


def _conj_tuple(v: tuple) -> tuple:
    return (v[0], *map(operator.neg, v[1:]))


def _mul_rec(x: tuple, y: tuple, gammas: tuple[int, ...]) -> tuple:
    # (a,b)(c,d) = (ac + g * conj(d) b, da + b conj(c)) with g = gammas[-1].
    if not gammas:
        return (x[0] * y[0],)
    add_db = operator.sub if gammas[-1] == -1 else operator.add
    if len(gammas) == 1:
        # The halves are scalars, where conj is the identity.
        (a, b), (c, d) = x, y
        return (add_db(a * c, d * b), d * a + b * c)
    # A zero operand gives a zero product without recursing; a sparse
    # level-14 operand would otherwise unfold all 4**14 leaf products.
    if not (any(x) and any(y)):
        return (0,) * len(x)
    h, sub = len(x) // 2, gammas[:-1]
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    low = map(add_db, _mul_rec(a, c, sub), _mul_rec(_conj_tuple(d), b, sub))
    high = map(operator.add, _mul_rec(d, a, sub), _mul_rec(b, _conj_tuple(c), sub))
    return (*low, *high)


def mul_doubling(x: Element, y: Element) -> Element:
    """Product through the recursive doubling construction.

    Splits each operand into (low, high) halves and recurses with the
    level's doubling parameter, down to the level-1 step, where both halves
    are scalars and conjugation is the identity. Works for every +-1
    parameter vector and calls nothing from the twist layer, so it is
    strictly more general than the twist engine and serves as its oracle.
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
