"""Exact element arithmetic for doubled algebras and their split variants.

An element of the level-n algebra is a dense vector of 2**n rational
coefficients; coefficient A multiplies the basis element e_A. Generator
g_i is the unit vector at index 2**i, and e_A is the left-to-right product
of the generators selected by the set bits of A (lowest bit first). The
algebra itself is described by an `AlgebraSignature`: one doubling
parameter per level, each -1 (imaginary new unit) or +1 (hyperbolic new
unit), whose count is the level n.

Two multiplication engines are provided, for every parameter vector, and
must agree. Both multiply ints over one common denominator per operand,
by one shared rule (``_operand``, ``_divided_back``):

* ``mul_twist`` expands the product over basis pairs with one sign source
  for every kind: ``_twist_row`` gives the row sigma_gamma(A, .) of the
  kind's ``mask`` (bit k set where gammas[k] = +1), read from a fixed
  level-9 table of the standard twist and doubled by ``twist_matrix``'s
  block rule from the lowest level where A & mask has a bit. The sums
  read that row alone and run on one of two paths, chosen from the
  operands' term counts: Python ints one term pair at a time, or, for
  pairs with many terms in y, one int64 numpy row per term of x (a
  signed, XOR-permuted copy of y). The rows are taken only when
  ||x||_1 * ||y||_1 < 2**63 on the operands' ints, which bounds every
  sum, so both paths are exact.
* ``mul_doubling`` evaluates the doubling formula in one of two orders.
  Dense operands split into (low, high) halves and recurse with the
  level's doubling parameter, ending at a written-out level-2 step and
  skipping every sub-product with an all-zero factor. Sparse operands
  above level 2, those with nnz(x) * nnz(y) * n <= 2**n, expand over their
  nonzero term pairs instead, each pair's sign walked down the same
  formula from level n to 0. It calls nothing from the twist layer and
  serves as the independent oracle.

Elements come in by two doors. Outside input (``parse_element``, library
callers) goes through ``Element(...)``, which validates the coefficient
types in one pass and records whether any is a Fraction. Every value this
module computes from validated elements or from its own ints (+, -, scalar
*, the engine products, conjugates, ``zero``, ``basis_element``,
``random_element``) is built by ``Element._trusted`` with its exact
Fraction flag: sums, products and negations of ints and Fractions stay
ints and Fractions, so a second check could never fail. A product should
cost what its terms cost, so each engine call scans each coefficient
vector at most once: one scan of an operand gives its support (nonzero
indices), and only an operand with a Fraction is scaled, over its support
alone (``_operand``).

Coefficients must be exact rationals (int or Fraction); floats are
rejected so that engine-equivalence checks stay bit-exact. Dense elements
stop at level ``MAX_DENSE_LEVEL``. Elements are immutable values and every
operation here is pure, so everything is safe to share across threads; the
two caches (the sign table and the index tuple of ``_support``) only ever
hold values fixed by deterministic inputs, so a concurrent refill is
harmless.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

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
    """The algebra of one doubling-parameter vector.

    ``gammas[i]`` is the parameter of the i-th doubling step. The standard
    algebra uses -1 at every level; the split variant flips only the last
    one to +1. Any +-1 vector is allowed, and ``mask`` is all the twist
    layer needs of it: both engines work for every vector. The vector is
    the one field; ``level``, ``dimension`` and ``mask`` are derived from
    it on first read and then kept, since the engines read them on every
    product. The constructor stores any iterable of integers, numpy ones
    included, as a tuple of Python ints, so equal vectors give equal,
    hashable signatures; a bool, a float, any other non-integer and any
    integer but +-1 is refused.
    """

    gammas: tuple[int, ...]

    def __post_init__(self):
        gammas = tuple(self.gammas)
        if not all(
            isinstance(g, numbers.Integral) and not isinstance(g, bool) and g in (-1, 1)
            for g in gammas
        ):
            raise ValueError(f"doubling parameters must be +-1, got {gammas}")
        object.__setattr__(self, "gammas", tuple(map(int, gammas)))

    @classmethod
    def standard(cls, level: int) -> "AlgebraSignature":
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        return cls((-1,) * level)

    @classmethod
    def split(cls, level: int) -> "AlgebraSignature":
        if level < 1:
            raise ValueError("split algebras need level >= 1")
        return cls((-1,) * (level - 1) + (1,))

    @classmethod
    def from_gammas(cls, gammas: Sequence[int]) -> "AlgebraSignature":
        return cls(gammas)

    @cached_property
    def level(self) -> int:
        return len(self.gammas)

    @cached_property
    def dimension(self) -> int:
        return 1 << self.level

    @cached_property
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


def _check_dense_level(level: int) -> None:
    if level > MAX_DENSE_LEVEL:
        raise ValueError(
            f"dense elements are capped at level {MAX_DENSE_LEVEL} "
            f"(2**{MAX_DENSE_LEVEL} coefficients), got level {level}"
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

    ``Element(...)`` is the door for outside input: one pass makes every
    entry an int or a Fraction and sets ``_has_fraction`` when any is a
    Fraction, so that the engines skip scaling an all-int operand. Every
    value the module computes comes from ``_trusted``, without that pass.
    """

    __slots__ = ("signature", "coeffs", "_has_fraction")

    def __init__(self, signature: AlgebraSignature, coeffs: Sequence):
        _check_dense_level(signature.level)
        coeffs = tuple(coeffs)
        if len(coeffs) != signature.dimension:
            raise ValueError(
                f"need {signature.dimension} coefficients for level "
                f"{signature.level}, got {len(coeffs)}"
            )
        types = set(map(type, coeffs))
        if not _EXACT_TYPES.issuperset(types):
            coeffs = tuple(map(_exact_scalar, coeffs))
            types = set(map(type, coeffs))
        self._fill(signature, coeffs, Fraction in types)

    def _fill(self, signature, coeffs: tuple, has_fraction: bool) -> "Element":
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_has_fraction", has_fraction)
        return self

    @classmethod
    def _trusted(cls, signature, coeffs: tuple, has_fraction: bool) -> "Element":
        """A computed value, built without validation: ``coeffs`` is a tuple of
        ``signature.dimension`` ints and Fractions, and ``has_fraction`` says
        whether it holds a Fraction."""
        return object.__new__(cls)._fill(signature, coeffs, has_fraction)

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

    def _pointwise(self, other, op):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_signature(other)
        out = tuple(map(op, self.coeffs, other.coeffs))
        flag = self._has_fraction or other._has_fraction  # a Fraction in, a Fraction out
        return Element._trusted(self.signature, out, flag)

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __neg__(self):
        out = tuple(map(operator.neg, self.coeffs))
        return Element._trusted(self.signature, out, self._has_fraction)

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul_twist(self, other)
        if isinstance(other, bool) or not isinstance(other, numbers.Rational):
            return NotImplemented
        other = _exact_scalar(other)
        out = tuple(c * other for c in self.coeffs)
        flag = self._has_fraction or isinstance(other, Fraction)
        return Element._trusted(self.signature, out, flag)

    # Only a scalar reaches it (an Element on the left answers first); rationals commute.
    __rmul__ = __mul__

    def __repr__(self):
        return f"Element({self.signature}, [{format_coeffs(self.coeffs)}])"


def zero(signature: AlgebraSignature) -> Element:
    _check_dense_level(signature.level)
    return Element._trusted(signature, (0,) * signature.dimension, False)


def unit(signature: AlgebraSignature):
    return basis_element(signature, 0)


def basis_element(signature: AlgebraSignature, index: int) -> Element:
    _check_dense_level(signature.level)
    if not 0 <= index < signature.dimension:
        raise ValueError(
            f"basis index must lie in [0, {signature.dimension}), got {index}"
        )
    coeffs = [0] * signature.dimension
    coeffs[index] = 1
    return Element._trusted(signature, tuple(coeffs), False)


def random_element(signature, rng: random.Random) -> Element:
    """Element with integer coefficients drawn uniformly from [-9, 9]."""
    _check_dense_level(signature.level)
    return Element._trusted(
        signature, tuple(rng.randint(-9, 9) for _ in range(signature.dimension)), False
    )


def basis_mul(A: int, B: int, signature: AlgebraSignature) -> SignedIndex:
    """Product of two basis elements: e_A * e_B = sign * e_{A ^ B}."""
    exponent = twist(A, B, signature.level, signature.mask)
    return SignedIndex(-1 if exponent else 1, A ^ B)


# The standard twist exponent table at level 9 (4**9 entries = 256 KiB),
# one bytes row per first index, built on first use. The standard twist
# does not depend on the level: a lower level's row is a prefix of it.
_TABLE_LEVEL = 9
_twist_tables: dict[int, list[bytes]] = {}
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # exponent 0 <-> 1


def _twist_table() -> list[bytes]:
    n = _TABLE_LEVEL
    if n in _twist_tables:
        return _twist_tables[n]
    table = [row.tobytes() for row in twist_matrix(n)]
    rng = random.Random(n)
    for A, B in ((rng.getrandbits(n), rng.getrandbits(n)) for _ in range(256)):
        if table[A][B] != twist(A, B, n):
            raise InvariantViolation(f"block-doubling table != closed form at ({A}, {B})")
    _twist_tables[n] = table
    return table


def _twist_row(table: list[bytes], A: int, n: int, mask: int) -> bytes:
    """Exponents sigma_gamma(A, B) of the kind with this mask, for B < 2**n.

    Below the lowest set bit of m = A & mask the row equals the standard
    one, so it starts from the table row at level k0 = min(n, 9, that bit),
    or min(n, 9) when m = 0. Up to level 9 a row with m = 0 is the level-9
    table row itself, whose first 2**n entries are this level's. It then
    doubles one level k at a time, by ``twist_matrix``'s blocks: with
    A0 = A mod 2**k and d = [B != 0], row(A0) is [row(A0), col(A0)] and
    row(A0 + 2**k) is [row(A0) ^ d, col(A0) ^ d ^ [gamma_k = -1]]. The
    column comes from the row by ``twist_matrix``'s anticommutation lemma,
    col(A0) = row(A0) ^ N(A0, .): col(0) = 0, and for A0 != 0 it is
    row(A0) ^ d with the diagonal entry row(A0)[A0] kept.
    """
    m = A & mask
    k0 = min(n, _TABLE_LEVEL, (m & -m).bit_length() - 1 if m else n)
    row = table[A % (1 << k0)]
    if k0 < n:
        row = row[: 1 << k0]
    for k in range(k0, n):
        A0 = A % (1 << k)
        flipped = b"\0" + row[1:].translate(_FLIP)  # row(A0) ^ d; sigma(A0, 0) = 0
        col = flipped[:A0] + row[A0 : A0 + 1] + flipped[A0 + 1 :] if A0 else row
        if not A >> k & 1:
            row = row + col
        elif m >> k & 1:  # gamma_k = +1
            row = flipped + b"\0" + col[1:].translate(_FLIP)
        else:
            row = flipped + b"\1" + col[1:]
    return row


# compress() over a tuple of ready-made index ints scans in C without
# allocating (over range() it makes an int per entry, about 2.5x slower).
# It stops at its shorter input, so one tuple, the longest asked for yet,
# serves every level up to 14 (2**14 entries hold about 0.6 MiB); longer
# vectors scan over range(), so one rare high-level call pins no memory.
_indices: tuple[int, ...] = ()


def _support(v: Sequence) -> list[int]:
    """The indices of v's nonzero entries, in one scan."""
    global _indices
    if len(v) > 1 << 14:
        return list(itertools.compress(range(len(v)), v))
    indices = _indices  # a concurrent refill may shorten the global, never this
    if len(indices) < len(v):
        indices = _indices = tuple(range(len(v)))
    return list(itertools.compress(indices, v))


def _operand(x: Element) -> tuple[Sequence, int | None, list[int]]:
    """x as ints over the lcm d of its denominators, d, and x's support.

    One scan finds the support. An all-int operand comes back as is with
    d = None. Any other is scaled over its support only, so a zero
    Fraction becomes int 0, and d is None when no nonzero coefficient is a
    Fraction.
    """
    coeffs = x.coeffs
    support = _support(coeffs)
    if not x._has_fraction:
        return coeffs, None, support
    terms = [coeffs[A] for A in support]
    d = math.lcm(*{c.denominator for c in terms})  # an int's denominator is 1
    ints = [0] * len(coeffs)
    for A, c in zip(support, terms):
        ints[A] = c.numerator * (d // c.denominator)
    return ints, None if all(map(int.__instancecheck__, terms)) else d, support


def _divided_back(out: Sequence, dx: int | None, dy: int | None) -> tuple[tuple, bool]:
    """Outputs divided by dx * dy once, and whether any became a Fraction.

    Nonzero outputs become Fractions and zeros stay int 0, so with dx or
    dy set the result holds a Fraction exactly when its support is not
    empty.
    """
    if dx is None and dy is None:
        return tuple(out), False
    d, out = (dx or 1) * (dy or 1), list(out)
    support = _support(out)
    for C in support:
        out[C] = Fraction(out[C], d)
    return tuple(out), bool(support)


# int64 sums are exact while ||x||_1 * ||y||_1 stays below this (see ``mul_twist``).
_INT64_BOUND = 1 << 63


def _mul_int64(
    xs: Sequence, x_support: list[int], ys: Sequence, table: list[bytes], n: int, mask: int
) -> list[int]:
    """The sums of ``mul_twist`` as int64 numpy rows, one row per A in x's support.

    Row A adds x_A times a signed, XOR-permuted copy of y: at C = A ^ B it
    adds x_A * y_B, negated where the kind's row
    ``_twist_row(table, A, n, mask)`` holds 1 at B. Returns Python ints.
    Exact only under the bound ``mul_twist`` checks.
    """
    size = 1 << n
    y = np.array(ys, dtype=np.int64)
    neg, idx = -y, np.arange(size)
    acc = np.zeros(size, dtype=np.int64)
    for A in x_support:
        negative = np.frombuffer(_twist_row(table, A, n, mask), bool, size)
        acc += xs[A] * np.where(negative, neg, y)[idx ^ A]
    return acc.tolist()


def mul_twist(x: Element, y: Element) -> Element:
    """Bilinear product over basis pairs with closed-form signs.

    Every sign of row A comes from ``_twist_row(table, A, n, mask)``, the
    kind's twist sigma_gamma(A, .) built from the cached level-9 table of
    the standard twist; neither sum path applies the mask itself. Each
    operand goes to one common denominator (``_operand``), the sums over
    the nonzero term pairs are taken on ints, and they are divided back
    once. The sums take one of two paths, both exact:

    * Python ints, one term pair at a time, about nnz(x) * nnz(y)
      interpreter steps.
    * int64 numpy rows (``_mul_int64``), one signed, XOR-permuted copy of
      y per term of x. Measured on pairs at levels 6-12 (2-core x86 VM,
      numpy 2.4), a row costs about 2**n + 640 vector lanes, loading y and reading the
      sums back about two rows more, and an interpreter step about 16
      lanes. So this path is taken when
      16 * nnz(x) * nnz(y) >= (nnz(x) + 2) * (2**n + 640), which no pair
      meets where y has 40 terms or fewer (so none below level 6); and
      only when ||x||_1 * ||y||_1 < 2**63 on the scaled ints, with
      ||v||_1 the sum of |v_A|. Proof that int64 is then exact: every
      output and every partial sum is a sum of distinct terms +-x_A * y_B,
      so its size is at most the sum of all |x_A| * |y_B|, which is
      ||x||_1 * ||y||_1; and every x_A and y_B is at most that too, since
      the count rule leaves both operands nonzero.

    Every other pair takes the Python-int path, which has no size limit.
    """
    x._require_same_signature(y)
    sig, table = x.signature, _twist_table()
    n, mask = sig.level, sig.mask
    (xs, dx, x_support), (ys, dy, y_support) = _operand(x), _operand(y)
    k, m = len(x_support), len(y_support)
    if (
        16 * k * m >= (k + 2) * (sig.dimension + 640)
        and sum(map(abs, xs)) * sum(map(abs, ys)) < _INT64_BOUND
    ):
        out = _mul_int64(xs, x_support, ys, table, n, mask)
    else:
        y_terms = [(B, ys[B]) for B in y_support]
        out = [0] * sig.dimension
        for A in x_support:
            xa, row = xs[A], _twist_row(table, A, n, mask)
            for B, yb in y_terms:
                if row[B]:
                    out[A ^ B] -= xa * yb
                else:
                    out[A ^ B] += xa * yb
    return Element._trusted(sig, *_divided_back(out, dx, dy))


def _conj_tuple(v: tuple) -> tuple:
    return (v[0], *map(operator.neg, v[1:]))


def _mul_rec(x: Sequence, y: Sequence, gammas: tuple[int, ...]) -> tuple:
    # (a,b)(c,d) = (ac + g * conj(d) b, da + b conj(c)) with g = gammas[-1].
    if not gammas:
        return (x[0] * y[0],)
    add_db = operator.sub if gammas[-1] == -1 else operator.add
    if len(gammas) == 1:
        # The halves are scalars, where conj is the identity.
        (a, b), (c, d) = x, y
        return (add_db(a * c, d * b), d * a + b * c)
    if len(gammas) == 2:
        # The four level-1 sub-products written out, with h = gammas[0]
        # and conj(p, q) = (p, -q): a = (x0, x1), b = (x2, x3), c = (y0, y1),
        # d = (y2, y3).
        h, g = gammas
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + h * y1 * x1 + g * (y2 * x2 - h * x3 * y3),
            y1 * x0 + x1 * y0 + g * (y2 * x3 - y3 * x2),
            y2 * x0 + h * x1 * y3 + x2 * y0 - h * y1 * x3,
            x1 * y2 + y3 * x0 + x3 * y0 - y1 * x2,
        )
    # A sub-product with an all-zero factor is zero and is not recursed
    # into: a sparse pair follows at most one branch per pair of terms at
    # each level, instead of unfolding all 4**(n-2) level-2 steps.
    h, sub = len(x) // 2, gammas[:-1]
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    a_nz, b_nz, c_nz, d_nz = any(a), any(b), any(c), any(d)
    zero = (0,) * h
    ac = _mul_rec(a, c, sub) if a_nz and c_nz else zero
    db = _mul_rec(_conj_tuple(d), b, sub) if d_nz and b_nz else zero
    da = _mul_rec(d, a, sub) if d_nz and a_nz else zero
    bc = _mul_rec(b, _conj_tuple(c), sub) if b_nz and c_nz else zero
    return (*map(add_db, ac, db), *map(operator.add, da, bc))


def _term_sign(A: int, B: int, gammas: tuple[int, ...]) -> bool:
    """True when e_A * e_B = -e_{A ^ B}, walked down the doubling formula.

    At level k + 1, e_A is (e_A', 0) if bit k of A is clear and (0, e_A')
    if it is set, with A' = A mod 2**k; likewise e_B. In
    (a,b)(c,d) = (ac + g * conj(d) b, da + b conj(c)), g = gammas[k], only
    one of the four sub-products has two nonzero factors, and
    conj(e_B') = -e_B' unless B' = 0:

    * bit clear in both: ac = e_A' e_B', the factors kept;
    * set in both: g * conj(e_B') e_A', the factors swapped, times g and
      times -1 if B' != 0;
    * set in B only: da = e_B' e_A', the factors swapped;
    * set in A only: b conj(c) = e_A' conj(e_B'), times -1 if B' != 0.

    The survivor lands on index A' ^ B' of its half, so the product is
    +-e_{A ^ B}, and the walk carries only the sign down to e_0 e_0 = e_0.
    """
    negative = False
    for k in reversed(range(len(gammas))):
        top = 1 << k
        a_top, b_top = A & top, B & top
        A, B = A ^ a_top, B ^ b_top
        if b_top:
            if a_top:  # g * conj(d) b
                negative ^= (gammas[k] == -1) ^ (B != 0)
            A, B = B, A
        elif a_top and B:  # b conj(c)
            negative = not negative
    return negative


def _mul_terms(
    xs: Sequence, x_support: list[int], ys: Sequence, y_support: list[int],
    gammas: tuple[int, ...],
) -> list:
    # The bilinear sum over the nonzero term pairs, one walked sign each.
    out = [0] * len(xs)
    y_terms = [(B, ys[B]) for B in y_support]
    for A in x_support:
        xa = xs[A]
        for B, yb in y_terms:
            if _term_sign(A, B, gammas):
                out[A ^ B] -= xa * yb
            else:
                out[A ^ B] += xa * yb
    return out


def mul_doubling(x: Element, y: Element) -> Element:
    """Product through the recursive doubling construction.

    One formula, (a,b)(c,d) = (ac + g * conj(d) b, da + b conj(c)), in two
    evaluation orders. Dense operands split into (low, high) halves and
    recurse with the level's doubling parameter down to the written-out
    level-2 step, skipping every sub-product with an all-zero factor
    (``_mul_rec``). Sparse operands expand over their nonzero term pairs,
    each pair's sign walked down the same formula (``_term_sign``). The
    term order costs about nnz(x) * nnz(y) * n steps and the recursion at
    least 2**n, so it is taken when nnz(x) * nnz(y) * n <= 2**n, the
    counts read off the operands' supports. Levels 0-2 are written-out
    steps of the recursion, with nothing for the term order to save, so
    they always take it. Both run on ints over each operand's common
    denominator, divided back once (exact: the product is bilinear). The
    oracle calls nothing from the twist layer and serves as the twist
    engine's check.
    """
    x._require_same_signature(y)
    gammas = x.signature.gammas
    (xs, dx, x_support), (ys, dy, y_support) = _operand(x), _operand(y)
    n = len(gammas)
    if n > 2 and len(x_support) * len(y_support) * n <= len(xs):
        out = _mul_terms(xs, x_support, ys, y_support, gammas)
    else:
        out = _mul_rec(xs, ys, gammas)
    return Element._trusted(x.signature, *_divided_back(out, dx, dy))


def conjugate(x: Element) -> Element:
    """Conjugation: negate every coefficient except the real one.

    Only the support is walked. Negation keeps each coefficient's type,
    so the result holds a Fraction exactly when x does.
    """
    out = list(x.coeffs)
    for A in _support(out):
        if A:
            out[A] = -out[A]
    return Element._trusted(x.signature, tuple(out), x._has_fraction)


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

    return Element._trusted(x.signature, rec(x.coeffs), x._has_fraction)


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


# CPython's default limit on the digits of an int read from or written as a
# string. ``Fraction`` builds 10**e for a token with an exponent e without
# that limit, so ``1e999999999`` would take hours and ~415 MB to build.
INT_DIGIT_LIMIT = 4300


def parse_coeffs(text: str) -> tuple:
    """Parse the comma-separated exact-rational element format.

    Example: ``0,1,-3/2,0``. Integer entries stay ints; fractional ones
    become Fractions. A token with an exponent e, of either sign, whose
    10**|e| has more than ``INT_DIGIT_LIMIT`` digits is refused before any
    integer is built.
    """
    parts = [p.strip() for p in text.split(",")]
    out = []
    for p in parts:
        if not p:
            raise ValueError(f"empty coefficient in {text!r}")
        exponent = p.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) >= INT_DIGIT_LIMIT):
            raise ValueError(
                f"bad coefficient {p!r}: 10**exponent has more than {INT_DIGIT_LIMIT} digits"
            )
        try:
            f = Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coefficient {p!r}: {exc}") from None
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def format_coeffs(coeffs: Sequence) -> str:
    # str() stops at the int-string limit parse_coeffs relies on; Decimal writes any int
    parts = ((Decimal(c.numerator), Decimal(c.denominator)) for c in coeffs)
    return ",".join(f"{p}/{q}" if q != 1 else str(p) for p, q in parts)


def parse_element(text: str, signature: AlgebraSignature) -> Element:
    return Element(signature, parse_coeffs(text))
