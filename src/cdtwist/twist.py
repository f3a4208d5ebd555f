"""Sign computation for Cayley-Dickson multiplication tables.

A basis element of the level-n algebra (dimension 2**n) is labelled by an
integer index A < 2**n, read through its binary digits a_0 .. a_{n-1}
(a_i = bit i of A). Products of basis elements are signed basis elements,

    e_A * e_B = (-1)**twist(A, B) * e_{A ^ B},

so the entire multiplication table is determined by the Z2-valued twist
exponent. This module computes that exponent along two independent routes:

* ``twist`` evaluates a closed form over the binary digits: the degree
  (lowest set bit) of A, B and A ^ B fixes a cutoff position, above which
  an OR-sum of digit pairs accumulates, with a small case split on how the
  degrees compare.
* ``twist_recursive`` peels the highest relevant bit and applies the
  doubling recursion, seeded on indices {0, 1} by the facts that the unit
  is neutral and the first imaginary generator squares to -1.
  ``twist_matrix`` builds whole tables by this recursion in block form.

The two routes must agree everywhere; the test suite enforces this
exhaustively for all levels up to 8. The split variant (final doubling
parameter +1, making the top generator hyperbolic instead of imaginary)
differs from the standard twist exactly by the product of the two top
bits; ``split_twist`` and ``split_twist_recursive`` compute it by the
reduction formula and by the split recursion respectively.

Twist values are always exponents in {0, 1}, never +-1 signs; conversion
to a sign happens in the element-arithmetic layer (`cdtwist.algebra`).

All functions here are pure. ``twist_recursive`` keeps a bounded, lock
protected memo (``functools.lru_cache``), so concurrent callers always
observe consistent values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "degree",
    "phi",
    "ell",
    "twist",
    "twist_recursive",
    "split_twist",
    "split_twist_recursive",
    "twist_batch",
    "split_twist_batch",
    "twist_matrix",
    "MAX_LEVEL",
]

# Levels are capped so indices fit comfortably in int64 bit arithmetic,
# both in Python scalars and in the numpy batch path.
MAX_LEVEL = 62


def degree(index: int) -> int:
    """Position of the lowest set binary digit of a positive index."""
    if index <= 0:
        raise ValueError("degree undefined for zero index")
    return (index & -index).bit_length() - 1


def phi(a: int, b: int) -> int:
    """a + b + a*b over Z2: equals 0 iff a = b = 0 (the OR of two bits)."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"phi expects bits in {{0, 1}}, got ({a}, {b})")
    return (a + b + a * b) & 1


def ell(A: int, B: int) -> int:
    """Cutoff position: max of the degrees of A, B and A ^ B.

    Defined only for distinct positive indices, so that all three degrees
    exist.
    """
    if A < 1 or B < 1 or A == B:
        raise ValueError(
            f"ell requires distinct positive indices, got ({A}, {B})"
        )
    return max(degree(A), degree(B), degree(A ^ B))


def _check_pair(A: int, B: int, level: int) -> None:
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    bound = 1 << level
    if not (0 <= A < bound and 0 <= B < bound):
        raise ValueError(
            f"indices must lie in [0, {bound}) for level {level}, "
            f"got ({A}, {B})"
        )


def twist(A: int, B: int, level: int) -> int:
    """Closed-form twist exponent of the standard algebra at ``level``.

    Returns 0 when either index is 0, 1 on the nonzero diagonal, and
    otherwise a case split on how the degrees of A and B compare, each
    case adding the OR-sum of the digit pairs from the cutoff position
    upward. Since indices below 2**level carry no higher bits, the sum is
    a popcount of (A | B) shifted down by the cutoff; padding the level
    upward cannot change the result.
    """
    _check_pair(A, B, level)
    if A == 0 or B == 0:
        return 0
    if A == B:
        return 1
    deg_a = (A & -A).bit_length() - 1
    deg_b = (B & -B).bit_length() - 1
    x = A ^ B
    cut = max(deg_a, deg_b, (x & -x).bit_length() - 1)
    digit_sum = ((A | B) >> cut).bit_count()
    a_cut = (A >> cut) & 1
    b_cut = (B >> cut) & 1
    if deg_a > deg_b:
        return (b_cut + digit_sum) & 1
    if deg_a < deg_b:
        return (1 + a_cut + digit_sum) & 1
    return (a_cut + digit_sum) & 1


def _peel(A: int, B: int, low, n: int | None = None, square: int = 1) -> int:
    """One doubling step: the twist of (A, B) from ``low``, a twist of the low parts.

    Peels bit n (by default the highest set bit of either index) and reduces
    the pair (A0 + a_n 2**n, B0 + b_n 2**n) to twists of the low parts:

        t(A0,B0)*(1+b_n) + t(B0,A0)*b_n + t(B0,B0)*a_n + square*a_n*b_n  (mod 2)

    where ``square`` is the exponent of the peeled generator's square: 1 when
    it squares to -1, 0 for the hyperbolic unit of the split kind. Without
    ``n``, pairs in {0,1}**2 are the seed: 0 except t(1,1) = 1.
    """
    if n is None:
        if A < 2 and B < 2:
            return A & B  # only the (1,1) pair hits the g0**2 = -1 sign
        n = max(A.bit_length(), B.bit_length()) - 1
    top = 1 << n
    a_n, b_n = (A >> n) & 1, (B >> n) & 1
    A0, B0 = A & ~top, B & ~top
    return (
        low(A0, B0) * (1 + b_n) + low(B0, A0) * b_n + low(B0, B0) * a_n + square * a_n * b_n
    ) & 1


@lru_cache(maxsize=1 << 18)
def twist_recursive(A: int, B: int) -> int:
    """Twist exponent by doubling recursion (``_peel``); agrees with ``twist``.

    The memo is bounded; exponential unfolding would otherwise make this
    route unusable beyond small bit lengths.
    """
    if A < 0 or B < 0:
        raise ValueError(f"indices must be nonnegative, got ({A}, {B})")
    return _peel(A, B, twist_recursive)


def split_twist(A: int, B: int, level: int) -> int:
    """Closed-form twist exponent of the split algebra at ``level``.

    The split algebra replaces the final doubling parameter by +1; its
    twist differs from the standard one exactly by the product of the two
    bits at the top position (index level - 1).
    """
    if level < 1:
        raise ValueError("split algebras need level >= 1")
    _check_pair(A, B, level)
    top = level - 1
    return twist(A, B, level) ^ (((A >> top) & (B >> top)) & 1)


def split_twist_recursive(A: int, B: int, level: int) -> int:
    """Split twist exponent by one split-recursion step at the top bit.

    The split structure lives only in the final doubling, so the top bit
    is peeled with the split rule (``square=0``: the hyperbolic unit squares
    to +1) and the low parts are evaluated with the standard recursion.
    """
    if level < 1:
        raise ValueError("split algebras need level >= 1")
    _check_pair(A, B, level)
    return _peel(A, B, twist_recursive, level - 1, square=0)


def twist_batch(A, B, level: int) -> np.ndarray:
    """Vectorized ``twist`` over arrays of indices.

    Accepts anything ``np.asarray`` turns into integer arrays of equal
    shape; returns a uint8 array of exponents. Used to sample-check table
    builds and by the benchmark harness, and cross-checked against the
    scalar routes in the test suite.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    bound = np.int64(1) << level
    if A.size and (
        (A < 0).any() or (A >= bound).any() or (B < 0).any() or (B >= bound).any()
    ):
        raise ValueError(f"indices must lie in [0, {1 << level}) for level {level}")

    # degree(k) = popcount((k & -k) - 1); masked to 0 where the index is 0
    # so no lane feeds garbage into the shifts below.
    deg_a = np.where(A > 0, np.bitwise_count((A & -A) - 1), 0).astype(np.int64)
    deg_b = np.where(B > 0, np.bitwise_count((B & -B) - 1), 0).astype(np.int64)
    X = A ^ B
    deg_x = np.where(X > 0, np.bitwise_count((X & -X) - 1), 0).astype(np.int64)
    cut = np.maximum(np.maximum(deg_a, deg_b), deg_x)
    digit_sum = np.bitwise_count((A | B) >> cut).astype(np.int64)
    a_cut = (A >> cut) & 1
    b_cut = (B >> cut) & 1
    result = np.select(
        [(A == 0) | (B == 0), A == B, deg_a > deg_b, deg_a < deg_b],
        [
            np.int64(0),
            np.int64(1),
            (b_cut + digit_sum) & 1,
            (1 + a_cut + digit_sum) & 1,
        ],
        default=(a_cut + digit_sum) & 1,
    )
    return result.astype(np.uint8)


def split_twist_batch(A, B, level: int) -> np.ndarray:
    """Vectorized ``split_twist`` over arrays of indices."""
    if level < 1:
        raise ValueError("split algebras need level >= 1")
    base = twist_batch(A, B, level)
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    top = level - 1
    return (base ^ (((A >> top) & (B >> top)) & 1).astype(np.uint8))


def twist_matrix(level: int, split: bool = False) -> np.ndarray:
    """Full uint8 exponent matrix ``M[A, B]``, by the doubling recursion in block form.

    T_0 = [[0]], T_{k+1} = [[T, T^t], [T + d, T^t + d + 1]] over Z2 with
    d[B] = T[B, B] along every row; the split kind drops the last ``+ 1``.
    Cost is O(4**n) byte operations; callers bound the level.
    """
    if level < split:
        raise ValueError(f"level must be >= {int(split)} (split needs 1), got {level}")
    out = np.zeros((1 << level, 1 << level), dtype=np.uint8)
    for k in range(level):
        h = 1 << k
        T = out[:h, :h]
        d = T.diagonal()
        out[:h, h : 2 * h] = T.T
        out[h : 2 * h, :h] = T ^ d
        out[h : 2 * h, h : 2 * h] = T.T ^ d ^ (0 if split and k == level - 1 else 1)
    return out
