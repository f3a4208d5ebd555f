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
* ``twist_recursive`` peels the highest set bit of A | B and applies the
  doubling recursion, which keeps one product of the low parts per step,
  down to twist(0, 0) = 0. ``twist_matrix`` builds whole tables by the
  same recursion in block form, each transposed block read off the
  anticommutation lemma it states: twist(A, B) + twist(B, A) =
  [A != 0][B != 0][A != B] in every kind.

The two routes must agree everywhere; the test suite enforces this
exhaustively for all levels up to 8. The twist of any other
doubling-parameter vector gamma differs from the standard one by one term:
with ``mask`` the set of levels k where gamma_k = +1 (a hyperbolic instead
of an imaginary new generator),

    twist_gamma(A, B) = twist(A, B) + popcount(A & B & mask)  (mod 2).

``twist``, ``twist_recursive``, ``twist_batch`` and ``twist_matrix`` take
that mask (0, the standard kind, by default); ``twist_matrix`` carries the
proof. The split kind is the mask of the top bit alone: ``split_twist``,
``split_twist_recursive`` and ``split_twist_batch`` are that case.

Twist values are always exponents in {0, 1}, never +-1 signs; conversion
to a sign happens in the element-arithmetic layer (`cdtwist.algebra`).

All functions here are pure. ``twist_recursive`` keeps a bounded, lock
protected memo (``functools.lru_cache``), so concurrent callers always
observe consistent values. Besides ``split_twist_recursive`` nothing in the
package calls it: the twist-law sweep compares against ``twist_matrix``, and
``benchmark_engines`` wraps ``_peel`` in a cold memo of the same size.
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
    "MAX_TABLE_LEVEL",
]

# Levels are capped so indices fit comfortably in int64 bit arithmetic,
# both in Python scalars and in the numpy batch path.
MAX_LEVEL = 62

# Full tables (``twist_matrix``) stop here: 4**12 bytes is a 16 MiB matrix.
MAX_TABLE_LEVEL = 12


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


def _check_mask(level: int, mask: int) -> None:
    if not 0 <= mask < 1 << level:
        raise ValueError(f"mask must lie in [0, {1 << level}) for level {level}, got {mask}")


def _check_pair(A: int, B: int, level: int, mask: int = 0) -> None:
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    bound = 1 << level
    if not (0 <= A < bound and 0 <= B < bound):
        raise ValueError(
            f"indices must lie in [0, {bound}) for level {level}, "
            f"got ({A}, {B})"
        )
    if not 0 <= mask < bound:
        _check_mask(level, mask)  # raises


def twist(A: int, B: int, level: int, mask: int = 0) -> int:
    """Closed-form twist exponent at ``level``, of the standard algebra by default.

    Returns 0 when either index is 0, 1 on the nonzero diagonal, and
    otherwise a case split on how the degrees of A and B compare, each
    case adding the OR-sum of the digit pairs from the cutoff position
    upward. Since indices below 2**level carry no higher bits, the sum is
    a popcount of (A | B) shifted down by the cutoff; padding the level
    upward cannot change the result. A nonzero ``mask`` (bit k set where
    gamma_k = +1) adds popcount(A & B & mask); see ``twist_matrix``.
    """
    _check_pair(A, B, level, mask)
    gamma = (A & B & mask).bit_count()
    if A == 0 or B == 0:
        return 0
    if A == B:
        return (1 + gamma) & 1
    deg_a = (A & -A).bit_length() - 1
    deg_b = (B & -B).bit_length() - 1
    x = A ^ B
    cut = max(deg_a, deg_b, (x & -x).bit_length() - 1)
    digit_sum = ((A | B) >> cut).bit_count()
    a_cut = (A >> cut) & 1
    b_cut = (B >> cut) & 1
    if deg_a > deg_b:
        return (b_cut + digit_sum + gamma) & 1
    if deg_a < deg_b:
        return (1 + a_cut + digit_sum + gamma) & 1
    return (a_cut + digit_sum + gamma) & 1


def _peel(A: int, B: int, mask: int, low) -> int:
    """One doubling step (``twist_matrix``'s block rule), from ``low`` on the low parts.

    With n the top bit of A | B, A = A0 + a_n 2**n and B = B0 + b_n 2**n:

        t(A, B) = (t(B0, A0) if b_n else t(A0, B0)) + a_n [B0 != 0] + a_n b_n [gamma_n = -1]

    mod 2, where [B0 != 0] is the exponent of the sign of conj(e_B0) and
    [gamma_n = -1] is 1 minus bit n of ``mask``. It ends at t(0, 0) = 0.
    """
    if not A | B:
        return 0
    n = (A | B).bit_length() - 1
    a_n, b_n = A >> n, B >> n
    A0, B0 = A ^ (a_n << n), B ^ (b_n << n)
    low_part = low(B0, A0, mask) if b_n else low(A0, B0, mask)
    return (low_part + a_n * ((B0 != 0) + b_n * (1 - (mask >> n & 1)))) & 1


@lru_cache(maxsize=1 << 18)
def twist_recursive(A: int, B: int, mask: int = 0) -> int:
    """Twist exponent by the doubling recursion (``_peel``); agrees with ``twist``.

    Bit k of ``mask`` is set where gamma_k = +1, as for ``twist``. Each step
    peels one bit with one recursive call, so a pair costs a chain of
    popcount(A | B) + 1 calls, at most n + 1 at level n; the bounded memo
    keeps them for later pairs.
    """
    if A < 0 or B < 0 or mask < 0:
        raise ValueError(f"indices and mask must be nonnegative, got ({A}, {B}, {mask})")
    return _peel(A, B, mask, twist_recursive)


def _split_mask(level: int) -> int:
    if level < 1:
        raise ValueError("split algebras need level >= 1")
    return 1 << (level - 1)


def split_twist(A: int, B: int, level: int) -> int:
    """``twist`` of the split algebra (final doubling parameter +1): the top-bit mask."""
    return twist(A, B, level, _split_mask(level))


def split_twist_recursive(A: int, B: int, level: int) -> int:
    """``twist_recursive`` of the split algebra: the checked top-bit mask."""
    _check_pair(A, B, level, _split_mask(level))
    return twist_recursive(A, B, _split_mask(level))


def twist_batch(A, B, level: int, mask: int = 0) -> np.ndarray:
    """Vectorized ``twist`` over arrays of indices.

    Accepts anything ``np.asarray`` turns into integer (or bool) arrays of
    equal shape; any other non-empty input, floats included, is refused
    rather than cast. Returns a uint8 array of exponents. Used to
    sample-check table builds and by the benchmark harness, and
    cross-checked against the scalar routes in the test suite.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    _check_mask(level, mask)
    A, B = np.asarray(A), np.asarray(B)
    for v in (A, B):
        if v.size and v.dtype.kind not in "biu":
            raise ValueError(f"indices must be integers, got dtype {v.dtype}")
    A, B = A.astype(np.int64, copy=False), B.astype(np.int64, copy=False)
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
    if mask:
        result ^= np.bitwise_count(A & B & mask) & 1
    return result.astype(np.uint8)


def split_twist_batch(A, B, level: int) -> np.ndarray:
    """Vectorized ``split_twist`` over arrays of indices."""
    return twist_batch(A, B, level, _split_mask(level))


def _check_table_level(level: int) -> None:
    """Refuse a 4**level-entry table above ``MAX_TABLE_LEVEL``, before anything
    is built. The limit is fixed; no caller can raise it."""
    if level > MAX_TABLE_LEVEL:
        raise ValueError(f"refusing to build a level-{level} table (cap is {MAX_TABLE_LEVEL})")


def twist_matrix(level: int, mask: int = 0) -> np.ndarray:
    """Full uint8 exponent matrix ``M[A, B]``, by the doubling recursion in block form.

    Bit k of ``mask`` is set where the k-th doubling parameter gamma_k is +1
    (0: the standard kind). With d[B] = [B != 0], the exponent of the
    conjugation sign of e_B, added along every row,

        T_0 = [[0]],  T_{k+1} = [[T, T^t], [T + d, T^t + d + [gamma_k = -1]]]  (mod 2),

    which is (a, b)(c, e) = (ac + gamma conj(e) b, ea + b conj(c)) on basis
    pairs: e_A0 e_{B0 + 2**k} = e_B0 e_A0, e_{A0 + 2**k} e_B0 = e_A0 conj(e_B0),
    and e_{A0 + 2**k} e_{B0 + 2**k} = gamma_k conj(e_B0) e_A0.

    Proof that this is ``twist(A, B, level, mask)``, the standard exponent
    plus popcount(A & B & mask): by induction on k. The standard kind has
    the same blocks with [gamma_k = -1] = 1. In the three blocks other than
    the bottom right, A & B has no bit k, and T or T^t already differs from
    the standard block by popcount(A0 & B0 & mask). In the bottom right,
    A & B has bit k, and [gamma_k = -1] = 1 + [gamma_k = +1] adds exactly
    bit k of the mask to that popcount.

    Anticommutation lemma: distinct non-real basis units anticommute in
    every kind, that is, T_k + T_k^t = N_k with N[A, B] = [A != 0][B != 0]
    [A != B]. By induction on k from T_0 = N_0 = [[0]]: adding the
    transpose of each block of T_{k+1} to that block gives, with A0 and B0
    the low parts, N_k[A0, B0] top left, [A0 != 0] top right, [B0 != 0]
    bottom left and N_k[A0, B0] + [A0 != 0] + [B0 != 0] = [A0 != B0] bottom
    right, which are the four blocks of N_{k+1}.

    So T^t = T + N needs no transpose: it is the bottom-left block T + d
    with row 0 zero and the diagonal T's own. Each level's three new blocks
    are then row-block copies or in-place XORs into the output, and nothing
    else of table size is allocated. Cost is O(4**n) byte operations;
    levels above ``MAX_TABLE_LEVEL`` are refused before anything is
    allocated.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    _check_table_level(level)
    _check_mask(level, mask)
    out = np.zeros((1 << level, 1 << level), dtype=np.uint8)
    d = np.ones(1 << max(level - 1, 0), dtype=np.uint8)
    d[0] = 0
    for k in range(level):
        h = 1 << k
        T, top, bottom = out[:h, :h], out[:h, h : 2 * h], out[h : 2 * h, :h]
        np.bitwise_xor(T, d[:h], out=bottom)
        top[1:] = bottom[1:]  # T^t = T + N; row 0 stays 0
        np.fill_diagonal(top, T.diagonal())
        np.bitwise_xor(top, d[:h] ^ np.uint8(1 - (mask >> k & 1)), out=out[h : 2 * h, h : 2 * h])
    return out
