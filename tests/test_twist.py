"""Tests for the sign (twist) functions, closed form vs recursion."""

import importlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtwist import analysis
from cdtwist.twist import (
    MAX_TABLE_LEVEL,
    degree,
    ell,
    phi,
    split_twist,
    split_twist_batch,
    split_twist_recursive,
    twist,
    twist_batch,
    twist_matrix,
    twist_recursive,
)
from cdtwist.algebra import AlgebraSignature
from cdtwist.analysis import _oracle_parity_table

# the package re-exports the function ``twist``, which shadows the module name
twist_module = importlib.import_module("cdtwist.twist")


class TestDegree:
    def test_examples(self):
        assert degree(1) == 0
        assert degree(6) == 1  # 6 = 2 + 4, lowest set bit wins
        assert degree(8) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="degree undefined"):
            degree(0)
        with pytest.raises(ValueError):
            degree(-3)


class TestPhi:
    @pytest.mark.parametrize(
        "a,b,expected", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    )
    def test_table(self, a, b, expected):
        assert phi(a, b) == expected
        assert phi(a, b) == (a | b)  # piecewise form = OR

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            phi(2, 0)
        with pytest.raises(ValueError):
            phi(0, -1)


class TestEll:
    def test_examples(self):
        assert ell(1, 2) == 1
        assert ell(1, 3) == 1
        # degrees 0 and 1, XOR has degree 0: the max is 1
        assert ell(5, 6) == 1

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (1, 1), (7, 7)])
    def test_preconditions(self, a, b):
        with pytest.raises(ValueError):
            ell(a, b)


class TestTwistClosed:
    def test_zero_index_rows(self):
        assert twist(0, 7, 3) == 0
        assert twist(7, 0, 3) == 0
        assert twist(0, 0, 3) == 0

    def test_nonzero_diagonal(self):
        assert twist(5, 5, 3) == 1
        assert twist(1, 1, 1) == 1

    def test_oracle_spot_values(self):
        # frozen from the recursion oracle
        assert twist(1, 2, 2) == 0  # quaternionic e1 e2 = +e3
        assert twist(5, 6, 3) == 1  # octonionic e5 e6 = -e3
        assert twist_recursive(5, 6) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="indices must lie"):
            twist(8, 0, 3)
        with pytest.raises(ValueError):
            twist(0, -1, 3)
        with pytest.raises(ValueError):
            twist(0, 0, -1)
        with pytest.raises(ValueError):
            twist(0, 0, 63)


class TestTwistRecursive:
    def test_base_cases(self):
        assert twist_recursive(0, 0) == 0
        assert twist_recursive(0, 1) == 0
        assert twist_recursive(1, 0) == 0
        assert twist_recursive(1, 1) == 1

    def test_unit_row(self):
        assert all(twist_recursive(0, B) == 0 for B in range(64))
        assert all(twist_recursive(A, 0) == 0 for A in range(64))

    def test_one_unfolding(self):
        assert twist_recursive(3, 2) == 1  # kj = -i

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            twist_recursive(-1, 0)


def test_closed_matches_recursion_small_levels():
    for n in range(1, 7):
        dim = 1 << n
        for A in range(dim):
            for B in range(dim):
                assert twist(A, B, n) == twist_recursive(A, B), (n, A, B)


def test_padding_invariance_exhaustive_level_4():
    for A in range(16):
        for B in range(16):
            base = twist(A, B, 4)
            for pad in (5, 6, 8, 12):
                assert twist(A, B, pad) == base


class TestSplitTwist:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_hyperbolic_unit_squares_positive(self, n):
        assert split_twist(1 << n, 1 << n, n + 1) == 0
        assert split_twist_recursive(1 << n, 1 << n, n + 1) == 0

    def test_agrees_with_standard_below_top_bit(self):
        for A in range(8):
            for B in range(8):
                assert split_twist(A, B, 4) == twist(A, B, 4)
                assert split_twist_recursive(A, B, 4) == twist_recursive(A, B)

    def test_spot_value(self):
        # sigma(5,6) = 1 and both top bits are set at level 3
        assert split_twist(5, 6, 3) == 0

    def test_closed_matches_recursive_exhaustive_level_4(self):
        for A in range(16):
            for B in range(16):
                assert split_twist(A, B, 4) == split_twist_recursive(A, B, 4)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            split_twist(0, 0, 0)
        with pytest.raises(ValueError):
            split_twist_recursive(0, 0, 0)


class TestBatch:
    @pytest.mark.parametrize("level", [1, 3, 8, 16, 24])
    def test_matches_scalar(self, level):
        rng = np.random.default_rng(level)
        a = rng.integers(0, 1 << level, size=500, dtype=np.int64)
        b = rng.integers(0, 1 << level, size=500, dtype=np.int64)
        expected = [twist(int(x), int(y), level) for x, y in zip(a, b)]
        assert twist_batch(a, b, level).tolist() == expected
        if level >= 1:
            expected_split = [split_twist(int(x), int(y), level) for x, y in zip(a, b)]
            assert split_twist_batch(a, b, level).tolist() == expected_split

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            twist_batch([1, 2], [1], 3)
        with pytest.raises(ValueError, match="indices"):
            twist_batch([8], [0], 3)
        with pytest.raises(ValueError):
            twist_batch([0], [-1], 3)

    def test_2d_shapes(self):
        a = np.arange(8, dtype=np.int64)[:, None]
        b = np.arange(8, dtype=np.int64)[None, :]
        out = twist_batch(np.broadcast_to(a, (8, 8)), np.broadcast_to(b, (8, 8)), 3)
        assert out.shape == (8, 8)
        assert out[5, 6] == 1


def _kinds_through(top):
    # split algebras start at level 1
    return [(n, split) for n in range(top + 1) for split in (False, True) if n or not split]


def _split_mask(level, split):
    return 1 << (level - 1) if split else 0


def _transposing_twist_matrix(level, mask=0):
    """The block builder that gathers each T^t block from ``T.T``: the reference
    for ``twist_matrix``, which carries the transpose instead."""
    out = np.zeros((1 << level, 1 << level), dtype=np.uint8)
    for k in range(level):
        h = 1 << k
        T = out[:h, :h]
        d = np.ones(h, dtype=np.uint8)
        d[0] = 0
        out[:h, h : 2 * h] = T.T
        out[h : 2 * h, :h] = T ^ d
        out[h : 2 * h, h : 2 * h] = T.T ^ d ^ (1 - (mask >> k & 1))
    return out


# gamma_k = +1 at k = 1, 2, 5, 7, 8, 9: the irregular vector of the algebra tests
_IRREGULAR_GAMMAS = (-1, 1, 1, -1, -1, 1, -1, 1, 1, 1, -1, -1)


def _reference_masks(level):
    return {
        "standard": 0,
        "split": 1 << (level - 1),
        "all-ones": (1 << level) - 1,
        "irregular": AlgebraSignature.from_gammas(_IRREGULAR_GAMMAS[:level]).mask,
    }


class TestTwistMatrix:
    @pytest.mark.parametrize("level, split", _kinds_through(8))
    def test_matches_scalar_exhaustive(self, level, split):
        fn = split_twist if split else twist
        dim = 1 << level
        expected = [[fn(A, B, level) for B in range(dim)] for A in range(dim)]
        matrix = twist_matrix(level, _split_mask(level, split))
        assert matrix.dtype == np.uint8
        assert matrix.tolist() == expected

    @pytest.mark.parametrize("level, split", _kinds_through(8))
    def test_matches_doubling_oracle_exhaustive(self, level, split):
        sig = (AlgebraSignature.split if split else AlgebraSignature.standard)(level)
        oracle = [list(row) for row in _oracle_parity_table(sig)]
        assert twist_matrix(level, _split_mask(level, split)).tolist() == oracle

    @pytest.mark.parametrize("level", range(1, 10))
    def test_every_gamma_vector_matches_the_doubling_oracle(self, level):
        # every vector through level 6 (126 in all), two seeded ones per level above
        vectors = list(itertools.product((-1, 1), repeat=level))
        if level > 6:
            vectors = random.Random(f"gammas:{level}").sample(vectors, 2)
        for gammas in vectors:
            sig = AlgebraSignature.from_gammas(gammas)
            oracle = np.frombuffer(b"".join(_oracle_parity_table(sig)), dtype=np.uint8)
            matrix = twist_matrix(level, sig.mask)
            assert (matrix.ravel() == oracle).all(), gammas

    @pytest.mark.parametrize("level", range(1, 6))
    def test_scalar_and_batch_follow_the_mask(self, level):
        dim = 1 << level
        A, B = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        base = twist_matrix(level)
        for mask in range(dim):
            matrix = twist_matrix(level, mask)
            scalar = [[twist(a, b, level, mask) for b in range(dim)] for a in range(dim)]
            assert matrix.tolist() == scalar, mask
            assert (twist_batch(A, B, level, mask) == matrix).all(), mask
            assert (matrix ^ base == np.bitwise_count(A & B & mask) & 1).all(), mask

    @pytest.mark.parametrize("level", range(9, 13))
    @pytest.mark.parametrize("kind", ["standard", "split", "all-ones", "irregular"])
    def test_matches_the_transposing_builder(self, level, kind):
        mask = _reference_masks(level)[kind]
        assert np.array_equal(twist_matrix(level, mask), _transposing_twist_matrix(level, mask))

    def test_scratch_is_a_quarter_of_the_output(self):
        # the output (4**12 bytes) and the carried transpose (4**11) are all it holds
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            matrix = twist_matrix(12, 1 << 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert matrix.nbytes == 4**12
        assert peak <= 1.3 * 4**12, peak / 4**12

    @pytest.mark.parametrize("level", [13, 20, 62])
    def test_levels_above_the_table_limit_are_refused_before_allocating(self, level, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("allocated above the table limit")

        monkeypatch.setattr(twist_module.np, "zeros", boom)
        monkeypatch.setattr(twist_module.np, "empty", boom)
        with pytest.raises(ValueError, match="cap is 12"):
            twist_matrix(level)

    def test_the_table_limit_is_defined_once(self):
        assert MAX_TABLE_LEVEL == 12
        assert analysis.DEFAULT_TABLE_CAP == MAX_TABLE_LEVEL
        with pytest.raises(ValueError, match="cap is 12"):
            analysis._check_table_level(13)
        analysis._check_table_level(12)

    def test_validation(self):
        with pytest.raises(ValueError, match="mask"):
            twist_matrix(0, mask=1)
        with pytest.raises(ValueError, match="mask"):
            twist_matrix(3, mask=8)
        with pytest.raises(ValueError, match="level"):
            twist_matrix(-1)

    @pytest.mark.parametrize("level", range(6))
    def test_entry_points_accept_the_same_masks(self, level):
        # scalar, batch and matrix accept exactly [0, 2**level) and refuse
        # the rest with one message
        bound = 1 << level
        for mask in range(bound):
            twist(0, 0, level, mask)
            twist_batch([0], [0], level, mask)
            twist_matrix(level, mask)
        for mask in (-1, bound, bound + 1, 2 * bound, 1 << 62):
            message = f"mask must lie in \\[0, {bound}\\) for level {level}, got {mask}$"
            with pytest.raises(ValueError, match=message):
                twist(0, 0, level, mask)
            with pytest.raises(ValueError, match=message):
                twist(bound - 1, bound - 1, level, mask)
            with pytest.raises(ValueError, match=message):
                twist_batch([0], [0], level, mask)
            with pytest.raises(ValueError, match=message):
                twist_batch([], [], level, mask)
            with pytest.raises(ValueError, match=message):
                twist_matrix(level, mask)


# -- property tests ----------------------------------------------------------

indices20 = st.integers(min_value=0, max_value=(1 << 20) - 1)


@given(A=indices20, B=indices20)
@settings(max_examples=300)
def test_prop_closed_equals_recursive(A, B):
    assert twist(A, B, 20) == twist_recursive(A, B)


@given(A=indices20, B=indices20)
def test_prop_antisymmetry_off_diagonal(A, B):
    if A != B and A != 0 and B != 0:
        assert (twist(A, B, 20) + twist(B, A, 20)) % 2 == 1


@given(A=indices20, B=indices20)
def test_prop_padding_invariance(A, B):
    assert twist(A, B, 20) == twist(A, B, 27)


@given(A=indices20, B=indices20)
def test_prop_split_reduction(A, B):
    top = 19
    expected = twist(A, B, 20) ^ (((A >> top) & (B >> top)) & 1)
    assert split_twist(A, B, 20) == expected


@given(A=st.integers(1, (1 << 16) - 1), B=st.integers(1, (1 << 16) - 1))
def test_prop_cut_bit_or_is_one(A, B):
    if A != B:
        cut = ell(A, B)
        assert phi((A >> cut) & 1, (B >> cut) & 1) == 1
