"""Tests for signatures, elements, and the two multiplication engines."""

import importlib
import itertools
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtwist import algebra
from cdtwist.algebra import (
    MAX_DENSE_LEVEL,
    AlgebraSignature,
    Element,
    InvariantViolation,
    SignedIndex,
    basis_element,
    basis_from_generators,
    basis_mul,
    conjugate,
    conjugate_recursive,
    format_coeffs,
    mul_doubling,
    mul_twist,
    norm,
    parse_coeffs,
    parse_element,
    random_element,
    trace,
    unit,
    zero,
)
from cdtwist.analysis import find_zero_divisors, verify_algebra_laws

# The package exports the function `twist`, which shadows the module name.
twist_module = importlib.import_module("cdtwist.twist")
STD = AlgebraSignature.standard
SPL = AlgebraSignature.split


class TestSignature:
    def test_standard(self):
        sig = STD(3)
        assert sig.gammas == (-1, -1, -1)
        assert sig.kind == "standard"
        assert sig.dimension == 8
        assert sig.mask == 0 and sig.is_standard and not sig.is_split

    def test_split(self):
        sig = SPL(3)
        assert sig.gammas == (-1, -1, 1)
        assert sig.kind == "split"
        assert sig.mask == 0b100 and sig.is_split and not sig.is_standard
        with pytest.raises(ValueError):
            SPL(0)

    def test_general(self):
        sig = AlgebraSignature.from_gammas((1, -1))
        assert sig.kind == "gamma:+1,-1"
        assert sig.mask == 0b01 and not sig.is_standard and not sig.is_split
        assert AlgebraSignature.from_gammas((1, -1, 1, 1)).mask == 0b1101
        # a single +1 at the end is the split shape, not a general one
        assert AlgebraSignature.from_gammas((1,)) == SPL(1)

    def test_validation(self):
        # the vector is the one field; the level is its length
        with pytest.raises(ValueError, match=r"must be \+-1"):
            AlgebraSignature((2,))
        with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
            AlgebraSignature.standard(-1)

    def test_the_vector_is_the_signature(self):
        for kind in KINDS:
            for n in range(kind == "split", 15):
                gammas = _signature_of(kind, n).gammas
                sig = AlgebraSignature(gammas)
                assert sig == AlgebraSignature.from_gammas(gammas), (kind, n)
                assert hash(sig) == hash(AlgebraSignature.from_gammas(gammas))
                assert sig.level == len(gammas) and sig.dimension == 1 << len(gammas)
                assert sig.mask == sum(1 << k for k, g in enumerate(gammas) if g == 1)

    def test_derived_fields_are_computed_once(self):
        sig = AlgebraSignature.from_gammas((1, -1, 1))
        assert (sig.level, sig.mask, sig.dimension) == (3, 0b101, 8)
        # read back as plain instance attributes, not recomputed per read
        assert {"level", "mask", "dimension"} <= vars(sig).keys()
        with pytest.raises(AttributeError):
            sig.gammas = (1,)

    def test_numpy_integer_entries_become_ints(self):
        # kept as np.int64, the parameters would make the oracle's sums wrap at 2**63
        for sig in (
            AlgebraSignature(tuple(np.array([-1, -1]))),
            AlgebraSignature.from_gammas(np.array([-1, -1])),
        ):
            assert sig == STD(2) and hash(sig) == hash(STD(2))
            assert [type(g) for g in sig.gammas] == [int, int]
            x = Element(sig, (0, 3 << 31, 0, 0))
            y = Element(sig, (0, 5 << 31, 0, 0))
            expected = (-69_175_290_276_410_818_560, 0, 0, 0)
            assert mul_doubling(x, y).coeffs == mul_twist(x, y).coeffs == expected
            assert [type(c) for c in mul_doubling(x, y).coeffs] == [int] * 4

    @pytest.mark.parametrize(
        "gammas",
        [(1.0, -1), (-1, 1.0), (True, -1), (False,), (np.float64(1),), (np.bool_(True),), ("1",), (0,)],
    )
    def test_bool_float_and_non_integer_entries_are_refused(self, gammas):
        with pytest.raises(ValueError, match=r"must be \+-1"):
            AlgebraSignature(gammas)
        with pytest.raises(ValueError, match=r"must be \+-1"):
            AlgebraSignature.from_gammas(gammas)

    def test_a_list_is_stored_as_the_same_tuple(self):
        sig = AlgebraSignature([-1, -1])
        assert sig.gammas == (-1, -1) and isinstance(sig.gammas, tuple)
        assert sig == AlgebraSignature.from_gammas([-1, -1]) == STD(2)
        assert hash(sig) == hash(STD(2))
        # both sweeps key a cache on the vector, which a list could not be
        assert find_zero_divisors(AlgebraSignature([-1, -1])) == []
        assert all(r.ok for r in verify_algebra_laws(AlgebraSignature([1, -1]), samples=2))

    def test_level_zero_is_standard(self):
        assert STD(0).kind == "standard"
        assert STD(0).dimension == 1


class TestElement:
    def test_length_checked(self):
        with pytest.raises(ValueError, match="coefficients"):
            Element(STD(2), (1, 2, 3))

    def test_floats_rejected(self):
        with pytest.raises(ValueError, match="exact rationals"):
            Element(STD(1), (1.0, 0))
        with pytest.raises(ValueError):
            Element(STD(1), (True, 0))

    def test_fractions_allowed(self):
        x = Element(STD(1), (Fraction(1, 2), 3))
        assert x.coeffs == (Fraction(1, 2), 3)

    @pytest.mark.parametrize(
        "c", [True, 1.0, np.float64(1), Decimal(1), 1j, "1"], ids=repr
    )
    def test_rejects_non_rationals(self, c):
        with pytest.raises(ValueError, match="exact rationals"):
            Element(STD(1), (0, c))

    @pytest.mark.parametrize("c", [7, Fraction(-3, 4), np.int64(7)], ids=repr)
    def test_accepts_exact_rationals(self, c):
        assert Element(STD(1), (c, 0)).coeffs == (c, 0)

    def test_numpy_fixed_width_ints_do_not_wrap(self):
        x = Element(STD(2), [np.int8(100), np.int8(100), 0, 0])
        assert [type(c) for c in x.coeffs] == [int] * 4
        exact = Element(STD(2), [100, 100, 0, 0])
        square = Element(STD(2), [0, 20000, 0, 0])
        assert mul_doubling(x, x) == mul_twist(x, x) == mul_doubling(exact, exact) == square
        assert norm(x) == norm(exact) == 20000
        y = Element(STD(1), [100, 3])
        assert y * np.int8(100) == y * 100 == Element(STD(1), [10000, 300])
        assert (np.int8(100) * y).coeffs == (10000, 300)
        # numpy answers `np.int8(100) * y` itself; other left operands reach __rmul__
        assert y.__rmul__(np.int8(100)) == y * 100

    def test_immutable(self):
        x = unit(STD(2))
        with pytest.raises(AttributeError):
            x.coeffs = (9, 0, 0, 0)

    def test_vector_space_ops(self):
        sig = STD(2)
        x = Element(sig, (1, 2, 3, 4))
        y = Element(sig, (0, 1, 0, -1))
        assert (x + y).coeffs == (1, 3, 3, 3)
        assert (x - y).coeffs == (1, 1, 3, 5)
        assert (-x).coeffs == (-1, -2, -3, -4)
        assert (2 * x).coeffs == (2, 4, 6, 8)
        assert (x * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2), 2)

    def test_cross_signature_equality_is_an_error(self):
        x = unit(STD(2))
        y = unit(SPL(2))
        with pytest.raises(ValueError, match="signature mismatch"):
            x == y

    def test_equality_same_signature(self):
        assert unit(STD(2)) == basis_element(STD(2), 0)
        assert unit(STD(2)) != basis_element(STD(2), 1)

    def test_star_operator_uses_closed_form_when_available(self):
        sig = STD(3)
        e5, e6 = basis_element(sig, 5), basis_element(sig, 6)
        assert (e5 * e6).coeffs[3] == -1
        gen = AlgebraSignature.from_gammas((-1, 1, -1))
        a = basis_element(gen, 1)
        assert (a * a) == -unit(gen)  # the twist engine serves every parameter vector


class TestBasisMul:
    def test_quaternion_ij_equals_k(self):
        assert basis_mul(1, 2, STD(2)) == SignedIndex(1, 3)

    def test_identity_column(self):
        for A in range(8):
            assert basis_mul(A, 0, STD(3)) == SignedIndex(1, A)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_split_unit_squares_to_plus_one(self, n):
        assert basis_mul(1 << n, 1 << n, SPL(n + 1)) == SignedIndex(1, 0)

    def test_every_gamma_vector_matches_the_doubling_oracle(self):
        for gammas in itertools.product((-1, 1), repeat=3):
            sig = AlgebraSignature.from_gammas(gammas)
            es = [basis_element(sig, A) for A in range(sig.dimension)]
            for A in range(sig.dimension):
                for B in range(sig.dimension):
                    sign, index = basis_mul(A, B, sig)
                    assert mul_doubling(es[A], es[B]) == sign * es[index], (gammas, A, B)


class TestMulTwist:
    def test_imaginary_unit_squares_to_minus_one(self):
        sig = STD(1)
        e1 = basis_element(sig, 1)
        assert mul_twist(e1, e1) == -unit(sig)

    def test_identity(self):
        rng = random.Random(3)
        for n in range(0, 5):
            x = random_element(STD(n), rng)
            assert mul_twist(x, unit(STD(n))) == x
            assert mul_twist(unit(STD(n)), x) == x

    def test_octonion_spot_product(self):
        sig = STD(3)
        assert mul_twist(basis_element(sig, 5), basis_element(sig, 6)) == -basis_element(sig, 3)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="signature mismatch"):
            mul_twist(unit(STD(2)), unit(STD(3)))

    def test_general_gamma_matches_doubling(self):
        gen = AlgebraSignature.from_gammas((1, 1))
        e1, e2, e3 = (basis_element(gen, A) for A in (1, 2, 3))
        assert mul_twist(e1, e1) == mul_twist(e2, e2) == unit(gen)  # both hyperbolic
        assert mul_twist(e3, e3) == -unit(gen)
        x = Element(gen, (1, Fraction(-2, 3), 5, Fraction(1, 2)))
        y = Element(gen, (Fraction(3, 4), 0, -1, 7))
        assert mul_twist(x, y) == mul_doubling(x, y)

    @pytest.mark.parametrize("sig", [STD(3), SPL(3)])
    def test_wrong_closed_form_is_detected_on_cold_cache(self, sig, monkeypatch):
        # every kind reads the one standard table, so a wrong standard twist
        # is caught for the split kind too
        right = algebra.twist
        monkeypatch.setattr(algebra, "twist", lambda A, B, level: right(A, B, level) ^ 1)
        monkeypatch.setattr(algebra, "_twist_tables", {})
        with pytest.raises(InvariantViolation, match="block-doubling"):
            mul_twist(unit(sig), unit(sig))


def _assert_kernel_matches_doubling(x: Element, y: Element) -> None:
    got = mul_twist(x, y)
    assert got == mul_doubling(x, y), x.signature
    assert {type(c) for c in got.coeffs} <= {int, Fraction}
    assert list(algebra._twist_tables) == [9]


def _both_kinds(n: int):
    return (STD(n), SPL(n)) if n >= 1 else (STD(n),)


class TestMulTwistKernel:
    """The integer kernel of mul_twist against the doubling oracle."""

    def test_fractions_with_denominator_one(self):
        for sig in _both_kinds(2):
            x = Element(sig, (Fraction(3), 0, Fraction(-2), 1))
            y = Element(sig, (1, Fraction(5), 0, Fraction(7, 1)))
            _assert_kernel_matches_doubling(x, y)
            _assert_kernel_matches_doubling(x, x)

    def test_mixed_denominators(self):
        rng = random.Random("mixed")
        for sig in _both_kinds(4):
            for _ in range(5):
                x = Element(sig, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12)))
                                  for _ in range(sig.dimension)])
                y = random_element(sig, rng)
                _assert_kernel_matches_doubling(x, y)
                _assert_kernel_matches_doubling(y, x)

    def test_huge_coefficients(self):
        rng = random.Random("huge")
        for sig in _both_kinds(5):
            x = Element(sig, [rng.randint(-10**30, 10**30) for _ in range(sig.dimension)])
            y = Element(sig, [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
                              for _ in range(sig.dimension)])
            _assert_kernel_matches_doubling(x, x)
            _assert_kernel_matches_doubling(x, y)

    def test_zero_operands(self):
        for n in range(0, 5):
            for sig in _both_kinds(n):
                z = Element(sig, (0,) * sig.dimension)
                x = random_element(sig, random.Random(n))
                for a, b in ((z, z), (z, x), (x, z)):
                    _assert_kernel_matches_doubling(a, b)

    def test_levels_0_and_1(self):
        rng = random.Random("low")
        for n in (0, 1):
            for sig in _both_kinds(n):
                for draw in (random_element, _fraction_element):
                    for _ in range(10):
                        _assert_kernel_matches_doubling(draw(sig, rng), draw(sig, rng))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dense_levels_1_to_9(self, n):
        rng = random.Random(f"dense:{n}")
        for sig in _both_kinds(n):
            for draw in (random_element, _fraction_element):
                _assert_kernel_matches_doubling(draw(sig, rng), draw(sig, rng))

    def test_sparse_levels_10_to_12(self):
        rng = random.Random("sparse")
        for n in (10, 11, 12):
            for sig in _both_kinds(n):
                for fractions in (False, True):
                    x = _sparse_element(sig, rng, 6, fractions)
                    y = _sparse_element(sig, rng, 5, fractions)
                    algebra._twist_tables.clear()
                    _assert_kernel_matches_doubling(x, y)

    @pytest.mark.parametrize("n", [10, 11])
    @pytest.mark.parametrize("kind", ["standard", "split", "irregular"])
    def test_dense_levels_10_and_11(self, kind, n):
        rng = random.Random(f"dense-high:{kind}:{n}")
        sig = _signature_of(kind, n)
        _assert_kernel_matches_doubling(random_element(sig, rng), random_element(sig, rng))

    def test_dense_fraction_pair_at_level_10(self):
        rng = random.Random("dense-high:fraction")
        sig = SPL(10)
        _assert_kernel_matches_doubling(_fraction_element(sig, rng), _fraction_element(sig, rng))

    @pytest.mark.parametrize("sig", [STD(10), SPL(10)])
    def test_warm_dense_level_10_product_makes_no_scalar_twist_call(self, sig, monkeypatch):
        rng = random.Random(f"no-scalar:{sig.kind}")
        x, y = random_element(sig, rng), random_element(sig, rng)
        mul_twist(unit(STD(9)), unit(STD(9)))  # fills the table cache
        calls = []
        right = algebra.twist

        def counting(*args):
            calls.append(args)
            return right(*args)

        monkeypatch.setattr(algebra, "twist", counting)
        got = x * y
        assert len(calls) == 0
        assert got == mul_doubling(x, y)

    def test_coefficient_types_match_the_oracle(self):
        # Any operand with a nonzero Fraction (denominator 1 included) makes
        # every nonzero output a Fraction; zero outputs stay int 0.
        rng = random.Random("types")
        for sig in _both_kinds(4):
            operands = [
                zero(sig),
                random_element(sig, rng),
                _fraction_element(sig, rng),
                _mixed_element(sig, rng),
                Element(sig, [Fraction(c) for c in _nonzero_element(sig, rng).coeffs]),
                basis_element(sig, 5),
            ]
            for x in operands:
                for y in operands:
                    got, want = mul_twist(x, y), mul_doubling(x, y)
                    assert got == want
                    assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
                    fractional = any(type(c) is Fraction for c in x.coeffs + y.coeffs if c)
                    for c in got.coeffs:
                        assert type(c) is (Fraction if fractional and c else int), (x, y)

    def test_small_levels_reuse_the_level_9_table(self):
        rng = random.Random("reuse")
        big = SPL(9)
        mul_twist(random_element(big, rng), random_element(big, rng))
        assert list(algebra._twist_tables) == [9]
        table = algebra._twist_tables[9]
        for n in range(0, 6):
            for sig in _both_kinds(n):
                es = [basis_element(sig, A) for A in range(sig.dimension)]
                for x in es:
                    for y in es:
                        _assert_kernel_matches_doubling(x, y)
        assert list(algebra._twist_tables) == [9]
        assert algebra._twist_tables[9] is table

    def test_all_hyperbolic_rows_follow_the_mask_rule(self):
        # all-hyperbolic at level 3: every row but e_0's doubles from the lowest bit of A
        sig = AlgebraSignature.from_gammas((1, 1, 1))
        es = [basis_element(sig, A) for A in range(8)]
        for x in es:
            for y in es:
                _assert_kernel_matches_doubling(x, y)

    def test_every_level_and_kind_keeps_only_the_level_9_table(self):
        rng = random.Random("one-table")
        algebra._twist_tables.clear()
        for n in range(15):
            for kind in KINDS if n else ["standard"]:
                sig = _signature_of(kind, n)
                x = _sparse_element(sig, rng, min(3, sig.dimension), False)
                _assert_kernel_matches_doubling(x, unit(sig))
                _assert_kernel_matches_doubling(unit(sig), x)


# The kinds whose rows are checked: every mask bit, none, the top one, and an irregular set.
_ROW_KINDS = ("standard", "split", "all-hyperbolic", "irregular")


def _row_cases(levels):
    # the standard kind's id is the level alone
    return [
        pytest.param(kind, n, id=str(n) if kind == "standard" else f"{kind}-{n}")
        for n in levels
        for kind in _ROW_KINDS
    ]


class TestTwistRow:
    """Rows of every kind, from the level-9 table, against the batch closed form."""

    @staticmethod
    def _assert_row(table, A: int, n: int, mask: int) -> None:
        B = np.arange(1 << n)
        want = twist_module.twist_batch(np.full_like(B, A), B, n, mask).tobytes()
        assert algebra._twist_row(table, A, n, mask)[: 1 << n] == want, (A, n, mask)

    @pytest.mark.parametrize("kind, n", _row_cases([3, 9, 10]))
    def test_every_row(self, kind, n):
        table, mask = algebra._twist_table(), _signature_of(kind, n).mask
        for A in range(1 << n):
            self._assert_row(table, A, n, mask)

    @pytest.mark.parametrize("kind, n", _row_cases(range(11, 15)))
    def test_seeded_rows(self, kind, n):
        rng = random.Random(f"rows:{n}")
        table, mask = algebra._twist_table(), _signature_of(kind, n).mask
        edges = (0, 1, 1 << 9, 1 << (n - 1), (1 << n) - 1)
        for A in edges + tuple(rng.getrandbits(n) for _ in range(12)):
            assert len(algebra._twist_row(table, A, n, mask)) == 1 << n
            self._assert_row(table, A, n, mask)

    def test_rows_clear_of_the_mask_are_the_table_rows(self):
        # up to level 9 a row with A & mask = 0 is the table's own row, not a copy
        table = algebra._twist_table()
        for n in range(10):
            for kind in _ROW_KINDS if n else ("standard",):
                mask = _signature_of(kind, n).mask
                for A in range(1 << n):
                    if not A & mask:
                        assert algebra._twist_row(table, A, n, mask) is table[A], (kind, A, n)


class TestMulDoubling:
    def test_right_identity_every_level(self):
        rng = random.Random(5)
        for n in range(0, 7):
            x = random_element(STD(n), rng)
            assert mul_doubling(x, unit(STD(n))) == x

    def test_matches_twist_on_random_elements(self):
        rng = random.Random(11)
        for n in range(0, 6):
            for sig in (STD(n),) + ((SPL(n),) if n >= 1 else ()):
                for _ in range(25):
                    x = random_element(sig, rng)
                    y = random_element(sig, rng)
                    assert mul_doubling(x, y) == mul_twist(x, y)

    def test_matches_closed_form_on_exhaustive_basis_pairs_levels_7_8(self):
        # levels up to 6 are swept with full dense mul_twist elsewhere;
        # here the closed-form side is the (equivalent) signed basis index
        for n in (7, 8):
            for sig in (STD(n), SPL(n)):
                es = [basis_element(sig, A) for A in range(sig.dimension)]
                for A in range(sig.dimension):
                    for B in range(sig.dimension):
                        sign, index = basis_mul(A, B, sig)
                        expected = es[index] if sign == 1 else -es[index]
                        assert mul_doubling(es[A], es[B]) == expected, (n, A, B)

    def test_pure_high_half_products(self):
        # (0, a)(0, b) = (gamma * conj(b) a, 0) at the top level
        rng = random.Random(13)
        for n in range(0, 5):
            inner = STD(n)
            a = random_element(inner, rng)
            b = random_element(inner, rng)
            for outer_gamma, ambient in ((-1, STD(n + 1)), (1, SPL(n + 1))):
                x = Element(ambient, (0,) * inner.dimension + a.coeffs)
                y = Element(ambient, (0,) * inner.dimension + b.coeffs)
                product = mul_doubling(x, y)
                expected_low = mul_doubling(conjugate(b), a).coeffs
                if outer_gamma == -1:
                    expected_low = tuple(-c for c in expected_low)
                assert product.coeffs[: inner.dimension] == expected_low
                assert not any(product.coeffs[inner.dimension :])

    def test_general_gamma_vectors(self):
        # every generator squares to gamma of its level
        gen = AlgebraSignature.from_gammas((1, -1, 1))
        for i, g in enumerate(gen.gammas):
            e = basis_element(gen, 1 << i)
            assert mul_doubling(e, e) == g * unit(gen)


# The doubling recursion as written before it became the plain formula:
# sub-products with an all-zero factor are pruned and zero halves reused.
# Kept word for word (only the names differ) as the reference that
# mul_doubling must reproduce exactly. It multiplies Fractions directly, so
# it also checks the oracle's scaling to one common denominator. Values, not
# types, are compared: the oracle returns every zero output, a skipped
# sub-product's included, as int 0, where this form may sum Fractions to
# Fraction(0).
def _pruned_conj_tuple(v: tuple) -> tuple:
    return (v[0],) + tuple(-c for c in v[1:])


def _pruned_mul_rec(x: tuple, y: tuple, gammas: tuple[int, ...]) -> tuple:
    # (a,b)(c,d) = (ac + g * conj(d) b, da + b conj(c)) with g = gammas[-1].
    # Sub-products with an all-zero factor are pruned and zero halves are
    # reused instead of added, which makes sparse operands cheap.
    n = len(gammas)
    if n == 0:
        return (x[0] * y[0],)
    h = 1 << (n - 1)
    g = gammas[n - 1]
    sub = gammas[: n - 1]
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    a_nz, b_nz = any(a), any(b)
    c_nz, d_nz = any(c), any(d)
    ac = _pruned_mul_rec(a, c, sub) if a_nz and c_nz else None
    db = _pruned_mul_rec(_pruned_conj_tuple(d), b, sub) if d_nz and b_nz else None
    da = _pruned_mul_rec(d, a, sub) if d_nz and a_nz else None
    bc = _pruned_mul_rec(b, _pruned_conj_tuple(c), sub) if b_nz and c_nz else None
    if ac is None:
        if db is None:
            low = (0,) * h
        elif g == -1:
            low = tuple(-q for q in db)
        else:
            low = db
    elif db is None:
        low = ac
    elif g == -1:
        low = tuple(p - q for p, q in zip(ac, db))
    else:
        low = tuple(p + q for p, q in zip(ac, db))
    if da is None:
        high = (0,) * h if bc is None else bc
    elif bc is None:
        high = da
    else:
        high = tuple(p + q for p, q in zip(da, bc))
    return low + high


# Three fixed general parameter vectors; level n takes the first n entries.
GENERAL_GAMMAS = {
    "all-hyperbolic": (1,) * 14,
    "alternating": (1, -1) * 7,
    "irregular": (-1, 1, 1, -1, -1, 1, -1, 1, 1, 1, -1, -1, 1, -1),
}
KINDS = ["standard", "split", *GENERAL_GAMMAS]


def _signature_of(kind: str, n: int) -> AlgebraSignature:
    if kind == "standard":
        return STD(n)
    if kind == "split":
        return SPL(n)
    return AlgebraSignature.from_gammas(GENERAL_GAMMAS[kind][:n])


def _fraction_element(sig, rng) -> Element:
    return Element(
        sig, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(sig.dimension)]
    )


def _sparse_element(sig, rng, terms: int, fractions: bool) -> Element:
    coeffs = [0] * sig.dimension
    for index in rng.sample(range(sig.dimension), terms):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        coeffs[index] = Fraction(c, rng.randint(1, 4)) if fractions else c
    return Element(sig, coeffs)


def _assert_matches_pruned(x: Element, y: Element) -> None:
    want = _pruned_mul_rec(x.coeffs, y.coeffs, x.signature.gammas)
    assert mul_doubling(x, y).coeffs == want, x.signature


@pytest.mark.parametrize("kind", KINDS)
class TestMulDoublingMatchesPrunedRecursion:
    def test_dense_levels_0_to_8(self, kind):
        rng = random.Random(f"dense:{kind}")
        for n in range(kind == "split", 9):
            sig = _signature_of(kind, n)
            for i in range(3 if n <= 6 else 1):
                draw = _fraction_element if i == 1 else random_element
                _assert_matches_pruned(draw(sig, rng), draw(sig, rng))

    def test_all_basis_pairs_levels_4_and_5(self, kind):
        for n in (4, 5):
            sig = _signature_of(kind, n)
            es = [basis_element(sig, A) for A in range(sig.dimension)]
            for x in es:
                for y in es:
                    _assert_matches_pruned(x, y)

    def test_zero_high_half(self, kind):
        # operands embedded from the level below, as the relations suite draws them
        rng = random.Random(f"low:{kind}")
        for n in range(1, 7):
            sig = _signature_of(kind, n)
            pad = (0,) * (sig.dimension // 2)
            inner = _signature_of("standard", n - 1)
            for draw in (random_element, _fraction_element):
                x = Element(sig, draw(inner, rng).coeffs + pad)
                y = Element(sig, draw(inner, rng).coeffs + pad)
                _assert_matches_pruned(x, y)
                _assert_matches_pruned(x, Element(sig, pad + y.coeffs[: len(pad)]))

    def test_sparse_levels_8_to_14(self, kind):
        rng = random.Random(f"sparse:{kind}")
        for n in range(8, 15):
            sig = _signature_of(kind, n)
            for fractions in (False, True):
                terms = 2 + (2 * n + fractions) % 7  # cycles through 2..8
                x = _sparse_element(sig, rng, terms, fractions)
                y = _sparse_element(sig, rng, terms, fractions)
                _assert_matches_pruned(x, y)


# Two fixed vectors that are neither the standard nor the split shape.
NON_SPLIT = ["alternating", "irregular"]


@pytest.mark.parametrize("kind", NON_SPLIT)
class TestMulTwistGeneralGammas:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_dense(self, kind, n):
        rng = random.Random(f"general-dense:{kind}:{n}")
        sig = _signature_of(kind, n)
        for draw in (random_element, _fraction_element):
            _assert_kernel_matches_doubling(draw(sig, rng), draw(sig, rng))

    def test_sparse_levels_10_and_11(self, kind):
        rng = random.Random(f"general-sparse:{kind}")
        for n in (10, 11):
            sig = _signature_of(kind, n)
            for fractions in (False, True):
                x = _sparse_element(sig, rng, 7, fractions)
                y = _sparse_element(sig, rng, 6, fractions)
                algebra._twist_tables.clear()
                _assert_kernel_matches_doubling(x, y)

    def test_star_never_calls_the_doubling_engine(self, kind, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("x * y called mul_doubling")

        rng = random.Random(f"general-star:{kind}")
        sig = _signature_of(kind, 4)
        x, y = random_element(sig, rng), _fraction_element(sig, rng)
        want = mul_doubling(x, y)
        monkeypatch.setattr(algebra, "mul_doubling", forbidden)
        assert x * y == want


def _spy_on_int64_rows(monkeypatch) -> list:
    # the level of every mul_twist call that takes the int64 rows
    calls = []
    rows = algebra._mul_int64

    def spy(xs, x_support, ys, table, n, mask):
        calls.append(n)
        return rows(xs, x_support, ys, table, n, mask)

    monkeypatch.setattr(algebra, "_mul_int64", spy)
    return calls


class TestInt64Rows:
    """mul_twist's int64 numpy rows: the same sums as the oracle, taken only
    where the term counts pay for them and the l1 bound makes them exact."""

    @pytest.mark.parametrize("n", range(6, 11))
    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_pairs_equal_the_oracle(self, kind, n, monkeypatch):
        calls = _spy_on_int64_rows(monkeypatch)
        rng = random.Random(f"int64:{kind}:{n}")
        sig = _signature_of(kind, n)
        for draw in (random_element, _fraction_element):
            x, y = draw(sig, rng), draw(sig, rng)
            got = mul_twist(x, y)
            assert got == mul_doubling(x, y)
            _assert_as_if_validated(got)
        assert calls == [n, n]

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("kind", ["standard", "split"])
    def test_high_levels_equal_the_python_loop(self, kind, n, monkeypatch):
        # The oracle takes seconds per dense call here, so the reference is
        # the Python-int path, forced by a zero bound. x has 128 terms over
        # the whole index range, y has every term: the counts pick the rows.
        rng = random.Random(f"int64-high:{kind}:{n}")
        sig = _signature_of(kind, n)
        x, y = _sparse_element(sig, rng, 128, False), _nonzero_element(sig, rng)
        calls = _spy_on_int64_rows(monkeypatch)
        got = mul_twist(x, y)
        monkeypatch.setattr(algebra, "_INT64_BOUND", 0)
        want = mul_twist(x, y)
        assert calls == [n]
        assert got == want
        _assert_as_if_validated(got)

    def test_the_l1_bound_is_strict(self, monkeypatch):
        # 2**63 - 1 = (7**2 * 73 * 127 * 337) * (92737 * 649657); the largest
        # output, at index 63, comes within 2**43 of the bound
        sig = STD(6)
        calls = _spy_on_int64_rows(monkeypatch)
        for a, b, rows in ((153092023, 60247241209, [6]), (1 << 31, 1 << 32, [])):
            assert a * b == (1 << 63) - bool(rows)
            x = Element(sig, [(-1) ** A for A in range(63)] + [a - 63])
            y = Element(sig, [63 - b] + [(-1) ** (B // 3) for B in range(1, 64)])
            calls.clear()
            got = mul_twist(x, y)
            assert got == mul_doubling(x, y)
            assert calls == rows
            assert max(map(abs, got.coeffs)) > (1 << 63) - (1 << 43)

    @pytest.mark.parametrize("kind", ["standard", "split"])
    def test_sums_past_int64_take_the_python_loop(self, kind, monkeypatch):
        rng = random.Random(f"past-int64:{kind}")
        sig = _signature_of(kind, 8)
        x, y = (Element(sig, [rng.choice((-1, 1)) * ((1 << 31) - rng.randint(0, 9))
                              for _ in range(sig.dimension)]) for _ in range(2))
        calls = _spy_on_int64_rows(monkeypatch)
        got = mul_twist(x, y)
        assert got == mul_doubling(x, y)
        assert calls == []
        assert max(map(abs, got.coeffs)) >= 1 << 63

    def test_the_term_counts_choose_the_path(self, monkeypatch):
        calls = _spy_on_int64_rows(monkeypatch)
        rng = random.Random("int64-counts")
        sig = STD(10)
        x, y = random_element(sig, rng), random_element(sig, rng)
        assert mul_twist(x, y) == mul_doubling(x, y)
        assert calls == [10]
        # 16 * nnz(x) * nnz(y) >= (nnz(x) + 2) * (2**n + 640): at level 8
        # with 256 terms in x, y needs 57 terms
        sig = SPL(8)
        x = _nonzero_element(sig, rng)
        for terms, rows in ((56, []), (57, [8])):
            y = _sparse_element(sig, rng, terms, False)
            calls.clear()
            assert mul_twist(x, y) == mul_doubling(x, y)
            assert calls == rows
        # sparse level-14 pairs of 2-8 terms and dense pairs below level 6 never do
        calls.clear()
        for kind in KINDS:
            sig = _signature_of(kind, 14)
            for terms in range(2, 9):
                x, y = (_sparse_element(sig, rng, terms, False) for _ in range(2))
                mul_twist(x, y)
            for n in range(kind == "split", 6):
                sig = _signature_of(kind, n)
                mul_twist(_nonzero_element(sig, rng), _nonzero_element(sig, rng))
        assert calls == []


def _raise_if_called(*args, **kwargs):
    raise AssertionError("the doubling oracle called the twist layer")


@pytest.mark.parametrize("kind", KINDS)
def test_mul_doubling_and_norm_never_touch_the_twist(kind, monkeypatch):
    # The oracle must not depend on what it checks: with every twist entry
    # point raising, dense products and norms still equal the reference.
    for module in (twist_module, algebra):
        for name in ("twist", "split_twist", "twist_matrix"):
            monkeypatch.setattr(module, name, _raise_if_called)
    monkeypatch.setattr(algebra, "_twist_table", _raise_if_called)
    rng = random.Random(f"independent:{kind}")
    for n in range(kind == "split", 8):
        sig = _signature_of(kind, n)
        for draw in (random_element, _fraction_element):
            x, y = draw(sig, rng), draw(sig, rng)
            _assert_matches_pruned(x, y)
            square = _pruned_mul_rec(x.coeffs, _pruned_conj_tuple(x.coeffs), sig.gammas)
            assert not any(square[1:])
            assert norm(x) == square[0]


@pytest.mark.parametrize(
    "gammas", [g for n in (1, 2) for g in itertools.product((-1, 1), repeat=n)]
)
def test_every_gamma_vector_at_levels_1_and_2(gammas):
    # Level 1 keeps its scalar step and level 2 is written out; check both
    # on every basis pair and the zero element, for every parameter vector.
    sig = AlgebraSignature.from_gammas(gammas)
    operands = [zero(sig)] + [basis_element(sig, A) for A in range(sig.dimension)]
    for x in operands:
        for y in operands:
            _assert_matches_pruned(x, y)
    rng = random.Random(f"gammas:{gammas}")
    _assert_matches_pruned(_fraction_element(sig, rng), _fraction_element(sig, rng))


def _nonzero_element(sig, rng) -> Element:
    # every coefficient nonzero, so no half of any size is all zero
    return Element(sig, [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(sig.dimension)])


def _mixed_element(sig, rng) -> Element:
    # ints and Fractions side by side in one operand
    return Element(
        sig,
        [
            Fraction(rng.randint(-9, 9), rng.randint(2, 5)) if A % 3 else rng.randint(-9, 9)
            for A in range(sig.dimension)
        ],
    )


def _coprime_element(sig, rng) -> Element:
    # denominators 5, 7, 8 and 9 together: the common denominator is 2520
    return Element(
        sig,
        [Fraction(rng.randint(-9, 9), (5, 7, 8, 9)[A % 4]) for A in range(sig.dimension)],
    )


def _block_sparse_element(sig, rng) -> Element:
    # eight dense blocks of eight coefficients, the rest zero
    coeffs = [0] * sig.dimension
    for start in rng.sample(range(0, sig.dimension, 8), 8):
        coeffs[start : start + 8] = _nonzero_element(STD(3), rng).coeffs
    return Element(sig, coeffs)


def _count_mul_rec_calls(monkeypatch) -> list:
    calls = []
    inner = algebra._mul_rec

    def counting(x, y, gammas):
        calls.append(len(gammas))
        return inner(x, y, gammas)

    monkeypatch.setattr(algebra, "_mul_rec", counting)
    return calls


class TestOracleScalingAndPruning:
    """The oracle on ints over one common denominator, its written-out
    level-2 step and its skipped zero-factor sub-products, against the
    Fraction-direct pruned reference."""

    @pytest.mark.parametrize(
        "gammas", [g for n in (2, 3) for g in itertools.product((-1, 1), repeat=n)]
    )
    def test_every_gamma_vector_at_levels_2_and_3(self, gammas):
        sig = AlgebraSignature.from_gammas(gammas)
        rng = random.Random(f"level-2-step:{gammas}")
        draws = (_nonzero_element, random_element, _fraction_element, _mixed_element)
        for draw_x in draws:
            for draw_y in draws:
                _assert_matches_pruned(draw_x(sig, rng), draw_y(sig, rng))

    @pytest.mark.parametrize("kind", KINDS)
    def test_coprime_denominators(self, kind):
        rng = random.Random(f"coprime:{kind}")
        for n in range(kind == "split", 8):
            sig = _signature_of(kind, n)
            x, y = _coprime_element(sig, rng), _coprime_element(sig, rng)
            _assert_matches_pruned(x, y)
            _assert_matches_pruned(x, random_element(sig, rng))
            _assert_matches_pruned(_mixed_element(sig, rng), y)
            assert norm(x) == _pruned_mul_rec(
                x.coeffs, _pruned_conj_tuple(x.coeffs), sig.gammas
            )[0]

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_half_zero_in_turn(self, kind):
        # a, b (the halves of x) and c, d (of y): each one zero in turn; the
        # other halves are dense up to level 7 and block-sparse above it
        rng = random.Random(f"block-sparse:{kind}")
        for n in range(3, 11):
            sig = _signature_of(kind, n)
            h = sig.dimension // 2
            draw = (_fraction_element, _nonzero_element, _block_sparse_element)[(n > 5) + (n > 7)]
            for quarter in range(4):
                x, y = list(draw(sig, rng).coeffs), list(draw(sig, rng).coeffs)
                operand = x if quarter < 2 else y
                start = h * (quarter % 2)
                operand[start : start + h] = [0] * h
                _assert_matches_pruned(Element(sig, x), Element(sig, y))

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_operand(self, kind):
        rng = random.Random(f"zero-operand:{kind}")
        for n in range(kind == "split", 9):
            sig = _signature_of(kind, n)
            for y in (_fraction_element(sig, rng), _nonzero_element(sig, rng)):
                for product in (mul_doubling(zero(sig), y), mul_doubling(y, zero(sig))):
                    assert product == zero(sig)
                    assert all(type(c) is int for c in product.coeffs)
            assert norm(zero(sig)) == 0

    def test_fractional_products_are_divided_back_once(self):
        sig = STD(3)
        half = Element(sig, [Fraction(1, 2)] + [0] * 7)
        third = Element(sig, [0, Fraction(1, 3)] + [0] * 6)
        assert mul_doubling(half, third).coeffs == (0, Fraction(1, 6)) + (0,) * 6
        assert mul_doubling(half, half).coeffs == (Fraction(1, 4),) + (0,) * 7
        whole = Element(sig, [Fraction(4, 2)] * 8)
        assert mul_doubling(whole, unit(sig)) == Element(sig, [2] * 8)

    def test_a_single_term_pair_at_level_2_is_one_written_out_step(self, monkeypatch):
        # levels 0-2 are written-out steps, so even a basis pair recurses there
        rng = random.Random("single-term:2")
        sig = STD(2)
        pairs = [(0, 0), (3, 3)] + [(rng.randrange(4), rng.randrange(4)) for _ in range(4)]
        calls = _count_mul_rec_calls(monkeypatch)
        for A, B in pairs:
            calls.clear()
            product = mul_doubling(basis_element(sig, A), basis_element(sig, B))
            assert calls == [2], (A, B)
            sign, index = basis_mul(A, B, sig)
            assert product == sign * basis_element(sig, index)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_a_single_term_pair_takes_the_term_path(self, n, monkeypatch):
        rng = random.Random(f"single-term:{n}")
        sig = STD(n)
        pairs = [(0, 0), (sig.dimension - 1, sig.dimension - 1)]
        pairs += [(rng.randrange(sig.dimension), rng.randrange(sig.dimension)) for _ in range(4)]
        calls = _count_mul_rec_calls(monkeypatch)
        for A, B in pairs:
            x, y = basis_element(sig, A), basis_element(sig, B)
            product = mul_doubling(x, y)
            assert calls == [], (A, B)
            sign, index = basis_mul(A, B, sig)
            assert product == sign * basis_element(sig, index)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_a_dense_pair_recurses_down_to_level_2(self, n, monkeypatch):
        rng = random.Random(f"dense-calls:{n}")
        sig = SPL(n)
        x, y = _nonzero_element(sig, rng), _nonzero_element(sig, rng)
        calls = _count_mul_rec_calls(monkeypatch)
        mul_doubling(x, y)
        assert len(calls) == (4 ** (n - 1) - 1) // 3
        assert min(calls) == 2


def _forbid_mul_rec(monkeypatch) -> None:
    def forbidden(*args):
        raise AssertionError("a sparse pair entered the recursion")

    monkeypatch.setattr(algebra, "_mul_rec", forbidden)


def _with_zero_fractions(x: Element) -> Element:
    # x with Fraction(0) in its first two zero slots
    coeffs = list(x.coeffs)
    for A in [A for A, c in enumerate(coeffs) if not c][:2]:
        coeffs[A] = Fraction(0)
    return Element(x.signature, coeffs)


def _element_with_terms(sig, rng, terms: int, fractions: bool) -> Element:
    # exactly `terms` nonzero coefficients; a Fraction operand holds zero
    # Fractions in two of its zero slots as well
    x = _sparse_element(sig, rng, terms, fractions)
    return _with_zero_fractions(x) if fractions else x


class TestTermPath:
    """Sparse operands expand over their nonzero term pairs, each sign
    walked down the doubling formula; dense ones recurse. The term order is
    taken when nnz(x) * nnz(y) * n <= 2**n."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_walked_sign_equals_the_recursion(self, n):
        for gammas in itertools.product((-1, 1), repeat=n):
            sig = AlgebraSignature.from_gammas(gammas)
            es = [basis_element(sig, A).coeffs for A in range(sig.dimension)]
            for A in range(sig.dimension):
                for B in range(sig.dimension):
                    want = _pruned_mul_rec(es[A], es[B], gammas)
                    assert [C for C, c in enumerate(want) if c] == [A ^ B]
                    assert algebra._term_sign(A, B, gammas) == (want[A ^ B] == -1), (
                        gammas, A, B)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pairs_on_either_side_of_the_crossover(self, kind, monkeypatch):
        rng = random.Random(f"crossover:{kind}")
        calls = _count_mul_rec_calls(monkeypatch)
        for n in range(4, 15):
            sig = _signature_of(kind, n)
            ny = 1 + n % 3
            below = sig.dimension // (ny * n)  # nx * ny * n <= 2**n: terms
            for nx, takes_terms in ((below, True), (below + 1, False)):
                for fractions in (False, True):
                    x = _element_with_terms(sig, rng, nx, fractions)
                    y = _element_with_terms(sig, rng, ny, fractions)
                    calls.clear()
                    # the larger operand on the left for ints, on the right for Fractions
                    _assert_matches_pruned(*((y, x) if fractions else (x, y)))
                    assert (calls == []) == takes_terms, (n, nx, ny)
                    for a, b in ((zero(sig), x), (x, zero(sig))):
                        assert mul_doubling(a, b) == zero(sig)
                        assert all(type(c) is int for c in mul_doubling(a, b).coeffs)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_sparse_level_14_pair_never_enters_the_recursion(self, kind, monkeypatch):
        rng = random.Random(f"sparse-14:{kind}")
        sig = _signature_of(kind, 14)
        pairs = [
            (_element_with_terms(sig, rng, 2 + i % 7, fractions),
             _element_with_terms(sig, rng, 2 + (i + 3) % 7, fractions))
            for i in range(4)
            for fractions in (False, True)
        ]
        wants = [
            (_pruned_mul_rec(x.coeffs, y.coeffs, sig.gammas),
             _pruned_mul_rec(x.coeffs, _pruned_conj_tuple(x.coeffs), sig.gammas)[0])
            for x, y in pairs
        ]
        _forbid_mul_rec(monkeypatch)
        for (x, y), (product, square) in zip(pairs, wants):
            assert mul_doubling(x, y).coeffs == product
            assert mul_twist(x, y).coeffs == product
            assert norm(x) == square

    @pytest.mark.parametrize("n, recursion", [(2, True), (6, False)])
    def test_a_zero_fraction_in_an_int_operand_gives_ints(self, n, recursion, monkeypatch):
        # (Fraction(0), 1, 2, 3) * (1, 2, 0, 1): 3 * 3 * n is 18 > 4 at
        # level 2 (the recursion) and 54 <= 64 at level 6 (the term path)
        sig = STD(n)
        pad = (0,) * (sig.dimension - 4)
        x = Element(sig, (Fraction(0), 1, 2, 3) + pad)
        y = Element(sig, (1, 2, 0, 1) + pad)
        calls = _count_mul_rec_calls(monkeypatch)
        for a, b in ((x, y), (y, x), (x, x)):
            calls.clear()
            got, want = mul_doubling(a, b), mul_twist(a, b)
            assert bool(calls) == recursion
            assert got == want
            assert [type(c) for c in got.coeffs] == [int] * sig.dimension
            assert [type(c) for c in want.coeffs] == [int] * sig.dimension
        assert type(norm(x)) is int


def _assert_as_if_validated(out: Element) -> None:
    # a computed value skips validation; rebuilding it through validation
    # must change nothing: values, coefficient types and the Fraction flag
    rebuilt = Element(out.signature, out.coeffs)
    assert type(out.coeffs) is tuple
    assert out == rebuilt
    assert [type(c) for c in out.coeffs] == [type(c) for c in rebuilt.coeffs]
    assert out._has_fraction == rebuilt._has_fraction


def _flavours(sig, rng) -> list[Element]:
    # int, Fraction, mixed, int with zero Fractions, Fraction(0) only, zero;
    # dense up to level 9, five terms above it
    if sig.level > 9:
        ints, fractions = _sparse_element(sig, rng, 5, False), _sparse_element(sig, rng, 5, True)
    else:
        ints, fractions = random_element(sig, rng), _fraction_element(sig, rng)
    mixed = Element(sig, [fractions.coeffs[0]] + list(ints.coeffs[1:]))
    only_zero_fractions = Element(sig, [Fraction(0)] * sig.dimension)
    return [ints, fractions, mixed, _with_zero_fractions(ints), only_zero_fractions, zero(sig)]


class TestOnePassValidation:
    """``Element`` validates in one pass and records whether it holds a
    Fraction; every value the module computes skips that pass."""

    @pytest.mark.parametrize("c", [0.0, float("nan"), True, 1j], ids=repr)
    @pytest.mark.parametrize("position", [0, 1, 7])
    def test_non_rationals_are_still_rejected(self, c, position):
        coeffs = [Fraction(1, 2), 3, 0, 0, 0, 0, 0, 0]
        coeffs[position] = c
        with pytest.raises(ValueError, match="exact rationals"):
            Element(STD(3), coeffs)

    def test_other_rationals_are_still_converted(self):
        x = Element(STD(1), (np.int64(7), Fraction(4, 2)))
        assert x.coeffs == (7, 2)
        assert [type(c) for c in x.coeffs] == [int, Fraction]
        assert x._has_fraction
        y = Element(STD(1), (np.int64(7), 0))
        assert [type(c) for c in y.coeffs] == [int, int]
        assert not y._has_fraction

    @pytest.mark.parametrize(
        "coeffs, flag",
        [
            ((1, 0, -2, 3), False),
            ((Fraction(1, 2), Fraction(-3, 4), Fraction(5), Fraction(0)), True),
            ((Fraction(0), 0, 0, 0), True),
            ((1, Fraction(1, 3), 0, 2), True),
            ((0, 0, 0, 0), False),
        ],
        ids=["all-int", "fraction", "fraction-0-only", "mixed", "zero"],
    )
    def test_the_fraction_flag(self, coeffs, flag):
        x = Element(STD(2), coeffs)
        assert x._has_fraction is flag
        ints, d, support = algebra._operand(x)
        assert support == [A for A, c in enumerate(coeffs) if c]
        assert [type(c) for c in ints] == [int] * 4
        assert [c * (d or 1) for c in coeffs] == list(ints)
        assert (d is None) == all(type(c) is int for c in coeffs if c)

    @pytest.mark.parametrize("kind", KINDS)
    def test_engine_outputs_are_as_if_validated(self, kind):
        rng = random.Random(f"trusted:{kind}")
        for n in (kind == "split", 3, 6, 11, 14):
            sig = _signature_of(kind, n)
            operands = _flavours(sig, rng)
            for x in operands:
                _assert_as_if_validated(conjugate(x))
                assert type(norm(x)) in (int, Fraction)
                for y in operands:
                    _assert_as_if_validated(mul_twist(x, y))
                    _assert_as_if_validated(mul_doubling(x, y))

    @pytest.mark.parametrize("n", [3, 8, 14])
    def test_every_producer_is_as_if_validated(self, n):
        sig = STD(n)
        rng = random.Random(f"one-door:{n}")
        for made in (zero(sig), unit(sig), basis_element(sig, sig.dimension - 1),
                     random_element(sig, rng)):
            _assert_as_if_validated(made)
        operands = _flavours(sig, rng)
        for x in operands:
            _assert_as_if_validated(-x)
            _assert_as_if_validated(conjugate_recursive(x))
            for c in (0, -3, Fraction(1, 2), Fraction(4, 2), np.int64(2)):
                _assert_as_if_validated(x * c)
                _assert_as_if_validated(c * x)
            for y in operands:
                _assert_as_if_validated(x + y)
                _assert_as_if_validated(x - y)

    def test_scalar_and_pointwise_fraction_flags(self):
        sig = STD(3)
        ints = Element(sig, range(8))
        half = Fraction(1, 2) * ints
        assert half.coeffs == tuple(Fraction(A, 2) for A in range(8))
        assert [type(c) for c in half.coeffs] == [Fraction] * 8 and half._has_fraction
        x = _fraction_element(sig, random.Random("one-door-flags"))
        cancelled = x - x
        assert cancelled.coeffs == (0,) * 8 and cancelled._has_fraction
        assert [type(c) for c in cancelled.coeffs] == [Fraction] * 8
        for doubled in (np.int64(2) * ints, ints * np.int64(2)):
            assert doubled.coeffs == tuple(range(0, 16, 2)) and not doubled._has_fraction
            assert [type(c) for c in doubled.coeffs] == [int] * 8
        with pytest.raises(TypeError):
            ints * 0.5
        with pytest.raises(TypeError):
            0.5 * ints

    def test_norm_still_checks_that_its_product_is_scalar(self, monkeypatch):
        sig = STD(3)
        x = basis_element(sig, 5)
        monkeypatch.setattr(algebra, "mul_doubling", lambda a, b: basis_element(sig, 1))
        with pytest.raises(InvariantViolation, match="not scalar"):
            norm(x)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sparse_level_14_pairs_equal_the_reference(self, kind):
        rng = random.Random(f"sparse-14-flavours:{kind}")
        sig = _signature_of(kind, 14)
        for i in range(3):
            ints = _sparse_element(sig, rng, 2 + i, False), _sparse_element(sig, rng, 4 + i, False)
            fractions = (_sparse_element(sig, rng, 3 + i, True),
                         _sparse_element(sig, rng, 5 - i, True))
            zero_fractions = tuple(map(_with_zero_fractions, ints))
            for x, y in (ints, fractions, zero_fractions):
                want = _pruned_mul_rec(x.coeffs, y.coeffs, sig.gammas)
                square = _pruned_mul_rec(x.coeffs, _pruned_conj_tuple(x.coeffs), sig.gammas)
                for got in (mul_doubling(x, y), mul_twist(x, y)):
                    assert got.coeffs == want
                    _assert_as_if_validated(got)
                assert norm(x) == square[0]


class TestDenseLevelCap:
    def test_basis_element_above_the_cap_raises(self):
        with pytest.raises(ValueError, match=f"capped at level {MAX_DENSE_LEVEL}"):
            basis_element(STD(30), 0)

    def test_every_constructor_refuses_before_allocating(self):
        sig = STD(MAX_DENSE_LEVEL + 1)

        def coeffs():
            raise AssertionError("coefficients were read")
            yield

        class NoDraws:
            def randint(self, a, b):
                raise AssertionError("coefficients were drawn")

        for build in (
            lambda: Element(sig, coeffs()),
            lambda: zero(sig),
            lambda: unit(sig),
            lambda: basis_element(sig, 0),
            lambda: random_element(sig, NoDraws()),
        ):
            with pytest.raises(ValueError, match=f"capped at level {MAX_DENSE_LEVEL}"):
                build()

    def test_the_cap_level_itself_is_allowed(self):
        assert zero(SPL(MAX_DENSE_LEVEL)).is_zero()


class TestConjugation:
    def test_real_part_fixed(self):
        assert conjugate(unit(STD(3))) == unit(STD(3))

    def test_imaginary_basis_negated(self):
        sig = STD(3)
        for A in range(1, 8):
            assert conjugate(basis_element(sig, A)) == -basis_element(sig, A)

    def test_closed_form_equals_recursive(self):
        rng = random.Random(17)
        for n in range(0, 6):
            x = random_element(STD(n), rng)
            assert conjugate(x) == conjugate_recursive(x)

    def test_a_level_above_14_does_not_grow_the_shared_index_tuple(self, monkeypatch):
        monkeypatch.setattr(algebra, "_indices", ())
        e = basis_element(STD(15), 1)
        assert conjugate(e) == -e
        assert len(algebra._indices) <= 1 << 14

    def test_involution_and_antiautomorphism(self):
        rng = random.Random(19)
        for n in range(0, 5):
            sig = STD(n)
            x, y = random_element(sig, rng), random_element(sig, rng)
            assert conjugate(conjugate(x)) == x
            assert conjugate(mul_doubling(x, y)) == mul_doubling(conjugate(y), conjugate(x))


class TestTraceAndNorm:
    def test_trace_spot_values(self):
        sig = STD(3)
        assert trace(unit(sig)) == 2
        for A in range(1, 8):
            assert trace(basis_element(sig, A)) == 0

    def test_trace_identity(self):
        rng = random.Random(23)
        for n in range(0, 5):
            sig = STD(n)
            x = random_element(sig, rng)
            assert x + conjugate(x) == trace(x) * unit(sig)

    def test_norm_of_standard_basis_is_one(self):
        for n in range(0, 5):
            sig = STD(n)
            for A in range(sig.dimension):
                assert norm(basis_element(sig, A)) == 1

    def test_split_basis_norm_follows_top_bit(self):
        for n in range(1, 5):
            sig = SPL(n)
            for A in range(sig.dimension):
                expected = -1 if A >> (n - 1) & 1 else 1
                assert norm(basis_element(sig, A)) == expected

    def test_norm_is_sum_of_squares_standard(self):
        rng = random.Random(29)
        for n in range(0, 6):
            x = random_element(STD(n), rng)
            assert norm(x) == sum(c * c for c in x.coeffs)

    def test_norm_split_signature_form(self):
        rng = random.Random(31)
        for n in range(1, 6):
            x = random_element(SPL(n), rng)
            half = 1 << (n - 1)
            low = sum(c * c for c in x.coeffs[:half])
            high = sum(c * c for c in x.coeffs[half:])
            assert norm(x) == low - high

    def test_left_and_right_norm_products_agree(self):
        rng = random.Random(37)
        for n in range(0, 5):
            for sig in (STD(n),) + ((SPL(n),) if n >= 1 else ()):
                x = random_element(sig, rng)
                assert mul_doubling(x, conjugate(x)) == mul_doubling(conjugate(x), x)


class TestGeneratorProducts:
    def test_spot_values(self):
        assert basis_from_generators(3, STD(2)) == basis_element(STD(2), 3)
        assert basis_from_generators(7, STD(3)) == basis_element(STD(3), 7)
        assert basis_from_generators(0, STD(4)) == unit(STD(4))

    def test_anchors_all_indices_small_levels(self):
        for n in range(0, 6):
            sig = STD(n)
            for A in range(sig.dimension):
                assert basis_from_generators(A, sig) == basis_element(sig, A)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_from_generators(8, STD(3))


class TestTextFormat:
    def test_roundtrip(self):
        coeffs = parse_coeffs("0,1,-3/2,0")
        assert coeffs == (0, 1, Fraction(-3, 2), 0)
        assert format_coeffs(coeffs) == "0,1,-3/2,0"

    def test_output_past_the_int_string_limit(self):
        # str() refuses ints of more than 4300 digits; the format writes them in full
        big = 10**6000
        assert format_coeffs((big, -big)) == "1" + "0" * 6000 + ",-1" + "0" * 6000
        assert format_coeffs((Fraction(-1, big), Fraction(big + 1, 7))) == (
            "-1/1" + "0" * 6000 + ",1" + "0" * 5999 + "1/7"
        )

    def test_repr_past_the_int_string_limit(self):
        x = Element(STD(1), (0, -(10**6000)))
        assert repr(x) == f"Element({STD(1)}, [0,-1{'0' * 6000}])"

    def test_integers_stay_ints(self):
        assert all(isinstance(c, int) for c in parse_coeffs("4,-2,6/3"))

    def test_parse_element_length_check(self):
        with pytest.raises(ValueError):
            parse_element("1,0", STD(2))

    @pytest.mark.parametrize(
        "bad",
        ["1,,2", "a,b", "1/0", "", "1e999999999", "-1e-999999999", "0,-2.5E+4300", "1e43_00"],
    )
    def test_bad_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_coeffs(bad)


# -- property tests ----------------------------------------------------------


def elements(level):
    sig = STD(level)
    return st.lists(
        st.integers(-50, 50), min_size=sig.dimension, max_size=sig.dimension
    ).map(lambda cs: Element(sig, cs))


@given(x=elements(3))
def test_prop_conjugation_involution(x):
    assert conjugate(conjugate(x)) == x


@given(x=elements(2), y=elements(2))
@settings(max_examples=50)
def test_prop_engines_agree_quaternions(x, y):
    assert mul_twist(x, y) == mul_doubling(x, y)


@given(x=elements(3))
@settings(max_examples=50)
def test_prop_trace_identity(x):
    assert x + conjugate(x) == trace(x) * unit(x.signature)


@given(x=elements(3), y=elements(3))
@settings(max_examples=50)
def test_prop_octonion_norm_is_multiplicative(x, y):
    assert norm(mul_doubling(x, y)) == norm(x) * norm(y)
