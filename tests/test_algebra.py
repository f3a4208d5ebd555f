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
        with pytest.raises(ValueError):
            AlgebraSignature(2, (-1,))
        with pytest.raises(ValueError):
            AlgebraSignature(1, (2,))
        with pytest.raises(ValueError):
            AlgebraSignature(-1, ())

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
    assert len(algebra._twist_tables) <= 1


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

    def test_sparse_levels_10_to_12_take_the_scalar_path(self):
        rng = random.Random("sparse")
        for n in (10, 11, 12):
            for sig in _both_kinds(n):
                for fractions in (False, True):
                    x = _sparse_element(sig, rng, 6, fractions)
                    y = _sparse_element(sig, rng, 5, fractions)
                    algebra._twist_tables.clear()
                    _assert_kernel_matches_doubling(x, y)
                    assert not algebra._twist_tables

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

    def test_mask_groups_follow_the_popcount_rule(self):
        # all-hyperbolic at level 3: eight one-term groups, every sign from the mask
        sig = AlgebraSignature.from_gammas((1, 1, 1))
        es = [basis_element(sig, A) for A in range(8)]
        for x in es:
            for y in es:
                _assert_kernel_matches_doubling(x, y)

    def test_a_higher_level_replaces_the_table(self):
        algebra._twist_tables.clear()
        for n in (3, 2, 5, 4):
            mul_twist(unit(STD(n)), unit(STD(n)))
            assert len(algebra._twist_tables) == 1
        assert list(algebra._twist_tables) == [5]


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
# mul_doubling must reproduce exactly. Values, not types, are compared: the
# formula multiplies zero halves down to level 0, where 0 * Fraction gives
# Fraction(0) and the pruned form keeps an int 0.
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

    def test_sparse_levels_10_and_11_take_the_scalar_path(self, kind):
        rng = random.Random(f"general-sparse:{kind}")
        for n in (10, 11):
            sig = _signature_of(kind, n)
            for fractions in (False, True):
                x = _sparse_element(sig, rng, 7, fractions)
                y = _sparse_element(sig, rng, 6, fractions)
                algebra._twist_tables.clear()
                _assert_kernel_matches_doubling(x, y)
                assert not algebra._twist_tables

    def test_star_never_calls_the_doubling_engine(self, kind, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("x * y called mul_doubling")

        rng = random.Random(f"general-star:{kind}")
        sig = _signature_of(kind, 4)
        x, y = random_element(sig, rng), _fraction_element(sig, rng)
        want = mul_doubling(x, y)
        monkeypatch.setattr(algebra, "mul_doubling", forbidden)
        assert x * y == want


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
    # The recursion ends at the level-1 step; check it, and one step above
    # it, on every basis pair and the zero element, for every parameter vector.
    sig = AlgebraSignature.from_gammas(gammas)
    operands = [zero(sig)] + [basis_element(sig, A) for A in range(sig.dimension)]
    for x in operands:
        for y in operands:
            _assert_matches_pruned(x, y)
    rng = random.Random(f"gammas:{gammas}")
    _assert_matches_pruned(_fraction_element(sig, rng), _fraction_element(sig, rng))


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

    def test_integers_stay_ints(self):
        assert all(isinstance(c, int) for c in parse_coeffs("4,-2,6/3"))

    def test_parse_element_length_check(self):
        with pytest.raises(ValueError):
            parse_element("1,0", STD(2))

    @pytest.mark.parametrize("bad", ["1,,2", "a,b", "1/0", ""])
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
