"""Tests for tables, law sweeps, zero-divisor search, and benchmarks."""

import itertools
import random
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from cdtwist import algebra, analysis
from cdtwist.algebra import (
    AlgebraSignature,
    Element,
    InvariantViolation,
    basis_element,
    basis_mul,
    conjugate,
    mul_doubling,
    norm,
    random_element,
)
from cdtwist.analysis import (
    PropertyReport,
    benchmark_engines,
    build_table,
    expected_law_holds,
    expected_zero_divisor_free,
    find_zero_divisors,
    verify_algebra_laws,
    verify_engines,
    verify_generator_anchoring,
    verify_relations,
    verify_twist_laws,
    verify_zero_divisors,
)
from cdtwist.twist import degree, ell, phi, twist_recursive

STD = AlgebraSignature.standard
SPL = AlgebraSignature.split


class TestBuildTable:
    def test_complex_numbers(self):
        table = build_table(STD(1))
        assert table.signs.dtype == np.int8
        assert table.signs.tolist() == [[1, 1], [1, -1]]

    def test_quaternion_diagonal(self):
        table = build_table(STD(2))
        assert table.signs.diagonal().tolist() == [1, -1, -1, -1]

    def test_split_complex(self):
        table = build_table(SPL(1))
        assert table.signs[1, 1] == 1

    @pytest.mark.parametrize("sig", [STD(1), STD(3), STD(4), SPL(2), SPL(4)])
    def test_invariants(self, sig):
        table = build_table(sig)
        dim = sig.dimension
        assert table.signs.shape == (dim, dim)
        # unit row and column carry +1
        assert (table.signs[0, :] == 1).all()
        assert (table.signs[:, 0] == 1).all()
        # every row and column is a signed permutation: indices are the
        # XOR bijection, signs all +-1
        assert set(np.unique(table.signs)) <= {-1, 1}
        for A in range(dim):
            assert sorted(A ^ B for B in range(dim)) == list(range(dim))

    @pytest.mark.parametrize("sig", [STD(3), SPL(3)])
    def test_matches_basis_mul(self, sig):
        table = build_table(sig)
        for A in range(sig.dimension):
            for B in range(sig.dimension):
                assert basis_mul(A, B, sig) == (table.signs[A, B], A ^ B)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="cap"):
            build_table(STD(13))
        build_table(STD(12))  # at the cap is fine

    @pytest.mark.parametrize("sig", [STD(4), SPL(4)])
    def test_wrong_closed_form_is_detected(self, sig, monkeypatch):
        # every kind is checked against the batch form of its own mask
        right = analysis.twist_batch
        monkeypatch.setattr(
            analysis, "twist_batch", lambda A, B, level, mask: right(A, B, level, mask) ^ 1
        )
        with pytest.raises(InvariantViolation, match="block-doubling"):
            build_table(sig)

    def test_general_gammas(self):
        for gammas in [(1, 1), (1, -1, 1), (-1, 1, 1, -1)]:
            sig = AlgebraSignature.from_gammas(gammas)
            table = build_table(sig)
            oracle = analysis._oracle_parity_table(sig)
            for A in range(sig.dimension):
                for B in range(sig.dimension):
                    assert table.signs[A, B] == (-1) ** oracle[A][B]
                    assert basis_mul(A, B, sig) == (table.signs[A, B], A ^ B)


def _pairwise_verify_twist_laws(level):
    """The twist-law sweep written pair by pair: the reference for
    ``verify_twist_laws``, which evaluates each law over row blocks of index
    arrays. It reads ``twist``, ``split_twist`` and ``twist_matrix`` through
    ``analysis``, so a patched engine reaches both sweeps."""
    if level < 1:
        raise ValueError("twist-law sweeps need level >= 1")
    analysis._check_table_level(level)
    dim = 1 << level
    top = level - 1
    twist, split_twist = analysis.twist, analysis.split_twist

    closed = [bytes([twist(A, B, level) for B in range(dim)]) for A in range(dim)]
    split_closed = [bytes([split_twist(A, B, level) for B in range(dim)]) for A in range(dim)]
    recursive = [row.tobytes() for row in analysis.twist_matrix(level)]
    split_recursive = [row.tobytes() for row in analysis.twist_matrix(level, 1 << top)]

    def all_pairs():
        return itertools.product(range(dim), repeat=2)

    def distinct_pairs():
        return ((A, B) for A in range(1, dim) for B in range(1, dim) if A != B)

    def breaks_unified_form(A, B):
        cut = ell(A, B)
        expected = (
            (1 if degree(A) == degree(B) else 0)
            + ((B >> cut) & 1)
            + ((A | B) >> cut).bit_count()
        ) & 1
        return closed[A][B] != expected

    laws = [
        ("closed_equals_recursive", "standard", all_pairs(),
         lambda A, B: closed[A][B] != recursive[A][B]),
        ("split_closed_equals_recursive", "split", all_pairs(),
         lambda A, B: split_closed[A][B] != split_recursive[A][B]),
        ("unit_row_and_column", "standard",
         [(0, B) for B in range(dim)] + [(A, 0) for A in range(dim)],
         lambda A, B: closed[A][B] != 0),
        ("nonzero_diagonal_is_one", "standard", ((A, A) for A in range(1, dim)),
         lambda A, B: closed[A][A] != 1),
        ("off_diagonal_antisymmetry", "standard", distinct_pairs(),
         lambda A, B: (closed[A][B] + closed[B][A]) & 1 != 1),
        ("equal_degree_cut_bits_differ", "standard",
         ((A, B) for A, B in distinct_pairs() if degree(A) == degree(B)),
         lambda A, B: ((A >> ell(A, B)) & 1) + ((B >> ell(A, B)) & 1) != 1),
        ("cut_bit_or_is_one", "standard", distinct_pairs(),
         lambda A, B: phi((A >> ell(A, B)) & 1, (B >> ell(A, B)) & 1) != 1),
        ("unified_upper_form", "standard",
         ((A, B) for A, B in distinct_pairs() if degree(A) >= degree(B)),
         breaks_unified_form),
        ("split_reduction", "split", all_pairs(),
         lambda A, B: (split_closed[A][B] ^ closed[A][B])
         != (((A >> top) & (B >> top)) & 1)),
        ("padding_invariance", "standard", all_pairs(),
         lambda A, B: closed[A][B] != twist(A, B, level + 2)),
    ]
    return [
        analysis._report(name, kind, level, analysis._first_failure(pairs, violates))
        for name, kind, pairs, violates in laws
    ]


def _relation_major_verify_relations(level, samples=200, seed=0):
    """The relation sweep that draws every pair first, then sweeps each
    relation over them with fresh products: the reference for
    ``verify_relations``, which shares products within a pair. Products go
    through ``analysis.mul_doubling``, so a patched oracle reaches both."""
    inner = STD(level)
    ambient = STD(level + 1)
    g = basis_element(ambient, 1 << level)
    one = basis_element(ambient, 0)
    m = analysis.mul_doubling
    c = conjugate

    relations = [
        ("g*g == -1", lambda a, b: m(g, g) == -one),
        ("conj(g) == -g", lambda a, b: c(g) == -g),
        ("a*(g*b) == g*(conj(a)*b)", lambda a, b: m(a, m(g, b)) == m(g, m(c(a), b))),
        ("(a*g)*b == (a*conj(b))*g", lambda a, b: m(m(a, g), b) == m(m(a, c(b)), g)),
        (
            "(g*a)*(b*g) == -conj(a*b)",
            lambda a, b: m(m(g, a), m(b, g)) == -c(m(a, b)),
        ),
        ("a*g == g*conj(a)", lambda a, b: m(a, g) == m(g, c(a))),
        ("g*a == conj(a)*g", lambda a, b: m(g, a) == m(c(a), g)),
        ("(g*a)*b == g*(b*a)", lambda a, b: m(m(g, a), b) == m(g, m(b, a))),
        ("a*(b*g) == (b*a)*g", lambda a, b: m(a, m(b, g)) == m(m(b, a), g)),
        ("(g*a)*(g*b) == -b*conj(a)", lambda a, b: m(m(g, a), m(g, b)) == -m(b, c(a))),
        ("(a*g)*(b*g) == -conj(b)*a", lambda a, b: m(m(a, g), m(b, g)) == -m(c(b), a)),
    ]

    rng = random.Random(f"{seed}:relations:{level}")
    n_samples = analysis._samples_for_level(samples, level)
    operand_pairs = []
    for _ in range(n_samples):
        a = analysis._embed_low(random_element(inner, rng), ambient)
        b = analysis._embed_low(random_element(inner, rng), ambient)
        operand_pairs.append((a, b))

    reports = []
    for name, check in relations:
        pair, checked = analysis._first_failure(operand_pairs, lambda a, b: not check(a, b))
        witness = None if pair is None else (pair[0].coeffs, pair[1].coeffs)
        reports.append(analysis._report(name, "standard", level, (witness, checked), seed))
    return reports


def _flip_a_residue_class(monkeypatch):
    right = analysis.twist
    monkeypatch.setattr(
        analysis, "twist",
        lambda A, B, level, *mask: right(A, B, level, *mask) ^ (level < 7 and (A + 2 * B) % 7 == 3),
    )


def _flip_matrix_entry_5_3(monkeypatch):
    right = analysis.twist_matrix

    def flipped(level, mask=0):
        table = right(level, mask)
        if len(table) > 5:
            table[5, 3] ^= 1
        return table

    monkeypatch.setattr(analysis, "twist_matrix", flipped)


def _corrupt_some_real_parts(monkeypatch):
    right = analysis.mul_doubling

    def corrupted(x, y):
        product = right(x, y)
        if (sum(x.coeffs) - 2 * sum(y.coeffs)) % 5 == 1:
            return Element(product.signature, (product.coeffs[0] + 1,) + product.coeffs[1:])
        return product

    monkeypatch.setattr(analysis, "mul_doubling", corrupted)


def _twist_law_dicts(sweep):
    return [r.to_dict() for level in range(1, 9) for r in sweep(level)]


def _relation_dicts(sweep):
    return [
        r.to_dict()
        for seed in (0, 1)
        for level in range(6)
        for r in sweep(level, samples=200, seed=seed)
    ]


class TestSweepsMatchTheirReferences:
    # Each injected fault is paired with the sweep that reads the engine it
    # breaks: the twist laws call no mul_doubling and the relations no twist.
    @pytest.mark.parametrize("fault", [None, _flip_a_residue_class, _flip_matrix_entry_5_3])
    def test_twist_laws(self, fault, monkeypatch):
        if fault:
            fault(monkeypatch)
        reports = _twist_law_dicts(verify_twist_laws)
        assert reports == _twist_law_dicts(_pairwise_verify_twist_laws)
        failing = sum(not r["holds"] for r in reports)
        assert failing > 0 if fault else failing == 0
        # Through level 8 a level is one block. Ragged blocks of a few rows
        # carry witnesses and counts across block boundaries.
        monkeypatch.setattr(analysis, "_BLOCK_PAIRS", 48)
        assert _twist_law_dicts(verify_twist_laws) == reports

    @pytest.mark.parametrize("fault", [None, _corrupt_some_real_parts])
    def test_relations(self, fault, monkeypatch):
        if fault:
            fault(monkeypatch)
        reports = _relation_dicts(verify_relations)
        assert reports == _relation_dicts(_relation_major_verify_relations)
        failing = sum(not r["holds"] for r in reports)
        assert failing > 0 if fault else failing == 0

    @staticmethod
    def _traced_peak(sweep, *args):
        sweep(1)  # module-level one-time allocations
        tracemalloc.start()
        try:
            sweep(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_twist_law_memory_is_bounded_by_a_block(self):
        # Level 9 is four row blocks. The pairwise reference peaks at 1.33 MiB
        # there (Python 3.11, numpy 2.4), mostly its four tables; tracing it
        # takes about 40 s, so its peak is written here.
        assert self._traced_peak(verify_twist_laws, 9) <= 1.5 * 1.33 * 2**20

    def test_relations_hold_no_list_of_pairs(self):
        # The reference keeps every drawn pair, so its peak grows with the
        # sample count; 25 samples keep the traced runs short.
        assert self._traced_peak(verify_relations, 5, 25) <= self._traced_peak(
            _relation_major_verify_relations, 5, 25
        )


class TestTwistLaws:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_all_hold(self, level):
        reports = verify_twist_laws(level)
        assert reports and all(r.holds for r in reports)

    def test_pair_counts(self):
        by_name = {r.name: r for r in verify_twist_laws(3)}
        assert by_name["closed_equals_recursive"].checked == 64
        assert by_name["off_diagonal_antisymmetry"].checked == 42
        assert by_name["nonzero_diagonal_is_one"].checked == 7

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_twist_laws(0)

    @pytest.mark.parametrize("level", range(1, 9))
    def test_block_arrays_are_the_scalar_definitions(self, level):
        # degree, ell and phi pin every distinct positive pair's arrays; the
        # blocks tile the rows in order, each within the block size
        dim, rows, distinct = 1 << level, [], 0
        for k in analysis._row_blocks(level):
            rows += range(dim)[k.rows]
            shape = (len(range(dim)[k.rows]), dim)
            assert shape[0] * dim <= analysis._BLOCK_PAIRS
            assert k.A.dtype == k.B.dtype == np.uint16
            assert {x.dtype for x in (k.deg_a, k.deg_b, k.cut, k.bit_a, k.bit_b)} == {np.dtype(np.uint8)}
            flat = [
                np.broadcast_to(x, shape).ravel().tolist()
                for x in (k.A, k.B, k.distinct, k.deg_a, k.deg_b, k.cut, k.bit_a, k.bit_b)
            ]
            for A, B, is_distinct, deg_a, deg_b, cut, bit_a, bit_b in zip(*flat):
                if not is_distinct:
                    assert A == B or not A or not B
                    continue
                distinct += 1
                assert (deg_a, deg_b, cut) == (degree(A), degree(B), ell(A, B))
                assert (bit_a, bit_b) == ((A >> cut) & 1, (B >> cut) & 1)
                assert bit_a | bit_b == phi(bit_a, bit_b)
        assert rows == list(range(dim))
        assert distinct == (dim - 1) * (dim - 2)

    def test_sweep_leaves_the_memo_empty(self):
        twist_recursive.cache_clear()
        assert all(r.holds for r in verify_twist_laws(8))
        info = twist_recursive.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_wrong_recursion_is_detected(self, monkeypatch):
        right = analysis.twist_matrix

        def wrong(level, mask=0):
            table = right(level, mask)
            if not mask:  # the standard table only
                table[5, 3] ^= 1
            return table

        monkeypatch.setattr(analysis, "twist_matrix", wrong)
        by_name = {r.name: r for r in verify_twist_laws(3)}
        assert {name for name, r in by_name.items() if not r.holds} == {
            "closed_equals_recursive"
        }
        assert by_name["closed_equals_recursive"].witness == (5, 3)

    def test_one_wrong_table_entry_is_its_own_witness(self, monkeypatch):
        # The sweep compares entry by entry, so it first fails at the entry itself.
        right = analysis.twist

        def flipped(A, B, level):
            return right(A, B, level) ^ ((A, B) == (6, 3))

        monkeypatch.setattr(analysis, "twist", flipped)
        by_name = {r.name: r for r in verify_twist_laws(3)}
        report = by_name["closed_equals_recursive"]
        assert not report.holds
        assert report.witness == (6, 3)
        assert by_name["split_closed_equals_recursive"].holds


def test_levels_above_the_table_cap_are_refused_before_any_work(monkeypatch):
    def boom(*args):
        raise AssertionError("no table work above the cap")

    for attr in ("twist", "split_twist", "twist_matrix", "mul_doubling"):
        monkeypatch.setattr(analysis, attr, boom)
    monkeypatch.setattr(analysis, "_oracle_tables", {})
    with pytest.raises(ValueError, match="cap is 12"):
        verify_twist_laws(13)
    with pytest.raises(ValueError, match="cap is 12"):
        find_zero_divisors(STD(13))
    assert analysis._oracle_tables == {}
    # build_table leaves the refusal to twist_matrix, which makes it before
    # allocating any of the 64 MiB a level-13 table would take
    monkeypatch.undo()
    monkeypatch.setattr(analysis, "twist_batch", boom)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap is 12"):
            build_table(STD(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


class TestAlgebraLaws:
    def test_reals_and_complex_satisfy_everything(self):
        for level in (0, 1):
            assert all(r.holds for r in verify_algebra_laws(STD(level), samples=30))

    def test_quaternions_lose_commutativity_only(self):
        by_name = {r.name: r for r in verify_algebra_laws(STD(2), samples=30)}
        assert not by_name["commutative"].holds
        assert by_name["commutative"].witness == (1, 2)
        assert by_name["associative"].holds
        assert by_name["associative"].checked >= 64  # exhaustive basis triples

    def test_octonions_lose_associativity(self):
        by_name = {r.name: r for r in verify_algebra_laws(STD(3), samples=30)}
        assert not by_name["associative"].holds
        assert by_name["associative"].witness == (1, 2, 4)
        for law in ("left_alternative", "right_alternative", "flexible",
                    "norm_multiplicative"):
            assert by_name[law].holds, law

    def test_level_four_loses_alternativity_and_norm(self):
        by_name = {r.name: r for r in verify_algebra_laws(STD(4), samples=60, seed=4)}
        assert not by_name["left_alternative"].holds
        assert not by_name["right_alternative"].holds
        assert not by_name["norm_multiplicative"].holds
        assert by_name["flexible"].holds

    def test_witnesses_replay_under_doubling(self):
        by_name = {r.name: r for r in verify_algebra_laws(STD(4), samples=60, seed=4)}
        report = by_name["left_alternative"]
        assert report.witness is not None
        x, y = (Element(STD(4), w) for w in report.witness)
        xx = mul_doubling(x, x)
        assert mul_doubling(xx, y) != mul_doubling(x, mul_doubling(x, y))
        report = by_name["norm_multiplicative"]
        x, y = (Element(STD(4), w) for w in report.witness)
        assert norm(mul_doubling(x, y)) != norm(x) * norm(y)

    def test_split_complex_is_commutative_and_associative(self):
        by_name = {r.name: r for r in verify_algebra_laws(SPL(1), samples=30)}
        assert by_name["commutative"].holds
        assert by_name["associative"].holds


class TestOracleTableCache:
    def test_holds_only_the_last_signature(self, monkeypatch):
        monkeypatch.setattr(analysis, "_oracle_tables", {})
        table = analysis._oracle_parity_table(STD(3))
        assert analysis._oracle_parity_table(STD(3)) is table
        analysis._oracle_parity_table(SPL(3))
        assert list(analysis._oracle_tables) == [(3, SPL(3).gammas)]
        assert analysis._oracle_parity_table(STD(3)) == table
        assert list(analysis._oracle_tables) == [(3, STD(3).gammas)]


class TestOracleTable:
    def test_one_doubling_product_per_row(self, monkeypatch):
        calls = []

        def counted(x, y, _right=analysis.mul_doubling):
            calls.append(1)
            return _right(x, y)

        monkeypatch.setattr(analysis, "_oracle_tables", {})
        monkeypatch.setattr(analysis, "mul_doubling", counted)
        for signature in (STD(5), SPL(5)):
            calls.clear()
            analysis._oracle_parity_table(signature)
            assert len(calls) == 2**5

    def test_product_off_the_signed_basis_is_rejected(self, monkeypatch):
        def plus_unit(x, y, _right=analysis.mul_doubling):
            return _right(x, y) + basis_element(x.signature, 0)

        monkeypatch.setattr(analysis, "_oracle_tables", {})
        monkeypatch.setattr(analysis, "mul_doubling", plus_unit)
        with pytest.raises(InvariantViolation, match="coefficient other than"):
            analysis._oracle_parity_table(STD(3))

    @pytest.mark.parametrize(
        "gammas",
        [g for n in (1, 2, 3) for g in itertools.product((-1, 1), repeat=n)],
        ids=str,
    )
    def test_matches_pairwise_basis_products(self, monkeypatch, gammas):
        signature = AlgebraSignature.from_gammas(gammas)
        dim = signature.dimension
        expected = []
        for A in range(dim):
            row = []
            for B in range(dim):
                product = mul_doubling(
                    basis_element(signature, A), basis_element(signature, B)
                ).coeffs
                assert [i for i, c in enumerate(product) if c] == [A ^ B]
                assert product[A ^ B] in (1, -1)
                row.append(int(product[A ^ B] == -1))
            expected.append(row)
        monkeypatch.setattr(analysis, "_oracle_tables", {})
        table = analysis._oracle_parity_table(signature)
        assert [list(row) for row in table] == expected


class TestExpectations:
    def test_law_decay_profile(self):
        assert expected_law_holds("commutative", "standard", 1)
        assert not expected_law_holds("commutative", "standard", 2)
        assert expected_law_holds("associative", "standard", 2)
        assert not expected_law_holds("associative", "standard", 3)
        assert expected_law_holds("left_alternative", "standard", 3)
        assert not expected_law_holds("left_alternative", "standard", 4)
        assert expected_law_holds("flexible", "standard", 5)
        assert not expected_law_holds("norm_multiplicative", "split", 4)
        with pytest.raises(KeyError):
            expected_law_holds("nonsense", "standard", 1)

    def test_zero_divisor_profile(self):
        assert expected_zero_divisor_free("standard", 3)
        assert not expected_zero_divisor_free("standard", 4)
        assert not expected_zero_divisor_free("split", 1)
        # any +1 parameter gives a hyperbolic unit, whatever its position
        assert not expected_zero_divisor_free(AlgebraSignature.from_gammas((1, -1)).kind, 2)

    def test_named_kinds_keep_their_answers(self):
        levels = range(13)
        assert [expected_zero_divisor_free("standard", n) for n in levels] == [
            n <= 3 for n in levels
        ]
        assert not any(expected_zero_divisor_free("split", n) for n in levels)

    @pytest.mark.parametrize(
        "gammas",
        [g for n in range(1, 5) for g in itertools.product((-1, 1), repeat=n)],
        ids=lambda g: ",".join(f"{x:+d}" for x in g),
    )
    def test_every_parameter_vector_meets_its_expectations(self, gammas):
        # backs the comment above _LAWS: the decay profile does not depend on
        # the kind, and zero divisors appear from level 1 once any gamma is +1
        sig = AlgebraSignature.from_gammas(gammas)
        reports = verify_algebra_laws(sig, samples=20) + verify_zero_divisors(sig)
        assert [r.to_dict() for r in reports if not r.ok] == []


class TestRelations:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_all_hold(self, level):
        reports = verify_relations(level, samples=25, seed=1)
        assert len(reports) == 11
        assert all(r.holds for r in reports)

    def test_deterministic(self):
        a = verify_relations(2, samples=10, seed=9)
        b = verify_relations(2, samples=10, seed=9)
        assert a == b

    def test_no_samples_is_an_error(self):
        # with nothing drawn, every relation would report holds with checked 0
        with pytest.raises(ValueError, match="samples"):
            verify_relations(2, samples=0)

    @pytest.mark.parametrize("level", [2, 3])
    def test_wrong_products_with_g_on_the_left(self, level, monkeypatch):
        # Products g*y go wrong for g itself and for every right operand the
        # relations build from the fifth pair, so g*g fails on the first pair
        # and every other relation that reads a g*y product on the fifth.
        samples, bad = 25, 5
        ambient = STD(level + 1)
        g = basis_element(ambient, 1 << level)
        rng = random.Random(f"1:relations:{level}")
        pairs = [
            tuple(analysis._embed_low(random_element(STD(level), rng), ambient) for _ in "ab")
            for _ in range(samples)
        ]
        a, b = pairs[bad - 1]
        marked = {y.coeffs for y in (g, a, b, conjugate(a), mul_doubling(conjugate(a), b),
                                     mul_doubling(b, a))}
        right = analysis.mul_doubling

        def wrong(x, y):
            product = right(x, y)
            if x == g and y.coeffs in marked:
                return Element(product.signature, (product.coeffs[0] + 1,) + product.coeffs[1:])
            return product

        monkeypatch.setattr(analysis, "mul_doubling", wrong)
        reports = {r.name: r for r in verify_relations(level, samples=samples, seed=1)}
        first = {"g*g == -1"}
        fifth = {
            "a*(g*b) == g*(conj(a)*b)",
            "(g*a)*(b*g) == -conj(a*b)",
            "a*g == g*conj(a)",
            "g*a == conj(a)*g",
            "(g*a)*b == g*(b*a)",
            "(g*a)*(g*b) == -b*conj(a)",
        }
        assert {name for name, r in reports.items() if not r.holds} == first | fifth
        for name, r in reports.items():
            if name in first:
                assert (r.witness, r.checked) == ((pairs[0][0].coeffs, pairs[0][1].coeffs), 1)
            elif name in fifth:
                assert (r.witness, r.checked) == ((a.coeffs, b.coeffs), bad)
            else:
                assert (r.witness, r.checked) == (None, samples)


class TestEngines:
    @pytest.mark.parametrize("sig", [STD(0), STD(3), SPL(1), SPL(4)])
    def test_agree(self, sig):
        (report,) = verify_engines(sig, samples=40, seed=2)
        assert report.holds
        assert report.checked > 40  # exhaustive basis pairs included

    @pytest.mark.parametrize("gammas", [(1, -1, 1, -1, 1), (-1, 1, 1, -1, -1, 1)])
    def test_agree_on_general_gammas(self, gammas):
        sig = AlgebraSignature.from_gammas(gammas)
        (report,) = verify_engines(sig, samples=40, seed=2)
        assert report.holds and report.witness is None
        assert report.kind == "gamma:" + ",".join(f"{g:+d}" for g in gammas)
        assert report.checked == 4 ** sig.level + analysis._samples_for_level(40, sig.level)


class TestAnchoring:
    @pytest.mark.parametrize("level", [0, 1, 4, 6])
    def test_holds(self, level):
        (report,) = verify_generator_anchoring(level)
        assert report.holds
        assert report.checked == 1 << level


def _support(x) -> tuple:
    return tuple(A for A, c in enumerate(x.coeffs) if c)


def _assert_two_term_hits_recheck(pairs, monkeypatch) -> None:
    # Two-term operands take the oracle's term path: 2 * 2 * n <= 2**n.
    def forbidden(*args):
        raise AssertionError("a two-term product entered the recursion")

    monkeypatch.setattr(algebra, "_mul_rec", forbidden)
    for pair in pairs:
        assert len(_support(pair.x)) == len(_support(pair.y)) == 2
        assert mul_doubling(pair.x, pair.y).is_zero()


def _zero_divisors_by_terms(signature, search_budget):
    """The two-term search written with the product's four +-1 terms: the
    reference for ``find_zero_divisors``, which tests one parity equation.
    Same candidates, order and budget; returns each hit's coefficients."""
    t = analysis._oracle_parity_table(signature)
    dim = signature.dimension
    candidates = (
        (A, B, C, C ^ A ^ B, s, tt)
        for A in range(dim)
        for B in range(A + 1, dim)
        for C in range(dim)
        if C < C ^ A ^ B
        for s in (1, -1)
        for tt in (1, -1)
    )
    hits = []
    for A, B, C, D, s, tt in itertools.islice(candidates, max(search_budget, 0)):
        term_ac = -1 if t[A][C] else 1
        term_ad = tt * (-1 if t[A][D] else 1)
        term_bc = s * (-1 if t[B][C] else 1)
        term_bd = s * tt * (-1 if t[B][D] else 1)
        if term_ac + term_bd or term_ad + term_bc:
            continue
        x, y = [0] * dim, [0] * dim
        x[A], x[B], y[C], y[D] = 1, s, 1, tt
        hits.append((tuple(x), tuple(y)))
    return hits


# standard levels 0-5, split levels 1-5, and every gamma vector at levels
# 2-3, each signature once
_ZERO_DIVISOR_SIGNATURES = list(
    dict.fromkeys(
        [STD(n) for n in range(6)]
        + [SPL(n) for n in range(1, 6)]
        + [
            AlgebraSignature(gammas)
            for n in (2, 3)
            for gammas in itertools.product((-1, 1), repeat=n)
        ]
    )
)


class TestZeroDivisorsMatchTheFourTermReference:
    @pytest.mark.parametrize("sig", _ZERO_DIVISOR_SIGNATURES, ids=str)
    def test_same_pairs_in_the_same_order(self, sig):
        for budget in (0, 1, 7, 1000, 1 << 30):
            pairs = find_zero_divisors(sig, budget)
            found = [(pair.x.coeffs, pair.y.coeffs) for pair in pairs]
            assert found == _zero_divisors_by_terms(sig, budget), (sig, budget)
            assert all(pair.product.is_zero() for pair in pairs)


class TestZeroDivisors:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_none_below_sedenions(self, level):
        assert find_zero_divisors(STD(level)) == []

    def test_sedenions_have_them(self):
        pairs = find_zero_divisors(STD(4))
        assert pairs
        first = pairs[0]
        # frozen: (e1 + e10)(e4 - e15) = 0 is the first hit in sweep order
        assert first.x.coeffs[1] == 1 and first.x.coeffs[10] == 1
        assert first.y.coeffs[4] == 1 and first.y.coeffs[15] == -1
        for pair in pairs[:5]:
            assert not pair.x.is_zero() and not pair.y.is_zero()
            assert pair.product.is_zero()
            assert mul_doubling(pair.x, pair.y).is_zero()

    def test_sedenion_census_is_the_42_assessors(self, monkeypatch):
        # de Marrais, "The 42 Assessors and the Box-Kites They Fly"
        # (arXiv:math/0011260): in this indexing the assessors are
        # e_i +- e_j with 1 <= i <= 7, 9 <= j <= 15, j != i + 8. The counts
        # below are this package's exhaustive search, pinned as regressions.
        pairs = find_zero_divisors(STD(4), 1 << 30)
        assert len(pairs) == 336
        supports = {_support(pair.x) for pair in pairs}
        assessors = {(i, j) for i in range(1, 8) for j in range(9, 16) if j != i + 8}
        assert len(assessors) == 42
        assert supports == assessors
        partners = Counter(pair.x.coeffs for pair in pairs)
        assert len(partners) == 84
        assert set(partners.values()) == {4}
        _assert_two_term_hits_recheck(pairs, monkeypatch)

    def test_level_5_census(self, monkeypatch):
        pairs = find_zero_divisors(STD(5), 1 << 30)
        assert len(pairs) == 5040
        assert len({_support(pair.x) for pair in pairs}) == 294
        _assert_two_term_hits_recheck(pairs, monkeypatch)

    def test_split_complex_idempotents(self):
        pairs = find_zero_divisors(SPL(1))
        assert pairs
        assert pairs[0].x.coeffs == (1, 1) and pairs[0].y.coeffs == (1, -1)

    def test_budget_counts_candidates(self):
        assert find_zero_divisors(SPL(1), search_budget=0) == []

    def test_report_wrapper(self):
        (report,) = verify_zero_divisors(STD(2), search_budget=1000)
        assert report.holds and report.witness is None
        (report,) = verify_zero_divisors(SPL(1))
        assert not report.holds and report.witness == ((1, 1), (1, -1))

    @pytest.mark.parametrize("level, candidates", [(1, 4), (2, 48), (3, 448), (4, 3840)])
    def test_checked_counts_evaluated_candidates(self, level, candidates):
        (report,) = verify_zero_divisors(STD(level))
        assert report.checked == candidates

    def test_candidate_count_matches_enumeration(self):
        for level in range(1, 6):
            dim = 1 << level
            pairs = [(A, B) for A in range(dim) for B in range(A + 1, dim)]
            count = 4 * sum(1 for A, B in pairs for C, D in pairs if A ^ B == C ^ D)
            assert count == dim * dim * (dim - 1)

    def test_truncated_search_never_holds(self):
        (report,) = verify_zero_divisors(STD(3), search_budget=0)
        assert not report.holds and report.checked == 0 and report.witness is None
        (report,) = verify_zero_divisors(STD(3), search_budget=447)
        assert not report.holds and report.checked == 447
        (report,) = verify_zero_divisors(STD(3), search_budget=448)
        assert report.holds and report.checked == 448


class TestBenchmark:
    def test_row_schema_and_agreement(self):
        rows = benchmark_engines([3, 5], queries=400, seed=1, reps=2)
        engines = {(r.level, r.engine) for r in rows}
        for level in (3, 5):
            for engine in ("closed", "closed_batch", "recursive_memo", "table_lookup"):
                assert (level, engine) in engines
        for row in rows:
            d = row.to_dict()
            assert d["queries"] > 0 and d["total_ns"] >= 0
            assert d["per_query_ns"] == d["total_ns"] / d["queries"]

    def test_table_engine_skipped_above_cap(self):
        rows = benchmark_engines([14], queries=64, seed=0, reps=1)
        assert not [r for r in rows if r.engine == "table_lookup"]

    def test_bad_level(self):
        with pytest.raises(ValueError):
            benchmark_engines([0], queries=10)

    def test_no_queries(self):
        with pytest.raises(ValueError, match="queries"):
            benchmark_engines([3], queries=0)

    def test_no_levels(self):
        with pytest.raises(ValueError, match="level"):
            benchmark_engines([])

    def test_levels_may_be_a_generator(self):
        rows = benchmark_engines((n for n in (3, 4)), queries=4, reps=1)
        assert [r.level for r in rows] == [3] * 4 + [4] * 4

    def test_queries_above_the_bound_are_refused_before_any_draw(self, monkeypatch):
        # about 150 bytes per query: 10**8 queries would need gigabytes
        assert analysis.MAX_BENCH_QUERIES == 1 << 20
        monkeypatch.setattr(
            analysis, "random", types.SimpleNamespace(Random=lambda *a: pytest.fail("drew queries"))
        )
        for queries in ((1 << 20) + 1, 10**8):
            with pytest.raises(ValueError, match=f"queries must be in \\[1, 1048576\\], got {queries}"):
                benchmark_engines([24], queries=queries, reps=1)

    def test_level_past_max_level_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(analysis, "twist", lambda *a: pytest.fail("timed a level"))
        with pytest.raises(ValueError, match="62"):
            benchmark_engines([3, 64], queries=4, reps=1)

    def test_leaves_the_recursion_memo_warm(self):
        for A in range(64):
            for B in range(64):
                twist_recursive(A, B)
        warm = twist_recursive.cache_info()
        benchmark_engines([3], queries=16, reps=1)
        assert twist_recursive.cache_info() == warm

    def test_checks_the_answers_it_timed(self, monkeypatch):
        # the cold recursion that is timed peels through analysis._peel
        right = analysis._peel
        monkeypatch.setattr(analysis, "_peel", lambda *a, **k: right(*a, **k) ^ 1)
        with pytest.raises(InvariantViolation, match="recursive_memo vs closed form"):
            benchmark_engines([4], queries=64, reps=1)
        monkeypatch.setattr(analysis, "_peel", right)
        # above MAX_TABLE_LEVEL there is no table, and the answers are still checked
        batch = analysis.twist_batch
        monkeypatch.setattr(analysis, "twist_batch", lambda A, B, level: batch(A, B, level) ^ 1)
        with pytest.raises(InvariantViolation, match="closed_batch vs closed form .* level 16"):
            benchmark_engines([16], queries=64, reps=1)


class TestReportSerialization:
    def test_fraction_witness_is_jsonable(self):
        import json
        from fractions import Fraction

        report = PropertyReport(
            "demo", "standard", 1, False, 3, ((Fraction(1, 2), 1), (0, 2)), 7
        )
        encoded = json.dumps(report.to_dict())
        assert '"1/2"' in encoded
        assert encoded.endswith('"seed": 7, "expected": true, "ok": false}')

    def test_key_order_is_the_recorded_verify_output(self):
        import json
        from pathlib import Path

        recorded = Path(__file__).parent / "data" / "verify_default.jsonl"
        first = recorded.read_text().splitlines()[0]
        assert json.dumps(verify_twist_laws(1)[0].to_dict()) == first


class TestReportVerdict:
    # (holds, expected, witness) -> ok: the outcome must match the
    # expectation, and a failure counts as expected only with a witness
    @pytest.mark.parametrize(
        "holds, expected, witness, ok",
        [
            (True, True, None, True),
            (True, True, (1,), True),
            (True, False, None, False),
            (True, False, (1,), False),
            (False, True, None, False),
            (False, True, (1,), False),
            (False, False, None, False),
            (False, False, (1,), True),
        ],
    )
    def test_ok(self, holds, expected, witness, ok):
        report = PropertyReport("demo", "standard", 3, holds, 1, witness, expected=expected)
        assert report.ok is ok
