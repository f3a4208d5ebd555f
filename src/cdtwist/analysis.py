"""Structure verification, table building, and engine benchmarks.

Everything here is context validation for the two arithmetic engines:
exhaustive law sweeps on basis elements (driven by a sign table computed
with the doubling oracle), seeded random sweeps on dense elements, a
brute-force zero-divisor search over two-term combinations, and a timing
harness that races the sign engines against each other while
cross-checking their outputs.

Sweeps are deterministic given (signature, caps, seed); witnesses in a
failing report are always re-verified with the doubling engine before
being reported, so a consumer can replay them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraSignature,
    Element,
    InvariantViolation,
    SignedIndex,
    basis_element,
    basis_from_generators,
    conjugate,
    mul_doubling,
    mul_twist,
    norm,
    random_element,
)
# ``split_twist_batch`` has no caller here; perfbench/tracer.py wraps
# ``analysis.split_twist_batch`` by name, so the name stays importable.
from .twist import (  # noqa: F401
    MAX_LEVEL,
    MAX_TABLE_LEVEL,
    _check_table_level,
    _peel,
    degree,
    ell,
    phi,
    split_twist,
    split_twist_batch,
    twist,
    twist_batch,
    twist_matrix,
    twist_recursive,
)

__all__ = [
    "BenchRow",
    "DEFAULT_TABLE_CAP",
    "MultiplicationTable",
    "PropertyReport",
    "ZeroDivisorPair",
    "benchmark_engines",
    "build_table",
    "expected_law_holds",
    "expected_zero_divisor_free",
    "find_zero_divisors",
    "verify_engines",
    "verify_generator_anchoring",
    "verify_relations",
    "verify_algebra_laws",
    "verify_twist_laws",
    "verify_zero_divisors",
]

DEFAULT_TABLE_CAP = MAX_TABLE_LEVEL

# Exhaustive basis triples stay desk-scale through level 5; beyond that
# only seeded random sampling.
BASIS_TRIPLE_CAP = 5


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property sweep, with its verdict.

    ``holds`` is what the sweep observed and ``expected`` what the swept
    algebra's doubling parameters predict; a failing report carries a
    witness. ``ok`` is the verdict: the outcome matches the expectation,
    and an expected failure counts only with a replayable witness.
    """

    name: str
    kind: str
    level: int
    holds: bool
    checked: int
    witness: tuple | None = None
    seed: int | None = None
    expected: bool = True

    @property
    def ok(self) -> bool:
        return self.holds == self.expected and (self.holds or self.witness is not None)

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "kind": self.kind,
            "level": self.level,
            "holds": self.holds,
            "checked": self.checked,
            "witness": _jsonable(self.witness),
            "seed": self.seed,
            "expected": self.expected,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ZeroDivisorPair:
    """Nonzero x, y with x * y exactly zero."""

    x: Element
    y: Element
    product: Element


@dataclass(frozen=True)
class MultiplicationTable:
    """Dense table of basis products for one signature.

    ``signs[A, B]`` is +-1 and the product index is always A ^ B, so the
    index array is never materialized.
    """

    signature: AlgebraSignature
    signs: np.ndarray = field(repr=False)

    def entry(self, A: int, B: int) -> SignedIndex:
        return SignedIndex(int(self.signs[A, B]), A ^ B)


def build_table(signature: AlgebraSignature) -> MultiplicationTable:
    """Materialize the full multiplication table of any signature.

    Built by block doubling (``twist_matrix``), with a seeded sample checked
    against the batch closed form of the same kind (``twist_batch`` with the mask).
    Levels above ``DEFAULT_TABLE_CAP`` (a 16 MiB sign matrix) are refused.
    """
    n, mask = signature.level, signature.mask
    _check_table_level(n)
    exponents = twist_matrix(n, mask)
    rng = random.Random(n)
    A, B = np.array([rng.getrandbits(n) for _ in range(1 << 13)]).reshape(2, -1)  # int64
    bad = np.flatnonzero(exponents[A, B] != twist_batch(A, B, n, mask))
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"block-doubling table != closed form at ({A[i]}, {B[i]}) for {signature}"
        )
    signs = exponents.view(np.int8)
    signs *= -2
    signs += 1  # exponent 0 -> +1, 1 -> -1, in place
    return MultiplicationTable(signature, signs)


# ---------------------------------------------------------------------------
# twist-law sweeps


def _first_failure(cases, fails):
    """Call ``fails(*case)`` on each argument tuple in order, up to the first failure.

    Returns (the failing case or None, number of cases evaluated). Lazy
    ``cases`` are drawn only as far as the sweep gets.
    """
    checked = 0
    for case in cases:
        checked += 1
        if fails(*case):
            return case, checked
    return None, checked


def _report(name, kind, level, found, seed=None, expected=True) -> PropertyReport:
    """Report of a sweep from its (witness, checked): it holds iff no witness was found."""
    witness, checked = found
    return PropertyReport(name, kind, level, witness is None, checked, witness, seed, expected)


def verify_twist_laws(level: int) -> list[PropertyReport]:
    """Exhaustively check the structural twist identities at one level.

    Covers: agreement of the closed form with the recursion (standard and
    split), the zero row/column, the nonzero diagonal, off-diagonal
    antisymmetry, the two cut-bit facts, the unified upper-triangle
    formula, the split reduction, and invariance under padding the level
    upward. The recursion side is the block-doubling table (``twist_matrix``)
    of each kind, compared entry by entry with the scalar closed form; no
    memo is read. Levels above ``DEFAULT_TABLE_CAP`` are refused.
    """
    if level < 1:
        raise ValueError("twist-law sweeps need level >= 1")
    _check_table_level(level)
    dim = 1 << level
    top = level - 1

    closed = [bytes([twist(A, B, level) for B in range(dim)]) for A in range(dim)]
    split_closed = [bytes([split_twist(A, B, level) for B in range(dim)]) for A in range(dim)]
    recursive = [row.tobytes() for row in twist_matrix(level)]
    split_recursive = [row.tobytes() for row in twist_matrix(level, 1 << top)]

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

    # (property, kind, index pairs, violation of the identity on one pair)
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
        _report(name, kind, level, _first_failure(pairs, violates))
        for name, kind, pairs, violates in laws
    ]


# ---------------------------------------------------------------------------
# algebra-law sweeps


# Basis-product parity tables computed with the doubling engine only, so
# the law sweeps below never depend on the closed-form twist they are
# meant to validate. The cache holds one entry, the last signature built:
# each sweep asks for one signature at a time, so it rebuilds only when a
# suite moves to another level.
_oracle_tables: dict[tuple[int, tuple[int, ...]], list[bytes]] = {}


def _oracle_parity_table(signature: AlgebraSignature) -> list[bytes]:
    """Rows t[A], one doubling product each: e_A times the all-ones element
    puts (-1)**t[A][B] on index A^B, so every coefficient must be +-1."""
    key = (signature.level, signature.gammas)
    table = _oracle_tables.get(key)
    if table is None:
        _check_table_level(signature.level)
        dim = signature.dimension
        ones = Element(signature, [1] * dim)
        table = []
        for A in range(dim):
            product = mul_doubling(basis_element(signature, A), ones).coeffs
            if any(c not in (1, -1) for c in product):
                raise InvariantViolation(
                    f"e_{A} times the all-ones element has a coefficient other than +-1"
                )
            table.append(bytes(product[A ^ B] == -1 for B in range(dim)))
        _oracle_tables.clear()
        _oracle_tables[key] = table
    return table


def _two_term(signature, i, j, sign_j):
    coeffs = [0] * signature.dimension
    coeffs[i] = 1
    coeffs[j] = sign_j
    return Element(signature, coeffs)


# law -> (arity, element-level violation, basis-parity violation or None,
# highest level at which the law holds). A parity violation reads the
# doubling-derived table t: e_A e_B = (-1)**t[A][B] e_{A^B}. Norm
# multiplicativity has none: basis norms are +-1 and signs square away, so
# it is swept on basis elements instead. The decay profile is the same for
# every parameter vector; flexibility survives at every level.
_LAWS = {
    "commutative": (
        2,
        lambda x, y: mul_doubling(x, y) != mul_doubling(y, x),
        lambda t, A, B: t[A][B] != t[B][A],
        1,
    ),
    "associative": (
        3,
        lambda x, y, z: mul_doubling(mul_doubling(x, y), z)
        != mul_doubling(x, mul_doubling(y, z)),
        lambda t, A, B, C: (t[A][B] ^ t[A ^ B][C]) != (t[B][C] ^ t[A][B ^ C]),
        2,
    ),
    "left_alternative": (
        2,
        lambda x, y: mul_doubling(mul_doubling(x, x), y)
        != mul_doubling(x, mul_doubling(x, y)),
        lambda t, A, B: t[A][A] != (t[A][B] ^ t[A][A ^ B]),
        3,
    ),
    "right_alternative": (
        2,
        lambda x, y: mul_doubling(mul_doubling(y, x), x)
        != mul_doubling(y, mul_doubling(x, x)),
        lambda t, A, B: t[A][A] != (t[B][A] ^ t[B ^ A][A]),
        3,
    ),
    "flexible": (
        2,
        lambda x, y: mul_doubling(x, mul_doubling(y, x))
        != mul_doubling(mul_doubling(x, y), x),
        lambda t, A, B: (t[B][A] ^ t[A][B ^ A]) != (t[A][B] ^ t[A ^ B][A]),
        math.inf,
    ),
    "norm_multiplicative": (
        2,
        lambda x, y: norm(mul_doubling(x, y)) != norm(x) * norm(y),
        None,
        3,
    ),
}


def _samples_for_level(samples: int, level: int) -> int:
    # Dense doubling products cost O(4**n); shrink the sample count above
    # the exhaustive-triple cap so sweeps stay desk-scale. The floor of 8
    # never raises a smaller request.
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if level <= BASIS_TRIPLE_CAP:
        return samples
    return max(min(samples, 8), samples >> (2 * (level - BASIS_TRIPLE_CAP)))


def _first_failing_tuple(
    signature, arity, violates, parity_violates, exhaustive, rng, n_samples
):
    """First tuple that ``violates`` a law, and the number of tuples checked.

    With ``exhaustive``, all basis index tuples come first, in index order:
    through ``parity_violates`` on the doubling-derived parity table when
    given, else through ``violates`` on basis elements. A basis witness must
    replay at element level. Then ``n_samples`` seeded dense tuples, drawn
    one tuple at a time; their witness is a tuple of coefficient tuples.
    """
    witness, checked = None, 0
    if exhaustive:
        basis = [basis_element(signature, i) for i in range(signature.dimension)]

        def on_basis(*idx):
            return violates(*(basis[i] for i in idx))

        fails = on_basis
        if parity_violates is not None:
            fails = functools.partial(parity_violates, _oracle_parity_table(signature))
        tuples = itertools.product(range(len(basis)), repeat=arity)
        witness, checked = _first_failure(tuples, fails)
        if witness is not None and not on_basis(*witness):
            raise InvariantViolation(
                f"basis witness {witness} does not replay at element level"
            )
    if witness is None:
        draws = (
            tuple(random_element(signature, rng) for _ in range(arity))
            for _ in range(n_samples)
        )
        sample, sampled = _first_failure(draws, violates)
        checked += sampled
        if sample is not None:
            witness = tuple(e.coeffs for e in sample)
    return witness, checked


def verify_algebra_laws(
    signature: AlgebraSignature, samples: int = 200, seed: int = 0
) -> list[PropertyReport]:
    """Sweep the classical laws at one signature: exhaustive basis tuples
    (levels within the caps) plus seeded random dense tuples.

    Laws: commutativity, associativity, left/right alternativity,
    flexibility, and norm multiplicativity. Pair laws sweep all basis
    pairs, associativity all triples. Each report carries the first
    counterexample found.
    """
    level = signature.level
    rng = random.Random(f"{seed}:laws:{signature.kind}:{level}")
    n_samples = _samples_for_level(samples, level)
    exhaustive = level <= BASIS_TRIPLE_CAP
    reports = []
    for law, (arity, violates, parity_violates, _) in _LAWS.items():
        found = _first_failing_tuple(
            signature, arity, violates, parity_violates, exhaustive, rng, n_samples
        )
        expected = expected_law_holds(law, signature.kind, level)
        reports.append(_report(law, signature.kind, level, found, seed, expected))
    return reports


def expected_law_holds(law: str, kind: str, level: int) -> bool:
    """Whether ``law`` is known to hold at ``level`` (the same for every kind)."""
    return level <= _LAWS[law][3]


def expected_zero_divisor_free(kind: str, level: int) -> bool:
    # Any gamma_k = +1 gives a hyperbolic unit g (g*g = 1), and then
    # (e0 + g)(e0 - g) = 0; the standard kind has none through the octonions.
    return kind == "standard" and level <= 3


# ---------------------------------------------------------------------------
# relation suite


def _embed_low(x: Element, ambient: AlgebraSignature) -> Element:
    return Element(ambient, x.coeffs + (0,) * len(x.coeffs))


def verify_relations(
    level: int, samples: int = 200, seed: int = 0
) -> list[PropertyReport]:
    """Check the defining doubling relations at element level.

    Operands a, b live at ``level``; the relations involve the freshly
    adjoined generator g at level + 1 (standard parameters, so g is a new
    imaginary unit). All products use the doubling engine.
    """
    inner = AlgebraSignature.standard(level)
    ambient = AlgebraSignature.standard(level + 1)
    g = basis_element(ambient, 1 << level)
    one = basis_element(ambient, 0)
    m = mul_doubling
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
    n_samples = _samples_for_level(samples, level)
    operand_pairs = []
    for _ in range(n_samples):
        a = _embed_low(random_element(inner, rng), ambient)
        b = _embed_low(random_element(inner, rng), ambient)
        operand_pairs.append((a, b))

    reports = []
    for name, check in relations:
        pair, checked = _first_failure(operand_pairs, lambda a, b: not check(a, b))
        witness = None if pair is None else (pair[0].coeffs, pair[1].coeffs)
        reports.append(_report(name, "standard", level, (witness, checked), seed))
    return reports


# ---------------------------------------------------------------------------
# engine equivalence and anchoring


def verify_engines(
    signature: AlgebraSignature, samples: int = 100, seed: int = 0
) -> list[PropertyReport]:
    """Twist engine vs doubling engine: exhaustive basis pairs (small
    levels) and seeded random dense pairs, compared for exact equality."""
    level = signature.level
    rng = random.Random(f"{seed}:engines:{signature.kind}:{level}")

    def differ(x, y):
        return mul_twist(x, y) != mul_doubling(x, y)

    found = _first_failing_tuple(
        signature, 2, differ, None, level <= 6, rng, _samples_for_level(samples, level)
    )
    return [_report("mul_twist == mul_doubling", signature.kind, level, found, seed)]


def verify_generator_anchoring(level: int) -> list[PropertyReport]:
    """Left-to-right generator products must land on +e_A for every A.

    Uses only the doubling engine, so this pins the twist indexing
    convention to the generator ordering independently of the closed form.
    """
    signature = AlgebraSignature.standard(level)
    found = _first_failure(
        ((A,) for A in range(signature.dimension)),
        lambda A: basis_from_generators(A, signature) != basis_element(signature, A),
    )
    return [_report("generator_products_anchor_basis", "standard", level, found)]


# ---------------------------------------------------------------------------
# zero divisors


def find_zero_divisors(
    signature: AlgebraSignature, search_budget: int = 1 << 17
) -> list[ZeroDivisorPair]:
    """Brute-force search over (e_A + s e_B)(e_C + t e_D), s,t in {-1,+1}.

    Enumerates candidates in a fixed order (A < B, C < D), evaluating each
    through the doubling-derived parity table, until the budget of
    evaluated products is exhausted. Candidates with A^B != C^D cannot
    cancel (their four terms land on distinct basis indices), so they are
    never generated and consume no budget. Every hit is re-verified with a
    dense doubling multiplication before being returned.
    """
    t = _oracle_parity_table(signature)
    dim = signature.dimension
    # product = sign(A,C) e_{A^C} + t sign(A,D) e_{A^D}
    #         + s sign(B,C) e_{B^C} + s t sign(B,D) e_{B^D}
    # cancellation needs A^C == B^D, i.e. D = C^A^B, which also pairs A^D
    # with B^C.
    candidates = (
        (A, B, C, C ^ A ^ B, s, tt)
        for A in range(dim)
        for B in range(A + 1, dim)
        for C in range(dim)
        if C < C ^ A ^ B
        for s in (1, -1)
        for tt in (1, -1)
    )
    found = []
    for A, B, C, D, s, tt in itertools.islice(candidates, max(search_budget, 0)):
        term_ac = -1 if t[A][C] else 1
        term_ad = tt * (-1 if t[A][D] else 1)
        term_bc = s * (-1 if t[B][C] else 1)
        term_bd = s * tt * (-1 if t[B][D] else 1)
        if term_ac + term_bd or term_ad + term_bc:
            continue
        x = _two_term(signature, A, B, s)
        y = _two_term(signature, C, D, tt)
        product = mul_doubling(x, y)
        if not product.is_zero():
            raise InvariantViolation(
                f"table said ({A},{B},{s})*({C},{D},{tt}) "
                "vanishes but the doubling engine disagrees"
            )
        found.append(ZeroDivisorPair(x, y, product))
    return found


def verify_zero_divisors(
    signature: AlgebraSignature, search_budget: int = 1 << 17
) -> list[PropertyReport]:
    """Report wrapper around the two-term zero-divisor search.

    The full search evaluates dim**2 * (dim - 1) candidates: dim*(dim-1)/2
    pairs A < B, dim/2 pairs C < D with C^D == A^B, four sign choices.
    ``checked`` counts the candidates evaluated, min(budget, that total);
    the algebra is reported zero-divisor free only when the search ran to
    the end without a hit.
    """
    dim = signature.dimension
    candidates = dim * dim * (dim - 1)
    checked = min(max(search_budget, 0), candidates)
    pairs = find_zero_divisors(signature, search_budget)
    witness = None
    if pairs:
        witness = (pairs[0].x.coeffs, pairs[0].y.coeffs)
    return [
        PropertyReport(
            "zero_divisor_free",
            signature.kind,
            signature.level,
            not pairs and checked == candidates,
            checked,
            witness,
            expected=expected_zero_divisor_free(signature.kind, signature.level),
        )
    ]


# ---------------------------------------------------------------------------
# benchmarks


@dataclass(frozen=True)
class BenchRow:
    level: int
    engine: str
    queries: int
    total_ns: int
    per_query_ns: float
    reps: int

    def to_dict(self) -> dict:
        return {
            "n": self.level,
            "engine": self.engine,
            "queries": self.queries,
            "total_ns": self.total_ns,
            "per_query_ns": self.per_query_ns,
            "reps": self.reps,
        }


def _median_time_ns(fn, reps: int):
    """Median wall time of ``reps`` calls of ``fn``, and the last call's result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        out = fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times)), out


def benchmark_engines(
    levels,
    queries: int = 1 << 18,
    seed: int = 0,
    reps: int = 5,
    recursive_query_cap: int = 1 << 15,
) -> list[BenchRow]:
    """Time the sign engines on uniform random index pairs.

    Engines: the scalar closed form, its vectorized batch variant, the
    memoized recursion (query count capped; each repetition recurses into a
    fresh memo local to it, so the timing is cold and the process-wide
    ``twist_recursive`` memo is left alone), and table lookup
    (levels within ``DEFAULT_TABLE_CAP``; build time excluded). Wall-clock
    medians over ``reps`` repetitions. Each timed call returns one exponent
    per query; at every level, every engine's answers must equal the closed
    form's, checked outside the timed call, and disagreement raises.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    if not levels:
        raise ValueError("no benchmark level given")
    if not all(1 <= level <= MAX_LEVEL for level in levels):
        raise ValueError(f"benchmark levels must be in [1, {MAX_LEVEL}], got {levels}")
    rows: list[BenchRow] = []
    for level in levels:
        rng = random.Random(f"{seed}:bench:{level}")
        pairs = [
            (rng.getrandbits(level), rng.getrandbits(level)) for _ in range(queries)
        ]
        a_arr = np.array([p[0] for p in pairs], dtype=np.int64)
        b_arr = np.array([p[1] for p in pairs], dtype=np.int64)
        rec_pairs = pairs[:recursive_query_cap]

        def cold_recursion():
            @functools.lru_cache(maxsize=twist_recursive.cache_info().maxsize)
            def cold(a, b):
                return _peel(a, b, cold)

            return [cold(a, b) for a, b in rec_pairs]

        # engine -> (its queries, a timed call returning one exponent per query)
        engines = {
            "closed": (pairs, lambda: [twist(a, b, level) for a, b in pairs]),
            "closed_batch": (pairs, lambda: twist_batch(a_arr, b_arr, level)),
            "recursive_memo": (rec_pairs, cold_recursion),
        }
        if level <= DEFAULT_TABLE_CAP:
            table = [row.tobytes() for row in twist_matrix(level)]
            engines["table_lookup"] = (pairs, lambda: [table[a][b] for a, b in pairs])

        answers = {}
        for engine, (engine_pairs, call) in engines.items():
            total, answers[engine] = _median_time_ns(call, reps)
            count = len(engine_pairs)
            rows.append(BenchRow(level, engine, count, total, total / count, reps))
            if list(answers[engine]) != answers["closed"][:count]:
                raise InvariantViolation(
                    f"{engine} vs closed form disagreement at level {level}"
                )
    return rows
