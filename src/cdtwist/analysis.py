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
from .twist import (
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

DEFAULT_TABLE_CAP = 12

# Exhaustive basis triples stay desk-scale through level 5; beyond that
# only seeded random sampling.
BASIS_TRIPLE_CAP = 5


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property sweep; a failing report carries a witness."""

    name: str
    kind: str
    level: int
    holds: bool
    checked: int
    witness: tuple | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "kind": self.kind,
            "level": self.level,
            "holds": self.holds,
            "checked": self.checked,
            "witness": _jsonable(self.witness),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ZeroDivisorPair:
    """Nonzero x, y with x * y exactly zero."""

    x: Element
    y: Element
    product: Element

    def to_dict(self) -> dict:
        return {
            "x": _jsonable(self.x.coeffs),
            "y": _jsonable(self.y.coeffs),
            "product": _jsonable(self.product.coeffs),
        }


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

    @property
    def dimension(self) -> int:
        return self.signature.dimension


def build_table(
    signature: AlgebraSignature, cap: int = DEFAULT_TABLE_CAP
) -> MultiplicationTable:
    """Materialize the full multiplication table for a closed-form signature.

    Built by block doubling (``twist_matrix``), with a seeded sample checked
    against the batch closed form. ``cap`` bounds the 4**n-byte sign matrix.
    """
    if not signature.has_closed_form:
        raise ValueError(f"no closed-form twist for this signature: {signature}")
    if signature.level > cap:
        raise ValueError(
            f"refusing to build a level-{signature.level} table "
            f"(cap is {cap}; raise it explicitly if you mean it)"
        )
    n = signature.level
    exponents = twist_matrix(n, split=not signature.is_standard)
    fn = twist_batch if signature.is_standard else split_twist_batch
    rng = random.Random(n)
    A, B = np.array([rng.getrandbits(n) for _ in range(1 << 13)]).reshape(2, -1)  # int64
    bad = np.flatnonzero(exponents[A, B] != fn(A, B, n))
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


def _or_sum_from(A: int, B: int, cut: int) -> int:
    return ((A | B) >> cut).bit_count() & 1


def verify_twist_laws(level: int) -> list[PropertyReport]:
    """Exhaustively check the structural twist identities at one level.

    Covers: agreement of the closed form with the recursion (standard and
    split), the zero row/column, the nonzero diagonal, off-diagonal
    antisymmetry, the two cut-bit facts, the unified upper-triangle
    formula, the split reduction, and invariance under padding the level
    upward.
    """
    if level < 1:
        raise ValueError("twist-law sweeps need level >= 1")
    dim = 1 << level
    kind = "standard"
    reports: list[PropertyReport] = []

    closed = [[twist(A, B, level) for B in range(dim)] for A in range(dim)]
    recursive = [[twist_recursive(A, B) for B in range(dim)] for A in range(dim)]
    split_closed = [
        [split_twist(A, B, level) for B in range(dim)] for A in range(dim)
    ]

    def sweep(name, pairs, predicate, report_kind=kind):
        checked = 0
        witness = None
        for A, B in pairs:
            checked += 1
            if not predicate(A, B):
                witness = (A, B)
                break
        reports.append(
            PropertyReport(name, report_kind, level, witness is None, checked, witness)
        )

    all_pairs = [(A, B) for A in range(dim) for B in range(dim)]

    sweep("closed_equals_recursive", all_pairs, lambda A, B: closed[A][B] == recursive[A][B])
    sweep(
        "split_closed_equals_recursive",
        all_pairs,
        lambda A, B: split_closed[A][B] == split_twist_recursive(A, B, level),
        report_kind="split",
    )
    sweep(
        "unit_row_and_column",
        [(0, B) for B in range(dim)] + [(A, 0) for A in range(dim)],
        lambda A, B: closed[A][B] == 0,
    )
    sweep(
        "nonzero_diagonal_is_one",
        [(A, A) for A in range(1, dim)],
        lambda A, B: closed[A][A] == 1,
    )
    sweep(
        "off_diagonal_antisymmetry",
        [(A, B) for A in range(1, dim) for B in range(1, dim) if A != B],
        lambda A, B: (closed[A][B] + closed[B][A]) & 1 == 1,
    )
    sweep(
        "equal_degree_cut_bits_differ",
        [
            (A, B)
            for A in range(1, dim)
            for B in range(1, dim)
            if A != B and degree(A) == degree(B)
        ],
        lambda A, B: ((A >> ell(A, B)) & 1) + ((B >> ell(A, B)) & 1) == 1,
    )
    sweep(
        "cut_bit_or_is_one",
        [(A, B) for A in range(1, dim) for B in range(1, dim) if A != B],
        lambda A, B: phi((A >> ell(A, B)) & 1, (B >> ell(A, B)) & 1) == 1,
    )

    def unified(A, B):
        cut = ell(A, B)
        expected = (
            (1 if degree(A) == degree(B) else 0)
            + ((B >> cut) & 1)
            + _or_sum_from(A, B, cut)
        ) & 1
        return closed[A][B] == expected

    sweep(
        "unified_upper_form",
        [
            (A, B)
            for A in range(1, dim)
            for B in range(1, dim)
            if A != B and degree(A) >= degree(B)
        ],
        unified,
    )
    top = level - 1
    sweep(
        "split_reduction",
        all_pairs,
        lambda A, B: (split_closed[A][B] ^ closed[A][B])
        == (((A >> top) & (B >> top)) & 1),
        report_kind="split",
    )
    sweep(
        "padding_invariance",
        all_pairs,
        lambda A, B: closed[A][B] == twist(A, B, level + 2),
    )
    return reports


# ---------------------------------------------------------------------------
# algebra-law sweeps


# Basis-product parity tables computed with the doubling engine only, so
# the law sweeps below never depend on the closed-form twist they are
# meant to validate.
_oracle_tables: dict[tuple[int, tuple[int, ...]], list[bytes]] = {}


def _oracle_parity_table(signature: AlgebraSignature) -> list[bytes]:
    key = (signature.level, signature.gammas)
    table = _oracle_tables.get(key)
    if table is None:
        dim = signature.dimension
        rows = []
        for A in range(dim):
            ea = basis_element(signature, A)
            row = bytearray(dim)
            for B in range(dim):
                product = mul_doubling(ea, basis_element(signature, B))
                coeff = product.coeffs[A ^ B]
                if coeff == 1:
                    row[B] = 0
                elif coeff == -1:
                    row[B] = 1
                else:
                    raise InvariantViolation(
                        f"basis product e_{A} e_{B} is not a signed basis element"
                    )
            rows.append(bytes(row))
        table = rows
        _oracle_tables[key] = table
    return table


def _two_term(signature, i, j, sign_j):
    coeffs = [0] * signature.dimension
    coeffs[i] = 1
    coeffs[j] = sign_j
    return Element(signature, coeffs)


_LAWS = (
    "commutative",
    "associative",
    "left_alternative",
    "right_alternative",
    "flexible",
    "norm_multiplicative",
)


def _law_violation(law: str, x: Element, y: Element, z: Element | None) -> bool:
    m = mul_doubling
    if law == "commutative":
        return m(x, y) != m(y, x)
    if law == "associative":
        return m(m(x, y), z) != m(x, m(y, z))
    if law == "left_alternative":
        return m(m(x, x), y) != m(x, m(x, y))
    if law == "right_alternative":
        return m(m(y, x), x) != m(y, m(x, x))
    if law == "flexible":
        return m(x, m(y, x)) != m(m(x, y), x)
    if law == "norm_multiplicative":
        return norm(m(x, y)) != norm(x) * norm(y)
    raise KeyError(law)


def _basis_law_witness(law: str, signature: AlgebraSignature):
    """First basis tuple violating ``law``, or None; count of tuples checked.

    Pair laws sweep all basis pairs, associativity sweeps all triples.
    Everything runs on the doubling-derived parity table, so a returned
    witness only needs a final element-level confirmation.
    """
    t = _oracle_parity_table(signature)
    dim = signature.dimension
    checked = 0
    if law == "associative":
        for A in range(dim):
            for B in range(dim):
                ab = t[A][B]
                for C in range(dim):
                    checked += 1
                    if (ab ^ t[A ^ B][C]) != (t[B][C] ^ t[A][B ^ C]):
                        return (A, B, C), checked
        return None, checked
    if law == "norm_multiplicative":
        # Basis norms are +-1 depending only on the doubling parameters,
        # and signs square away: n(e_A e_B) = n(e_A) n(e_B) always. Still
        # swept for completeness via the element route.
        for A in range(dim):
            ea = basis_element(signature, A)
            for B in range(dim):
                checked += 1
                if _law_violation(law, ea, basis_element(signature, B), None):
                    return (A, B), checked
        return None, checked
    for A in range(dim):
        for B in range(dim):
            checked += 1
            if law == "commutative":
                bad = t[A][B] != t[B][A]
            elif law == "left_alternative":
                bad = t[A][A] != (t[A][B] ^ t[A][A ^ B])
            elif law == "right_alternative":
                bad = t[A][A] != (t[B][A] ^ t[B ^ A][A])
            elif law == "flexible":
                bad = (t[B][A] ^ t[A][B ^ A]) != (t[A][B] ^ t[A ^ B][A])
            else:
                raise KeyError(law)
            if bad:
                return (A, B), checked
    return None, checked


def _confirm_basis_witness(law: str, signature: AlgebraSignature, witness) -> None:
    elems = [basis_element(signature, i) for i in witness]
    if law == "associative":
        x, y, z = elems
    else:
        (x, y), z = elems, None
    if not _law_violation(law, x, y, z):
        raise InvariantViolation(
            f"basis witness {witness} for {law} does not replay at element level"
        )


def _samples_for_level(samples: int, level: int) -> int:
    # Dense doubling products cost O(4**n); shrink the sample count above
    # the exhaustive-triple cap so sweeps stay desk-scale.
    if level <= BASIS_TRIPLE_CAP:
        return samples
    return max(8, samples >> (2 * (level - BASIS_TRIPLE_CAP)))


def verify_algebra_laws(
    signature: AlgebraSignature, samples: int = 200, seed: int = 0
) -> list[PropertyReport]:
    """Sweep the classical laws at one signature: exhaustive basis tuples
    (levels within the caps) plus seeded random dense tuples.

    Laws: commutativity, associativity, left/right alternativity,
    flexibility, and norm multiplicativity. Each report carries the first
    counterexample found, confirmed with the doubling engine.
    """
    level = signature.level
    rng = random.Random(f"{seed}:laws:{signature.kind}:{level}")
    n_samples = _samples_for_level(samples, level)
    reports = []
    for law in _LAWS:
        witness = None
        checked = 0
        if level <= BASIS_TRIPLE_CAP:
            basis_witness, basis_checked = _basis_law_witness(law, signature)
            checked += basis_checked
            if basis_witness is not None:
                _confirm_basis_witness(law, signature, basis_witness)
                witness = basis_witness
        if witness is None:
            for _ in range(n_samples):
                x = random_element(signature, rng)
                y = random_element(signature, rng)
                z = random_element(signature, rng) if law == "associative" else None
                checked += 1
                if _law_violation(law, x, y, z):
                    witness = (x.coeffs, y.coeffs) + (
                        (z.coeffs,) if z is not None else ()
                    )
                    break
        reports.append(
            PropertyReport(law, signature.kind, level, witness is None, checked, witness, seed)
        )
    return reports


def expected_law_holds(law: str, kind: str, level: int) -> bool:
    """Where each law is known to stop holding as the level grows.

    The decay profile is the same for standard and split parameter
    vectors: commutativity dies after level 1, associativity after 2,
    alternativity and norm multiplicativity after 3; flexibility survives
    at every level this package sweeps.
    """
    if law == "commutative":
        return level <= 1
    if law == "associative":
        return level <= 2
    if law in ("left_alternative", "right_alternative"):
        return level <= 3
    if law == "flexible":
        return True
    if law == "norm_multiplicative":
        return level <= 3
    raise KeyError(law)


def expected_zero_divisor_free(kind: str, level: int) -> bool:
    if kind == "split":
        return False  # the hyperbolic unit always yields (e0+g)(e0-g) = 0
    return level <= 3


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
        witness = None
        checked = 0
        for a, b in operand_pairs:
            checked += 1
            if not check(a, b):
                witness = (a.coeffs, b.coeffs)
                break
        reports.append(
            PropertyReport(name, "standard", level, witness is None, checked, witness, seed)
        )
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
    witness = None
    checked = 0
    if level <= 6:
        for A in range(signature.dimension):
            ea = basis_element(signature, A)
            for B in range(signature.dimension):
                eb = basis_element(signature, B)
                checked += 1
                if mul_twist(ea, eb) != mul_doubling(ea, eb):
                    witness = (A, B)
                    break
            if witness:
                break
    if witness is None:
        for _ in range(_samples_for_level(samples, level)):
            x = random_element(signature, rng)
            y = random_element(signature, rng)
            checked += 1
            if mul_twist(x, y) != mul_doubling(x, y):
                witness = (x.coeffs, y.coeffs)
                break
    return [
        PropertyReport(
            "mul_twist == mul_doubling",
            signature.kind,
            level,
            witness is None,
            checked,
            witness,
            seed,
        )
    ]


def verify_generator_anchoring(level: int) -> list[PropertyReport]:
    """Left-to-right generator products must land on +e_A for every A.

    Uses only the doubling engine, so this pins the twist indexing
    convention to the generator ordering independently of the closed form.
    """
    signature = AlgebraSignature.standard(level)
    witness = None
    checked = 0
    for A in range(signature.dimension):
        checked += 1
        if basis_from_generators(A, signature) != basis_element(signature, A):
            witness = (A,)
            break
    return [
        PropertyReport(
            "generator_products_anchor_basis",
            "standard",
            level,
            witness is None,
            checked,
            witness,
        )
    ]


# ---------------------------------------------------------------------------
# zero divisors


def find_zero_divisors(
    signature: AlgebraSignature, search_budget: int = 1 << 17
) -> list[ZeroDivisorPair]:
    """Brute-force search over (e_A + s e_B)(e_C + t e_D), s,t in {-1,+1}.

    Enumerates candidates in a fixed order (A < B, C < D), evaluating each
    through the doubling-derived parity table, until the budget of
    evaluated products is exhausted. Candidates with A^B != C^D cannot
    cancel (their four terms land on distinct basis indices) and are
    filtered out without consuming budget. Every hit is re-verified with a
    dense doubling multiplication before being returned.
    """
    t = _oracle_parity_table(signature)
    dim = signature.dimension
    found = []
    budget = search_budget
    for A in range(dim):
        for B in range(A + 1, dim):
            for C in range(dim):
                for D in range(C + 1, dim):
                    # product = sign(A,C) e_{A^C} + t sign(A,D) e_{A^D}
                    #         + s sign(B,C) e_{B^C} + s t sign(B,D) e_{B^D}
                    # cancellation needs A^C == B^D (iff A^B == C^D),
                    # which also pairs A^D with B^C.
                    if (A ^ B) != (C ^ D):
                        continue
                    for s in (1, -1):
                        for tt in (1, -1):
                            if budget <= 0:
                                return found
                            budget -= 1
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
    """Report wrapper around the two-term zero-divisor search."""
    pairs = find_zero_divisors(signature, search_budget)
    witness = None
    if pairs:
        witness = (pairs[0].x.coeffs, pairs[0].y.coeffs)
    return [
        PropertyReport(
            "zero_divisor_free",
            signature.kind,
            signature.level,
            not pairs,
            search_budget,
            witness,
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


def _median_time_ns(fn, reps: int) -> int:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def benchmark_engines(
    levels,
    queries: int = 1 << 18,
    seed: int = 0,
    reps: int = 5,
    table_max_level: int = DEFAULT_TABLE_CAP,
    check_max_level: int = 12,
    recursive_query_cap: int = 1 << 15,
) -> list[BenchRow]:
    """Time the sign engines on uniform random index pairs.

    Engines: the scalar closed form, its vectorized batch variant, the
    memoized recursion (query count capped so the memo stays bounded;
    cache cleared per repetition so the timing is cold), and table lookup
    (levels within the table cap; build time excluded). Wall-clock medians
    over ``reps`` repetitions. For levels within ``check_max_level`` all
    engines must agree on every sampled query; disagreement raises.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    rows: list[BenchRow] = []
    for level in levels:
        if level < 1:
            raise ValueError("benchmark levels must be >= 1")
        rng = random.Random(f"{seed}:bench:{level}")
        pairs = [
            (rng.getrandbits(level), rng.getrandbits(level)) for _ in range(queries)
        ]
        a_arr = np.array([p[0] for p in pairs], dtype=np.int64)
        b_arr = np.array([p[1] for p in pairs], dtype=np.int64)

        def run_scalar():
            acc = 0
            for a, b in pairs:
                acc ^= twist(a, b, level)
            return acc

        total = _median_time_ns(run_scalar, reps)
        rows.append(BenchRow(level, "closed", queries, total, total / queries, reps))

        batch_result = {}

        def run_batch():
            batch_result["out"] = twist_batch(a_arr, b_arr, level)

        total = _median_time_ns(run_batch, reps)
        rows.append(
            BenchRow(level, "closed_batch", queries, total, total / queries, reps)
        )

        rec_queries = min(queries, recursive_query_cap)
        rec_pairs = pairs[:rec_queries]

        def run_recursive():
            twist_recursive.cache_clear()
            acc = 0
            for a, b in rec_pairs:
                acc ^= twist_recursive(a, b)
            return acc

        total = _median_time_ns(run_recursive, reps)
        rows.append(
            BenchRow(
                level, "recursive_memo", rec_queries, total, total / rec_queries, reps
            )
        )

        table_rows = None
        if level <= table_max_level:
            table_rows = [row.tobytes() for row in twist_matrix(level)]

            def run_table():
                acc = 0
                for a, b in pairs:
                    acc ^= table_rows[a][b]
                return acc

            total = _median_time_ns(run_table, reps)
            rows.append(
                BenchRow(level, "table_lookup", queries, total, total / queries, reps)
            )

        if level <= check_max_level:
            scalar_out = [twist(a, b, level) for a, b in pairs]
            if list(batch_result["out"]) != scalar_out:
                raise InvariantViolation(f"batch vs scalar disagreement at level {level}")
            rec_out = [twist_recursive(a, b) for a, b in rec_pairs]
            if rec_out != scalar_out[:rec_queries]:
                raise InvariantViolation(
                    f"recursion vs closed-form disagreement at level {level}"
                )
            if table_rows is not None:
                tab_out = [table_rows[a][b] for a, b in pairs]
                if tab_out != scalar_out:
                    raise InvariantViolation(f"table vs scalar disagreement at level {level}")
    return rows
