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
import types
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraSignature,
    Element,
    InvariantViolation,
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
    split_twist,
    split_twist_batch,
    twist,
    twist_batch,
    twist_matrix,
    twist_recursive,
)

__all__ = [
    "BenchRow",
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

# ``benchmark_engines`` holds about 150 bytes per query (index pairs, arrays,
# every engine's answers) beside at most 73 MiB of cold recursion memo, for
# the first RECURSIVE_QUERY_CAP queries; a level-24 run at this bound peaked
# at 295 MiB RSS.
MAX_BENCH_QUERIES = 1 << 20
RECURSIVE_QUERY_CAP = 1 << 15

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

    e_A e_B = signs[A, B] e_{A ^ B}, with ``signs`` an int8 matrix of +-1;
    the index A ^ B is never materialized.
    """

    signature: AlgebraSignature
    signs: np.ndarray = field(repr=False)


def build_table(signature: AlgebraSignature) -> MultiplicationTable:
    """Materialize the full multiplication table of any signature.

    Built by block doubling (``twist_matrix``), with a seeded sample checked
    against the batch closed form of the same kind (``twist_batch`` with the
    mask). ``twist_matrix`` refuses levels above ``MAX_TABLE_LEVEL`` (a
    16 MiB sign matrix) before it allocates anything.
    """
    n, mask = signature.level, signature.mask
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


# Most index pairs a twist-law predicate sees at once: level 8 is one block,
# and above it the arrays beside the tables are the size of a block.
_BLOCK_PAIRS = 1 << 16


def _scalar_rows(sigma, level: int, rows: range, dim: int) -> np.ndarray:
    """``sigma(A, B, level)`` for A in ``rows`` and B below ``dim``, one
    scalar call per entry, as a uint8 view of the rows' bytes."""
    table = b"".join(bytes([sigma(A, B, level) for B in range(dim)]) for A in rows)
    return np.frombuffer(table, np.uint8).reshape(len(rows), dim)


def _row_blocks(level: int):
    """The pairs of a level in blocks of whole rows, in row-major order.

    Each block holds at most ``_BLOCK_PAIRS`` pairs: a uint16 column ``A``
    and row ``B`` of indices (the table cap keeps them below 2**16), their
    uint8 degrees, the cut ``ell(A, B)`` (the max of the degrees of A, B and
    A ^ B) and the bits of A and B at the cut. ``degree`` is called once per
    index. The cut and its bits are ``ell``'s only where ``distinct``: the
    distinct positive pairs, the only ones that read them.
    """
    dim = 1 << level
    degrees = np.array([0] + [degree(i) for i in range(1, dim)], np.uint8)
    B = np.arange(dim, dtype=np.uint16)[None, :]
    step = max(1, _BLOCK_PAIRS // dim)
    for start in range(0, dim, step):
        A = np.arange(start, min(start + step, dim), dtype=np.uint16)[:, None]
        deg_a, deg_b = degrees[A], degrees[B]
        cut = np.maximum(np.maximum(deg_a, deg_b), degrees[A ^ B])
        yield types.SimpleNamespace(
            rows=slice(start, start + len(A)),
            A=A,
            B=B,
            distinct=(A != B) & (A != 0) & (B != 0),
            deg_a=deg_a,
            deg_b=deg_b,
            cut=cut,
            bit_a=((A >> cut) & 1).astype(np.uint8),
            bit_b=((B >> cut) & 1).astype(np.uint8),
        )


def _first_hit(fails, candidates=None):
    """Flat index of the first true entry of ``fails`` among ``candidates``
    (every entry when None), or None, and how many candidates are evaluated
    up to it: what ``_first_failure`` returns on those pairs in order."""
    hits = np.flatnonzero(fails if candidates is None else fails & candidates)
    first = int(hits[0]) if hits.size else None
    end = fails.size if first is None else first + 1
    seen = end if candidates is None else int(np.count_nonzero(candidates.ravel()[:end]))
    return first, seen


def verify_twist_laws(level: int) -> list[PropertyReport]:
    """Exhaustively check the structural twist identities at one level.

    Covers: agreement of the closed form with the recursion (standard and
    split), the zero row/column, the nonzero diagonal, off-diagonal
    antisymmetry, the two cut-bit facts, the unified upper-triangle
    formula, the split reduction, and invariance under padding the level
    upward. The recursion side is the block-doubling table (``twist_matrix``)
    of each kind; no memo is read. The closed-form side is built entry by
    entry from the scalar ``twist`` and ``split_twist``, one call per entry
    at the level and one per entry two levels up. The laws are then
    evaluated on numpy arrays, one block of at most ``_BLOCK_PAIRS`` pairs
    (whole rows) at a time in row-major order, and each keeps its first
    failing pair and the number of its pairs evaluated up to there, as a
    pair-by-pair sweep would. Levels above ``MAX_TABLE_LEVEL`` are refused.
    """
    if level < 1:
        raise ValueError("twist-law sweeps need level >= 1")
    _check_table_level(level)
    dim = 1 << level
    top = level - 1

    closed = _scalar_rows(twist, level, range(dim), dim)
    split_closed = _scalar_rows(split_twist, level, range(dim), dim)
    recursive = twist_matrix(level)
    split_recursive = twist_matrix(level, 1 << top)

    # The zero row, then the zero column: not a row-major order.
    unit, unit_checked = _first_hit(np.concatenate([closed[0], closed[:, 0]]) != 0)
    unit_witness = None if unit is None else (0, unit) if unit < dim else (unit - dim, 0)

    # (property, kind, law on a block k: (its candidate pairs or None for
    # every pair, the pairs that violate it))
    laws = [
        ("closed_equals_recursive", "standard",
         lambda k: (None, closed[k.rows] != recursive[k.rows])),
        ("split_closed_equals_recursive", "split",
         lambda k: (None, split_closed[k.rows] != split_recursive[k.rows])),
        ("nonzero_diagonal_is_one", "standard",
         lambda k: ((k.A == k.B) & (k.A != 0), closed[k.rows] != 1)),
        ("off_diagonal_antisymmetry", "standard",
         lambda k: (k.distinct, (closed[k.rows] + closed[:, k.rows].T) & 1 != 1)),
        ("equal_degree_cut_bits_differ", "standard",
         lambda k: (k.distinct & (k.deg_a == k.deg_b), k.bit_a + k.bit_b != 1)),
        ("cut_bit_or_is_one", "standard",
         lambda k: (k.distinct, k.bit_a | k.bit_b != 1)),
        ("unified_upper_form", "standard",
         lambda k: (
             k.distinct & (k.deg_a >= k.deg_b),
             closed[k.rows] != ((k.deg_a == k.deg_b) + k.bit_b
                                + np.bitwise_count((k.A | k.B) >> k.cut)) & 1,
         )),
        ("split_reduction", "split",
         lambda k: (None, (split_closed[k.rows] ^ closed[k.rows])
                    != ((k.A >> top) & (k.B >> top) & 1))),
        ("padding_invariance", "standard",
         lambda k: (None, closed[k.rows]
                    != _scalar_rows(twist, level + 2, range(dim)[k.rows], dim))),
    ]
    found = [(None, 0)] * len(laws)
    for k in _row_blocks(level):
        for i, (_, _, law) in enumerate(laws):
            witness, checked = found[i]
            if witness is None:
                candidates, fails = law(k)
                hit, seen = _first_hit(fails, candidates)
                if hit is not None:
                    witness = (k.rows.start + hit // dim, hit % dim)
                found[i] = (witness, checked + seen)
    reports = [_report(name, kind, level, f) for (name, kind, _), f in zip(laws, found)]
    reports.insert(2, _report("unit_row_and_column", "standard", level,
                              (unit_witness, unit_checked)))
    return reports


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

    Pairs are drawn one at a time and every relation that has not failed yet
    is checked on each. A pair's conjugates conj(a), conj(b) and its products
    a*g, g*a, b*g, g*b and b*a are computed once and read by every relation
    that needs them; g*g and conj(g), which no operand enters, once per sweep.
    Each relation still counts one check per pair it sees and stops at its
    first failing pair, its witness, so ``checked`` is what sweeping that
    relation alone over the pairs would count.
    """
    inner = AlgebraSignature.standard(level)
    ambient = AlgebraSignature.standard(level + 1)
    g = basis_element(ambient, 1 << level)
    one = basis_element(ambient, 0)
    m = mul_doubling
    c = conjugate
    g_squared_is_minus_one = m(g, g) == -one
    conj_g_is_minus_g = c(g) == -g

    # Each relation reads one pair p: a, b, ca = conj(a), cb = conj(b) and
    # the products ag, ga, bg, gb and ba.
    relations = [
        ("g*g == -1", lambda p: g_squared_is_minus_one),
        ("conj(g) == -g", lambda p: conj_g_is_minus_g),
        ("a*(g*b) == g*(conj(a)*b)", lambda p: m(p.a, p.gb) == m(g, m(p.ca, p.b))),
        ("(a*g)*b == (a*conj(b))*g", lambda p: m(p.ag, p.b) == m(m(p.a, p.cb), g)),
        ("(g*a)*(b*g) == -conj(a*b)", lambda p: m(p.ga, p.bg) == -c(m(p.a, p.b))),
        ("a*g == g*conj(a)", lambda p: p.ag == m(g, p.ca)),
        ("g*a == conj(a)*g", lambda p: p.ga == m(p.ca, g)),
        ("(g*a)*b == g*(b*a)", lambda p: m(p.ga, p.b) == m(g, p.ba)),
        ("a*(b*g) == (b*a)*g", lambda p: m(p.a, p.bg) == m(p.ba, g)),
        ("(g*a)*(g*b) == -b*conj(a)", lambda p: m(p.ga, p.gb) == -m(p.b, p.ca)),
        ("(a*g)*(b*g) == -conj(b)*a", lambda p: m(p.ag, p.bg) == -m(p.cb, p.a)),
    ]

    rng = random.Random(f"{seed}:relations:{level}")
    found = [(None, 0)] * len(relations)
    for _ in range(_samples_for_level(samples, level)):
        a = _embed_low(random_element(inner, rng), ambient)
        b = _embed_low(random_element(inner, rng), ambient)
        pair = types.SimpleNamespace(
            a=a, b=b, ca=c(a), cb=c(b),
            ag=m(a, g), ga=m(g, a), bg=m(b, g), gb=m(g, b), ba=m(b, a),
        )
        for i, (_, holds) in enumerate(relations):
            witness, checked = found[i]
            if witness is None:
                found[i] = (None if holds(pair) else (a.coeffs, b.coeffs), checked + 1)
    return [
        _report(name, "standard", level, f, seed) for (name, _), f in zip(relations, found)
    ]


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

    Enumerates candidates in a fixed order (A < B, C < D) until the budget
    of evaluated candidates is exhausted. Only D = A^B^C is generated: any
    other candidate's four terms land on distinct basis indices, so it
    cannot cancel and consumes no budget. With sigma the doubling-derived
    parity table, e_A e_B = (-1)**sigma(A, B) e_{A^B}, a candidate vanishes iff

        sigma(A, C) + sigma(B, D) = sigma(A, D) + sigma(B, C) = [s = t]  (mod 2).

    Every hit is re-verified with the doubling engine before being returned.
    """
    t = _oracle_parity_table(signature)
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
    found = []
    for A, B, C, D, s, tt in itertools.islice(candidates, max(search_budget, 0)):
        # e_A e_C = -s tt e_B e_D and tt e_A e_D = -s e_B e_C, as parities of t
        if not t[A][C] ^ t[B][D] == t[A][D] ^ t[B][C] == (s == tt):
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
) -> list[BenchRow]:
    """Time the sign engines on uniform random index pairs.

    Engines: the scalar closed form, its vectorized batch variant, the
    memoized recursion (the first ``RECURSIVE_QUERY_CAP`` queries; each
    repetition peels its chains into a fresh memo local to it, so the timing
    is cold and the process-wide ``twist_recursive`` memo is left alone), and
    table lookup (levels within ``MAX_TABLE_LEVEL``; build time excluded).
    Wall-clock medians over ``reps`` repetitions. Each timed call returns one
    exponent per query; at every level, every engine's answers must equal the
    closed form's, checked outside the timed call, and disagreement raises.
    """
    levels = list(levels)  # checked, then timed: an iterator would be spent
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 1 <= queries <= MAX_BENCH_QUERIES:
        raise ValueError(f"queries must be in [1, {MAX_BENCH_QUERIES}], got {queries}")
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
        rec_pairs = pairs[:RECURSIVE_QUERY_CAP]

        def cold_recursion():
            @functools.lru_cache(maxsize=twist_recursive.cache_info().maxsize)
            def cold(a, b, mask):
                return _peel(a, b, mask, cold)

            return [cold(a, b, 0) for a, b in rec_pairs]

        # engine -> (its queries, a timed call returning one exponent per query)
        engines = {
            "closed": (pairs, lambda: [twist(a, b, level) for a, b in pairs]),
            "closed_batch": (pairs, lambda: twist_batch(a_arr, b_arr, level)),
            "recursive_memo": (rec_pairs, cold_recursion),
        }
        if level <= MAX_TABLE_LEVEL:
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
