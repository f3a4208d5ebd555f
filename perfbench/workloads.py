"""The three workloads: seeded inputs, the operations of one pass, their checks.

A pass is a fixed list of operations run one after another by a single
caller (a closed loop). Each operation has a timed ``run`` and an untimed
``check`` that decides whether the result is correct. Every workload calls
the package only through module attributes (``analysis.verify_engines``,
``algebra.mul_doubling``, ``cli.main``, ...), so the tracer can wrap those
names; checks use the scalar sign functions of ``cdtwist.twist`` and plain
Python arithmetic, which the tracer never wraps.
"""

from __future__ import annotations

import importlib
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from cdtwist import algebra, analysis, cli
from cdtwist.algebra import AlgebraSignature, Element

# The package re-exports the function `twist` under the submodule's name.
twist_mod = importlib.import_module("cdtwist.twist")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _sig(kind: str, level: int) -> AlgebraSignature:
    if kind == "split":
        return AlgebraSignature.split(level)
    return AlgebraSignature.standard(level)


def _scalar_exponent(kind: str):
    return twist_mod.split_twist if kind == "split" else twist_mod.twist


# ---------------------------------------------------------------------------
# verify: the suites and default levels of `cdtwist verify` and
# `cdtwist verify --split`. twist-laws and relations ignore the kind, so the
# split invocation adds only algebra-laws, engines and zero-divisors.

VERIFY_SAMPLES = 200  # `cdtwist verify --samples` default
VERIFY_BUDGET = 1 << 17  # `cdtwist verify --budget` default

# suite -> (lowest level, highest level, mini highest level)
VERIFY_LEVELS = {
    "twist_laws": (1, 8, 3),
    "algebra_laws": (0, 5, 2),
    "relations": (0, 5, 1),
    "engines": (0, 6, 2),
    "zero_divisors": (1, 4, 2),
}
SUITES = tuple(VERIFY_LEVELS)


def _reports_ok(expected: Callable[[object], bool]):
    # The witness rule of `cdtwist verify`: an expected failure only counts
    # when it comes with a replayable witness.
    def check(reports) -> bool:
        return bool(reports) and all(
            r.holds == expected(r) and (r.holds or r.witness is not None)
            for r in reports
        )

    return check


def _suite_call(suite: str, kind: str, level: int, seed: int):
    sig = _sig(kind, level) if suite not in ("twist_laws", "relations") else None
    if suite == "twist_laws":
        return lambda: analysis.verify_twist_laws(level)
    if suite == "algebra_laws":
        return lambda: analysis.verify_algebra_laws(sig, VERIFY_SAMPLES, seed)
    if suite == "relations":
        return lambda: analysis.verify_relations(level, VERIFY_SAMPLES, seed)
    if suite == "engines":
        return lambda: analysis.verify_engines(sig, VERIFY_SAMPLES, seed)
    return lambda: analysis.verify_zero_divisors(sig, VERIFY_BUDGET)


def _suite_expectation(suite: str, kind: str, level: int):
    if suite == "algebra_laws":
        return lambda r: analysis.expected_law_holds(r.name, kind, level)
    if suite == "zero_divisors":
        return lambda r: analysis.expected_zero_divisor_free(kind, level)
    return lambda r: True


def verify_ops(seed: int, mini: bool, tmpdir: str) -> list[Op]:
    ops = []
    plan = [("standard", list(VERIFY_LEVELS)), ("split", ["algebra_laws", "engines", "zero_divisors"])]
    for kind, suites in plan:
        for suite in suites:
            low, high, mini_high = VERIFY_LEVELS[suite]
            if kind == "split":
                low = max(low, 1)
            for level in range(low, (mini_high if mini else high) + 1):
                ops.append(
                    Op(
                        f"{suite}.{kind}.n{level}",
                        _suite_call(suite, kind, level, seed),
                        _reports_ok(_suite_expectation(suite, kind, level)),
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# products: x * y (the twist engine), mul_doubling(x, y) and norm(x) on
# seeded pairs, dense and sparse, in one shuffled pass.

# Dense pairs per level. The few level-8 and level-9 pairs take most of
# their time; level 9 is past the twist-table cache, so its products take
# the scalar-twist fallback. Sparse pairs at levels 8-14 cost O(2^n) scans
# and Element validation rather than 4^n products: a dense-only speed-up
# that slows them is partly offset in wall_s, and the traced per-level
# times show it.
DENSE_PAIRS = {3: 44, 4: 44, 5: 16, 6: 12, 7: 14, 8: 6, 9: 2}
DENSE_PAIRS_MINI = {3: 4, 4: 4}
SPARSE_PAIRS = {level: 16 for level in range(8, 15)}
SPARSE_PAIRS_MINI = {8: 4, 9: 4}
# Every level any workload multiplies at: verify 0-6, products 3-14.
ENGINE_LEVELS = range(15)

# Pair i of a level has Fraction coefficients when i % 4 == 3, and its
# kind alternates standard/split with i. With two level-9 pairs, level 9
# gets no Fraction pair: one would take about 5 s, most of a pass. Sparse
# operands cycle through 2..8 nonzero terms with i, so the seed moves the
# terms but not how many there are.
FRACTION_EVERY = 4


def _fraction(rng: random.Random, numerator: int) -> Fraction:
    return Fraction(numerator, rng.randint(2, 9))


def _dense_element(sig: AlgebraSignature, rng: random.Random, fractional: bool) -> Element:
    coeffs = [rng.randint(-9, 9) for _ in range(sig.dimension)]
    if fractional:
        for pos in rng.sample(range(sig.dimension), sig.dimension // 2):
            coeffs[pos] = _fraction(rng, rng.randint(-9, 9))
    return Element(sig, coeffs)


_NONZERO = [v for v in range(-9, 10) if v]


def _sparse_element(
    sig: AlgebraSignature, rng: random.Random, fractional: bool, terms: int
) -> Element:
    coeffs = [0] * sig.dimension
    for k, pos in enumerate(rng.sample(range(sig.dimension), terms)):
        value = rng.choice(_NONZERO)
        coeffs[pos] = _fraction(rng, value) if fractional and k % 2 == 0 else value
    return Element(sig, coeffs)


def norm_anchor(x: Element):
    """Sum of s_A * c_A**2 with s_A = -1 only for split and A >= 2**(n-1).

    Independent of both multiplication engines.
    """
    sig = x.signature
    if sig.is_split:
        half = 1 << (sig.level - 1)
        return sum(-(c * c) if A >= half else c * c for A, c in enumerate(x.coeffs))
    return sum(c * c for c in x.coeffs)


def _product_op(name: str, x: Element, y: Element) -> Op:
    def run():
        return x * y, algebra.mul_doubling(x, y), algebra.norm(x)

    def check(result) -> bool:
        via_twist, via_doubling, n = result
        return via_twist == via_doubling and n == norm_anchor(x)

    return Op(name, run, check)


def _product_ops(pairs_per_level: dict, make_pair, rng: random.Random, label: str) -> list[Op]:
    ops = []
    for level, count in pairs_per_level.items():
        for i in range(count):
            kind = "split" if i % 2 else "standard"
            fractional = i % FRACTION_EVERY == FRACTION_EVERY - 1
            sig = _sig(kind, level)
            x, y = make_pair(sig, rng, fractional, i)
            tag = "fraction" if fractional else "int"
            ops.append(_product_op(f"pair.{label}.n{level}.{kind}.{tag}.{i}", x, y))
    return ops


def _dense_pair(sig, rng, fractional, i):
    return _dense_element(sig, rng, fractional), _dense_element(sig, rng, fractional)


def _sparse_pair(sig, rng, fractional, i):
    return (
        _sparse_element(sig, rng, fractional, 2 + i % 7),
        _sparse_element(sig, rng, fractional, 2 + (i + 3) % 7),
    )


def products_ops(seed: int, mini: bool, tmpdir: str) -> list[Op]:
    rng = random.Random(f"{seed}:products")
    ops = _product_ops(DENSE_PAIRS_MINI if mini else DENSE_PAIRS, _dense_pair, rng, "dense")
    ops += _product_ops(SPARSE_PAIRS_MINI if mini else SPARSE_PAIRS, _sparse_pair, rng, "sparse")
    # A seeded order, the same in every pass, spreads each level's pairs
    # over the pass, so no level hinges on how fast the machine was during
    # one short stretch.
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# tables: build_table at levels 10-12, then `cdtwist table -n 10` in each
# output format, written to a file.

TABLE_LEVELS = (10, 11, 12)
TABLE_LEVELS_MINI = (4, 5)
CLI_LEVEL = 10
CLI_LEVEL_MINI = 4
FORMATS = ("csv", "markdown", "json")
SAMPLED_ENTRIES = 1 << 12


def _sample_pairs(rng: random.Random, level: int) -> list[tuple[int, int]]:
    return [(rng.getrandbits(level), rng.getrandbits(level)) for _ in range(SAMPLED_ENTRIES)]


def _signs_match_scalar(signs: np.ndarray, kind: str, level: int, samples) -> bool:
    exponent = _scalar_exponent(kind)
    return all(
        int(signs[A, B]) == (-1 if exponent(A, B, level) else 1) for A, B in samples
    )


def _build_op(kind: str, level: int, samples) -> Op:
    sig = _sig(kind, level)

    def check(table) -> bool:
        dim = sig.dimension
        return (
            table.signature == sig
            and table.signs.shape == (dim, dim)
            and _signs_match_scalar(table.signs, kind, level, samples)
        )

    return Op(f"build_table.{kind}.n{level}", lambda: analysis.build_table(sig), check)


_JSON_ROW = re.compile(r"\[(\{[^\[\]]*\})\]")
_JSON_CELL = re.compile(r'\{"s": (-?1), "i": (\d+)\}')


def _rendered_rows(text: str, fmt: str, level: int):
    """Yield (row label, [(sign char, index text)]) per table row.

    Yields nothing when the header does not match.
    """
    dim = 1 << level
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "A\\B," + ",".join(str(B) for B in range(dim)):
            return None
        for line in lines[1:]:
            label, *cells = line.split(",")
            yield label, [(c[0], c[1:]) for c in cells]
    elif fmt == "markdown":
        if lines[0] != "| A\\B | " + " | ".join(f"e{B}" for B in range(dim)) + " |":
            return None
        for line in lines[2:]:
            label, *cells = line[2:-2].split(" | ")
            yield label[1:], [(c[0], c[2:]) for c in cells]
    else:
        head = f'{{"n": {level}, "kind": "standard", "entries": ['
        if not text.startswith(head):
            return None
        for A, row in enumerate(_JSON_ROW.finditer(text)):
            yield str(A), [("-" if s == "-1" else "+", i) for s, i in _JSON_CELL.findall(row[1])]


def parse_rendered(path: str, fmt: str, level: int) -> np.ndarray | None:
    """Sign matrix of a rendered standard table, or None if any cell is malformed.

    Every cell must name the product index A ^ B.
    """
    dim = 1 << level
    with open(path) as fh:
        text = fh.read()
    signs = np.zeros((dim, dim), dtype=np.int8)
    expected_index = [str(B) for B in range(dim)]
    rows = 0
    for A, (label, cells) in enumerate(_rendered_rows(text, fmt, level)):
        if A >= dim or label != str(A) or len(cells) != dim:
            return None
        if [i for _, i in cells] != [expected_index[A ^ B] for B in range(dim)]:
            return None
        signs[A] = [-1 if s == "-" else 1 for s, _ in cells]
        rows += 1
    return signs if rows == dim else None


def _cli_op(level: int, fmt: str, path: str, samples) -> Op:
    argv = ["table", "-n", str(level), "--format", fmt, "--out", path]

    def check(code) -> bool:
        if code != 0:
            return False
        signs = parse_rendered(path, fmt, level)
        os.remove(path)
        return signs is not None and _signs_match_scalar(signs, "standard", level, samples)

    return Op(f"cli_table.standard.n{level}.{fmt}", lambda: cli.main(argv), check)


def tables_ops(seed: int, mini: bool, tmpdir: str) -> list[Op]:
    rng = random.Random(f"{seed}:tables")
    ops = []
    for level in TABLE_LEVELS_MINI if mini else TABLE_LEVELS:
        for kind in ("standard", "split"):
            ops.append(_build_op(kind, level, _sample_pairs(rng, level)))
    level = CLI_LEVEL_MINI if mini else CLI_LEVEL
    samples = _sample_pairs(rng, level)
    for fmt in FORMATS:
        path = os.path.join(tmpdir, f"table.{fmt}")
        ops.append(_cli_op(level, fmt, path, samples))
    return ops


WORKLOADS = {
    "verify": verify_ops,
    "products": products_ops,
    "tables": tables_ops,
}


def reset_caches() -> None:
    """Empty the package's caches, as a fresh process or CLI call has them."""
    algebra._twist_tables.clear()
    analysis._oracle_tables.clear()
    twist_mod.twist_recursive.cache_clear()
