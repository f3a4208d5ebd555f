"""Command-line front end: sign queries, element products, tables,
verification sweeps, and benchmarks.

Exit codes: 0 on success, 1 for domain or usage errors, 2 when an internal
cross-check fails (engine disagreement) -- the latter always indicates a
bug, never bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import analysis
from .algebra import (
    AlgebraSignature,
    InvariantViolation,
    _check_dense_level,
    basis_mul,
    format_coeffs,
    mul_doubling,
    mul_twist,
    parse_element,
)
from .twist import _check_table_level


# suite -> (takes an algebra of the chosen kind, lowest level, default top
# level, the library's check of the top level, call(args, the algebra or
# the level) -> reports). Suites run in this order; each report carries its
# own verdict. The table suites hold a 4**n-entry table, the others dense
# elements (the relations' at level + 1).
SUITES = {
    "twist-laws": (False, 1, 8, _check_table_level, lambda a, n: analysis.verify_twist_laws(n)),
    "algebra-laws": (
        True, 0, 5, _check_dense_level,
        lambda a, sig: analysis.verify_algebra_laws(sig, a.samples, a.seed),
    ),
    "relations": (
        False, 0, 5, lambda n: _check_dense_level(n + 1),
        lambda a, n: analysis.verify_relations(n, a.samples, a.seed),
    ),
    "engines": (
        True, 0, 6, _check_dense_level,
        lambda a, sig: analysis.verify_engines(sig, a.samples, a.seed),
    ),
    "zero-divisors": (
        True, 1, 4, _check_table_level, lambda a, sig: analysis.verify_zero_divisors(sig, a.budget)
    ),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 reserved for
    # internal invariant violations and report usage problems as 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    # an argparse type: a count below ``low`` is refused before any suite runs
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


# Flags shared between commands: name -> (option strings, add_argument keywords).
_SHARED_FLAGS = {
    "level": (("-n", "--level"), dict(type=int, help="algebra level (dimension 2**n)")),
    "split": (
        ("--split",),
        dict(action="store_true", help="use the split variant (top parameter +1)"),
    ),
    "seed": (("--seed",), dict(type=int, default=0, help="RNG seed for sampling")),
    "out": (("--out",), dict(help="write output here instead of stdout")),
    "binary": (
        ("--binary",), dict(action="store_true", help="print basis indices in binary")
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdtwist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            options, keywords = _SHARED_FLAGS[flag]
            p.add_argument(*options, **keywords)
        return p

    p = command("sign", "sign of one basis product", "level", "split", "out", "binary")
    p.add_argument("A", type=int)
    p.add_argument("B", type=int)

    p = command("mul", "multiply two elements", "level", "split", "out")
    p.add_argument("--gamma", help="doubling parameters, as --gamma=-1,+1,...")
    p.add_argument("x", help="comma-separated rational coefficients")
    p.add_argument("y", help="comma-separated rational coefficients")
    p.add_argument(
        "--engine",
        choices=("twist", "doubling", "both"),
        help="defaults to 'both' below level 7 (cross-validation), 'twist' above",
    )

    p = command("table", "emit the multiplication table", "level", "split", "out", "binary")
    p.add_argument(
        "--format", choices=("json", "csv", "markdown"), default="json"
    )

    p = command("verify", "run verification suites", "level", "split", "seed", "out")
    p.add_argument(
        "--suite",
        action="append",
        choices=SUITES,
        help="suite to run (repeatable; default: all)",
    )
    p.add_argument("--n-max", type=int, help="sweep levels up to this cap")
    p.add_argument(
        "--samples", type=_int_at_least(1), default=200, help="random tuples per law"
    )
    p.add_argument(
        "--budget", type=_int_at_least(0), default=1 << 17, help="zero-divisor candidate budget"
    )

    p = command("bench", "time the sign engines", "seed", "out")
    p.add_argument(
        "--levels", default="8,12,16,20,24", help="comma list of levels to time"
    )
    p.add_argument("--queries", type=int, default=1 << 18)
    p.add_argument("--reps", type=int, default=5)

    return parser


def _signature(args) -> AlgebraSignature:
    # only `mul` takes --gamma; the other commands' parsers define no such flag
    if getattr(args, "gamma", None) is not None:
        if args.split:
            raise ValueError("--gamma and --split are mutually exclusive")
        try:
            gammas = [int(part) for part in args.gamma.split(",")]
        except ValueError:
            raise ValueError(f"bad doubling parameter in {args.gamma!r} (want +1 or -1)") from None
        sig = AlgebraSignature.from_gammas(gammas)  # refuses any entry but +-1
        if args.level is not None and args.level != sig.level:
            raise ValueError(
                f"--level {args.level} conflicts with {sig.level} gamma entries"
            )
        return sig
    if args.level is None:
        raise ValueError("a level is required (-n/--level)")
    if args.split:
        return AlgebraSignature.split(args.level)
    return AlgebraSignature.standard(args.level)


@contextlib.contextmanager
def _output(args):
    if args.out:
        with open(args.out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _fmt_index(i: int, level: int, binary: bool) -> str:
    return format(i, f"0{max(level, 1)}b") if binary else str(i)


def _cmd_sign(args) -> int:
    sig = _signature(args)
    sign, index = basis_mul(args.A, args.B, sig)
    exponent = int(sign < 0)
    a, b, c = (_fmt_index(i, sig.level, args.binary) for i in (args.A, args.B, index))
    with _output(args) as out:
        print(f"e{a} * e{b} = {'-' if exponent else '+'}e{c} (sigma={exponent})", file=out)
    return 0


def _cmd_mul(args) -> int:
    sig = _signature(args)
    x = parse_element(args.x, sig)
    y = parse_element(args.y, sig)
    engine = args.engine or ("both" if sig.level < 7 else "twist")
    product = (mul_doubling if engine == "doubling" else mul_twist)(x, y)
    if engine == "both":
        check = mul_doubling(x, y)
        if product != check:
            raise InvariantViolation(
                "engine disagreement: twist gave "
                f"[{format_coeffs(product.coeffs)}], doubling gave "
                f"[{format_coeffs(check.coeffs)}]"
            )
    with _output(args) as out:
        print(format_coeffs(product.coeffs), file=out)
    return 0


def _table_rows(signs: np.ndarray, cells: list[str]):
    """Yield each row's cells: ``cells`` holds every index's + cell, then its - cell."""
    cols, cells = np.arange(len(signs)), np.array(cells, dtype=object)
    for A, row in enumerate(signs):
        yield cells[(A ^ cols) + len(cols) * (row < 0)].tolist()


def _cmd_table(args) -> int:
    sig = _signature(args)
    signs = analysis.build_table(sig).signs
    labels = [_fmt_index(i, sig.level, args.binary) for i in range(sig.dimension)]
    # Written row by row: only the sign matrix is held, never the text.
    with _output(args) as out:
        if args.format == "json":
            out.write(f'{{"n": {sig.level}, "kind": {json.dumps(sig.kind)}, "entries": [')
            cells = [f'{{"s": {s}, "i": {i}}}' for s in (1, -1) for i in range(sig.dimension)]
            for A, row in enumerate(_table_rows(signs, cells)):
                out.write((", [" if A else "[") + ", ".join(row) + "]")
            out.write("]}\n")
        elif args.format == "csv":
            out.write("A\\B," + ",".join(labels) + "\n")
            cells = [s + label for s in "+-" for label in labels]
            for A, row in enumerate(_table_rows(signs, cells)):
                out.write(labels[A] + "," + ",".join(row) + "\n")
        else:  # markdown
            out.write("| A\\B | " + " | ".join(f"e{label}" for label in labels) + " |\n")
            out.write("|" + " --- |" * (len(labels) + 1) + "\n")
            cells = [f"{s}e{label}" for s in "+-" for label in labels]
            for A, row in enumerate(_table_rows(signs, cells)):
                out.write(f"| e{labels[A]} | " + " | ".join(row) + " |\n")
    return 0


def _cmd_verify(args) -> int:
    if args.level is not None and args.n_max is not None:
        raise ValueError("-n/--level and --n-max are mutually exclusive")
    kind = AlgebraSignature.split if args.split else AlgebraSignature.standard
    runs = []  # (call, takes an algebra, levels): every top level is checked first
    for name, (on_algebra, lowest, top, check_level, call) in SUITES.items():
        # the other suites' reports do not depend on the kind
        if (args.suite and name not in args.suite) or (args.split and not on_algebra):
            continue
        lowest = max(lowest, int(args.split))  # split algebras start at level 1
        if args.level is not None:
            lowest, top = max(lowest, args.level), args.level
        elif args.n_max is not None:
            top = args.n_max
        try:
            check_level(top)
        except ValueError as exc:
            raise ValueError(f"suite {name}: {exc}") from None
        runs.append((call, on_algebra, range(lowest, top + 1)))
    reports = []
    for call, on_algebra, levels in runs:
        for level in levels:
            reports += call(args, kind(level) if on_algebra else level)
    if not reports:
        raise ValueError("no property selected (check --suite, -n, --n-max and --split)")

    with _output(args) as out:
        for report in reports:
            print(json.dumps(report.to_dict()), file=out)
    all_ok = all(report.ok for report in reports)
    print(
        f"verify: {len(reports)} properties checked, "
        f"{'all outcomes as expected' if all_ok else 'UNEXPECTED OUTCOMES'}",
        file=sys.stderr,
    )
    return 0 if all_ok else 1


def _cmd_bench(args) -> int:
    levels = [int(p) for p in args.levels.split(",") if p.strip()]
    rows = analysis.benchmark_engines(
        levels, queries=args.queries, seed=args.seed, reps=args.reps
    )
    with _output(args) as out:
        for row in rows:
            print(json.dumps(row.to_dict()), file=out)
    return 0


_COMMANDS = {
    "sign": _cmd_sign,
    "mul": _cmd_mul,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main() embeddable
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except InvariantViolation as exc:
        print(f"cdtwist: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"cdtwist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
