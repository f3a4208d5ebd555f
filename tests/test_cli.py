"""End-to-end tests of the command-line interface."""

import json
import types
from fractions import Fraction
from pathlib import Path

import pytest

from cdtwist import analysis
from cdtwist.algebra import AlgebraSignature, basis_mul
from cdtwist.cli import main
from cdtwist.twist import split_twist, twist

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSign:
    def test_octonion_example(self, capsys):
        code, out, _ = run(capsys, "sign", "-n", "3", "5", "6")
        assert code == 0
        assert out == "e5 * e6 = -e3 (sigma=1)\n"

    def test_unit_row(self, capsys):
        code, out, _ = run(capsys, "sign", "-n", "3", "0", "7")
        assert code == 0
        assert out == "e0 * e7 = +e7 (sigma=0)\n"

    def test_split_top_unit(self, capsys):
        code, out, _ = run(capsys, "sign", "-n", "4", "--split", "8", "8")
        assert code == 0
        assert out == "e8 * e8 = +e0 (sigma=0)\n"

    def test_binary_rendering(self, capsys):
        code, out, _ = run(capsys, "sign", "-n", "3", "--binary", "5", "6")
        assert code == 0
        assert out == "e101 * e110 = -e011 (sigma=1)\n"

    def test_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "sign", "-n", "3", "9", "1")
        assert code == 1
        assert "[0, 8)" in err


class TestMul:
    def test_complex_square(self, capsys):
        code, out, _ = run(capsys, "mul", "-n", "1", "0,1", "0,1")
        assert code == 0
        assert out == "-1,0\n"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "mul", "-n", "2", "1,2,-3,4/3", "1,0,0,0")
        assert code == 0
        assert out == "1,2,-3,4/3\n"

    def test_quaternion_ij(self, capsys):
        code, out, _ = run(capsys, "mul", "-n", "2", "0,1,0,0", "0,0,1,0")
        assert code == 0
        assert out == "0,0,0,1\n"

    @pytest.mark.parametrize("engine", ["twist", "doubling", "both"])
    def test_engines_give_same_answer(self, capsys, engine):
        # frozen from a cross-validated run of both engines
        code, out, _ = run(
            capsys, "mul", "-n", "3", "--engine", engine,
            "1,0,2,0,0,-1,0,0", "0,3,0,0,1,0,0,2",
        )
        assert code == 0
        assert out == "0,4,-2,-6,-2,-4,2,2\n"

    def test_gamma_vector_uses_doubling(self, capsys):
        code, out, _ = run(capsys, "mul", "--gamma", "+1", "0,1", "0,1")
        assert code == 0
        assert out == "1,0\n"

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "mul", "-n", "1", "0,x", "0,1")
        assert code == 1
        assert "bad coefficient" in err

    @pytest.mark.parametrize("token", ["1e999999999", "1e-999999999", "1E4300"])
    def test_exponent_blow_up_is_refused(self, capsys, token):
        # Fraction would build 10**999999999, hours of CPU, before any check
        code, out, err = run(capsys, "mul", "-n", "1", f"{token},0", "1,0")
        assert code == 1 and out == ""
        assert repr(token) in err

    def test_product_past_the_int_string_limit_is_printed(self, capsys):
        # admissible operands whose product has 6001 digits, beyond str()'s 4300
        code, out, err = run(capsys, "mul", "-n", "1", "1e3000,0", "1e3000,0")
        assert (code, out, err) == (0, "1" + "0" * 6000 + ",0\n", "")
        code, out, _ = run(capsys, "mul", "-n", "1", "0,1e-3000", "0,-1e-3000")
        assert (code, out) == (0, "1/1" + "0" * 6000 + ",0\n")

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "mul", "-n", "2", "0,1", "0,1,0,0")
        assert code == 1

    # Golden stdout on Fraction operands with mixed denominators, and on a
    # product whose imaginary part cancels to zero. Change it only when a
    # change of output is intended.
    @pytest.mark.parametrize(
        "flags, y, want",
        [
            ((), "0,1/3,-2,3/5,0,4,-1/2,1",
             "31/6,299/60,-659/120,1229/180,127/10,-17/12,-313/180,-13/12\n"),
            (("--split", "--engine", "twist"), "0,1/3,-2,3/5,0,4,-1/2,1",
             "-1/2,-77/20,851/120,959/180,127/10,-17/12,-313/180,-13/12\n"),
            (("--engine", "twist"), "1/2,3,-2/3,0,-5/4,1,0,-7/6",
             "1961/144,0,0,0,0,0,0,0\n"),
            (("--split", "--engine", "twist"), "1/2,3,-2/3,0,-5/4,1,0,-7/6",
             "277/48,0,0,0,0,0,0,0\n"),
        ],
    )
    def test_fraction_output_is_golden(self, capsys, flags, y, want):
        code, out, _ = run(capsys, "mul", "-n", "3", *flags, "1/2,-3,2/3,0,5/4,-1,0,7/6", y)
        assert code == 0
        assert out == want

    def test_twist_engine_takes_any_gamma(self, capsys):
        code, out, err = run(
            capsys, "mul", "--gamma=+1,+1", "--engine", "twist", "0,1,0,0", "0,1,0,0"
        )
        assert code == 0 and err == ""
        assert out == "1,0,0,0\n"  # g_0 is hyperbolic

    def test_general_gamma_output_is_golden(self, capsys):
        # frozen from `--engine doubling`; `both` checks the twist engine against it
        code, out, _ = run(
            capsys, "mul", "--gamma=+1,-1,+1", "--engine", "both",
            "1/2,-3,2/3,0,5/4,-1,0,7/6", "0,1/3,-2,3/5,0,4,-1/2,1",
        )
        assert code == 0
        assert out == "19/6,-77/20,-941/120,959/180,-361/30,-17/12,1123/180,-13/12\n"

    def test_sparse_level_14_product_with_both_engines(self, capsys):
        # three-term operands at the top benchmark level, one Fraction each
        sig = AlgebraSignature.standard(14)
        x_terms = {0: 2, 777: Fraction(-3, 4), 16383: 5}
        y_terms = {1: -1, 8192: 3, 12345: Fraction(1, 2)}
        want = [0] * sig.dimension
        for A, a in x_terms.items():
            for B, b in y_terms.items():
                sign, index = basis_mul(A, B, sig)
                want[index] += sign * a * b

        def text(terms):
            return ",".join(str(terms.get(A, 0)) for A in range(sig.dimension))

        code, out, err = run(
            capsys, "mul", "-n", "14", "--engine", "both", text(x_terms), text(y_terms)
        )
        assert code == 0 and err == ""
        assert out == ",".join(map(str, want)) + "\n"


class TestTable:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["kind"] == "standard"
        assert doc["entries"][1][2] == {"s": 1, "i": 3}
        assert doc["entries"][1][1] == {"s": -1, "i": 0}

    def test_csv_complex(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "A\\B,0,1"
        assert lines[2] == "1,+1,-0"

    def test_markdown_shape(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "3", "--format", "markdown")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 8  # header + separator + 8 data rows
        assert lines[2].count("|") == 10  # label column + 8 data columns

    def test_formats_are_consistent(self, capsys):
        code, json_out, _ = run(capsys, "table", "-n", "2", "--format", "json")
        assert code == 0
        code, csv_out, _ = run(capsys, "table", "-n", "2", "--format", "csv")
        assert code == 0
        code, md_out, _ = run(capsys, "table", "-n", "2", "--format", "markdown")
        assert code == 0
        entries = json.loads(json_out)["entries"]
        csv_rows = [line.split(",")[1:] for line in csv_out.strip().splitlines()[1:]]
        md_rows = [
            [cell.strip() for cell in line.split("|")[2:-1]]
            for line in md_out.strip().splitlines()[2:]
        ]
        for A in range(4):
            for B in range(4):
                s = "+" if entries[A][B]["s"] == 1 else "-"
                i = entries[A][B]["i"]
                assert csv_rows[A][B] == f"{s}{i}"
                assert md_rows[A][B] == f"{s}e{i}"

    def test_split_table(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "1", "--split", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[2] == "1,+1,+0"

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "table", "-n", "13")
        assert code == 1
        assert "cap" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run(capsys, "table", "-n", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 1

    def test_wrong_closed_form_exits_two(self, capsys, monkeypatch):
        right = analysis.twist_batch
        monkeypatch.setattr(
            analysis, "twist_batch", lambda A, B, level, mask: right(A, B, level, mask) ^ 1
        )
        code, out, err = run(capsys, "table", "-n", "3")
        assert code == 2 and out == ""
        assert "invariant violation" in err


def _reference_table(fmt: str, level: int, split: bool, binary: bool) -> str:
    """The table text as the per-cell renderer wrote it, signs from the scalar closed form."""
    sig = AlgebraSignature.split(level) if split else AlgebraSignature.standard(level)
    fn = split_twist if split else twist
    dim = 1 << level
    signs = [[-1 if fn(A, B, level) else 1 for B in range(dim)] for A in range(dim)]

    def fmt_index(i):
        return format(i, f"0{max(level, 1)}b") if binary else str(i)

    if fmt == "json":
        entries = [[{"s": signs[A][B], "i": A ^ B} for B in range(dim)] for A in range(dim)]
        return json.dumps({"n": level, "kind": sig.kind, "entries": entries}) + "\n"
    lines = []
    if fmt == "csv":
        lines.append("A\\B," + ",".join(fmt_index(B) for B in range(dim)))
        for A in range(dim):
            cells = [
                f"{'+' if signs[A][B] > 0 else '-'}{fmt_index(A ^ B)}" for B in range(dim)
            ]
            lines.append(f"{fmt_index(A)}," + ",".join(cells))
    else:
        lines.append("| A\\B | " + " | ".join(f"e{fmt_index(B)}" for B in range(dim)) + " |")
        lines.append("|" + " --- |" * (dim + 1))
        for A in range(dim):
            cells = [
                f"{'+' if signs[A][B] > 0 else '-'}e{fmt_index(A ^ B)}" for B in range(dim)
            ]
            lines.append(f"| e{fmt_index(A)} | " + " | ".join(cells) + " |")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize(
    "level, split", [(0, False)] + [(n, s) for n in (1, 3, 5) for s in (False, True)]
)
@pytest.mark.parametrize("binary", [False, True])
def test_table_output_is_byte_identical(capsys, tmp_path, fmt, level, split, binary):
    argv = ["table", "-n", str(level), "--format", fmt]
    argv += ["--split"] * split + ["--binary"] * binary
    expected = _reference_table(fmt, level, split, binary)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == expected
    path = tmp_path / f"table.{fmt}"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == expected.encode()


class TestVerify:
    def test_twist_laws_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "twist-laws", "--n-max", "4")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["ok"] for r in records)
        assert {r["level"] for r in records} == {1, 2, 3, 4}

    def test_expected_failure_keeps_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "algebra-laws", "-n", "3", "--samples", "20"
        )
        assert code == 0
        records = {r["property"]: r for r in map(json.loads, out.strip().splitlines())}
        assoc = records["associative"]
        assert assoc["holds"] is False and assoc["expected"] is False
        assert assoc["witness"] == [1, 2, 4]

    def test_zero_divisor_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "zero-divisors", "--n-max", "4"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        holds_by_level = {r["level"]: r["holds"] for r in records}
        assert holds_by_level == {1: True, 2: True, 3: True, 4: False}

    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "engines", "-n", "5", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_level_and_n_max_conflict(self, capsys, monkeypatch):
        # one level or a sweep up to a cap, never both; refused before any suite runs
        for name in ("verify_twist_laws", "verify_algebra_laws"):
            monkeypatch.setattr(analysis, name, lambda *a: pytest.fail("ran a suite"))
        for argv in (
            ("--suite", "twist-laws", "-n", "2", "--n-max", "3"),
            ("--n-max", "3", "--level", "2", "--split"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 1 and out == ""
            assert "-n/--level" in err and "--n-max" in err

    def test_gamma_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--gamma", "+1,-1")
        assert code == 1

    def test_split_kind(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "zero-divisors", "--split", "-n", "1"
        )
        assert code == 0
        record = json.loads(out.strip())
        assert record["holds"] is False and record["expected"] is False
        assert record["witness"] == [[1, 1], [1, -1]]


    def test_level_zero_runs_the_suites_that_start_there(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "0", "--samples", "20")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records and all(r["level"] == 0 and r["ok"] for r in records)

    @pytest.mark.parametrize(
        "selection",
        [("--suite", "relations"), ("-n", "0", "--suite", "engines")],
    )
    def test_empty_split_selection_is_an_error(self, capsys, selection):
        code, out, err = run(capsys, "verify", "--split", *selection)
        assert code == 1 and out == ""
        assert "no property selected" in err

    def test_no_samples_is_an_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "relations", "-n", "2", "--samples", "0"
        )
        assert code == 1 and out == ""
        assert "samples" in err

    @pytest.mark.parametrize("samples", ["0", "-3", "many"])
    def test_bad_samples_are_refused_before_any_suite_runs(self, capsys, monkeypatch, samples):
        def forbidden(*args, **kwargs):
            raise AssertionError("a suite ran before --samples was checked")

        monkeypatch.setattr(analysis, "verify_twist_laws", forbidden)
        for argv in ((), ("--suite", "twist-laws")):
            code, out, err = run(capsys, "verify", *argv, "--samples", samples)
            assert code == 1 and out == ""
            assert "samples" in err

    def test_samples_below_the_floor_are_kept(self, capsys):
        # above level 5 the sample count shrinks to at least 8, but never grows
        code, out, _ = run(
            capsys, "verify", "--suite", "engines", "-n", "6", "--samples", "1"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["checked"] == 4096 + 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--suite", "twist-laws", "--n-max", "13"), "cap is 12"),
            (("--suite", "zero-divisors", "--n-max", "13", "--budget", "0"), "cap is 12"),
            (("--suite", "engines", "--n-max", "21"), "capped at level 20"),
            (("--suite", "algebra-laws", "--split", "-n", "21"), "capped at level 20"),
            (("--suite", "relations", "-n", "20"), "capped at level 20"),
            (("--n-max", "13"), "cap is 12"),
            (("--suite", "engines", "--suite", "twist-laws", "--n-max", "13"), "cap is 12"),
        ],
        ids=["twist-laws", "zero-divisors", "engines", "algebra-laws-split", "relations",
             "all", "engines-then-twist-laws"],
    )
    def test_levels_above_a_suite_limit_are_refused_before_any_suite_runs(
        self, capsys, monkeypatch, argv, message
    ):
        for name in dir(analysis):
            if name.startswith("verify_"):
                monkeypatch.setattr(analysis, name, lambda *a, **k: pytest.fail("a suite ran"))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    def test_levels_at_the_suite_limits_pass_the_check(self, capsys, monkeypatch):
        # the last level each suite allows reaches the suite (stubbed here)
        ran = []
        for name in dir(analysis):
            if name.startswith("verify_"):
                monkeypatch.setattr(analysis, name, lambda *a, n=name, **k: ran.append(n) or [])
        for suite, level in (("twist-laws", 12), ("zero-divisors", 12), ("engines", 20),
                             ("algebra-laws", 20), ("relations", 19)):
            code, out, err = run(capsys, "verify", "--suite", suite, "-n", str(level))
            assert code == 1 and "no property selected" in err, suite
        assert ran == ["verify_twist_laws", "verify_zero_divisors", "verify_engines",
                       "verify_algebra_laws", "verify_relations"]

    def test_negative_budget_is_refused_at_parse_time(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a suite ran before --budget was checked")

        monkeypatch.setattr(analysis, "verify_zero_divisors", forbidden)
        code, out, err = run(
            capsys, "verify", "--suite", "zero-divisors", "-n", "3", "--budget", "-5"
        )
        assert code == 1 and out == ""
        assert "budget" in err

    def test_truncated_zero_divisor_search_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "zero-divisors", "-n", "3", "--budget", "0"
        )
        assert code == 1
        record = json.loads(out.strip())
        assert record["holds"] is False and record["checked"] == 0
        assert record["expected"] is True and record["ok"] is False


# The fixtures are the stdout of `cdtwist verify --n-max 4 --samples 20 [--split]`
# and of the full `cdtwist verify [--split]`, which CI also diffs. Rewrite
# them from those commands only when a change of output is intended.
# The split runs have no twist-laws or relations records: those reports do
# not depend on the kind.
_SMALL = ("--n-max", "4", "--samples", "20")


@pytest.mark.parametrize(
    "fixture, flags",
    [
        ("verify_n4_s20.jsonl", _SMALL),
        ("verify_n4_s20_split.jsonl", (*_SMALL, "--split")),
        ("verify_default.jsonl", ()),
        ("verify_default_split.jsonl", ("--split",)),
    ],
)
def test_verify_output_matches_golden(capsys, fixture, flags):
    code, out, _ = run(capsys, "verify", *flags)
    assert code == 0
    assert out == (DATA / fixture).read_text()


@pytest.mark.parametrize(
    "argv",
    [("verify", "--suite", "engines", "-n", "30"), ("mul", "-n", "30", "1", "1")],
)
def test_dense_level_cap_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "capped at level 20" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "twist-laws", "-n", "13"),
        ("verify", "--suite", "zero-divisors", "-n", "13"),
        ("table", "-n", "24"),
    ],
    ids=["twist-laws", "zero-divisors", "table"],
)
def test_table_level_cap_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cap is 12" in err and "Traceback" not in err


class TestBench:
    def test_rows_schema(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--levels", "3,9", "--queries", "256", "--reps", "2"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["n"] for r in rows} == {3, 9}
        for row in rows:
            assert set(row) == {"n", "engine", "queries", "total_ns", "per_query_ns", "reps"}

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bench.jsonl"
        code, out, _ = run(
            capsys, "bench", "--levels", "2", "--queries", "64", "--reps", "1",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().strip()

    def test_zero_queries_is_domain_error(self, capsys):
        code, out, err = run(capsys, "bench", "--levels", "3", "--queries", "0")
        assert code == 1 and out == ""
        assert "queries" in err

    @pytest.mark.parametrize("queries", [str((1 << 20) + 1), "100000000"])
    def test_queries_above_the_bound_are_domain_errors(self, capsys, monkeypatch, queries):
        monkeypatch.setattr(
            analysis, "random", types.SimpleNamespace(Random=lambda *a: pytest.fail("drew queries"))
        )
        code, out, err = run(capsys, "bench", "--levels", "24", "--queries", queries)
        assert code == 1 and out == ""
        assert "queries" in err and "Traceback" not in err

    def test_empty_level_list_is_domain_error(self, capsys):
        code, out, err = run(capsys, "bench", "--levels", ",")
        assert code == 1 and out == ""
        assert "level" in err

    def test_level_past_max_level_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "bench", "--levels", "64", "--queries", "4", "--reps", "1"
        )
        assert code == 1 and out == ""
        assert "62" in err and "Traceback" not in err

    def test_wrong_engine_answer_exits_two(self, capsys, monkeypatch):
        right = analysis.twist_batch
        monkeypatch.setattr(analysis, "twist_batch", lambda A, B, level: right(A, B, level) ^ 1)
        code, out, err = run(capsys, "bench", "--levels", "16", "--queries", "64", "--reps", "1")
        assert code == 2 and out == ""
        assert "invariant violation" in err


class TestUsageErrors:
    def test_bad_flag_exits_one(self, capsys):
        code, _, _ = run(capsys, "sign", "--frobnicate", "1", "2")
        assert code == 1

    def test_missing_level(self, capsys):
        code, _, err = run(capsys, "sign", "1", "2")
        assert code == 1
        assert "level" in err

    def test_gamma_and_split_conflict(self, capsys):
        code, _, err = run(capsys, "mul", "--gamma=-1", "--split", "0,1", "0,1")
        assert code == 1

    def test_bad_gamma_entry(self, capsys):
        code, _, err = run(capsys, "mul", "--gamma=-1,0", "0,1", "0,1")
        assert code == 1
        assert "doubling parameter" in err

    @pytest.mark.parametrize("gamma", ["+1,x", "+1,2", "+1,", "1.0,-1"])
    def test_gamma_entries_other_than_plus_minus_one(self, capsys, gamma):
        # a non-integer fails the CLI's int(); any other integer fails the signature
        code, out, err = run(capsys, "mul", f"--gamma={gamma}", "0,1,0,0", "0,1,0,0")
        assert code == 1 and out == ""
        assert "doubling parameter" in err and "Traceback" not in err

    def test_gamma_entries_are_integers(self, capsys):
        for gamma in ("+1,-1", "1, -1", " +1 ,-1"):
            code, out, _ = run(capsys, "mul", f"--gamma={gamma}", "0,1,0,0", "0,1,0,0")
            assert code == 0 and out == "1,0,0,0\n", gamma


# A base invocation of each command that exits 0, and the flags each command
# does not read.
_BASE_ARGV = {
    "sign": ("-n", "3", "5", "6"),
    "mul": ("-n", "1", "0,1", "0,1"),
    "table": ("-n", "1"),
    "verify": ("--suite", "zero-divisors", "-n", "1"),
    "bench": ("--levels", "2", "--queries", "4", "--reps", "1"),
}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("sign", "--seed=1"), ("sign", "--cap=3"), ("sign", "--gamma=-1"),
        ("mul", "--seed=1"), ("mul", "--cap=3"), ("mul", "--binary"),
        ("table", "--seed=1"), ("table", "--gamma=-1"), ("table", "--cap=3"),
        ("verify", "--gamma=-1"), ("verify", "--cap=3"), ("verify", "--binary"),
        ("bench", "-n3"), ("bench", "--split"), ("bench", "--gamma=-1"),
        ("bench", "--cap=3"), ("bench", "--binary"),
    ],
)
def test_flag_the_command_does_not_read_is_rejected(capsys, command, flag):
    code, _, _ = run(capsys, command, *_BASE_ARGV[command])
    assert code == 0
    code, out, err = run(capsys, command, flag, *_BASE_ARGV[command])
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err
