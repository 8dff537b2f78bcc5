import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from extensor import cli
from extensor.cg_algebra import standard_basis
from extensor.cli import (MAX_DEPTH, MAX_DIM, Environment, EvalError,
                          ParseError, build_parser, evaluate_text, main,
                          parse, read_document)
from extensor.exterior import ExteriorElement
from extensor.linalg import MAX_DECIMAL_EXPONENT
from extensor.whitney import MAX_ORACLE_DEGREE, make_matroid


ENV3 = Environment(dim=3)


def ev(text, env=ENV3):
    return evaluate_text(text, env)


def assert_non_finite_named_as_json(text: str, err: str):
    """A document with a non-finite number is refused with the number as
    the JSON text spells it, never as Python's float repr."""
    for token in ("-Infinity", "Infinity", "NaN"):
        if token in text:
            assert err == f"error: {token} is not a finite number\n"
            break
    assert "'inf'" not in err and "'nan'" not in err


class TestParser:
    def test_precedence_meet_over_wedge(self):
        node = parse("p1 ^ p2 & q1 ^ q2")
        assert node[0] == "meet"
        assert node[1][0] == node[2][0] == "wedge"

    def test_tensor_binds_loosest_of_products(self):
        node = parse("a ^ b # c & d")
        assert node[0] == "tensor"

    def test_additive_is_loosest(self):
        node = parse("a # b + c # d")
        assert node[0] == "add"
        assert node[1][0] == node[2][0] == "tensor"

    def test_star_binds_tightest(self):
        node = parse("*e1 ^ e2")
        assert node[0] == "wedge"
        assert node[1][0] == "star"

    def test_dia_node(self):
        node = parse("dia(1,2,1, (p1^p2) # (q1^q2))")
        assert node[0] == "dia"
        assert node[1:4] == (1, 2, 1)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p1 ^ ^")
        assert err.value.col == 6
        assert err.value.line == 1

    @pytest.mark.parametrize("text,message,line,col", [
        ("e1 ^\ne2 ^ ^", "unexpected token '^'", 2, 6),
        ("e1 +\ne2 +\n  e3 & )", "unexpected token ')'", 3, 8),
        ("e1 ^\t$", "unexpected character '$'", 1, 6),
        ("e1 ^\r\ne2 ^ ^", "unexpected token '^'", 2, 6),
        ("e1 ^\r\n\r\n\te2 ]", "trailing input ']'", 3, 5),
        ("e1\n^ e2 e3", "trailing input 'e3'", 2, 6),
        ("dia(1,2,1, e1 # e2", "expected ')', found ''", 1, 19),
        ("dia(1,\n2, 1", "expected ',', found ''", 2, 5),
        ("bp(ab; 1:1", "expected ')', found ''", 1, 11),
        ("bp(ab;\n 1:1, 2:", "expected 'int', found ''", 2, 9),
        ("e1 ^   ", "unexpected token ''", 1, 8),
        ("(e1 ^ e2\n   ", "expected ')', found ''", 2, 4),
    ])
    def test_error_positions_across_lines(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} at line {line}, column {col}"
        assert (err.value.line, err.value.col) == (line, col)

    def test_nesting_fits_seven_frames_a_level(self):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        half = MAX_DEPTH // 2
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 7 * MAX_DEPTH)
        try:
            assert parse("(" * MAX_DEPTH + "e1" + ")" * MAX_DEPTH) == ("name", "e1")
            node = parse("dia(1,2,1, " * half + "e1 # e2" + ")" * half)
            for _ in range(half):
                assert node[:4] == ("dia", 1, 2, 1)
                node = node[4]
            assert node == ("tensor", ("name", "e1"), ("name", "e2"))
        finally:
            sys.setrecursionlimit(limit)

    def test_names_take_unicode_letters_and_numerals(self):
        assert parse("x² ^ _a1") == ("wedge", ("name", "x²"), ("name", "_a1"))

    def test_readme_grammar_matches_the_module_docstring(self):
        def rules(text):
            text = re.sub(r"\(\*.*?\*\)", "", text, flags=re.S)
            return [" ".join(rule.split()) for rule in text.split(" ;")[:-1]]

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Expression grammar", 1)[1].split("```")[1]
        doc = cli.__doc__.split("::", 1)[1].split("\n\n")[1]
        assert rules(block) == rules(doc)
        assert [r.split(" = ")[0] for r in rules(doc)] == [
            "expr", "additive", "tensor", "meet", "wedge", "unary", "primary",
            "NUMBER", "INT", "NAME"]

    def test_letterplace_atom_vs_parenthesis(self):
        assert parse("(x|1)")[0] == "lp"
        assert parse("(e1 ^ e2)")[0] == "wedge"

    def test_biproduct_literal(self):
        node = parse("bp(abc; 1:2, 2:1)")
        assert node == ("bp", "abc", ((1, 2), (2, 1)))


class TestEvaluation:
    def test_basis_names_are_bound(self):
        got = ev("e1 ^ e3")
        assert got == ExteriorElement.monomial(3, (1, 3))

    def test_scalar_adjacency(self):
        assert ev("1/2 e1 + 3 e2") == \
            ev("e1") * "1/2" + ev("e2") * 3

    def test_meet_uses_the_ambient_peano_space(self):
        env = Environment(dim=3, vectors={
            "p1": ["1", "0", "0"], "p2": ["0", "1", "0"],
            "q1": ["1", "1", "1"], "q2": ["0", "1", "2"]})
        got = evaluate_text("p1 ^ p2 & q1 ^ q2", env)
        want = env.peano.meet(evaluate_text("p1 ^ p2", env),
                              evaluate_text("q1 ^ q2", env))
        assert got == want

    def test_bracket(self):
        assert ev("[e1, e2, e3]") == 1
        assert ev("[e2, e1, e3]") == -1

    def test_unknown_name(self):
        with pytest.raises(EvalError):
            ev("nosuch")

    def test_type_errors_are_reported(self):
        with pytest.raises(EvalError):
            ev("(x|1) ^ e1")

    def test_letterplace_product(self):
        got = ev("(x|1)^(y|2) - (y|1)^(x|2)")
        assert len(got.terms) == 2


class TestRoundTrip:
    CORPUS = [
        "e1",
        "e1 ^ e2",
        "-e1 ^ e2",
        "2 e1",
        "1/2 e1 + 3 e2",
        "e1 ^ e2 - 1/2 e1 ^ e3",
        "e1 ^ e2 ^ e3",
        "e1 # e2",
        "e1 # e2 ^ e3 + e2 # e1 ^ e3",
        "1 # e1 ^ e2",
        "-2 e1 # e2 + 1/3 e2 # e1",
        "e1 # e2 # e3",
        "[e1, e2, e3] ^ e1",
        "*e1",
        "*(e1 ^ e2) + e3",
        "dia(1,2,1, e1 ^ e2 # e3)",
        "e1 & e2 ^ e3",
        "(e1 + e2) ^ e3",
        "(x|1)",
        "(x|1)^(y|2)",
        "(x|1)^(y|2) - (y|1)^(x|2)",
        "2 (a|1)^(b|1)",
        "(a|1)^(b|1)^(c|2)",
        "bp(ab; 1:2)",
        "bp(ab; 1:1, 2:1)",
        "bp(abc; 1:2, 2:1)",
        "bp(ab; 1:2)^bp(c; 2:1)",
        "2 bp(ab; 1:2) - bp(ac; 1:2)",
        "bp(abcd; 1:1, 2:3)",
        "3 e1 ^ e2 + 1/4 e2 ^ e3 - e1 ^ e3",
    ]

    def test_parse_print_round_trip(self):
        env = Environment(dim=3)
        assert len(self.CORPUS) == 30
        for text in self.CORPUS:
            node = parse(text)
            from extensor.cli import Evaluator, _max_place
            value = Evaluator(env, m=_max_place(node)).eval(node)
            printed = str(value)
            again = Evaluator(env, m=_max_place(parse(printed))).eval(parse(printed))
            # print(parse(print(x))) == print(x), and values agree
            # whenever the printout is not a bare scalar
            assert str(again) == printed
            if type(again) is type(value):
                assert again == value


class TestCommands:
    def test_eval_command(self, capsys):
        assert main(["eval", "-e", "e1 ^ e2", "--dim", "3"]) == 0
        assert capsys.readouterr().out.strip() == "e1^e2"

    def test_eval_with_env_file(self, tmp_path, capsys):
        env = {"dim": 3, "vectors": {"p": ["1", "2", "3"]}}
        path = tmp_path / "env.json"
        path.write_text(json.dumps(env))
        assert main(["eval", "-e", "p ^ e1", "--env", str(path)]) == 0
        out = capsys.readouterr().out
        assert "e1^e2" in out

    def test_parse_error_is_usage_error(self, capsys):
        assert main(["eval", "-e", "p1 ^ ^"]) == 2
        assert "column 6" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["eval", "--nonsense"]) == 2

    def test_expression_starting_with_minus_follows_the_option(self, capsys):
        for argv in (["eval", "-e", "-e1"], ["eval", "--expression", "-e1"],
                     ["eval", "--expression=-e1"], ["eval", "--dim", "2", "-e", "-e1"]):
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == "-e1\n"
        for argv in (["straighten", "-e", "-bp(ab; 1:1, 2:1)"],
                     ["straighten", "--expression=-bp(ab; 1:1, 2:1)"],
                     ["straighten", "-e", "-bp(ab; 1:1, 2:1)", "--budget", "5"]):
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == "-bp(ab; 1:1, 2:1)\n"

    @pytest.mark.parametrize("command", ["eval", "straighten"])
    @pytest.mark.parametrize("spelling", [["-e", "--"], ["-e--"], ["--expression", "--"],
                                          ["--expression=--"]])
    def test_a_double_dash_expression_reaches_the_parser(self, capsys, command, spelling):
        # argparse drops a lone "--" value on some Python versions
        with pytest.raises(ParseError, match="column 3$"):
            ev("--")
        assert main([command, *spelling]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unexpected token '' at line 1, column 3\n"

    @pytest.mark.parametrize("command", ["eval", "straighten"])
    @pytest.mark.parametrize("text,col", [("²", 1), ("e1 ^ ٣", 6), ("bp(ab; 1:1, ٢:1)", 13)])
    def test_non_ascii_digits_are_refused_with_their_position(self, capsys, command,
                                                              text, col):
        assert main([command, "-e", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = next(ch for ch in text if ch.isdigit() and not ch.isascii())
        assert captured.err == (f"error: unexpected character {bad!r} "
                                f"at line 1, column {col}\n")

    def test_expression_options_in_every_spelling(self, capsys):
        for argv in (["eval", "-e=e1"], ["eval", "-ee1"], ["eval", "--expr", "e1"],
                     ["eval", "--ex=e1"], ["eval", "-e", "e2", "-e", "e1"],
                     ["eval", "-e", "e1", "--dim", "2"]):
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == "e1\n"
        for argv in (["eval", "--expression"], ["straighten", "-e"]):
            assert main(argv) == 2, argv
            assert "expected one argument" in capsys.readouterr().err

    def test_budget_boundary(self, capsys):
        assert main(["straighten", "-e", "bp(ab; 1:2)", "--budget", "0"]) == 0
        assert capsys.readouterr().out == "bp(ab; 1:2)\n"
        assert main(["straighten", "-e", "bp(ab; 1:2)", "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --budget must be at least 0, got -1\n"

    def test_straighten_command(self, capsys):
        code = main(["straighten", "-e", "bp(cd; 1:2) ^ bp(ab; 1:1, 2:1)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bp(" in out

    @pytest.mark.parametrize(
        "case", json.loads(Path(__file__).with_name("straighten_golden.json").read_text()),
        ids=lambda case: case["argv"][-1][:40])
    def test_straighten_output_is_pinned(self, capsys, case):
        # the rewrite loop may get faster but must keep printing these
        # bytes; the last case prints 184 terms
        assert main(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_dimension_limit(self, tmp_path, capsys, source):
        def run(dim):
            if source == "flag":
                return main(["eval", "--dim", str(dim), "-e", f"e{max(dim, 1)}"])
            path = tmp_path / "env.json"
            path.write_text(json.dumps({"dim": dim}))
            return main(["eval", "--env", str(path), "-e", f"e{max(dim, 1)}"])

        assert run(MAX_DIM) == 0
        assert capsys.readouterr().out == f"e{MAX_DIM}\n"
        for dim in (MAX_DIM + 1, -1):
            assert run(dim) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: dimension {dim} is outside 0..{MAX_DIM}\n"

    def test_a_reused_parser_carries_no_state(self, capsys, monkeypatch):
        expr = "bp(cd; 1:2) ^ bp(ab; 1:1, 2:1) ^ bp(ef; 1:1, 2:1)"
        build_parser.cache_clear()
        assert main(["straighten", "-e", expr]) == 0
        first = capsys.readouterr().out
        assert build_parser() is build_parser()

        calls = []
        straighten = cli.straighten

        def recording(value, budget):
            calls.append(budget)
            return straighten(value, budget=budget)

        monkeypatch.setattr(cli, "straighten", recording)
        main(["straighten", "--budget", "5", "-e", expr])
        assert main(["straighten", "--budget", "x", "-e", expr]) == 2
        capsys.readouterr()
        assert main(["straighten", "-e", expr]) == 0
        assert calls == [5, 10 ** 6]
        assert capsys.readouterr().out == first

        assert main(["eval", "--dim", "2", "-e", "e2"]) == 0
        assert main(["eval", "--dim", "2", "-e", "e3"]) == 2
        assert main(["eval", "--dim", "4", "-e", "e4 ^ e3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "e2\n-e3^e4\n"
        assert captured.err == "error: unknown name 'e3'\n"

    @pytest.mark.parametrize("dim", [0, 3, MAX_DIM])
    def test_star_builds_its_basis_on_first_use(self, dim):
        env = Environment(dim=dim)
        assert "basis" not in vars(env)
        x = ExteriorElement.unit(dim) if dim == 0 else evaluate_text("e1", env)
        want = standard_basis(dim).star(x)
        if dim:
            assert evaluate_text("*e1", env) == want
        assert env.basis.star(x) == want
        assert env.basis is env.basis

    def test_verify_exit_zero_and_determinism(self, capsys):
        assert main(["verify", "meet", "--seed", "5", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "meet", "--seed", "5", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["failed"] == 0

    def test_verify_exit_one_on_failure(self, capsys, monkeypatch):
        from extensor import identity_suite
        from extensor.identity_suite import Report

        def broken(seed):
            return [Report("x", "inst", "0", "1", False)]

        monkeypatch.setitem(identity_suite.SUITES, "meet", broken)
        monkeypatch.setattr("extensor.cli.run_suite",
                            lambda name, seed: broken(seed))
        assert main(["verify", "meet"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_matroid_exchange_command(self, tmp_path, capsys):
        doc = {"kind": "uniform", "n": 3, "k": 2}
        path = tmp_path / "u32.json"
        path.write_text(json.dumps(doc))
        assert main(["matroid", str(path), "exchange", "--max-word", "2"]) == 0
        out = capsys.readouterr().out
        assert "exchange-relation" in out and "FAIL" not in out

    def test_matroid_polarization_command(self, tmp_path, capsys):
        doc = {"kind": "linear",
               "letters": ["a", "b", "c"],
               "columns": [["1", "0"], ["0", "1"], ["1", "1"]]}
        path = tmp_path / "lin.json"
        path.write_text(json.dumps(doc))
        assert main(["matroid", str(path), "polarization",
                     "--max-degree", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("check, option", [("exchange", "--max-word"),
                                               ("polarization", "--max-degree")])
    def test_sweep_limit_boundary(self, tmp_path, capsys, check, option):
        path = tmp_path / "u32.json"
        path.write_text(json.dumps({"kind": "uniform", "n": 3, "k": 2}))
        assert main(["matroid", str(path), check, option, "0"]) == 0
        assert capsys.readouterr().out == f"matroid-{check}: 0/0 passed (seed 0)\n"
        assert main(["matroid", str(path), check, option, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be at least 0, got -1\n"

    def test_exchange_sweep_at_the_oracle_degree_limit(self, tmp_path, capsys):
        # the longest independent word of U(5,4) has 4 letters, so a pair
        # makes components of degree up to 8, the oracle's limit
        assert MAX_ORACLE_DEGREE == 8
        path = tmp_path / "u54.json"
        path.write_text(json.dumps({"kind": "uniform", "n": 5, "k": 4}))
        assert main(["matroid", str(path), "exchange", "--max-word", "5"]) == 0
        assert capsys.readouterr().out.endswith("matroid-exchange: 900/900 passed (seed 0)\n")

    @pytest.mark.parametrize("n, k, degree", [(6, 5, 10), (5, 5, 10)])
    def test_exchange_sweep_above_the_oracle_degree_limit_is_refused(
            self, tmp_path, capsys, monkeypatch, n, k, degree):
        # refused before any pair runs, even where every difference of
        # degree above 8 vanishes, as in the free matroid U(5,5)
        monkeypatch.setattr(cli, "exchange_check", None)
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"kind": "uniform", "n": n, "k": k}))
        assert main(["matroid", str(path), "exchange", "--max-word", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --max-word 5 pairs words into components of "
                                f"degree {degree}, above the oracle's limit 8\n")

    @pytest.mark.parametrize(
        "case", json.loads(Path(__file__).with_name("matroid_golden.json").read_text()),
        ids=lambda case: " ".join([case["name"]] + case["args"]))
    def test_matroid_sweep_output_is_pinned(self, tmp_path, capsys, case):
        # outputs over about 20 KB are pinned by their SHA-256 and line count
        path = tmp_path / "matroid.json"
        path.write_text(json.dumps(case["matroid"]))
        assert main(["matroid", str(path)] + case["args"]) == case["exit"]
        out = capsys.readouterr().out
        if "stdout" in case:
            assert out == case["stdout"]
        else:
            assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) \
                == (case["sha256"], case["lines"])

    @pytest.mark.parametrize(
        "case", json.loads(Path(__file__).with_name("verify_golden.json").read_text()),
        ids=lambda case: " ".join(case["argv"]))
    def test_verify_output_is_pinned(self, capsys, case):
        # the Grassmann-Cayley reports (about 300 KB each) are pinned by
        # their SHA-256 and line count
        assert main(case["argv"]) == case["exit"]
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) \
            == (case["sha256"], case["lines"])

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["matroid", "nosuch.json", "exchange"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["eval", "-e", "bp(ab; 1:1, 1:1)"], "repeated place in a biproduct"),
        (["straighten", "--budget", "1", "-e",
          "bp(cd; 1:2) ^ bp(ab; 1:1, 2:1) ^ bp(ef; 1:1, 2:1)"],
         "no fixed point within 1 steps"),
        (["eval", "-e", "1/0 e1"], "division by zero"),
        (["eval", "-e", "bp(ab; 0:1, 1:1)"], "place 0: places start at 1"),
        (["eval", "-e", "bp(ab; 0:2)"], "place 0: places start at 1"),
        (["eval", "-e", "(a|0)"], "place 0: places start at 1"),
        (["eval", "-e", "(a|0) ^ (b|1)"], "place 0: places start at 1"),
        (["straighten", "-e", "bp(ab; 0:1, 1:1) ^ bp(c; 1:1)"],
         "place 0: places start at 1"),
        (["eval", "-e", "e1", "--nonsense"], "unrecognized arguments: --nonsense"),
        (["eval"], "the following arguments are required"),
        (["eval", "-e"], "expected one argument"),
        (["straighten", "--order", "revlex", "-e", "bp(z; 1:1) ^ bp(x; 1:1)"],
         "unrecognized arguments: --order revlex"),
        (["eval", "-e", "(e1 # e2) ^ (e1 # e2)"],
         "cannot multiply TensorPowerElement and TensorPowerElement"),
    ])
    def test_bad_input_is_one_line_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "-e", "(" * 3000 + "e1" + ")" * 3000],
        ["eval", "--expression=" + "-" * 3000 + "e1"],
    ], ids=["parentheses", "minus-signs"])
    def test_deep_nesting_is_one_line_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expression nested deeper than")
        assert captured.err.count("\n") == 1

    def test_nesting_up_to_the_limit_parses(self):
        from extensor.cli import MAX_DEPTH
        assert parse("(" * MAX_DEPTH + "e1" + ")" * MAX_DEPTH) == ("name", "e1")
        assert parse("-" * MAX_DEPTH + "e1")[0] == "neg"
        with pytest.raises(ParseError):
            parse("-" * (MAX_DEPTH + 1) + "e1")

    @pytest.mark.parametrize("doc", [
        [1],
        "uniform",
        {"kind": "uniform"},
        {"kind": "uniform", "n": "3", "k": 2},
        {"kind": "uniform", "n": 3, "k": 2, "letters": 5},
        {"kind": "linear", "columns": 5},
        {"kind": "linear", "columns": [[None]]},
        {"kind": "linear", "columns": [[1, 0], [0, 1]], "letters": ["a", "a"]},
        {"kind": "linear", "columns": [[float("inf"), 0], [0, 1]]},
        {"kind": "linear", "columns": [[1, float("-inf")], [0, 1]]},
        {"kind": "linear", "columns": [[float("nan"), 0], [0, 1]]},
        {"kind": "linear", "letters": [1, 2, 3], "columns": [[1, 0], [0, 1], [1, 1]]},
        {"kind": "uniform", "n": 3, "k": 2, "letters": ["a", "b", ["c"]]},
        {"kind": "uniform", "n": 2, "k": 1, "letters": ["a", ""]},
        {"kind": 1.5, "n": 3, "k": 2},
    ])
    def test_malformed_matroid_is_one_line_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["matroid", str(path), "exchange"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        # numbers from the document are shown as JSON, not as Python objects
        assert "Fraction(" not in captured.err
        assert_non_finite_named_as_json(json.dumps(doc), captured.err)

    def test_matroid_kind_is_shown_as_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": [1.5, 1e-1000, -0.125, true, null, {"x": "y"}]}')
        assert main(["matroid", str(path), "exchange"]) == 2
        assert capsys.readouterr().err == \
            'error: unknown matroid kind [1.5, 1E-1000, -0.125, true, null, {"x": "y"}]\n'

    @pytest.mark.parametrize("n, k, message", [
        (3, 4, "uniform matroid rank k = 4 is outside 0..3"),
        (3, -1, "uniform matroid rank k = -1 is outside 0..3"),
        (27, 2, "only 26 default letters exist, so n = 27 needs 'letters'"),
        (-1, 0, "uniform matroid size n = -1 must be at least 0"),
    ])
    def test_uniform_matroid_out_of_range_is_refused(self, tmp_path, capsys, n, k, message):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"kind": "uniform", "n": n, "k": k}))
        assert main(["matroid", str(path), "exchange", "--max-word", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("k, passed", [(0, "0/0"), (3, "9/9")])
    def test_uniform_matroid_rank_at_the_ends_of_its_range(self, tmp_path, capsys, k, passed):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"kind": "uniform", "n": 3, "k": k}))
        assert main(["matroid", str(path), "exchange", "--max-word", "1"]) == 0
        assert capsys.readouterr().out.endswith(
            f"matroid-exchange: {passed} passed (seed 0)\n")

    def test_uniform_matroid_with_its_own_letters_can_exceed_26(self):
        letters = [f"x{i}" for i in range(27)]
        matroid = make_matroid({"kind": "uniform", "n": 27, "k": 2, "letters": letters})
        assert matroid.ground == tuple(letters) and matroid.full_rank() == 2

    def test_linear_matroid_beyond_26_columns_needs_letters(self, tmp_path, capsys):
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({"kind": "linear", "columns": [[1]] * 27}))
        assert main(["matroid", str(path), "exchange", "--max-word", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: only 26 default letters exist, so 27 columns need 'letters'\n"

    def test_long_operator_chain_evaluates(self, capsys):
        assert main(["eval", "-e", " + ".join(["e1"] * 3000)]) == 0
        assert capsys.readouterr().out == "3000 e1\n"

    def test_long_chains_of_every_binary_operator(self):
        assert ev(" - ".join(["e1"] * 3000)) == ExteriorElement.from_vector((-2998, 0, 0))
        assert not ev(" ^ ".join(["e1"] * 3000))
        assert ev(" # ".join(["e1"] * 500)).m == 500
        assert parse(" & ".join(["e1"] * 3000))[0] == "meet"

    @pytest.mark.parametrize("doc", [
        [1],
        "env",
        {"vectors": [1]},
        {"dim": 2, "vectors": {"p": 5}},
        {"dim": "3"},
        {"dim": -1},
        {"dim": True},
        {"dim": 2, "vectors": {"p": [None, 1]}},
        {"dim": 2, "vectors": {"p": [1, 2, 3]}},
        {"integral_scale": [1]},
        {"integral_scale": "x"},
        {"integral_scale": 0},
        {"integral_scale": float("inf")},
        {"integral_scale": float("-inf")},
        {"dim": 2, "vectors": {"p": [float("nan"), 1]}},
        {"dim": 2, "vectors": {"p": [1, float("-inf")]}},
    ])
    def test_malformed_environment_is_one_line_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "-e", "e1", "--env", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert_non_finite_named_as_json(json.dumps(doc), captured.err)

    def test_decimal_literals_are_exact(self, tmp_path, capsys):
        path = tmp_path / "env.json"
        path.write_text('{"dim": 2, "vectors": {"p": [0.1, 1]}, "integral_scale": 2.5e-1}')
        assert main(["eval", "-e", "p", "--env", str(path)]) == 0
        assert capsys.readouterr().out == "1/10 e1 + e2\n"
        assert main(["eval", "-e", "[p, e1]", "--env", str(path)]) == 0
        assert capsys.readouterr().out == "-4\n"
        # b = a / 10 exactly, so the two columns are parallel
        path = tmp_path / "matroid.json"
        path.write_text('{"kind": "linear", "columns": [[1, 3], [0.1, 0.3]]}')
        assert make_matroid(read_document(str(path))).rank("ab") == 1

    @pytest.mark.parametrize("text", ["1e{e}", "-1e-{e}", "2.5E+{e}", '"1e{e}"', '"1e-{e}"'])
    def test_decimal_exponent_limit(self, tmp_path, capsys, text):
        path = tmp_path / "env.json"
        entry = text.format(e=MAX_DECIMAL_EXPONENT)
        path.write_text(f'{{"dim": 2, "vectors": {{"p": [{entry}, 1]}}}}')
        assert main(["eval", "-e", "p ^ e2", "--env", str(path)]) == 0
        assert capsys.readouterr().out.endswith(" e1^e2\n")
        entry = text.format(e=MAX_DECIMAL_EXPONENT + 1)
        for doc in (f'{{"dim": 2, "vectors": {{"p": [{entry}, 1]}}}}',
                    f'{{"integral_scale": {entry}}}'):
            path.write_text(doc)
            assert main(["eval", "-e", "e1", "--env", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: decimal exponent beyond the limit of "
                                    f"MAX_DECIMAL_EXPONENT = {MAX_DECIMAL_EXPONENT}\n")
        path.write_text(f'{{"kind": "linear", "columns": [[{entry}, 1], [0, 1]]}}')
        assert main(["matroid", str(path), "exchange"]) == 2
        assert "MAX_DECIMAL_EXPONENT" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_coordinates_are_refused(self, tmp_path, capsys, value):
        path = tmp_path / "env.json"
        path.write_text(f'{{"dim": 2, "vectors": {{"p": [{value}, 0]}}}}')
        assert main(["eval", "-e", "p", "--env", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bad environment entry: {value.title()} "
                                "is a boolean, not a number\n")

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_matroid_columns_are_refused(self, tmp_path, capsys, value):
        path = tmp_path / "matroid.json"
        path.write_text(f'{{"kind": "linear", "columns": [[1, {value}], [0, 1]]}}')
        assert main(["matroid", str(path), "exchange"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bad column entry: {value.title()} "
                                "is a boolean, not a number\n")

    def test_environment_file_with_every_field(self, tmp_path, capsys):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"dim": 2, "vectors": {"p": ["1/2", 3]},
                                    "integral_scale": 2}))
        assert main(["eval", "-e", "[p, e1]", "--env", str(path)]) == 0
        assert capsys.readouterr().out == "-3/2\n"


# the grammar's alphabet: names, integers, keywords and every symbol
FUZZ_TOKENS = ["e1", "e2", "e3", "a", "b", "x", "0", "1", "2", "dia", "bp",
               "+", "-", "#", "&", "^", "*", "/", "(", ")", "[", "]", ",",
               ";", ":", "|", " "]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["eval", "straighten"]),
       st.lists(st.sampled_from(FUZZ_TOKENS), max_size=16), st.sampled_from(["", " "]))
def test_random_token_strings_never_escape_the_exit_codes(command, tokens, sep):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-e", sep.join(tokens)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


# JSON values of every type, for the fields of a matroid document
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                         st.floats(width=32), st.text(max_size=3))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2),
                        st.dictionaries(st.text(max_size=1), JSON_SCALARS, max_size=1))
NUMBERS = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3", "0.5"]))


@st.composite
def matroid_documents(draw):
    """Documents of up to four elements: each field usually of its own
    type and shape, else missing or any JSON value; one letter or one
    column entry is sometimes any JSON value."""
    size = draw(st.integers(0, 4))
    height = draw(st.integers(0, 3))

    def mangled(items):
        if items and draw(st.integers(0, 3)) == 0:
            items[draw(st.integers(0, len(items) - 1))] = draw(JSON_VALUES)
        return items

    own = {
        "kind": lambda: draw(st.sampled_from(["uniform", "linear"])),
        "n": lambda: draw(st.integers(-1, size)),
        "k": lambda: draw(st.integers(-1, 4)),
        "letters": lambda: draw(st.text(min_size=size, max_size=size)) if draw(st.booleans())
        else mangled(draw(st.lists(st.sampled_from(["a", "b", "c", "x1", "x10", "x2"]),
                                   min_size=size, max_size=size, unique=True))),
        "columns": lambda: [mangled(draw(st.lists(NUMBERS, min_size=height, max_size=height)))
                            for _ in range(size)],
    }
    doc = {}
    for field, value in own.items():
        shape = draw(st.sampled_from(["own"] * 5 + ["missing", "any"]))
        if shape != "missing":
            doc[field] = value() if shape == "own" else draw(JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(matroid_documents(), st.sampled_from([["exchange", "--max-word", "1"],
                                             ["polarization", "--max-degree", "2"]]),
       st.sampled_from([[], ["--json"]]))
def test_random_matroid_documents_never_escape_the_exit_codes(doc, check, json_flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matroid.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["matroid", str(path)] + check + json_flag)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@st.composite
def environment_documents(draw):
    """Environment documents of up to three dimensions: each field
    usually of its own type and shape, else missing or any JSON value;
    one coordinate is sometimes any JSON value, true or false more often
    than the rest."""
    dim = draw(st.integers(-1, 3))

    def vector():
        coords = draw(st.lists(NUMBERS, min_size=max(dim - 1, 0), max_size=max(dim + 1, 0)))
        if coords and draw(st.integers(0, 2)) == 0:
            coords[draw(st.integers(0, len(coords) - 1))] = draw(
                st.one_of(st.booleans(), JSON_VALUES))
        return coords

    own = {
        "dim": lambda: dim,
        "vectors": lambda: {name: vector() for name in draw(
            st.lists(st.sampled_from(["p", "q", "e1"]), max_size=2, unique=True))},
        "integral_scale": lambda: draw(NUMBERS),
    }
    doc = {}
    for field, value in own.items():
        shape = draw(st.sampled_from(["own"] * 5 + ["missing", "any"]))
        if shape != "missing":
            doc[field] = value() if shape == "own" else draw(JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(environment_documents(), st.sampled_from(["e1", "p", "p ^ q", "p & q", "*p"]))
def test_random_environment_documents_never_escape_the_exit_codes(doc, expression):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "env.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--env", str(path), "-e", expression])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
