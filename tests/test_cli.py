import json

import pytest

from extensor.cli import (Environment, EvalError, ParseError, evaluate_text,
                          main, parse)
from extensor.exterior import ExteriorElement


ENV3 = Environment(dim=3)


def ev(text, env=ENV3):
    return evaluate_text(text, env)


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

    def test_straighten_command(self, capsys):
        code = main(["straighten", "-e", "bp(cd; 1:2) ^ bp(ab; 1:1, 2:1)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bp(" in out

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

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["matroid", "nosuch.json", "exchange"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["eval", "-e", "bp(ab; 1:1, 1:1)"], "repeated place in a biproduct"),
        (["straighten", "--budget", "1", "-e",
          "bp(cd; 1:2) ^ bp(ab; 1:1, 2:1) ^ bp(ef; 1:1, 2:1)"],
         "no fixed point within 1 steps"),
        (["eval", "-e", "1/0 e1"], "division by zero"),
    ])
    def test_bad_input_is_one_line_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
