"""Command-line front end: expression evaluation, straightening,
identity suites, and matroid checks.

Grammar (EBNF), tightest first; operators left-associative::

    expr     = additive ;
    additive = tensor { ("+" | "-") tensor } ;
    tensor   = meet { "#" meet } ;
    meet     = wedge { "&" wedge } ;
    wedge    = unary { "^" unary } ;
    unary    = "*" unary | "-" unary | primary ;
    primary  = NUMBER [ primary ]          (* adjacency scales *)
             | NAME
             | "(" NAME "|" INT ")"        (* letterplace atom *)
             | "(" expr ")"
             | "[" expr { "," expr } "]"   (* bracket of the wedge *)
             | "dia" "(" INT "," INT "," INT "," expr ")"
             | "bp" "(" NAME ";" [ INT ":" INT { "," INT ":" INT } ] ")" ;
    NUMBER   = INT [ "/" INT ] ;

Vectors named ``e1..en`` are bound to the unit coordinate vectors of
the ambient dimension; an environment file may bind further names.
Exit codes: 0 all checks passed, 1 some identity failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bitableau import (BitableauElement, StraighteningBudgetExceeded,
                        straighten)
from .cg_algebra import PeanoSpace, standard_basis
from .exterior import ExteriorElement, as_vector
from .identity_suite import SUITES, Report, run_suite
from .letterplace import LetterplaceElement
from .tensor_power import TensorPowerElement, diamond
from .whitney import (WhitneyElement, exchange_check, make_matroid,
                      wh_normal_form)
from .letterplace import expand_raw, polarize_divided


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


# -- tokens ------------------------------------------------------------

@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


_SYMBOLS = set("^&#()[],|:;*+-/")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------

class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse(self):
        node = self.additive()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().value!r}")
        return node

    def additive(self):
        node = self.tensor()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.tensor()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def tensor(self):
        node = self.meet()
        while self.peek().kind == "#":
            self.next()
            node = ("tensor", node, self.meet())
        return node

    def meet(self):
        node = self.wedge()
        while self.peek().kind == "&":
            self.next()
            node = ("meet", node, self.wedge())
        return node

    def wedge(self):
        node = self.unary()
        while self.peek().kind == "^":
            self.next()
            node = ("wedge", node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "*":
            self.next()
            return ("star", self.unary())
        if tok.kind == "-":
            self.next()
            return ("neg", self.unary())
        return self.primary()

    def _number(self) -> Fraction:
        tok = self.expect("int")
        num = int(tok.value)
        if self.peek().kind == "/":
            self.next()
            den = int(self.expect("int").value)
            return Fraction(num, den)
        return Fraction(num)

    def _int(self) -> int:
        return int(self.expect("int").value)

    def primary(self):
        tok = self.peek()
        if tok.kind == "int":
            value = self._number()
            if self.peek().kind in ("name", "(", "["):
                return ("scale", value, self.primary())
            return ("num", value)
        if tok.kind == "name":
            if tok.value == "dia" and self.peek(1).kind == "(":
                self.next()
                self.next()
                h = self._int()
                self.expect(",")
                j = self._int()
                self.expect(",")
                i = self._int()
                self.expect(",")
                body = self.additive()
                self.expect(")")
                return ("dia", h, j, i, body)
            if tok.value == "bp" and self.peek(1).kind == "(":
                self.next()
                self.next()
                word = self.expect("name").value
                self.expect(";")
                degrees = []
                while self.peek().kind == "int":
                    place = self._int()
                    self.expect(":")
                    degrees.append((place, self._int()))
                    if self.peek().kind == ",":
                        self.next()
                self.expect(")")
                return ("bp", word, tuple(degrees))
            self.next()
            return ("name", tok.value)
        if tok.kind == "(":
            if self.peek(1).kind == "name" and self.peek(2).kind == "|":
                self.next()
                letter = self.next().value
                self.next()
                place = self._int()
                self.expect(")")
                return ("lp", letter, place)
            self.next()
            node = self.additive()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.next()
            items = [self.additive()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.additive())
            self.expect("]")
            return ("bracket", items)
        self.fail(f"unexpected token {tok.value!r}")


def parse(text: str):
    return Parser(text).parse()


# -- evaluation --------------------------------------------------------

def _max_place(node) -> int:
    if isinstance(node, list):
        return max((_max_place(x) for x in node), default=1)
    if not isinstance(node, tuple) or not node:
        return 1
    if node[0] == "lp":
        return node[2]
    if node[0] == "bp":
        return max((p for p, _ in node[2]), default=1)
    return max((_max_place(x) for x in node[1:]
                if isinstance(x, (tuple, list))), default=1)


class Environment:
    """Name bindings and the ambient spaces used by the evaluator."""

    def __init__(self, dim: int = 3, vectors=None, integral_scale=1):
        self.dim = dim
        self.vectors: dict[str, tuple] = {}
        for i in range(1, dim + 1):
            self.vectors[f"e{i}"] = tuple(
                Fraction(int(j == i)) for j in range(1, dim + 1))
        for name, coords in (vectors or {}).items():
            v = as_vector(coords)
            if len(v) != dim:
                raise EvalError(f"vector {name} has length {len(v)}, dimension is {dim}")
            self.vectors[name] = v
        self.peano = PeanoSpace.standard(dim, Fraction(integral_scale))
        self.basis = standard_basis(dim)

    @classmethod
    def from_file(cls, path: str) -> "Environment":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(dim=int(doc.get("dim", 3)),
                   vectors=doc.get("vectors", {}),
                   integral_scale=Fraction(doc.get("integral_scale", "1")))


class Evaluator:
    def __init__(self, env: Environment, m: int = 1):
        self.env = env
        self.m = m

    def eval(self, node):
        kind = node[0]
        method = getattr(self, f"_eval_{kind}", None)
        if method is None:
            raise EvalError(f"cannot evaluate node {kind!r}")
        return method(node)

    def _eval_num(self, node):
        return node[1]

    def _eval_name(self, node):
        name = node[1]
        if name not in self.env.vectors:
            raise EvalError(f"unknown name {name!r}")
        return ExteriorElement.from_vector(self.env.vectors[name])

    def _eval_lp(self, node):
        _, letter, place = node
        if not (1 <= place <= self.m):
            raise EvalError(f"place {place} outside 1..{self.m}")
        return LetterplaceElement.generator(self.m, letter, place)

    def _eval_bp(self, node):
        _, word, degrees = node
        return BitableauElement.single(self.m, [(tuple(word), degrees)])

    def _eval_scale(self, node):
        _, value, body = node
        return self._scale(self.eval(body), value)

    def _scale(self, x, value: Fraction):
        if isinstance(x, Fraction):
            return value * x
        if x.ring is int and value.denominator != 1:
            raise EvalError("letterplace coefficients are integers")
        return x.scale(value)

    def _eval_neg(self, node):
        return self._scale(self.eval(node[1]), Fraction(-1))

    def _eval_add(self, node):
        return self._combine(self.eval(node[1]), self.eval(node[2]), 1)

    def _eval_sub(self, node):
        return self._combine(self.eval(node[1]), self.eval(node[2]), -1)

    def _combine(self, a, b, sign):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + sign * b
        if type(a) is not type(b):
            raise EvalError(
                f"cannot add {type(a).__name__} and {type(b).__name__}")
        return a + self._scale(b, Fraction(sign))

    def _eval_wedge(self, node):
        a, b = self.eval(node[1]), self.eval(node[2])
        if isinstance(a, Fraction):
            return self._scale(b, a)
        if isinstance(b, Fraction):
            return self._scale(a, b)
        if isinstance(a, ExteriorElement) and isinstance(b, ExteriorElement):
            return a.wedge(b)
        if isinstance(a, (LetterplaceElement, BitableauElement)) and type(a) is type(b):
            return a * b
        raise EvalError(
            f"cannot multiply {type(a).__name__} and {type(b).__name__}")

    def _eval_meet(self, node):
        a, b = self.eval(node[1]), self.eval(node[2])
        if not (isinstance(a, ExteriorElement) and isinstance(b, ExteriorElement)):
            raise EvalError("meet needs exterior elements")
        return self.env.peano.meet(a, b)

    def _eval_tensor(self, node):
        a, b = self.eval(node[1]), self.eval(node[2])
        folds = []
        for x in (a, b):
            if isinstance(x, TensorPowerElement):
                folds.append(x)
            elif isinstance(x, ExteriorElement):
                folds.append(TensorPowerElement.from_elements([x]))
            elif isinstance(x, Fraction):
                folds.append(TensorPowerElement.from_elements(
                    [x * ExteriorElement.unit(self.env.dim)]))
            else:
                raise EvalError("tensor separator needs exterior factors")
        left, right = folds
        out = {ka + kb: ca * cb for ka, ca in left.terms.items()
               for kb, cb in right.terms.items()}
        return TensorPowerElement(self.env.dim, left.m + right.m, out)

    def _eval_star(self, node):
        x = self.eval(node[1])
        if not isinstance(x, ExteriorElement):
            raise EvalError("star needs an exterior element")
        return self.env.basis.star(x)

    def _eval_bracket(self, node):
        acc = None
        for item in node[1]:
            x = self.eval(item)
            if not isinstance(x, ExteriorElement):
                raise EvalError("bracket needs exterior elements")
            acc = x if acc is None else acc.wedge(x)
        return self.env.peano.bracket_element(acc)

    def _eval_dia(self, node):
        _, h, j, i, body = node
        x = self.eval(body)
        if not isinstance(x, TensorPowerElement):
            raise EvalError("dia needs a tensor power element")
        return diamond(h, j, i, x)


def format_value(x) -> str:
    return str(x)


def evaluate_text(text: str, env: Environment):
    node = parse(text)
    return Evaluator(env, m=_max_place(node)).eval(node)


# -- commands ----------------------------------------------------------

def _report_output(reports: list[Report], as_json: bool, label: str, seed: int) -> int:
    failed = sum(1 for r in reports if not r.equal)
    if as_json:
        doc = {"suite": label, "seed": seed,
               "passed": len(reports) - failed, "failed": failed,
               "reports": [r.to_dict() for r in reports]}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for r in reports:
            print(r.line())
        print(f"{label}: {len(reports) - failed}/{len(reports)} passed (seed {seed})")
    return 0 if failed == 0 else 1


def cmd_eval(args) -> int:
    env = Environment.from_file(args.env) if args.env else Environment(dim=args.dim)
    value = evaluate_text(args.expression, env)
    print(format_value(value))
    return 0


def cmd_straighten(args) -> int:
    value = evaluate_text(args.expression, Environment(dim=3))
    if isinstance(value, LetterplaceElement):
        value = BitableauElement.from_letterplace(value)
    if not isinstance(value, BitableauElement):
        raise EvalError("straighten needs a product of biproducts")
    result = straighten(value, order=args.order, budget=args.budget)
    if result.to_letterplace() != value.to_letterplace():
        print("internal error: value not preserved", file=sys.stderr)
        return 1
    print(format_value(result))
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed)
    return _report_output(reports, args.json, args.suite, args.seed)


def cmd_matroid(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        matroid = make_matroid(json.load(fh))
    reports: list[Report] = []
    if args.check == "exchange":
        words = list(matroid.independent_sorted_words(args.max_word))
        for u in words:
            for v in words:
                ok = exchange_check(u, v, matroid)
                reports.append(Report(
                    "exchange-relation",
                    f"{matroid.name} u={''.join(u)} v={''.join(v)}",
                    "normal form 0 and oracle member" if ok else "mismatch",
                    "normal form 0 and oracle member", ok))
    elif args.check == "polarization":
        for word in matroid.dependent_sorted_words(args.max_degree):
            for first in range(len(word) + 1):
                deg = {1: first, 2: len(word) - first}
                gen = expand_raw(word, deg, 2)
                if not gen:
                    continue
                for h in range(0, args.max_degree + 1):
                    for (j, i) in ((1, 2), (2, 1)):
                        img = polarize_divided(h, j, i, gen)
                        ok = not wh_normal_form(WhitneyElement(matroid, img))
                        reports.append(Report(
                            "ideal-polarization-invariance",
                            f"{matroid.name} w={''.join(word)} deg={deg} h={h} D({j},{i})",
                            "0" if ok else "nonzero", "0", ok))
    else:
        raise EvalError(f"unknown matroid check {args.check!r}")
    return _report_output(reports, args.json, f"matroid-{args.check}", args.seed)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="extensor",
        description="Exact Grassmann-Cayley, letterplace, and Whitney algebra toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("-e", "--expression", required=True)
    p_eval.add_argument("--env", help="JSON file binding vector names")
    p_eval.add_argument("--dim", type=int, default=3)
    p_eval.set_defaults(func=cmd_eval)

    p_str = sub.add_parser("straighten", help="straighten a product of biproducts")
    p_str.add_argument("-e", "--expression", required=True)
    p_str.add_argument("--order", default="deglex", choices=("deglex", "revlex"))
    p_str.add_argument("--budget", type=int, default=10 ** 6)
    p_str.set_defaults(func=cmd_straighten)

    p_ver = sub.add_parser("verify", help="run an identity suite")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_mat = sub.add_parser("matroid", help="run checks over a matroid file")
    p_mat.add_argument("file")
    p_mat.add_argument("check", choices=("exchange", "polarization"))
    p_mat.add_argument("--max-word", type=int, default=3)
    p_mat.add_argument("--max-degree", type=int, default=4)
    p_mat.add_argument("--seed", type=int, default=0)
    p_mat.add_argument("--json", action="store_true")
    p_mat.set_defaults(func=cmd_matroid)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ZeroDivisionError as exc:
        print(f"error: division by zero in {exc}", file=sys.stderr)
        return 2
    except (ParseError, EvalError, OSError, json.JSONDecodeError, ValueError,
            StraighteningBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
