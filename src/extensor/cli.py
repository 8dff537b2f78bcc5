"""Command-line front end: expression evaluation, straightening,
identity suites, and matroid checks.

Grammar (EBNF), loosest first; operators left-associative::

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
    INT      = digit { digit } ;           (* ASCII 0-9 only *)
    NAME     = ( letter | "_" ) { alnum | "_" } ;  (* Unicode letters and numerals *)

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
from functools import cache, cached_property

from .bitableau import (BitableauElement, StraighteningBudgetExceeded,
                        straighten)
from .cg_algebra import PeanoSpace, standard_basis
from .exterior import ExteriorElement, as_vector
from .identity_suite import SUITES, Report, run_suite
from .linalg import rational
from .letterplace import LetterplaceElement
from .tensor_power import TensorPowerElement, diamond
from .tensorops import _concat, _product_terms
from .whitney import (MAX_ORACLE_DEGREE, WhitneyElement, exchange_check,
                      make_matroid, wh_normal_form)
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
    pos: int  # offset into the text


_SYMBOLS = set("^&#()[],|:;*+-/")


def _position(text: str, pos: int) -> tuple[int, int]:
    """The 1-based (line, column) of the offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", *_position(text, i))
    tokens.append(Token("end", "", len(text)))
    return tokens


# -- parser ------------------------------------------------------------

# Nesting levels a parse may open.  A level costs about six interpreter
# frames, well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


# Binary operators by precedence level, loosest first, each mapped to
# its node; every level is left-associative.
_LEVELS = ({"+": "add", "-": "sub"}, {"#": "tensor"}, {"&": "meet"}, {"^": "wedge"})


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

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
                             *_position(self.text, tok.pos))
        return tok

    def fail(self, message):
        raise ParseError(message, *_position(self.text, self.peek().pos))

    def parse(self):
        node = self.binary()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().value!r}")
        return node

    def binary(self, level=0):
        """A chain of the operators of ``_LEVELS[level]`` over operands
        of the tighter levels; below the tightest level is ``unary``."""
        ops = _LEVELS[level]
        last = level == len(_LEVELS) - 1
        node = self.unary() if last else self.binary(level + 1)
        while self.peek().kind in ops:
            op = ops[self.next().kind]
            node = (op, node, self.unary() if last else self.binary(level + 1))
        return node

    def unary(self):
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        tok = self.peek()
        if tok.kind in ("*", "-"):
            self.next()
            node = ("star" if tok.kind == "*" else "neg", self.unary())
        else:
            node = self.primary()
        self.depth -= 1
        return node

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
                body = self.binary()
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
            node = self.binary()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.next()
            items = [self.binary()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.binary())
            self.expect("]")
            return ("bracket", items)
        self.fail(f"unexpected token {tok.value!r}")


def parse(text: str):
    return Parser(text).parse()


# -- evaluation --------------------------------------------------------

def _max_place(node) -> int:
    """The largest place named in the tree; 1 where a subtree names none."""
    places, stack = [], [node]
    while stack:
        x = stack.pop()
        if x[0] == "lp":
            places.append(x[2])
        elif x[0] == "bp":
            places.append(max((p for p, _ in x[2]), default=1))
        else:
            children = [y for y in (x if isinstance(x, list) else x[1:])
                        if isinstance(y, (tuple, list))]
            stack.extend(children)
            if not children:
                places.append(1)
    return max(places)


# Largest ambient dimension.  The environment builds dim unit vectors
# up front, and a star substitutes each new word's complement twice: a
# vector with dim nonzero coordinates takes 0.03-0.07 s at 64 and 2.0-2.3 s
# at 256 (Python 3.11.7, 2-vCPU x86_64).
MAX_DIM = 64


class Environment:
    """Name bindings and the ambient spaces used by the evaluator.

    The unit vectors and the Peano space are built at construction, so a
    bad dimension, vector or integral scale is refused before any
    evaluation; the basis behind ``*x`` is built on the first star.
    """

    def __init__(self, dim: int = 3, vectors=None, integral_scale=1):
        if not 0 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} is outside 0..{MAX_DIM}")
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

    @cached_property
    def basis(self):
        return standard_basis(self.dim)

    @classmethod
    def from_file(cls, path: str) -> "Environment":
        """Read ``{"dim": 3, "vectors": {"p": ["1/2", 0.5, 1]},
        "integral_scale": "1"}``, every field optional.  A malformed
        document raises ValueError."""
        doc = read_document(path)
        if not isinstance(doc, dict):
            raise ValueError("an environment document must be a JSON object")
        dim, vectors = doc.get("dim", 3), doc.get("vectors", {})
        scale = doc.get("integral_scale", "1")
        if type(dim) is not int:
            raise ValueError("environment field 'dim' must be an integer")
        if not (isinstance(vectors, dict)
                and all(isinstance(v, list) for v in vectors.values())):
            raise ValueError("environment field 'vectors' must map names to lists")
        if type(scale) not in (str, int, Fraction):
            raise ValueError("environment field 'integral_scale' must be a string or a number")
        try:
            vectors = {name: [rational(c) for c in v] for name, v in vectors.items()}
            return cls(dim, vectors, rational(scale))
        except TypeError as exc:
            raise ValueError(f"bad environment entry: {exc}") from None


def read_document(path: str):
    """The JSON document in ``path``, its decimal literals read as exact
    rationals by :func:`linalg.rational`; ``NaN``, ``Infinity`` and
    ``-Infinity`` are refused with ValueError."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_float=rational, parse_constant=_non_finite)


def _non_finite(token: str):
    raise ValueError(f"{token} is not a finite number")


# binary operator nodes, ("add", left, right) and so on
_BINARY = frozenset(name for ops in _LEVELS for name in ops.values())


class Evaluator:
    def __init__(self, env: Environment, m: int = 1):
        self.env = env
        self.m = m

    def eval(self, node):
        # a left-nested chain such as a + b + c is walked down its left
        # spine and folded back up, so its length costs no recursion
        spine = []
        while node[0] in _BINARY:
            spine.append(node)
            node = node[1]
        method = getattr(self, f"_eval_{node[0]}", None)
        if method is None:
            raise EvalError(f"cannot evaluate node {node[0]!r}")
        value = method(node)
        for kind, _, right in reversed(spine):
            value = getattr(self, f"_op_{kind}")(value, self.eval(right))
        return value

    def _eval_num(self, node):
        return node[1]

    def _eval_name(self, node):
        name = node[1]
        if name not in self.env.vectors:
            raise EvalError(f"unknown name {name!r}")
        return ExteriorElement.from_vector(self.env.vectors[name])

    def _eval_lp(self, node):
        _, letter, place = node
        self._check_place(place)
        return LetterplaceElement.generator(self.m, letter, place)

    def _eval_bp(self, node):
        _, word, degrees = node
        for place, _ in degrees:
            self._check_place(place)
        return BitableauElement.single(self.m, [(tuple(word), degrees)])

    def _check_place(self, place: int):
        if place < 1:
            raise EvalError(f"place {place}: places start at 1")
        if place > self.m:
            raise EvalError(f"place {place} outside 1..{self.m}")

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

    def _op_add(self, a, b):
        return self._combine(a, b, 1)

    def _op_sub(self, a, b):
        return self._combine(a, b, -1)

    def _combine(self, a, b, sign):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + sign * b
        if type(a) is not type(b):
            raise EvalError(
                f"cannot add {type(a).__name__} and {type(b).__name__}")
        return a + self._scale(b, Fraction(sign))

    def _op_wedge(self, a, b):
        if isinstance(a, Fraction):
            return self._scale(b, a)
        if isinstance(b, Fraction):
            return self._scale(a, b)
        if type(a) is type(b) and not isinstance(a, TensorPowerElement):
            return a * b
        raise EvalError(
            f"cannot multiply {type(a).__name__} and {type(b).__name__}")

    def _op_meet(self, a, b):
        if not (isinstance(a, ExteriorElement) and isinstance(b, ExteriorElement)):
            raise EvalError("meet needs exterior elements")
        return self.env.peano.meet(a, b)

    def _op_tensor(self, a, b):
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
        return TensorPowerElement._trusted(_product_terms(left.num, right.num, _concat),
                                           left.den * right.den, self.env.dim,
                                           left.m + right.m)

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
    print(value)
    return 0


def cmd_straighten(args) -> int:
    if args.budget < 0:
        raise EvalError(f"--budget must be at least 0, got {args.budget}")
    value = evaluate_text(args.expression, Environment(dim=3))
    if isinstance(value, LetterplaceElement):
        value = BitableauElement.from_letterplace(value)
    if not isinstance(value, BitableauElement):
        raise EvalError("straighten needs a product of biproducts")
    result = straighten(value, budget=args.budget)
    if result.to_letterplace() != value.to_letterplace():
        print("internal error: value not preserved", file=sys.stderr)
        return 1
    print(result)
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed)
    return _report_output(reports, args.json, args.suite, args.seed)


def cmd_matroid(args) -> int:
    for option, value in (("--max-word", args.max_word), ("--max-degree", args.max_degree)):
        if value < 0:
            raise EvalError(f"{option} must be at least 0, got {value}")
    matroid = make_matroid(read_document(args.file))
    reports: list[Report] = []
    if args.check == "exchange":
        words = list(matroid.independent_sorted_words(args.max_word))
        # a pair of words makes components of degree up to its total length
        degree = 2 * max(map(len, words), default=0)
        if degree > MAX_ORACLE_DEGREE:
            raise EvalError(f"--max-word {args.max_word} pairs words into components "
                            f"of degree {degree}, above the oracle's limit "
                            f"{MAX_ORACLE_DEGREE}")
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


class _ArgumentParser(argparse.ArgumentParser):
    """Bad arguments as one ``error:`` line, like every other usage error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    keeps no state in it, each call gets a fresh namespace."""
    ap = _ArgumentParser(
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


def _take_expression(argv: list):
    """``(argv, expression)``: the value of the last ``-e X``, ``-eX``,
    ``--expression X`` or ``--expression=X`` (or an abbreviation such as
    ``--expr``) of ``eval`` and ``straighten``, which argparse sees as
    ``--expression=``.  argparse would take a value starting with ``-``
    (say ``-e1``) for an option, and some versions drop a ``--`` value."""
    if argv[:1] not in (["eval"], ["straighten"]):
        return argv, None
    out, expression = argv[:1], None
    rest = iter(argv[1:])
    for token in rest:
        if token[:2] == "--":
            name, eq, value = token.partition("=")
        else:
            name, eq, value = token[:2], token[2:], token[2:].removeprefix("=")
        if name == "-e" or (len(name) > 3 and "--expression".startswith(name)):
            if not eq:
                value = next(rest, None)
            if value is not None:
                expression, token = value, "--expression="
        out.append(token)
    return out, expression


def main(argv=None) -> int:
    ap = build_parser()
    argv, expression = _take_expression(sys.argv[1:] if argv is None else list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if expression is not None:
        args.expression = expression
    try:
        return args.func(args)
    except ZeroDivisionError as exc:
        print(f"error: division by zero in {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, StraighteningBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
