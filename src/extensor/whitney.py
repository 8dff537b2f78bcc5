"""Whitney algebras of matroids through their letterplace encoding.

The m-th Whitney algebra of a matroid is the quotient of the m-fold
tensor power of the free skew algebra on the ground set by the slices
of dependent words; under the place-regrouping isomorphism the defining
ideal is generated by the biproducts of dependent words.  Normal forms
straighten an element and drop every standard row product containing a
dependent row; soundness of the deletion holds by construction, and a
brute-force linear-algebra membership oracle cross-checks completeness
on every tested instance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import random

from . import linalg
from .bitableau import BitableauElement, standard_expansion, straighten
from .exterior import as_vector, make_extensor
from .letterplace import (LetterplaceElement, _graded_components, expand_raw,
                          phi)
from .tensor_power import TensorPowerElement
from .words import word_slices

DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class NotARepresentation(ValueError):
    """The vector assignment breaks a dependency of the matroid."""


class Matroid:
    """An ordered ground set with a memoized rank oracle."""

    def __init__(self, ground: Sequence[str], rank_fn: Callable[[frozenset], int],
                 name: str = ""):
        self.ground = tuple(str(x) for x in ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set has repeated letters")
        self.name = name or f"matroid({''.join(self.ground)})"
        self._rank_fn = rank_fn
        self._cache: dict[frozenset, int] = {}
        self._spot_check()

    def rank(self, subset: Iterable[str]) -> int:
        key = frozenset(subset)
        if not key <= set(self.ground):
            raise ValueError(f"{sorted(key)} is not a subset of the ground set")
        if key not in self._cache:
            self._cache[key] = int(self._rank_fn(key))
        return self._cache[key]

    def is_independent(self, subset: Iterable[str]) -> bool:
        s = frozenset(subset)
        return self.rank(s) == len(s)

    def is_independent_word(self, word: Sequence[str]) -> bool:
        w = tuple(word)
        return len(set(w)) == len(w) and self.is_independent(w)

    def full_rank(self) -> int:
        return self.rank(self.ground)

    def dependent_sorted_words(self, max_size: int | None = None):
        """Sorted words of dependent subsets, smallest first."""
        top = len(self.ground) if max_size is None else min(max_size, len(self.ground))
        for size in range(1, top + 1):
            for sub in combinations(self.ground, size):
                if not self.is_independent(sub):
                    yield sub

    def independent_sorted_words(self, max_size: int):
        for size in range(1, min(max_size, len(self.ground)) + 1):
            for sub in combinations(self.ground, size):
                if self.is_independent(sub):
                    yield sub

    def _spot_check(self, trials: int = 60):
        if self.rank(frozenset()) != 0:
            raise ValueError("rank of the empty set must be 0")
        rng = random.Random(0)
        ground = list(self.ground)
        for _ in range(trials):
            xs = frozenset(g for g in ground if rng.random() < 0.5)
            ys = frozenset(g for g in ground if rng.random() < 0.5)
            rx, ry = self.rank(xs), self.rank(ys)
            if self.rank(xs | ys) + self.rank(xs & ys) > rx + ry:
                raise ValueError("rank oracle is not submodular")
            extra = [g for g in ground if g not in xs]
            if extra:
                g = rng.choice(extra)
                rg = self.rank(xs | {g})
                if not (rx <= rg <= rx + 1):
                    raise ValueError("rank oracle is not unit-increasing")

    def __repr__(self):
        return f"Matroid({self.name!r})"

    @classmethod
    def uniform(cls, n: int, k: int, letters: Sequence[str] | None = None) -> "Matroid":
        if letters is None:
            letters = DEFAULT_LETTERS[:n]
        if len(letters) != n:
            raise ValueError("need one letter per element")
        return cls(letters, lambda s: min(len(s), k), name=f"U({n},{k})")

    @classmethod
    def linear(cls, columns: Mapping[str, Sequence]) -> "Matroid":
        letters = tuple(columns)
        vecs = {x: as_vector(columns[x]) for x in letters}
        dims = {len(v) for v in vecs.values()}
        if len(dims) > 1:
            raise ValueError("columns of unequal height")

        def rank_fn(subset: frozenset) -> int:
            return linalg.rank([list(vecs[x]) for x in sorted(subset)])

        mat = cls(letters, rank_fn, name=f"linear({''.join(letters)})")
        mat.columns = dict(vecs)
        return mat


def make_matroid(doc: Mapping) -> Matroid:
    """Build a matroid from its document form.

    ``{"kind": "uniform", "n": 3, "k": 2}`` or
    ``{"kind": "linear", "letters": [...], "columns": [[...], ...]}``
    with rationals as strings.
    """
    kind = doc.get("kind")
    if kind == "uniform":
        return Matroid.uniform(int(doc["n"]), int(doc["k"]),
                               doc.get("letters"))
    if kind == "linear":
        letters = doc.get("letters")
        cols = doc["columns"]
        if letters is None:
            letters = list(DEFAULT_LETTERS[:len(cols)])
        if len(letters) != len(cols):
            raise ValueError("letters and columns disagree in length")
        return Matroid.linear({x: [Fraction(c) for c in col]
                               for x, col in zip(letters, cols)})
    raise ValueError(f"unknown matroid kind {kind!r}")


class WhitneyElement:
    """A letterplace representative of a Whitney algebra element.

    Equality is equality of normal forms over the same matroid.
    """

    __slots__ = ("matroid", "raw")

    def __init__(self, matroid: Matroid, raw: LetterplaceElement):
        letters = {x for mono in raw.terms for x, _ in mono}
        if not letters <= set(matroid.ground):
            raise ValueError("element uses letters outside the ground set")
        self.matroid = matroid
        self.raw = raw

    @property
    def m(self) -> int:
        return self.raw.m

    def normal_form(self, order="deglex", budget: int = 10 ** 6) -> BitableauElement:
        return wh_normal_form(self, order=order, budget=budget)

    def is_zero(self) -> bool:
        return not self.normal_form()

    def __add__(self, other):
        if self.matroid is not other.matroid:
            raise ValueError("elements of different Whitney algebras")
        return WhitneyElement(self.matroid, self.raw + other.raw)

    def __sub__(self, other):
        if self.matroid is not other.matroid:
            raise ValueError("elements of different Whitney algebras")
        return WhitneyElement(self.matroid, self.raw - other.raw)

    def __mul__(self, other):
        if isinstance(other, int):
            return WhitneyElement(self.matroid, self.raw.scale(other))
        if self.matroid is not other.matroid:
            raise ValueError("elements of different Whitney algebras")
        return WhitneyElement(self.matroid, self.raw * other.raw)

    def __eq__(self, other):
        return (isinstance(other, WhitneyElement)
                and self.matroid is other.matroid
                and self.normal_form() == other.normal_form())

    def __repr__(self):
        return f"WhitneyElement({self.matroid.name}, {self.raw!r})"


def _row_is_dead(row, matroid: Matroid) -> bool:
    word = row.word
    if len(set(word)) != len(word):
        return True
    return not matroid.is_independent(word)


def _drop_dead_rows(x: BitableauElement, matroid: Matroid) -> BitableauElement:
    """``x`` without the products that contain a dependent row."""
    return x._like({rows: c for rows, c in x.terms.items()
                    if not any(_row_is_dead(r, matroid) for r in rows)})


def wh_normal_form(e: WhitneyElement, order="deglex",
                   budget: int = 10 ** 6) -> BitableauElement:
    """Straighten, delete dependent rows, and express what is left in
    the doubly standard basis, deleting dependent rows once more.

    Every deleted product contains a dependent-word biproduct, which is
    a generator of the defining ideal, so the class is preserved; the
    word-side rewrite alone can park ideal mass in products whose rows
    are all independent, which the final basis expansion flushes out.
    Two elements are declared equal exactly when their normal forms
    coincide.
    """
    b = BitableauElement.from_letterplace(e.raw)
    s = straighten(b, order=order, budget=budget)
    residue = _drop_dead_rows(s, e.matroid).to_letterplace()
    return _drop_dead_rows(standard_expansion(residue), e.matroid)


# -- brute-force ideal membership -------------------------------------

def _monomials_with(content: dict[str, int], pdeg: dict[int, int], m: int):
    """Canonical monomials with the exact letter content and place degrees."""
    letters = sorted(x for x, c in content.items() if c)
    caps = {p: q for p, q in pdeg.items() if q}

    def rec(i, caps):
        if i == len(letters):
            if not any(caps.values()):
                yield []
            return
        x = letters[i]
        cnt = content[x]
        avail = sorted(p for p, q in caps.items() if q > 0)
        for places in combinations(avail, cnt):
            nxt = dict(caps)
            for p in places:
                nxt[p] -= 1
            for tail in rec(i + 1, nxt):
                yield [(x, p) for p in places] + tail

    for seq in rec(0, caps):
        vars_sorted = tuple(sorted(((x, p) for x, p in seq), key=lambda v: (v[1], v[0])))
        yield vars_sorted


def ideal_membership_bruteforce(e: LetterplaceElement, matroid: Matroid,
                                max_degree: int = 8) -> bool:
    """Desk-scale membership oracle for the defining ideal.

    Splits the element by place multidegree and letter content, spans
    each graded piece of the ideal by monomial multiples of the
    dependent-word biproducts, and decides membership by exact
    elimination.  Independent of the straightening route.
    """
    m = e.m
    if not e:
        return True
    for (pdeg_t, content_t), vec in _graded_components(e).items():
        pdeg = dict(pdeg_t)
        content = dict(content_t)
        degree = sum(pdeg.values())
        if degree > max_degree:
            raise ValueError(f"component of degree {degree} exceeds the configured limit")
        support = [x for x, c in content.items() if c]
        echelon = linalg.SparseEchelon()
        for size in range(1, degree + 1):
            for wset in combinations(sorted(support), size):
                if matroid.is_independent(wset):
                    continue
                rest_content = dict(content)
                for x in wset:
                    rest_content[x] -= 1
                if any(c < 0 for c in rest_content.values()):
                    continue
                for comp in _compositions(size, m):
                    gen_deg = {p + 1: q for p, q in enumerate(comp) if q}
                    if any(gen_deg.get(p, 0) > pdeg.get(p, 0) for p in gen_deg):
                        continue
                    gen = expand_raw(wset, gen_deg, m)
                    if not gen:
                        continue
                    rest_pdeg = {p: pdeg.get(p, 0) - gen_deg.get(p, 0)
                                 for p in range(1, m + 1)}
                    for mono in _monomials_with(rest_content, rest_pdeg, m):
                        mult = LetterplaceElement(m, {mono: 1}) * gen
                        if mult:
                            echelon.insert(mult.terms)
        if echelon.reduce(vec):
            return False
    return True


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- exchange relations ------------------------------------------------

def exchange_sides(u: Sequence[str], v: Sequence[str],
                   matroid: Matroid) -> tuple[LetterplaceElement, LetterplaceElement]:
    """Both sides of the exchange relation for independent words u, v.

    With k the corank of the union, the left side sums u v2 in the
    first place against v1 in the second over the (k, q-k) slices of v;
    the right side sums u1 v against u2 over the (p-k, k) slices of u.
    """
    u, v = tuple(u), tuple(v)
    for word in (u, v):
        if not matroid.is_independent_word(word):
            raise ValueError(f"word {''.join(word)} is not independent")
    p, q = len(u), len(v)
    k = p + q - matroid.rank(set(u) | set(v))
    lhs = LetterplaceElement.zero(2)
    for sign, (v1, v2) in word_slices(v, (k, q - k)):
        seq = [(x, 1) for x in u + v2] + [(x, 2) for x in v1]
        lhs = lhs + LetterplaceElement.from_vars(2, seq, sign)
    rhs = LetterplaceElement.zero(2)
    for sign, (u1, u2) in word_slices(u, (p - k, k)):
        seq = [(x, 1) for x in u1 + v] + [(x, 2) for x in u2]
        rhs = rhs + LetterplaceElement.from_vars(2, seq, sign)
    return lhs, rhs


def exchange_check(u: Sequence[str], v: Sequence[str], matroid: Matroid) -> bool:
    """Exchange relation verified through both the normal form and the oracle."""
    lhs, rhs = exchange_sides(u, v, matroid)
    diff = lhs - rhs
    nf_zero = not wh_normal_form(WhitneyElement(matroid, diff))
    oracle = ideal_membership_bruteforce(diff, matroid)
    return nf_zero and oracle


# -- representation morphisms ------------------------------------------

def check_representation(matroid: Matroid, images: Mapping[str, Sequence]) -> None:
    """Raise unless every dependency of the matroid maps to one of vectors."""
    vecs = {x: as_vector(images[x]) for x in matroid.ground}
    rank_cap = matroid.full_rank() + 1
    for size in range(1, min(rank_cap, len(matroid.ground)) + 1):
        for sub in combinations(matroid.ground, size):
            if matroid.is_independent(sub):
                continue
            if linalg.rank([list(vecs[x]) for x in sub]) == len(sub):
                raise NotARepresentation(
                    f"dependent set {''.join(sub)} maps to independent vectors")


def represent(images: Mapping[str, Sequence], e: WhitneyElement) -> TensorPowerElement:
    """The induced morphism into the tensor power of the exterior algebra.

    Sends a letter in place i to its vector in fold i; checked to
    respect the matroid's dependencies first, so the defining ideal
    maps to zero and the value only depends on the class of e.
    """
    check_representation(e.matroid, images)
    vecs = {x: as_vector(images[x]) for x in e.matroid.ground}
    dim = len(next(iter(vecs.values()))) if vecs else 0
    m = e.m
    out = TensorPowerElement.zero(dim, m)
    for key, c in phi(e.raw).terms.items():
        factors = [make_extensor([vecs[x] for x in w], dim) for w in key]
        out = out + TensorPowerElement.from_elements(factors).scale(c)
    return out
