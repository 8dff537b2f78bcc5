"""Whitney algebras of matroids through their letterplace encoding.

The m-th Whitney algebra of a matroid is the quotient of the m-fold
tensor power of the free skew algebra on the ground set by the slices
of dependent words; under the place-regrouping isomorphism the defining
ideal is generated by the biproducts of dependent words.  The normal
form expands an element in the doubly standard basis and drops every
basis product that contains a dependent row.  The deletion is sound by
construction but not complete: some members of the ideal keep a
nonzero normal form, so the brute-force linear-algebra membership
oracle is the test of zero.  The oracle builds the echelon of each
letter and circuit pattern of ideal components once per
:class:`Matroid`, from the biproducts of the circuits, and keeps it on
the matroid, shared by every component with those patterns through an
order-preserving renaming of letters, so the echelons live as long as
the matroid does and their memory grows with the number of patterns
met, not of components.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import json
import operator
import random

from . import linalg
from .bitableau import BitableauElement, standard_expansion
# re-exported: the benchmark tests look it up as whitney.straighten
from .bitableau import straighten  # noqa: F401
from .exterior import as_vector, make_extensor
from .letterplace import (LetterplaceElement, _counts, _expand_biproduct,
                          _graded_components, _letter_pattern, _merge_monomials,
                          _renamed, _shared_echelon, _var_key, phi)
from .tensor_power import TensorPowerElement
from .tensorops import _product_terms
from .words import _compositions, merge_words, sort_word, word_slices

DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# the highest component degree the membership oracle builds an echelon for
MAX_ORACLE_DEGREE = 8


class NotARepresentation(ValueError):
    """The vector assignment breaks a dependency of the matroid."""


class Matroid:
    """An ordered ground set with a memoized rank oracle."""

    def __init__(self, ground: Sequence[str], rank_fn: Callable[[frozenset], int],
                 name: str = ""):
        self.ground = tuple(str(x) for x in ground)
        self._ground_set = frozenset(self.ground)
        if len(self._ground_set) != len(self.ground):
            raise ValueError("ground set has repeated letters")
        self.name = name or f"matroid({''.join(self.ground)})"
        self._rank_fn = rank_fn
        self._cache: dict[frozenset, int] = {}
        # circuits among each sorted letter tuple met; see _circuits
        self._circuits: dict[tuple, tuple] = {}
        # ideal component echelons of the membership oracle: one per
        # letter and dependence pattern, and the (renaming, echelon) of
        # each (place degrees, content, m) met; see _ideal_echelon
        self._pattern_echelons: dict[tuple, tuple] = {}
        self._ideal_echelons: dict[tuple, tuple] = {}
        self._spot_check()

    def rank(self, subset: Iterable[str]) -> int:
        key = frozenset(subset)
        r = self._cache.get(key)
        if r is None:
            if not key <= self._ground_set:
                raise ValueError(f"{sorted(key)} is not a subset of the ground set")
            r = self._cache[key] = int(self._rank_fn(key))
        return r

    def is_independent(self, subset: Iterable[str]) -> bool:
        s = frozenset(subset)
        return self.rank(s) == len(s)

    def is_independent_word(self, word: Sequence[str]) -> bool:
        # a repeated letter shrinks the set below the word's length
        return self.rank(word) == len(word)

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
        if n < 0:
            raise ValueError(f"uniform matroid size n = {n} must be at least 0")
        if not 0 <= k <= n:
            raise ValueError(f"uniform matroid rank k = {k} is outside 0..{n}")
        if letters is None:
            if n > len(DEFAULT_LETTERS):
                raise ValueError(f"only {len(DEFAULT_LETTERS)} default letters exist, "
                                 f"so n = {n} needs 'letters'")
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

        return cls(letters, rank_fn, name=f"linear({''.join(letters)})")


def make_matroid(doc: Mapping) -> Matroid:
    """Build a matroid from its document form.

    ``{"kind": "uniform", "n": 3, "k": 2}`` or
    ``{"kind": "linear", "letters": [...], "columns": [[...], ...]}``
    with rationals as numbers or strings, read exactly by
    :func:`linalg.rational`; ``letters`` is optional in both, a list of
    nonempty strings or a string of one-character letters.  A malformed
    document raises ValueError.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("a matroid document must be a JSON object")
    kind, letters = doc.get("kind"), doc.get("letters")
    if not isinstance(letters, (list, str, type(None))):
        raise ValueError("matroid field 'letters' must be a list")
    if isinstance(letters, list) and not all(isinstance(x, str) and x for x in letters):
        raise ValueError("matroid letters must be nonempty strings")
    if kind == "uniform":
        n, k = doc.get("n"), doc.get("k")
        if type(n) is not int or type(k) is not int:
            raise ValueError("matroid fields 'n' and 'k' must be integers")
        return Matroid.uniform(n, k, letters)
    if kind == "linear":
        cols = doc.get("columns")
        if not (isinstance(cols, list) and all(isinstance(c, list) for c in cols)):
            raise ValueError("matroid field 'columns' must be a list of lists")
        if letters is None:
            if len(cols) > len(DEFAULT_LETTERS):
                raise ValueError(f"only {len(DEFAULT_LETTERS)} default letters exist, "
                                 f"so {len(cols)} columns need 'letters'")
            letters = list(DEFAULT_LETTERS[:len(cols)])
        if len(letters) != len(cols) or len(set(letters)) != len(letters):
            raise ValueError("need one distinct letter per column")
        try:
            vecs = [[linalg.rational(c) for c in col] for col in cols]
        except TypeError as exc:
            raise ValueError(f"bad column entry: {exc}") from None
        return Matroid.linear(dict(zip(letters, vecs)))
    raise ValueError(f"unknown matroid kind {_json_text(kind)}")


def _json_text(value) -> str:
    """A value of a document read by ``cli.read_document`` as JSON text,
    its decimals, which the reader made exact rationals, written as
    decimals again."""
    if isinstance(value, Fraction):
        # imported here, off the start-up path of every command
        from decimal import Decimal, localcontext
        # exact: a decimal's denominator divides 10**k for some k up to
        # its bit length, so the quotient has fewer digits than this
        with localcontext() as ctx:
            ctx.prec = value.numerator.bit_length() + value.denominator.bit_length() + 1
            return str(Decimal(value.numerator) / value.denominator)
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}"
                               for k, v in value.items()) + "}"
    return json.dumps(value)


class WhitneyElement:
    """A letterplace representative of a Whitney algebra element.

    Equality is equality of normal forms over the same matroid: equal
    normal forms mean equal classes, but the normal form is not
    complete, so two equal classes can compare unequal (see
    :func:`wh_normal_form`).
    """

    __slots__ = ("matroid", "raw")

    def __init__(self, matroid: Matroid, raw: LetterplaceElement):
        letters = {x for mono in raw.num for x, _ in mono}
        if not letters <= set(matroid.ground):
            raise ValueError("element uses letters outside the ground set")
        self.matroid = matroid
        self.raw = raw

    @property
    def m(self) -> int:
        return self.raw.m

    def normal_form(self) -> BitableauElement:
        return wh_normal_form(self)

    def is_zero(self) -> bool:
        return not self.normal_form()

    def _combine(self, other, op):
        if not isinstance(other, WhitneyElement):
            return NotImplemented
        if self.matroid is not other.matroid:
            raise ValueError("elements of different Whitney algebras")
        return WhitneyElement(self.matroid, op(self.raw, other.raw))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        if isinstance(other, int):
            return WhitneyElement(self.matroid, self.raw.scale(other))
        return self._combine(other, operator.mul)

    # Python calls this only when the left operand is not a WhitneyElement,
    # so the product is a scaling by an int or refused
    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, WhitneyElement)
                and self.matroid is other.matroid
                and self.normal_form() == other.normal_form())

    def __repr__(self):
        return f"WhitneyElement({self.matroid.name}, {self.raw!r})"


def _drop_dead_rows(x: BitableauElement, matroid: Matroid) -> BitableauElement:
    """``x`` without the products that contain a dependent row."""
    return x._like({rows: c for rows, c in x.num.items()
                    if all(matroid.is_independent_word(r.word) for r in rows)})


def wh_normal_form(e: WhitneyElement,
                   components: dict | None = None) -> BitableauElement:
    """Expand in the doubly standard basis and delete every product
    that contains a dependent row; ``components``, when given, is the
    split of ``e.raw`` that :func:`standard_expansion` takes.

    Every deleted product contains a dependent-word biproduct, which is
    a generator of the defining ideal, so the class is preserved; the
    surviving products are the doubly standard products whose rows are
    all independent.  The deletion is sound, not complete: equal normal
    forms mean equal classes, but some members of the ideal keep a
    nonzero normal form, such as ``(bcf|1^3)(a|2)`` when ``bcf`` is
    dependent in rank 3.  :func:`ideal_membership_bruteforce` decides
    membership.
    """
    return _drop_dead_rows(standard_expansion(e.raw, components), e.matroid)


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
        yield tuple(sorted(seq, key=_var_key))


def _ideal_echelon(matroid: Matroid, pdeg_t: tuple, content_t: tuple,
                   m: int) -> tuple[dict | None, linalg.SparseEchelon]:
    """``(renaming, echelon)`` of the ideal component with place degrees
    ``pdeg_t`` and letter content ``content_t`` in m places.

    The component depends on its letters only through their order and
    which subsets of them are dependent, which its circuits fix, so the
    matroid keeps one echelon per letter pattern and circuit pattern, in
    ``_pattern_echelons``; ``renaming`` sends the component's letters
    onto that echelon's, in order, and is None when they are the same.
    ``_ideal_echelons`` keeps the pair per component, so each
    component's circuits are worked out once.  Both live as long as the
    matroid; callers only reduce against the echelon.
    """
    key = (pdeg_t, content_t, m)
    hit = matroid._ideal_echelons.get(key)
    if hit is None:
        pattern, letters = _letter_pattern(pdeg_t, content_t)
        circuits = _circuits(matroid, letters)
        hit = matroid._ideal_echelons[key] = _shared_echelon(
            matroid._pattern_echelons, (pattern, circuits), letters,
            lambda: _build_ideal_echelon(pdeg_t, content_t, m, circuits))
    return hit


def _circuits(matroid: Matroid, letters: Sequence[str]) -> tuple:
    """Index tuples of the circuits among the sorted ``letters``, the
    minimal dependent subsets, smallest first.  A subset that holds a
    circuit found before it is dependent and not minimal, so it is
    skipped without a rank query.  The matroid keeps the answer per
    letter tuple, which components of other place degrees share."""
    key = tuple(letters)
    hit = matroid._circuits.get(key)
    if hit is not None:
        return hit
    circuits, masks = [], []
    for size in range(1, len(letters) + 1):
        for sub in combinations(range(len(letters)), size):
            mask = sum(1 << i for i in sub)
            if any(c & mask == c for c in masks):
                continue
            if not matroid.is_independent(letters[i] for i in sub):
                circuits.append(sub)
                masks.append(mask)
    hit = matroid._circuits[key] = tuple(circuits)
    return hit


def _build_ideal_echelon(pdeg_t: tuple, content_t: tuple, m: int,
                         subsets: tuple) -> linalg.SparseEchelon:
    """The echelon of an ideal component, spanned by the monomial
    multiples of the biproducts of the words at the ``subsets`` index
    tuples of its sorted letters.  The oracle passes the circuits: a
    dependent word w holds a circuit C, and a biproduct of w is a signed
    sum of products of a biproduct of C with one of the rest of w, so
    every generator of w is a sum of monomial multiples of generators of
    C in the same component.  Each word is sorted and each generator
    degree is a :func:`words._compositions` split of its length over the
    component's own places, so the generators come straight from the
    biproduct expansion and a place the component does not use costs
    nothing."""
    content = dict(content_t)
    letters = [x for x, _ in content_t]
    echelon = linalg.SparseEchelon()
    for sub in subsets:
        wset = tuple(letters[i] for i in sub)
        rest_content = dict(content)
        for x in wset:
            rest_content[x] -= 1
        for comp in _compositions(len(wset), [q for _, q in pdeg_t]):
            gen_deg = tuple((p, r) for (p, _), r in zip(pdeg_t, comp) if r)
            gen = _expand_biproduct(wset, gen_deg, m).num
            rest_pdeg = {p: q - r for (p, q), r in zip(pdeg_t, comp)}
            for mono in _monomials_with(rest_content, rest_pdeg, m):
                # a product with one monomial maps distinct terms to
                # distinct terms, so nothing is summed and nothing cancels
                mult = _product_terms({mono: 1}, gen, _merge_monomials)
                if mult:
                    echelon.insert(mult)
    return echelon


def ideal_membership_bruteforce(e: LetterplaceElement, matroid: Matroid,
                                max_degree: int = MAX_ORACLE_DEGREE,
                                components: dict | None = None) -> bool:
    """Desk-scale membership oracle for the defining ideal.

    Splits the element by place multidegree and letter content, or
    takes that split as ``components``, spans each graded piece of the
    ideal by monomial multiples of the circuit biproducts, and decides
    membership by exact elimination.  Independent of the straightening
    route.

    Each ideal echelon is built once per matroid and letter and circuit
    pattern (see :func:`_ideal_echelon`) and lives as long as the
    matroid does, so the matroid's memory grows with the number of
    patterns the oracle has met, not of components.  Every component of
    ``e`` is checked against ``max_degree`` before any is looked up or
    built.  Like the normal form, it costs nothing per place that no
    component uses.
    """
    if components is None:
        components = _graded_components(e)
    for pdeg_t, _ in components:
        degree = sum(q for _, q in pdeg_t)
        if degree > max_degree:
            raise ValueError(f"component of degree {degree} exceeds the configured limit")
    for (pdeg_t, content_t), vec in components.items():
        renaming, echelon = _ideal_echelon(matroid, pdeg_t, content_t, e.m)
        if echelon.reduce(_renamed(vec, renaming)):
            return False
    return True


# -- exchange relations ------------------------------------------------

def exchange_sides(u: Sequence[str], v: Sequence[str],
                   matroid: Matroid) -> tuple[LetterplaceElement, LetterplaceElement]:
    """Both sides of the exchange relation for independent words u, v.

    With k the corank of the union, the left side sums u v2 in the
    first place against v1 in the second over the (k, q-k) slices of v;
    the right side sums u1 v against u2 over the (p-k, k) slices of u.
    :func:`_add_exchange_terms` writes them, each into its own dict.
    """
    lhs: dict = {}
    rhs: dict = {}
    _add_exchange_terms(u, v, matroid, lhs, rhs, 1)
    return LetterplaceElement._trusted(lhs, 1, 2), LetterplaceElement._trusted(rhs, 1, 2)


def _add_exchange_terms(u: Sequence[str], v: Sequence[str], matroid: Matroid,
                        left: dict, right: dict, sign: int) -> tuple:
    """Add the left side of the exchange relation for u, v into
    ``left`` and ``sign`` times its right side into ``right``, and return
    the one :func:`_graded_components` key of every monomial of both
    sides.  Keys that cancel stay at zero for the trusted constructor to
    drop.

    Both sides are alternating in the letters of u and of v, so u and v
    are sorted once, with their signs; each place-1 word is then one
    merge of sorted words and each place-2 word a slice of a sorted one.
    Every monomial has p+q-k letters in place 1, k in place 2 and the
    letters of u and v, so the key comes from p, q, k and the words.
    """
    u, v = tuple(u), tuple(v)
    for word in (u, v):
        if not matroid.is_independent_word(word):
            raise ValueError(f"word {''.join(word)} is not independent")
    p, q = len(u), len(v)
    k = p + q - matroid.rank(set(u) | set(v))
    su, u = sort_word(u)
    sv, v = sort_word(v)
    sign_uv = su * sv
    for s, (v1, v2) in word_slices(v, (k, q - k)):
        t, one = merge_words(u, v2)
        if t:
            mono = _two_places(one, v1)
            left[mono] = left.get(mono, 0) + sign_uv * s * t
    sign_uv *= sign
    for s, (u1, u2) in word_slices(u, (p - k, k)):
        t, one = merge_words(u1, v)
        if t:
            mono = _two_places(one, u2)
            right[mono] = right.get(mono, 0) + sign_uv * s * t
    places = tuple((place, n) for place, n in ((1, p + q - k), (2, k)) if n)
    return places, _counts(tuple(sorted(u + v)))


def _two_places(one: tuple, two: tuple) -> tuple:
    """The canonical monomial of sorted words in places 1 and 2."""
    return tuple([(x, 1) for x in one] + [(x, 2) for x in two])


def _exchange_difference(u: Sequence[str], v: Sequence[str],
                         matroid: Matroid) -> tuple[LetterplaceElement, dict]:
    """The left side minus the right side of the exchange relation for
    u, v, summed in one dict, and its split by place degrees and letter
    content: that dict as its one graded component, or ``{}`` when
    everything cancels."""
    terms: dict = {}
    key = _add_exchange_terms(u, v, matroid, terms, terms, -1)
    diff = LetterplaceElement._trusted(terms, 1, 2)
    return diff, ({key: diff.num} if diff.num else {})


def exchange_check(u: Sequence[str], v: Sequence[str], matroid: Matroid) -> bool:
    """Exchange relation verified through both the normal form and the
    oracle, which share the difference's one graded component from
    :func:`_exchange_difference`: nothing is subtracted or split."""
    diff, components = _exchange_difference(u, v, matroid)
    nf_zero = not wh_normal_form(WhitneyElement(matroid, diff), components)
    oracle = ideal_membership_bruteforce(diff, matroid, components=components)
    return nf_zero and oracle


# -- representation morphisms ------------------------------------------

def check_representation(matroid: Matroid, images: Mapping[str, Sequence]) -> dict:
    """The images of the ground set as vectors, checked to represent the
    matroid: ValueError on a letter without an image or on unequal
    lengths, NotARepresentation when a dependent set maps to independent
    vectors."""
    missing = [x for x in matroid.ground if x not in images]
    if missing:
        raise ValueError(f"no image for letter {missing[0]!r}")
    vecs = {x: as_vector(images[x]) for x in matroid.ground}
    lengths = sorted({len(v) for v in vecs.values()})
    if len(lengths) > 1:
        raise ValueError(f"images of unequal lengths {lengths}")
    for sub in matroid.dependent_sorted_words(matroid.full_rank() + 1):
        if linalg.rank([list(vecs[x]) for x in sub]) == len(sub):
            raise NotARepresentation(
                f"dependent set {''.join(sub)} maps to independent vectors")
    return vecs


def represent(images: Mapping[str, Sequence], e: WhitneyElement) -> TensorPowerElement:
    """The induced morphism into the tensor power of the exterior algebra.

    Sends a letter in place i to its vector in fold i; checked to
    respect the matroid's dependencies first, so the defining ideal
    maps to zero and the value only depends on the class of e.
    """
    vecs = check_representation(e.matroid, images)
    dim = len(next(iter(vecs.values()))) if vecs else 0
    return TensorPowerElement._pure_sum(
        ((c, [make_extensor([vecs[x] for x in w], dim) for w in key])
         for key, c in phi(e.raw).num.items()), dim, e.m)
