"""The free skew-symmetric letterplace algebra over the integers.

Generators are letterplace variables (x|i) with x a letter and i a
place in 1..m; any two generators anticommute and squares vanish, so
the square-free monomials in the canonical place-major order form a
Z-basis.  Place polarizations move variables between places; their
divided powers act on biproducts with integer coefficients.  The map
:func:`phi` regroups a monomial by place into the m-fold tensor power
of the free skew algebra on the letters and is a Z-algebra isomorphism
intertwining divided polarizations with the geometric products there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from . import tensorops
from .tensorops import IntegerTerms
from .words import sort_with_sign, word_slices

LPVar = tuple[str, int]          # (letter, place)
LPMonomial = tuple[LPVar, ...]   # canonical order: place-major, then letter
LetterWord = tuple[str, ...]


def _var_key(v: LPVar):
    return (v[1], v[0])


def lp_normalize(seq: Iterable[LPVar]):
    """Canonical form of a product of generators.

    Returns ``(sign, monomial)`` with the monomial sorted place-major
    then by letter; the sign is the sorting parity, 0 on a repeated
    variable.
    """
    items = tuple((str(x), int(i)) for x, i in seq)
    sign, srt = sort_with_sign(tuple(_var_key(v) for v in items))
    if sign == 0:
        return 0, ()
    return sign, tuple((x, i) for i, x in srt)


class LetterplaceElement(IntegerTerms):
    """Integer combination of square-free letterplace monomials."""

    __slots__ = ()

    def _valid_key(self, mono) -> LPMonomial:
        key = tuple((str(x), int(i)) for x, i in mono)
        keys = [_var_key(v) for v in key]
        if any(a >= b for a, b in zip(keys, keys[1:])) or len(set(key)) != len(key):
            raise ValueError(f"monomial {key} is not canonical")
        if any(i < 1 or i > self.m for _, i in key):
            raise ValueError(f"place out of range in {key}")
        return key

    @staticmethod
    def _key_str(mono) -> str:
        return "^".join(f"({x}|{i})" for x, i in mono) if mono else "1"

    @classmethod
    def generator(cls, m: int, letter: str, place: int) -> "LetterplaceElement":
        return cls(m, {((letter, place),): 1})

    @classmethod
    def from_vars(cls, m: int, seq: Iterable[LPVar], coeff: int = 1) -> "LetterplaceElement":
        sign, mono = lp_normalize(seq)
        if sign == 0:
            return cls.zero(m)
        return cls(m, {mono: sign * coeff})

    def __mul__(self, other):
        if not isinstance(other, LetterplaceElement):
            return self.scale(other)
        self._check(other)
        out: dict[LPMonomial, int] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                sign, mono = lp_normalize(u + v)
                if sign == 0:
                    continue
                out[mono] = out.get(mono, 0) + sign * cu * cv
        return self._like(out)


def _graded_components(e: LetterplaceElement) -> dict:
    """The terms of ``e`` by (place degrees, letter content), each key
    a sorted tuple of ``(place or letter, count)`` pairs."""
    components: dict[tuple, dict] = {}
    for mono, c in e.terms.items():
        pdeg: dict[int, int] = {}
        content: dict[str, int] = {}
        for x, i in mono:
            pdeg[i] = pdeg.get(i, 0) + 1
            content[x] = content.get(x, 0) + 1
        key = (tuple(sorted(pdeg.items())), tuple(sorted(content.items())))
        components.setdefault(key, {})[mono] = c
    return components


def polarize(k: int, h: int, e: LetterplaceElement) -> LetterplaceElement:
    """Place polarization from place h to place k, a derivation.

    Sends each occurrence of (x|h) in a monomial to (x|k) in place,
    summed over occurrences, then renormalizes.  k == h counts the
    place-h variables.
    """
    if not (1 <= k <= e.m and 1 <= h <= e.m):
        raise ValueError("place out of range")
    out = LetterplaceElement.zero(e.m)
    for mono, c in e.terms.items():
        for pos, (letter, place) in enumerate(mono):
            if place != h:
                continue
            seq = list(mono)
            seq[pos] = (letter, k)
            out = out + LetterplaceElement.from_vars(e.m, seq, c)
    return out


def polarize_divided(h: int, j: int, i: int, e: LetterplaceElement) -> LetterplaceElement:
    """Divided power of the place polarization from place i to place j.

    Moves every h-subset of the place-i variables of a monomial to
    place j; this equals the h-th iterate divided by h! while staying
    integral.  h = 0 is the identity.
    """
    if i == j:
        raise ValueError("divided powers need distinct places")
    if h < 0:
        raise ValueError("negative power")
    if not (1 <= i <= e.m and 1 <= j <= e.m):
        raise ValueError("place out of range")
    if h == 0:
        return e
    out = LetterplaceElement.zero(e.m)
    for mono, c in e.terms.items():
        positions = [p for p, (_, place) in enumerate(mono) if place == i]
        if len(positions) < h:
            continue
        for chosen in combinations(positions, h):
            seq = list(mono)
            for p in chosen:
                seq[p] = (seq[p][0], j)
            out = out + LetterplaceElement.from_vars(e.m, seq, c)
    return out


# -- biproducts ------------------------------------------------------

@dataclass(frozen=True)
class Biproduct:
    """A word with a place multidegree, e.g. (xy|1^(1) 2^(1)).

    Stored with the word strictly increasing and the places sorted;
    use :func:`make_biproduct` to build one from raw data.
    """

    word: LetterWord
    degrees: tuple[tuple[int, int], ...]   # (place, exponent), exponents > 0

    @property
    def is_unit(self) -> bool:
        return not self.word and not self.degrees

    def sort_key(self):
        return (self.word, self.degrees)

    def __str__(self):
        word = "".join(self.word)
        degs = ", ".join(f"{p}:{q}" for p, q in self.degrees)
        return f"bp({word}; {degs})" if degs else f"bp({word};)"


def make_biproduct(word: Sequence[str], degrees) -> tuple[int, Biproduct | None]:
    """Normalize a biproduct, extracting the letter-sorting sign.

    Returns ``(sign, biproduct)``; ``(0, None)`` when the value is zero
    because a letter repeats or the word length misses the total place
    degree.
    """
    if isinstance(degrees, dict):
        degrees = tuple(degrees.items())
    degs = tuple(sorted((int(p), int(q)) for p, q in degrees if int(q) != 0))
    if any(q < 0 for _, q in degs):
        raise ValueError("negative exponent in a biproduct")
    places = [p for p, _ in degs]
    if len(set(places)) != len(places):
        raise ValueError("repeated place in a biproduct")
    sign, srt = sort_with_sign(tuple(str(x) for x in word))
    if sign == 0:
        return 0, None
    if len(srt) != sum(q for _, q in degs):
        return 0, None
    return sign, Biproduct(srt, degs)


@lru_cache(maxsize=None)
def _expand_biproduct(word: LetterWord, degrees, m: int) -> LetterplaceElement:
    sizes = tuple(q for _, q in degrees)
    places = tuple(p for p, _ in degrees)
    out = LetterplaceElement.zero(m)
    for sign, blocks in word_slices(word, sizes):
        seq = [(x, places[t]) for t, block in enumerate(blocks) for x in block]
        out = out + LetterplaceElement.from_vars(m, seq, sign)
    return out


def biproduct_expand(b: Biproduct, m: int) -> LetterplaceElement:
    """Expand a biproduct over all slices of its word.

    The single-place case is the plain product of generators; the unit
    biproduct expands to 1.
    """
    if any(p > m for p, _ in b.degrees):
        raise ValueError("biproduct place outside 1..m")
    if b.is_unit:
        return LetterplaceElement.unit(m)
    return _expand_biproduct(b.word, b.degrees, m)


def expand_raw(word: Sequence[str], degrees, m: int) -> LetterplaceElement:
    """Expand possibly unnormalized biproduct data, zero included."""
    sign, bp = make_biproduct(word, degrees)
    if bp is None:
        return LetterplaceElement.zero(m)
    return biproduct_expand(bp, m).scale(sign)


# -- the place-regrouping isomorphism --------------------------------

class FreeTensorElement(IntegerTerms):
    """Integer element of the m-fold tensor power of the free skew algebra."""

    __slots__ = ()
    _sort_key = staticmethod(tensorops.fold_sort_key)

    def _valid_key(self, key) -> tuple[LetterWord, ...]:
        k = tuple(tuple(str(x) for x in w) for w in key)
        if len(k) != self.m:
            raise ValueError(f"key {k} does not have {self.m} folds")
        for w in k:
            if any(a >= b for a, b in zip(w, w[1:])):
                raise ValueError(f"fold word {w} is not strictly increasing")
        return k

    @staticmethod
    def _key_str(key) -> str:
        return " # ".join("".join(w) if w else "1" for w in key)

    @classmethod
    def unit(cls, m):
        return cls(m, {((),) * m: 1})

    def __mul__(self, other):
        if not isinstance(other, FreeTensorElement):
            return self.scale(other)
        self._check(other)
        return self._like(tensorops.graded_product_terms(self.terms, other.terms))


def ft_diamond(h: int, j: int, i: int, t: FreeTensorElement) -> FreeTensorElement:
    """The formal geometric product on the free tensor power."""
    return t._like(tensorops.diamond_terms(t.terms, h, j, i, t.m))


def phi(e: LetterplaceElement) -> FreeTensorElement:
    """Regroup each monomial by place into a pure tensor.

    Sign-free on canonical monomials because the canonical order is
    place-major.
    """
    out: dict[tuple[LetterWord, ...], int] = {}
    for mono, c in e.terms.items():
        folds = [[] for _ in range(e.m)]
        for letter, place in mono:
            folds[place - 1].append(letter)
        key = tuple(tuple(f) for f in folds)
        out[key] = out.get(key, 0) + c
    return FreeTensorElement._trusted(out, e.m)


def phi_inv(t: FreeTensorElement) -> LetterplaceElement:
    out: dict[LPMonomial, int] = {}
    for key, c in t.terms.items():
        mono = tuple((x, i) for i, w in enumerate(key, start=1) for x in w)
        out[mono] = out.get(mono, 0) + c
    return LetterplaceElement._trusted(out, t.m)
