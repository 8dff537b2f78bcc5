"""The free skew-symmetric letterplace algebra over the integers.

Generators are letterplace variables (x|i) with x a letter and i a
place in 1..m; any two generators anticommute and squares vanish, so
the square-free monomials in the canonical place-major order form a
Z-basis.  The product is ``SparseTerms.__mul__`` over
``tensorops._product_terms``, with one merge of two place-major
monomials as this class's ``_merge``.  The map :func:`phi` regroups a
monomial by place into the m-fold tensor power of the free skew algebra
on the letters, a ``TensorPowerElement`` on letter folds with
``den == 1``; it is a Z-algebra isomorphism onto the integral elements,
and :func:`phi_inv` maps back and refuses any other element.  Place
polarizations move variables between places, and their divided powers
act on biproducts with integer coefficients.  They are the geometric
products: each regroups the numerators by place, runs
``tensorops.diamond_terms`` on them and regroups back, so ``phi``
intertwines them with :func:`~extensor.tensor_power.diamond` by
construction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .tensor_power import TensorPowerElement
from .tensorops import IntegerTerms, _sum_terms, diamond_terms
from .words import sort_with_sign, word_slices

LPVar = tuple[str, int]          # (letter, place)
LPMonomial = tuple[LPVar, ...]   # canonical order: place-major, then letter
LetterWord = tuple[str, ...]


def _var_key(v: LPVar):
    return (v[1], v[0])


def lp_normalize(seq: Iterable[LPVar]):
    """Canonical form of an arbitrary product of generators.

    Returns ``(sign, monomial)`` with the monomial sorted place-major
    then by letter; the sign is the sorting parity, 0 on a repeated
    variable.  It coerces every variable and counts inversions, so it
    serves only products in no known order (:meth:`LetterplaceElement.
    from_vars` and biproducts whose word is not strictly increasing):
    the polarizations, the biproduct expansion, the exchange sides and
    the ideal echelons build their monomials canonical, with their
    signs, from canonical pieces.
    """
    items = tuple((str(x), int(i)) for x, i in seq)
    sign, srt = sort_with_sign(tuple(_var_key(v) for v in items))
    if sign == 0:
        return 0, ()
    return sign, tuple((x, i) for i, x in srt)


def _merge_monomials(u: LPMonomial, v: LPMonomial):
    """The product of two canonical monomials, as ``(sign, monomial)``.

    Equals :func:`lp_normalize` of the concatenation ``u + v``, in one
    pass: a merge in the place-major order whose sign is the parity of
    the pairs it crosses, each variable of ``v`` passing every variable
    of ``u`` still waiting; 0 when the monomials share a variable.
    """
    if not u or not v:
        return 1, u or v
    out = []
    crossings = i = j = 0
    nu, nv = len(u), len(v)
    while i < nu and j < nv:
        a, b = u[i], v[j]
        if a[1] < b[1] or (a[1] == b[1] and a[0] < b[0]):
            out.append(a)
            i += 1
        elif a == b:
            return 0, ()
        else:
            out.append(b)
            j += 1
            crossings += nu - i
    out.extend(u[i:] if i < nu else v[j:])
    return -1 if crossings & 1 else 1, tuple(out)


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

    _merge = staticmethod(_merge_monomials)

    @classmethod
    def generator(cls, m: int, letter: str, place: int) -> "LetterplaceElement":
        return cls(m, {((letter, place),): 1})

    @classmethod
    def from_vars(cls, m: int, seq: Iterable[LPVar], coeff: int = 1) -> "LetterplaceElement":
        return cls(m, _sum_products([(seq, coeff)]))


def _sum_products(products) -> dict:
    """Summed terms of the ``(seq, coeff)`` products of generators, each
    put in canonical form; vanishing products are skipped."""
    return _sum_terms((mono, sign * c) for seq, c in products
                      for sign, mono in [lp_normalize(seq)] if sign)


def _graded_components(e: LetterplaceElement) -> dict:
    """The terms of ``e`` by (place degrees, letter content), each key
    a sorted tuple of ``(place or letter, count)`` pairs, in the order
    the components first appear in ``e``.

    A canonical monomial's places are sorted, so its places and its
    sorted letters fix the key; the terms are grouped by those first
    and each group's key is counted once.
    """
    groups: dict[tuple, dict] = {}
    for mono, c in e.num.items():
        if mono:
            letters, places = zip(*mono)
            shape = (places, tuple(sorted(letters)))
        else:
            shape = ((), ())
        group = groups.get(shape)
        if group is None:
            groups[shape] = {mono: c}
        else:
            group[mono] = c
    return {(_counts(places), _counts(letters)): group
            for (places, letters), group in groups.items()}


def _counts(atoms: tuple) -> tuple:
    """``(atom, count)`` pairs of a sorted tuple, in its order."""
    return tuple((atom, atoms.count(atom)) for atom in dict.fromkeys(atoms))


def _letter_pattern(pdeg_t: tuple, content_t: tuple) -> tuple[tuple, LetterWord]:
    """The letter pattern of a :func:`_graded_components` key, and its
    sorted letters: the pattern is the place degrees with the letter
    counts in sorted-letter order."""
    return (pdeg_t, tuple(c for _, c in content_t)), tuple(x for x, _ in content_t)


def _shared_echelon(table: dict, pattern, letters: LetterWord, build):
    """``(renaming, echelon)`` for a component with sorted ``letters``.

    ``table`` maps a letter pattern to the letters it was first met
    with and the echelon ``build()`` made on them.  Components of one
    pattern differ only by the order-preserving renaming of their
    sorted letters, which keeps canonical monomials canonical and their
    order, so one echelon serves all of them.  ``renaming`` sends
    ``letters`` onto the letters of the echelon, None when they are the
    same.
    """
    entry = table.get(pattern)
    if entry is None:
        entry = table[pattern] = (letters, build())
    own, echelon = entry
    return (None if own == letters else dict(zip(letters, own))), echelon


def _renamed(vec: dict, renaming: dict | None) -> dict:
    """A vector of canonical monomials with each letter renamed, itself
    when ``renaming`` is None; an order-preserving renaming leaves each
    monomial canonical."""
    if renaming is None:
        return vec
    return {tuple((renaming[x], i) for x, i in mono): c for mono, c in vec.items()}


def polarize(k: int, h: int, e: LetterplaceElement) -> LetterplaceElement:
    """Place polarization from place h to place k, a derivation.

    Sends each occurrence of (x|h) in a monomial to (x|k) in place,
    summed over occurrences: the divided power of order 1 for k != h;
    k == h counts the place-h variables.
    """
    if not (1 <= k <= e.m and 1 <= h <= e.m):
        raise ValueError("place out of range")
    return _place_diamond(e, 1, k, h)


def polarize_divided(h: int, j: int, i: int, e: LetterplaceElement) -> LetterplaceElement:
    """Divided power of the place polarization from place i to place j.

    Moves every h-subset of the place-i variables of a monomial to
    place j; this equals the h-th iterate divided by h! while staying
    integral.  h = 0 is the identity.  It is the geometric product
    ``diamond_terms(h, j, i)`` on the monomials regrouped by place.
    """
    if i == j:
        raise ValueError("divided powers need distinct places")
    if not (1 <= i <= e.m and 1 <= j <= e.m):
        raise ValueError("place out of range")
    if h == 0:
        return e
    return _place_diamond(e, h, j, i)


def _place_diamond(e: LetterplaceElement, h: int, j: int, i: int) -> LetterplaceElement:
    """``diamond_terms(h, j, i)`` on e regrouped by place, over only the
    places e uses and i and j: an empty fold moves nothing and adds no
    sign, so the cost does not grow with m."""
    places = {i, j}
    if len(places) < e.m:
        places.update(p for mono in e.num for _, p in mono)
    places = sorted(places)
    at = places.index
    return e._like(_unfold(diamond_terms(_fold(e.num, places), h, at(j) + 1, at(i) + 1,
                                         len(places)), places))


# -- biproducts ------------------------------------------------------

class Biproduct(NamedTuple):
    """A word with a place multidegree, e.g. (xy|1^(1) 2^(1)).

    Stored with the word strictly increasing and the places sorted;
    use :func:`make_biproduct` to build one from raw data.  A plain
    tuple underneath, so rows hash, compare and order as
    ``(word, degrees)`` without Python-level calls.
    """

    word: LetterWord
    degrees: tuple[tuple[int, int], ...]   # (place, exponent), exponents > 0

    @property
    def is_unit(self) -> bool:
        return not self.word and not self.degrees

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
    """The slice sum of a biproduct whose places lie in 1..m.

    A slice of a strictly increasing word into increasing places is a
    canonical monomial carrying its slice sign, and distinct slices
    give distinct monomials, so that sum is built as it stands; any
    other word or degree order goes through :func:`lp_normalize`.
    """
    sizes = tuple(q for _, q in degrees)
    places = tuple(p for p, _ in degrees)
    products = ((tuple((x, places[t]) for t, block in enumerate(blocks) for x in block), sign)
                for sign, blocks in word_slices(word, sizes))
    if _increasing(word) and _increasing(places):
        return LetterplaceElement._trusted(dict(products), 1, m)
    return LetterplaceElement._trusted(_sum_products(products), 1, m)


def _increasing(seq: tuple) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def biproduct_expand(b: Biproduct, m: int) -> LetterplaceElement:
    """Expand a biproduct over all slices of its word.

    The single-place case is the plain product of generators; the unit
    biproduct expands to 1.
    """
    if any(not 1 <= p <= m for p, _ in b.degrees):
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

def _fold(num: dict, places) -> dict:
    """Canonical monomials regrouped into one letter word per entry of
    ``places``, a sorted sequence holding every place they use."""
    out, empty = {}, [()] * len(places)
    slot = {p: k for k, p in enumerate(places)}
    for mono, c in num.items():
        folds = empty[:]
        for x, i in mono:
            folds[slot[i]] += (x,)
        out[tuple(folds)] = c
    return out


def _unfold(num: dict, places) -> dict:
    """The inverse of :func:`_fold` on the same ``places``."""
    return {tuple((x, p) for p, w in zip(places, key) for x in w): c
            for key, c in num.items()}


def phi(e: LetterplaceElement) -> TensorPowerElement:
    """Regroup each monomial by place into a pure tensor on letter folds.

    Sign-free on canonical monomials because the canonical order is
    place-major; the image is integral, ``den == 1``.
    """
    return TensorPowerElement._trusted(_fold(e.num, range(1, e.m + 1)), 1, None, e.m)


def phi_inv(t: TensorPowerElement) -> LetterplaceElement:
    """The inverse of :func:`phi`; refuses an element that is not on
    letter folds or has a non-integral coefficient."""
    if t.dim is not None or t.den != 1:
        raise ValueError("phi_inv needs an integral element on letter folds")
    return LetterplaceElement._trusted(_unfold(t.num, range(1, t.m + 1)), 1, t.m)
