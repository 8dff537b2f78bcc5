"""Exterior algebra over the rationals with exact arithmetic.

Elements are sparse maps from index words (strictly increasing tuples
of 1-based basis indices) to rational coefficients; the empty word is
the unit.  An element stores them as integer numerators over one
denominator in :class:`~extensor.tensorops.SparseTerms`, the one
arithmetic class of the package, and ``terms`` reads them back as
``Fraction``.  Extensors are wedges of vectors built with
:func:`make_extensor`; a vector is a tuple of ``dim`` rationals.  All
values are immutable after construction and all operations are pure.

The wedge is the package's one product, ``SparseTerms.__mul__`` over
``tensorops._product_terms``, with the word merge of
:mod:`extensor.words` as this class's ``_merge``: ``a * b`` and
``a ^ b`` are both ``a.wedge(b)``.  :func:`make_extensor`,
:func:`substitute` and :func:`extensor_span` call that kernel on
numerator maps directly, and :func:`substitute` wedges the image of
each word prefix once per call.  Extensors are built fraction-free: each
vector is scaled to integers once, the integer vectors are wedged as
numerator maps, and one element is built at the end.
:func:`extensor_span` hands the integer numerators of ``e_i ^ a`` to
:func:`extensor.linalg.nullspace`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import linalg
from .tensorops import SparseTerms, _over_common_denominator, _product_terms, _sum_terms
from .words import merge_words, word_slices

Word = tuple[int, ...]
Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands live in exterior algebras of different dimensions."""


def as_vector(coords: Iterable) -> Vector:
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def unit_vector(dim: int, i: int) -> Vector:
    return tuple(Fraction(int(j == i)) for j in range(1, dim + 1))


def _index_word(word, dim: int) -> Word:
    """``word`` as a tuple, checked to be strictly increasing in 1..dim."""
    w = tuple(word)
    if any(i < 1 or i > dim for i in w):
        raise ValueError(f"index word {w} out of range for dimension {dim}")
    if any(a >= b for a, b in zip(w, w[1:])):
        raise ValueError(f"index word {w} is not strictly increasing")
    return w


def word_str(word: Word) -> str:
    if not word:
        return "1"
    return "^".join(f"e{i}" for i in word)


class ExteriorElement(SparseTerms):
    """A sparse element of the exterior algebra of a fixed dimension."""

    __slots__ = ("dim",)
    _shape = {"dim": DimensionMismatch}

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self._store(terms)

    def _valid_key(self, word) -> Word:
        return _index_word(word, self.dim)

    _key_str = staticmethod(word_str)
    _merge = staticmethod(merge_words)

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, dim: int, word: Sequence[int], coeff=1) -> "ExteriorElement":
        return cls(dim, {tuple(word): Fraction(coeff)})

    @classmethod
    def from_vector(cls, coords: Iterable) -> "ExteriorElement":
        v = as_vector(coords)
        return cls._trusted(*_over_common_denominator(
            {(i,): c for i, c in enumerate(v, start=1)}), len(v))

    # -- ring structure ----------------------------------------------

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        """The join: bilinear, associative, graded-anticommutative.  An
        operand that is not an exterior element raises TypeError."""
        if type(other) is not type(self):
            raise TypeError(f"cannot wedge {type(self).__name__} "
                            f"and {type(other).__name__}")
        return self * other

    __xor__ = wedge

    # -- grading -----------------------------------------------------

    def step(self):
        """Common grade of the terms; None for zero, error when mixed."""
        steps = {len(w) for w in self.num}
        if not steps:
            return None
        if len(steps) > 1:
            raise ValueError("element is not homogeneous")
        return steps.pop()

    def homogeneous_component(self, k: int) -> "ExteriorElement":
        return self._like({w: n for w, n in self.num.items() if len(w) == k}, self.den)

    def scalar_part(self) -> Fraction:
        return Fraction(self.num.get((), 0), self.den)

    # -- coproduct ---------------------------------------------------

    def slice(self, parts: Sequence[int]):
        """Coproduct slice into the tensor power with one fold per part.

        On a monomial this is the signed sum over ordered set partitions
        of the index word into blocks of the given sizes; terms whose
        word length differs from the total are zero.
        """
        from .tensor_power import TensorPowerElement

        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError("negative part size")
        total = sum(parts)
        out = _sum_terms((blocks, n if sign > 0 else -n)
                         for word, n in self.num.items() if len(word) == total
                         for sign, blocks in word_slices(word, parts))
        return TensorPowerElement._trusted(out, self.den, self.dim, len(parts))


def make_extensor(vectors: Sequence, dim: int | None = None) -> ExteriorElement:
    """Expand the wedge of coordinate vectors in the canonical basis.

    Every vector must have length ``dim``.  Dependent vectors give the
    zero element.  Each vector is scaled to integers by the least common
    multiple of its denominators, the integer vectors are wedged, and
    the product of the scales is the denominator of the one element
    built.
    """
    vecs = [as_vector(v) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("ambient dimension needed for an empty wedge")
        dim = len(vecs[0])
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    for v in vecs:
        if len(v) != dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {dim}")
    num: dict = {(): 1}
    den = 1
    for v in vecs:
        scale = lcm(*(c.denominator for c in v))
        num = _product_terms(num, {(i,): c.numerator * (scale // c.denominator)
                                   for i, c in enumerate(v, start=1) if c}, merge_words)
        if 0 in num.values():
            num = {w: n for w, n in num.items() if n}
        if not num:
            break
        den *= scale
    return ExteriorElement._trusted(num, den, dim)


def substitute(a: ExteriorElement, images: Sequence[ExteriorElement]) -> ExteriorElement:
    """Apply the algebra morphism sending basis vector i to images[i-1].

    The images are written over one common denominator ``d``, so the
    image of a word of length k has numerators over ``d**k``.  The image
    of each word prefix is wedged once per call: a table maps the
    prefixes met so far to their image numerators.
    """
    if len(images) != a.dim:
        raise DimensionMismatch("need one image per basis vector")
    tdim = images[0].dim if images else a.dim
    for x in images:
        if x.dim != tdim:
            raise DimensionMismatch(f"dim {tdim} and {x.dim} differ")
    d = lcm(*(x.den for x in images))
    nums = [{w: n * (d // x.den) for w, n in x.num.items()} for x in images]
    prefixes: dict = {(): {(): 1}}

    def image(word):
        out = prefixes.get(word)
        if out is None:
            out = {w: n for w, n in _product_terms(image(word[:-1]), nums[word[-1] - 1],
                                                     merge_words).items() if n}
            prefixes[word] = out
        return out

    top = max(map(len, a.num), default=0)
    out = _sum_terms((w, f * n) for word, c in a.num.items()
                     for f in [c * d ** (top - len(word))]
                     for w, n in image(word).items())
    return ExteriorElement._trusted(out, a.den * d ** top, tdim)


def extensor_span(a: ExteriorElement) -> list[Vector]:
    """Basis of the divisor space {v : v wedge a = 0}.

    For a nonzero extensor this is exactly the subspace the extensor
    represents.
    """
    if not a:
        raise ValueError("zero element has no span")
    n = a.dim
    # the numerators of e_i ^ a over a.den; one word each, so none cancels
    images = [_product_terms({(i,): 1}, a.num, merge_words) for i in range(1, n + 1)]
    out_words = sorted({w for img in images for w in img})
    rows = [[img.get(w, 0) for img in images] for w in out_words]
    return [tuple(v) for v in linalg.nullspace(rows, n)]
