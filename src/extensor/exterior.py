"""Exterior algebra over the rationals with exact arithmetic.

Elements are sparse maps from index words (strictly increasing tuples
of 1-based basis indices) to Fraction coefficients; the empty word is
the unit.  Extensors are wedges of vectors built with
:func:`make_extensor`; a vector is a tuple of ``dim`` rationals.  All
values are immutable after construction and all operations are pure.

The wedge multiplies integer numerators over each operand's common
denominator and makes one ``Fraction`` per output word; word merges and
slices are table lookups in :mod:`extensor.words`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .tensorops import SparseTerms, _fractions, _numerators, _sum_terms
from .words import merge_words, word_slices

Word = tuple[int, ...]
Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands live in exterior algebras of different dimensions."""


def as_vector(coords: Iterable) -> Vector:
    return tuple(Fraction(c) for c in coords)


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
    ring = Fraction

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self.terms = self._clean(terms)

    def _valid_key(self, word) -> Word:
        return _index_word(word, self.dim)

    _key_str = staticmethod(word_str)

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, dim: int, word: Sequence[int], coeff=1) -> "ExteriorElement":
        return cls(dim, {tuple(word): Fraction(coeff)})

    @classmethod
    def from_vector(cls, coords: Iterable) -> "ExteriorElement":
        v = as_vector(coords)
        return cls._trusted({(i,): c for i, c in enumerate(v, start=1)}, len(v))

    # -- ring structure ----------------------------------------------

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        """The join: bilinear, associative, graded-anticommutative."""
        self._check(other)
        nu, du = _numerators(self.terms)
        nv, dv = _numerators(other.terms)
        out: dict = {}
        for u, a in nu.items():
            for v, b in nv.items():
                sign, w = merge_words(u, v)
                if sign:
                    p = a * b if sign > 0 else -a * b
                    out[w] = out.get(w, 0) + p
        return self._like(_fractions(out, du * dv))

    __xor__ = wedge

    # -- grading -----------------------------------------------------

    def step(self):
        """Common grade of the terms; None for zero, error when mixed."""
        steps = {len(w) for w in self.terms}
        if not steps:
            return None
        if len(steps) > 1:
            raise ValueError("element is not homogeneous")
        return steps.pop()

    def homogeneous_component(self, k: int) -> "ExteriorElement":
        return self._like({w: c for w, c in self.terms.items() if len(w) == k})

    def scalar_part(self) -> Fraction:
        return self.terms.get((), Fraction(0))

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
        out = _sum_terms((blocks, c if sign > 0 else -c)
                         for word, c in self.terms.items() if len(word) == total
                         for sign, blocks in word_slices(word, parts))
        return TensorPowerElement._trusted(out, self.dim, len(parts))


def make_extensor(vectors: Sequence, dim: int | None = None) -> ExteriorElement:
    """Expand the wedge of coordinate vectors in the canonical basis.

    Dependent vectors give the zero element.
    """
    vecs = [as_vector(v) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("ambient dimension needed for an empty wedge")
        dim = len(vecs[0])
    out = ExteriorElement.unit(dim)
    for v in vecs:
        if len(v) != dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {dim}")
        out = out.wedge(ExteriorElement.from_vector(v))
        if not out:
            break
    return out


def substitute(a: ExteriorElement, images: Sequence[ExteriorElement]) -> ExteriorElement:
    """Apply the algebra morphism sending basis vector i to images[i-1]."""
    if len(images) != a.dim:
        raise DimensionMismatch("need one image per basis vector")
    tdim = images[0].dim if images else a.dim

    def image(word):
        acc = ExteriorElement.unit(tdim)
        for i in word:
            acc = acc.wedge(images[i - 1])
            if not acc:
                break
        return acc

    return ExteriorElement._sum(((image(w), c) for w, c in a.terms.items()), tdim)


def extensor_span(a: ExteriorElement) -> list[Vector]:
    """Basis of the divisor space {v : v wedge a = 0}.

    For a nonzero extensor this is exactly the subspace the extensor
    represents.
    """
    if not a:
        raise ValueError("zero element has no span")
    n = a.dim
    images = [ExteriorElement.monomial(n, (i,)).wedge(a) for i in range(1, n + 1)]
    out_words = sorted({w for img in images for w in img.terms})
    rows = [[img.terms.get(w, Fraction(0)) for img in images] for w in out_words]
    return [tuple(v) for v in linalg.nullspace(rows, n)]
