"""Tensor powers of the exterior algebra with geometric products.

Elements are sparse maps from m-tuples of index words to Fraction
coefficients, multiplied fold-wise with the Z2-graded Koszul sign.  The
raising and lowering operators :func:`diamond` turn coproduct slices of
one fold into wedge factors of another; they are the working form of
the regressive products, and :func:`meet_join_factor` extracts the
subspace intersection and sum they compute.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg, tensorops
from .exterior import (DimensionMismatch, ExteriorElement, Word,
                       extensor_span, _index_word, word_str)
from .tensorops import SparseTerms, fold_sort_key


class FoldMismatch(ValueError):
    """Operands have different fold counts."""


class TensorPowerElement(SparseTerms):
    """A sparse element of the m-fold tensor power."""

    __slots__ = ("dim", "m")
    _shape = {"dim": DimensionMismatch, "m": FoldMismatch}
    ring = Fraction
    _sort_key = staticmethod(fold_sort_key)

    def __init__(self, dim: int, m: int, terms=None):
        if m < 1:
            raise ValueError("fold count must be positive")
        self.dim = dim
        self.m = m
        self.terms = self._clean(terms)

    def _valid_key(self, key) -> tuple[Word, ...]:
        k = tuple(key)
        if len(k) != self.m:
            raise FoldMismatch(f"key {k} does not have {self.m} folds")
        return tuple(_index_word(w, self.dim) for w in k)

    @staticmethod
    def _key_str(key) -> str:
        return " # ".join(word_str(w) for w in key)

    # -- constructors ------------------------------------------------

    @classmethod
    def unit(cls, dim: int, m: int) -> "TensorPowerElement":
        return cls(dim, m, {((),) * m: Fraction(1)})

    @classmethod
    def from_elements(cls, factors: Sequence[ExteriorElement]) -> "TensorPowerElement":
        """The pure tensor of exterior elements, expanded distributively."""
        if not factors:
            raise ValueError("need at least one fold")
        dim = factors[0].dim
        terms: dict[tuple[Word, ...], Fraction] = {(): Fraction(1)}
        for f in factors:
            if f.dim != dim:
                raise DimensionMismatch("mixed dimensions in tensor factors")
            nxt: dict[tuple[Word, ...], Fraction] = {}
            for key, c in terms.items():
                for w, cw in f.terms.items():
                    nxt[key + (w,)] = c * cw
            terms = nxt
        return cls._trusted(terms, dim, len(factors))

    def __mul__(self, other):
        if isinstance(other, TensorPowerElement):
            return graded_product(self, other)
        return self.scale(other)

    # -- helpers -----------------------------------------------------

    def map_folds(self, fn) -> "TensorPowerElement":
        """Apply a linear map to every fold and expand the products."""
        out = TensorPowerElement.zero(self.dim, self.m)
        for key, c in self.terms.items():
            images = [fn(ExteriorElement.monomial(self.dim, w)) for w in key]
            out = out + TensorPowerElement.from_elements(images).scale(c)
        return out


def graded_product(s: TensorPowerElement, t: TensorPowerElement) -> TensorPowerElement:
    """Fold-wise wedge with the Koszul sign of crossing folds."""
    s._check(t)
    return s._like(tensorops.graded_product_terms(s.terms, t.terms))


def diamond(h: int, j: int, i: int, t: TensorPowerElement) -> TensorPowerElement:
    """Geometric product moving a degree-h slice of fold i into fold j.

    For i < j this raises: fold i is sliced into (step-h, h) and the
    top part is wedged onto the left of fold j.  For i > j it lowers:
    fold i is sliced into (h, step-h) and the bottom part is wedged
    onto the right of fold j.  h = 0 is the identity; i = j is the
    diagonal operator (h = 1 only) scaling by the step of fold i.
    """
    return t._like(tensorops.diamond_terms(t.terms, h, j, i, t.m))


def contains(a: ExteriorElement, b: ExteriorElement) -> bool:
    """True iff the subspace of extensor a lies inside that of b."""
    if not a or not b:
        raise ValueError("inclusion test needs nonzero extensors")
    t = TensorPowerElement.from_elements([a, b])
    return not diamond(1, 2, 1, t)


def _rank_factor_pairs(t: TensorPowerElement):
    """Pairs ``(left_i, right_i)`` with ``sum(left_i (x) right_i) == t``,
    one per rank of the coefficient matrix of the two-fold tensor."""
    lwords = sorted({k[0] for k in t.terms}, key=lambda w: (len(w), w))
    rwords = sorted({k[1] for k in t.terms}, key=lambda w: (len(w), w))
    mat = [[t.terms.get((lw, rw), Fraction(0)) for rw in rwords] for lw in lwords]
    cols, rows = linalg.rank_factorization(mat)
    return [(ExteriorElement._trusted(
                 {lw: cols[j][i] for j, lw in enumerate(lwords)}, t.dim),
             ExteriorElement._trusted(
                 {rw: rows[i][j] for j, rw in enumerate(rwords)}, t.dim))
            for i in range(len(rows))]


def _rank_one_factors(t: TensorPowerElement):
    pairs = _rank_factor_pairs(t)
    if len(pairs) != 1:
        raise ValueError(f"tensor has rank {len(pairs)}, expected 1")
    left, right = pairs[0]
    lead = min(left.terms, key=lambda w: (len(w), w))
    s = left.terms[lead]
    return (1 / s) * left, s * right


def meet_join_factor(a: ExteriorElement, b: ExteriorElement):
    """Factor the top geometric product of two extensors.

    Returns ``(c, d, p)`` where p is the relative dimension of the
    span of ``a`` over the intersection of spans, and
    ``diamond(p, 2, 1, a (x) b) == c (x) d`` exactly with the span of c
    the intersection and the span of d the sum.  c is normalized to
    leading coefficient 1, the global scalar rides on d.
    """
    if not a or not b:
        raise ValueError("zero extensor")
    sa = extensor_span(a)
    sb = extensor_span(b)
    p = linalg.rank([list(v) for v in sa + sb]) - len(sb)
    t = diamond(p, 2, 1, TensorPowerElement.from_elements([a, b]))
    c, d = _rank_one_factors(t)
    if TensorPowerElement.from_elements([c, d]) != t:
        raise ValueError("factorization failed to reproduce the tensor")
    if c.step() and (not contains(c, a) or not contains(c, b)):
        raise ValueError("left factor is not the intersection")
    if not contains(a, d) or not contains(b, d):
        raise ValueError("right factor is not the span sum")
    return c, d, p
