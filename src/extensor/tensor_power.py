"""Tensor powers of the exterior algebra with geometric products.

Elements are sparse maps from m-tuples of index words, or of letter
words (the image of :func:`extensor.letterplace.phi`), to rational
coefficients, stored as integer numerators over one denominator as in
:mod:`extensor.exterior`, and multiplied, ``s * t``, fold-wise with the
Z2-graded Koszul sign (``tensorops._fold_merge``).  The raising and
lowering operators :func:`diamond` turn coproduct slices of one fold
into wedge factors of another; they are the working form of the
regressive products, and :func:`meet_join_factor` extracts the
subspace intersection and sum they compute.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg, tensorops
from .exterior import (DimensionMismatch, ExteriorElement, extensor_span,
                       _index_word, word_str)
from .tensorops import SparseTerms, _fold_merge, fold_sort_key


class FoldMismatch(ValueError):
    """Operands have different fold counts."""


class TensorPowerElement(SparseTerms):
    """A sparse element of the m-fold tensor power: its folds are index
    words in 1..dim or, with ``dim`` None, strictly increasing letter
    words, the codomain of :func:`extensor.letterplace.phi`."""

    __slots__ = ("dim", "m")
    _shape = {"dim": DimensionMismatch, "m": FoldMismatch}
    _sort_key = staticmethod(fold_sort_key)
    _merge = staticmethod(_fold_merge)

    def __init__(self, dim: int | None, m: int, terms=None):
        if m < 1:
            raise ValueError("fold count must be positive")
        self.dim = dim
        self.m = m
        self._store(terms)

    def _valid_key(self, key) -> tuple:
        k = tuple(key)
        if len(k) != self.m:
            raise FoldMismatch(f"key {k} does not have {self.m} folds")
        if self.dim is not None:
            return tuple(_index_word(w, self.dim) for w in k)
        k = tuple(tuple(str(x) for x in w) for w in k)
        for w in k:
            if any(a >= b for a, b in zip(w, w[1:])):
                raise ValueError(f"fold word {w} is not strictly increasing")
        return k

    def _key_str(self, key) -> str:
        if self.dim is None:
            return " # ".join("".join(w) or "1" for w in key)
        return " # ".join(word_str(w) for w in key)

    # -- constructors ------------------------------------------------

    @classmethod
    def unit(cls, dim: int | None, m: int) -> "TensorPowerElement":
        return cls(dim, m, {((),) * m: Fraction(1)})

    @classmethod
    def from_elements(cls, factors: Sequence[ExteriorElement]) -> "TensorPowerElement":
        """The pure tensor of exterior elements, expanded distributively."""
        if not factors:
            raise ValueError("need at least one fold")
        return cls._pure_sum([(1, factors)], factors[0].dim, len(factors))

    @classmethod
    def _pure_sum(cls, parts, dim: int, m: int, den: int = 1) -> "TensorPowerElement":
        """Trusted ``sum(c * f_1 (x) ... (x) f_m) / den`` over the
        ``(c, factors)`` parts, each ``c`` an int and each factor an
        exterior element of dimension ``dim``, summed on ints over the
        least common multiple of the parts' denominators."""
        scaled, dens = [], []
        for c, factors in parts:
            d = 1
            for f in factors:
                if f.dim != dim:
                    raise DimensionMismatch(f"dim {dim} and {f.dim} differ")
                d *= f.den
            dens.append(d)
            scaled.append((c, [f.num for f in factors]))
        common = lcm(*dens)
        if common != 1:
            scaled = [(c * (common // d), nums) for (c, nums), d in zip(scaled, dens)]
        return cls._trusted(tensorops.outer_sum_terms(scaled), common * den, dim, m)

    # -- helpers -----------------------------------------------------

    def map_folds(self, fn) -> "TensorPowerElement":
        """Apply a linear map to every fold and expand the products.

        ``fn`` must be linear and pure: it is called once per distinct
        word of the element's keys, on the basis element of that word,
        and each key's product is built on the images' numerators.
        """
        if self.dim is None:
            raise ValueError("map_folds needs index folds")
        images: dict = {}
        for key in self.num:
            for w in key:
                if w not in images:
                    images[w] = fn(ExteriorElement._trusted({w: 1}, 1, self.dim))
        return self._pure_sum(((n, [images[w] for w in key]) for key, n in self.num.items()),
                              self.dim, self.m, self.den)


def diamond(h: int, j: int, i: int, t: TensorPowerElement) -> TensorPowerElement:
    """Geometric product moving a degree-h slice of fold i into fold j.

    For i < j this raises: fold i is sliced into (step-h, h) and the
    top part is wedged onto the left of fold j.  For i > j it lowers:
    fold i is sliced into (h, step-h) and the bottom part is wedged
    onto the right of fold j.  h = 0 is the identity; i = j is the
    diagonal operator (h = 1 only) scaling by the step of fold i.
    """
    return t._like(tensorops.diamond_terms(t.num, h, j, i, t.m), t.den)


def contains(a: ExteriorElement, b: ExteriorElement) -> bool:
    """True iff the subspace of extensor a lies inside that of b."""
    if not a or not b:
        raise ValueError("inclusion test needs nonzero extensors")
    t = TensorPowerElement.from_elements([a, b])
    return not diamond(1, 2, 1, t)


def _rank_factor_pairs(t: TensorPowerElement):
    """Pairs ``(left_i, right_i)`` with ``sum(left_i (x) right_i) == t``,
    one per rank of the coefficient matrix of the two-fold tensor: the
    rank factorization of its numerators, each reduced row over the
    right words (shorter first) divided by its pivot on the right, and
    the pivot column over the denominator on the left."""
    lwords = sorted({k[0] for k in t.num}, key=lambda w: (len(w), w))
    rows: dict = {lw: {} for lw in lwords}
    for (lw, rw), n in t.num.items():
        rows[lw][len(rw), rw] = n
    echelon = linalg.SparseEchelon()
    for row in rows.values():
        echelon.insert(row)
    return [(ExteriorElement._trusted({lw: row[p] for lw, row in rows.items() if p in row},
                                      t.den, t.dim),
             ExteriorElement._trusted({rw: n for (_, rw), n in sorted(red.items())},
                                      red[p], t.dim))
            for p, red in echelon.reduced().items()]


def _rank_one_factors(t: TensorPowerElement):
    pairs = _rank_factor_pairs(t)
    if len(pairs) != 1:
        raise ValueError(f"tensor has rank {len(pairs)}, expected 1")
    left, right = pairs[0]
    lead = min(left.num, key=lambda w: (len(w), w))
    s = Fraction(left.num[lead], left.den)
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
    p = linalg.rank(sa + sb) - len(sb)
    t = diamond(p, 2, 1, TensorPowerElement.from_elements([a, b]))
    c, d = _rank_one_factors(t)
    if TensorPowerElement.from_elements([c, d]) != t:
        raise ValueError("factorization failed to reproduce the tensor")
    if c.step() and (not contains(c, a) or not contains(c, b)):
        raise ValueError("left factor is not the intersection")
    if not contains(a, d) or not contains(b, d):
        raise ValueError("right factor is not the span sum")
    return c, d, p
