"""Peano spaces: bracket, meet, dotted meet, and Hodge star operators.

A Peano space is the exterior algebra together with a chosen top-step
integral E; the bracket of n vectors is the coefficient of their wedge
against E.  The meet comes in two coproduct-slice expansions (sliced on
the left or on the right argument) which agree; the dotted meet reverses
the slice, which changes only a fixed sign, so it is the signed left
meet.  Hodge stars are attached to an ordered basis and send a canonical
extensor to its signed complement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exterior import (DimensionMismatch, ExteriorElement, Vector, as_vector,
                       make_extensor, substitute)
from .tensorops import _sum_terms
from .words import merge_words


class PeanoSpace:
    """An ambient dimension together with a nonzero top-step integral."""

    __slots__ = ("dim", "integral", "_inverse", "_top")

    def __init__(self, integral: ExteriorElement):
        n = integral.dim
        if not integral or integral.step() != n:
            raise ValueError("the integral must be nonzero of top step")
        self.dim = n
        self.integral = integral
        self._top = tuple(range(1, n + 1))
        # E = (s / d) e_1^...^e_n, so 1 / scale is (sign(s) d) / |s|
        s, d = integral.num[self._top], integral.den
        self._inverse = (d if s > 0 else -d, abs(s))

    @classmethod
    def standard(cls, dim: int, scale=1) -> "PeanoSpace":
        return cls(ExteriorElement.monomial(dim, range(1, dim + 1), scale))

    def bracket(self, vectors: Sequence) -> Fraction:
        """The unique scalar with wedge(vectors) = bracket * E."""
        vecs = [as_vector(v) for v in vectors]
        if len(vecs) != self.dim:
            raise ValueError(f"bracket takes exactly {self.dim} vectors")
        return self.bracket_element(make_extensor(vecs, self.dim))

    def bracket_element(self, x: ExteriorElement) -> Fraction:
        """Bracket of an element; components below top step contribute 0."""
        if x.dim != self.dim:
            raise DimensionMismatch("element lives in another dimension")
        p, q = self._inverse
        return Fraction(x.num.get(self._top, 0) * p, x.den * q)

    def meet(self, a: ExteriorElement, b: ExteriorElement,
             side: str = "left") -> ExteriorElement:
        """Meet of homogeneous elements by either slice expansion.

        The left mode slices the first argument with type
        (n-b, a+b-n), the right mode slices the second with type
        (a+b-n, n-a).  Steps short of the dimension give zero.
        """
        _check_side(side)
        n = self.dim
        if a.dim != n or b.dim != n:
            raise DimensionMismatch("meet needs elements of the ambient space")
        if not a or not b:
            return ExteriorElement.zero(n)
        sa, sb = a.step(), b.step()
        if sa + sb < n:
            return ExteriorElement.zero(n)
        if side == "left":
            sl, x = a.slice((n - sb, sa + sb - n)), b
            images = ((w2, c * br) for (w1, w2), c in sl.num.items()
                      for br in [self._bracket_word(w1, x, True)] if br)
        else:
            sl, x = b.slice((sa + sb - n, n - sa)), a
            images = ((w1, c * br) for (w1, w2), c in sl.num.items()
                      for br in [self._bracket_word(w2, x, False)] if br)
        return ExteriorElement._trusted(
            _sum_terms(images), sl.den * x.den * self._inverse[1], n)

    def dot_meet(self, a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
        """Meet variant slicing the first argument as (a+b-n, n-b), the
        left meet's two blocks swapped, so it is the meet times
        (-1)^((a+b-n)(n-b)); iterated uses nest left to right.
        """
        m = self.meet(a, b)
        if m and (a.step() + b.step() - self.dim) * (self.dim - b.step()) % 2:
            return -m
        return m

    def _bracket_word(self, word, x: ExteriorElement, word_first: bool) -> int:
        """``[e_word ^ x]``, or ``[x ^ e_word]`` when not ``word_first``,
        as a numerator over ``x.den * q`` for ``1 / scale == p / q``.

        Only the term of x on the complement of the word reaches the top
        step, so no wedge is built; 0 when x has no such term.
        """
        comp = tuple(i for i in self._top if i not in word)
        c = x.num.get(comp)
        if c is None:
            return 0
        sign = merge_words(word, comp)[0] if word_first else merge_words(comp, word)[0]
        br = c * self._inverse[0]
        return br if sign > 0 else -br

    def meet_chain(self, first: ExteriorElement, *rest: ExteriorElement,
                   side: str = "left") -> ExteriorElement:
        """Iterated meet, nested left to right."""
        _check_side(side)
        acc = first
        for x in rest:
            acc = self.meet(acc, x, side)
        return acc


def _check_side(side: str):
    if side not in ("left", "right"):
        raise ValueError(f"unknown meet side {side!r}")


def join(a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """The join is the wedge product."""
    return a.wedge(b)


class OrderedBasis:
    """An ordered basis of the space, carrying its Hodge star operator."""

    __slots__ = ("vectors", "F", "_rows", "_columns", "_stars")

    def __init__(self, vectors: Sequence):
        vecs = [as_vector(v) for v in vectors]
        n = len(vecs)
        if any(len(v) != n for v in vecs):
            raise DimensionMismatch("need n vectors of length n")
        F = make_extensor(vecs, n)
        if not F:
            raise ValueError("basis vectors are dependent")
        self.vectors: tuple[Vector, ...] = tuple(vecs)
        self.F = F
        # the images of L(P^T) and L(P), P having the basis vectors as columns
        self._rows = [ExteriorElement.from_vector(r) for r in zip(*vecs)]
        self._columns = [ExteriorElement.from_vector(v) for v in vecs]
        # star image of e_word, filled one word at a time by star()
        self._stars: dict = {}

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def peano(self) -> PeanoSpace:
        """The Peano space induced by taking F as the integral."""
        return PeanoSpace(self.F)

    def star(self, a: ExteriorElement) -> ExteriorElement:
        """Signed complement of canonical extensors, extended linearly.

        With P the matrix of the basis vectors as columns and L(P) the
        algebra morphism it induces, this is L(P) L(P^T) * / det P for
        the standard star *, by * L(A) = det A L(A^-T) * at A = P^-1, so
        no inverse is needed.  The basis keeps a table from a word w to
        the star of e_w; each word of the element not in it yet costs
        two substitutions (``exterior.substitute``) and is stored.
        """
        n = self.dim
        if a.dim != n:
            raise DimensionMismatch("element of another dimension")
        stars, full = self._stars, range(1, n + 1)
        for w in a.num:
            if w not in stars:
                comp = tuple(i for i in full if i not in w)
                # 1 / det P = F.den / F.num[full], its sign moved to the numerator
                top = self.F.num[tuple(full)]
                sign = merge_words(w, comp)[0] if top > 0 else -merge_words(w, comp)[0]
                starred = ExteriorElement._trusted({comp: sign * self.F.den}, abs(top), n)
                stars[w] = substitute(substitute(starred, self._rows), self._columns)
        # a's numerators now, its denominator at the end
        return ExteriorElement._sum([(stars[w], c) for w, c in a.num.items()], n, den=a.den)

    def star_tensor(self, t) -> "TensorPowerElement":
        """The star applied to every fold of a tensor power element."""
        return t.map_folds(self.star)


def hodge(basis: OrderedBasis, a: ExteriorElement) -> ExteriorElement:
    """The star operator of the given ordered basis."""
    return basis.star(a)


def standard_basis(dim: int) -> OrderedBasis:
    from .exterior import unit_vector
    return OrderedBasis([unit_vector(dim, i) for i in range(1, dim + 1)])
