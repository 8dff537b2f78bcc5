"""Left and right spans of two-fold tensors, minimal representations,
the canonical pairing, and generalized complement operators.

A two-fold tensor is a matrix over the monomial bases of its folds; its
minimal representations are exact rank factorizations.  The pairing
beta reads a scalar off a single geometric product against a fixed
factor pair, and the generalized star operator is the left-to-right
basis map of a chosen minimal representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .exterior import ExteriorElement, Word, as_vector, make_extensor
from .tensor_power import TensorPowerElement, _rank_factor_pairs, diamond
from .words import inversions


def _word_basis(elements: Sequence[ExteriorElement]) -> list[Word]:
    return sorted({w for e in elements for w in e.terms}, key=lambda w: (len(w), w))


def _coeff_rows(elements: Sequence[ExteriorElement], words: Sequence[Word]):
    return [[e.terms.get(w, Fraction(0)) for w in words] for e in elements]


def in_span(x: ExteriorElement, elements: Sequence[ExteriorElement]) -> bool:
    words = _word_basis(list(elements) + [x])
    rows = _coeff_rows(elements, words)
    target = [x.terms.get(w, Fraction(0)) for w in words]
    return linalg.solve_combination(rows, target) is not None


@dataclass(frozen=True)
class MinimalRepresentation:
    """An independent representation sum(left_i (x) right_i) of a tensor."""

    pairs: tuple[tuple[ExteriorElement, ExteriorElement], ...]
    dim: int

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def lefts(self) -> list[ExteriorElement]:
        return [l for l, _ in self.pairs]

    @property
    def rights(self) -> list[ExteriorElement]:
        return [r for _, r in self.pairs]

    def tensor(self) -> TensorPowerElement:
        out = TensorPowerElement.zero(self.dim, 2)
        for left, right in self.pairs:
            out = out + TensorPowerElement.from_elements([left, right])
        return out


def minimal_representation(t: TensorPowerElement) -> MinimalRepresentation:
    """Exact rank factorization of a two-fold tensor.

    The number of pairs is the rank of the coefficient matrix, both
    factor lists are independent, and the pairs reconstruct the tensor
    exactly.  The zero tensor gives the empty representation.
    """
    if t.m != 2:
        raise ValueError("minimal representations are defined for two folds")
    if not t:
        return MinimalRepresentation((), t.dim)
    rep = MinimalRepresentation(tuple(_rank_factor_pairs(t)), t.dim)
    if rep.tensor() != t:
        raise AssertionError("rank factorization failed to reconstruct the tensor")
    return rep


def left_span(t: TensorPowerElement) -> list[ExteriorElement]:
    return minimal_representation(t).lefts


def right_span(t: TensorPowerElement) -> list[ExteriorElement]:
    return minimal_representation(t).rights


def geometric_product_sum(a: ExteriorElement, b: ExteriorElement) -> TensorPowerElement:
    """sum over h of diamond(h, 2, 1, a (x) b)."""
    t = TensorPowerElement.from_elements([a, b])
    out = TensorPowerElement.zero(a.dim, 2)
    for h in range(a.step() + 1):
        out = out + diamond(h, 2, 1, t)
    return out


def dagger_representation(a_vectors: Sequence, b_vectors: Sequence,
                          dim: int | None = None) -> MinimalRepresentation:
    """Increasing-subword minimal representation of the product sum.

    Factors the first extensor as C * A' with C spanning the
    intersection of the two spans, then enumerates the subwords of the
    factor word of A' in (size, lexicographic) order, each pair carrying
    its shuffle sign on the right.  The first pair is (C, D).
    """
    avecs = [as_vector(v) for v in a_vectors]
    bvecs = [as_vector(v) for v in b_vectors]
    if dim is None:
        dim = len((avecs + bvecs)[0])
    a = make_extensor(avecs, dim)
    b = make_extensor(bvecs, dim)
    if not a or not b:
        raise ValueError("dependent factor vectors give the zero extensor")
    inter = [tuple(v) for v in linalg.intersect_spans(
        [list(v) for v in avecs], [list(v) for v in bvecs], dim)]
    prime: list = []
    rows = [list(v) for v in inter]
    for v in avecs:
        if linalg.rank(rows + [list(v)]) > len(rows):
            prime.append(v)
            rows.append(list(v))
    w = make_extensor(list(inter) + prime, dim)
    lead = min(a.terms, key=lambda x: (len(x), x))
    lam = a.terms[lead] / w.terms[lead]
    c = lam * make_extensor(inter, dim)
    p = len(prime)
    pairs = []
    for size in range(p + 1):
        for rest in combinations(range(p), p - size):
            kept = tuple(i for i in range(p) if i not in rest)
            eps = (-1) ** inversions(kept + rest)
            left = c.wedge(make_extensor([prime[i] for i in kept], dim))
            right = eps * make_extensor([prime[i] for i in rest], dim).wedge(b)
            pairs.append((left, right))
    rep = MinimalRepresentation(tuple(pairs), dim)
    if rep.tensor() != geometric_product_sum(a, b):
        raise AssertionError("subword representation does not match the product sum")
    return rep


class GeneralizedHodge:
    """The linear operator left_i -> right_i of a minimal representation."""

    def __init__(self, rep: MinimalRepresentation):
        if not rep.pairs:
            raise ValueError("empty representation has no operator")
        self._rep = rep
        self._words = _word_basis(rep.lefts)
        self._rows = _coeff_rows(rep.lefts, self._words)
        if linalg.rank(self._rows) != rep.rank:
            raise ValueError("left family is dependent")

    def __call__(self, x: ExteriorElement) -> ExteriorElement:
        if any(w not in self._words for w in x.terms):
            raise ValueError("element outside the left span")
        target = [x.terms.get(w, Fraction(0)) for w in self._words]
        coeffs = linalg.solve_combination(self._rows, target)
        if coeffs is None:
            raise ValueError("element outside the left span")
        out = ExteriorElement.zero(self._rep.dim)
        for cf, right in zip(coeffs, self._rep.rights):
            out = out + cf * right
        return out


def generalized_hodge(rep: MinimalRepresentation) -> GeneralizedHodge:
    return GeneralizedHodge(rep)


def pairing_beta(t: TensorPowerElement, x: ExteriorElement, y: ExteriorElement,
                 c: ExteriorElement) -> Fraction:
    """The canonical pairing of x in L_t with y in R_t.

    Normalized against the factor pair (C, D) of the tensor: the
    component of t whose left step equals step(C) must be exactly
    C (x) D, and diamond(k, 2, 1, x (x) y) with k the relative step of
    x over C must be a scalar multiple of C (x) D.  That scalar is the
    value.
    """
    rep = minimal_representation(t)
    if not in_span(x, rep.lefts):
        raise ValueError("x is outside the left span")
    if not in_span(y, rep.rights):
        raise ValueError("y is outside the right span")
    cstep = c.step()
    if cstep is None:
        raise ValueError("zero factor")
    comp = {k: v for k, v in t.terms.items() if len(k[0]) == cstep}
    lead = min(c.terms, key=lambda w: (len(w), w))
    d_terms: dict[Word, Fraction] = {}
    for (lw, rw), v in comp.items():
        if lw == lead:
            d_terms[rw] = v / c.terms[lead]
    d = ExteriorElement(t.dim, d_terms)
    cd = TensorPowerElement.from_elements([c, d])
    if cd.terms != comp:
        raise ValueError("factor pair does not match the tensor component")
    if x.step() + y.step() != cstep + d.step():
        # non-complementary steps pair to zero, as in the cap product
        return Fraction(0)
    k = x.step() - cstep
    u = diamond(k, 2, 1, TensorPowerElement.from_elements([x, y]))
    if not u:
        return Fraction(0)
    key = next(iter(u.terms))
    if key not in cd.terms:
        raise ValueError("geometric product is not proportional to C (x) D")
    ratio = u.terms[key] / cd.terms[key]
    if u != cd.scale(ratio):
        raise ValueError("geometric product is not proportional to C (x) D")
    return ratio
