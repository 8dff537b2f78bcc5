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
from .exterior import DimensionMismatch, ExteriorElement, as_vector, make_extensor
from .tensor_power import TensorPowerElement, _rank_factor_pairs, diamond
from .words import inversions


def in_span(x: ExteriorElement, elements: Sequence[ExteriorElement]) -> bool:
    echelon = linalg.SparseEchelon()
    for e in elements:
        x._check(e)
        echelon.insert(e.num)
    return not echelon.reduce(x.num)


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
        """sum(left_i (x) right_i), summed on the pairs' numerators."""
        return TensorPowerElement._pure_sum(((1, pair) for pair in self.pairs), self.dim, 2)


# the last tensor factored, matched by identity, and its checked
# representation; elements are immutable, so the pair stays valid
_last: tuple = (None, None)


def minimal_representation(t: TensorPowerElement) -> MinimalRepresentation:
    """Exact rank factorization of a two-fold tensor.

    The number of pairs is the rank of the coefficient matrix, both
    factor lists are independent, and the pairs reconstruct the tensor
    exactly.  The zero tensor gives the empty representation.

    The last tensor factored is kept, held by reference, together with
    its representation, so ``minimal_representation``, ``left_span``
    and ``right_span`` on one tensor object factor it once.  Every
    tensor factored is checked against its reconstruction, and a
    failed factorization is not kept.
    """
    global _last
    if t.m != 2:
        raise ValueError("minimal representations are defined for two folds")
    if not t:
        return MinimalRepresentation((), t.dim)
    last, rep = _last
    if last is t:
        return rep
    rep = MinimalRepresentation(tuple(_rank_factor_pairs(t)), t.dim)
    if rep.tensor() != t:
        raise AssertionError("rank factorization failed to reconstruct the tensor")
    _last = (t, rep)
    return rep


def left_span(t: TensorPowerElement) -> list[ExteriorElement]:
    return minimal_representation(t).lefts


def right_span(t: TensorPowerElement) -> list[ExteriorElement]:
    return minimal_representation(t).rights


def geometric_product_sum(a: ExteriorElement, b: ExteriorElement) -> TensorPowerElement:
    """sum over h of diamond(h, 2, 1, a (x) b)."""
    t = TensorPowerElement.from_elements([a, b])
    return TensorPowerElement._sum(
        ((diamond(h, 2, 1, t), 1) for h in range(a.step() + 1)), a.dim, 2)


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
    inter = [tuple(v) for v in linalg.intersect_spans(avecs, bvecs, dim)]
    echelon = linalg.SparseEchelon()
    for v in inter:
        echelon.insert(dict(enumerate(v)))
    prime = [v for v in avecs if echelon.insert(dict(enumerate(v)))]
    w = make_extensor(list(inter) + prime, dim)
    lead = min(a.num, key=lambda x: (len(x), x))
    lam = Fraction(a.num[lead] * w.den, a.den * w.num[lead])
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
    """The linear operator left_i -> right_i of a minimal representation,
    one reduction against the echelon of the left numerators a call."""

    def __init__(self, rep: MinimalRepresentation):
        if not rep.pairs:
            raise ValueError("empty representation has no operator")
        self._rep = rep
        self._echelon = linalg.SparseEchelon()
        if not all(self._echelon.insert(left.num, label=i)
                   for i, left in enumerate(rep.lefts)):
            raise ValueError("left family is dependent")

    def __call__(self, x: ExteriorElement) -> ExteriorElement:
        if x.dim != self._rep.dim:
            raise DimensionMismatch(f"dim {self._rep.dim} and {x.dim} differ")
        coords: dict = {}
        if self._echelon.reduce(x.num, coords):
            raise ValueError("element outside the left span")
        # x.num is the combination coords of the left_i.num
        return ExteriorElement._sum(
            ((right, coords.get(i, 0) * left.den)
             for i, (left, right) in enumerate(self._rep.pairs)),
            self._rep.dim, den=x.den)


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
    lead = min(c.num, key=lambda w: (len(w), w))
    c_lead = Fraction(c.num[lead], c.den)
    d = ExteriorElement(t.dim, {rw: v / c_lead
                                for (lw, rw), v in comp.items() if lw == lead})
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
    key = next(iter(u.num))
    if key not in cd.num:
        raise ValueError("geometric product is not proportional to C (x) D")
    ratio = Fraction(u.num[key] * cd.den, u.den * cd.num[key])
    if u != cd.scale(ratio):
        raise ValueError("geometric product is not proportional to C (x) D")
    return ratio
