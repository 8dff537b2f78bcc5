"""Properties of the shared sparse term kernel over all five element types.

Every operation result must equal its rebuild through the validating
public constructor, store no zero coefficient and keep every coefficient
in the class's ring, whichever class produced it.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from extensor.bitableau import BitableauElement
from extensor.exterior import ExteriorElement
from extensor.letterplace import (FreeTensorElement, LetterplaceElement,
                                  make_biproduct)
from extensor.tensor_power import TensorPowerElement

LETTERS = "abcd"

fractions = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
integers = st.integers(-3, 3)


def subwords(atoms):
    return [w for k in range(len(atoms) + 1) for w in combinations(atoms, k)]


def terms_of(keys, coeffs):
    return st.dictionaries(st.sampled_from(keys), coeffs, max_size=4)


@st.composite
def exterior_pair(draw):
    dim = draw(st.integers(0, 4))
    keys = subwords(range(1, dim + 1))
    return tuple(ExteriorElement(dim, draw(terms_of(keys, fractions)))
                 for _ in range(2))


@st.composite
def tensor_pair(draw):
    dim, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fold = st.sampled_from(subwords(range(1, dim + 1)))
    keys = st.tuples(*[fold] * m)
    return tuple(TensorPowerElement(dim, m, draw(st.dictionaries(keys, fractions, max_size=4)))
                 for _ in range(2))


@st.composite
def letterplace_pair(draw):
    m = draw(st.integers(1, 3))
    variables = sorted(((x, i) for x in LETTERS[:3] for i in range(1, m + 1)),
                       key=lambda v: (v[1], v[0]))
    monos = st.lists(st.sampled_from(variables), unique=True, max_size=4).map(
        lambda vs: tuple(sorted(vs, key=lambda v: (v[1], v[0]))))
    return tuple(LetterplaceElement(m, draw(st.dictionaries(monos, integers, max_size=4)))
                 for _ in range(2))


@st.composite
def free_tensor_pair(draw):
    m = draw(st.integers(1, 3))
    fold = st.sampled_from(subwords(LETTERS[:3]))
    keys = st.tuples(*[fold] * m)
    return tuple(FreeTensorElement(m, draw(st.dictionaries(keys, integers, max_size=4)))
                 for _ in range(2))


@st.composite
def bitableau_pair(draw):
    m = draw(st.integers(1, 3))

    @st.composite
    def row(draw):
        word = draw(st.sampled_from(subwords(LETTERS)[1:]))
        places = [draw(st.integers(1, m)) for _ in word]
        _, bp = make_biproduct(word, [(p, places.count(p)) for p in set(places)])
        return bp

    keys = st.lists(row(), max_size=2).map(tuple)
    return tuple(BitableauElement(m, draw(st.dictionaries(keys, integers, max_size=3)))
                 for _ in range(2))


# class -> (pair strategy, coefficient ring, rebuild through the public
# constructor, the class's own product)
CLASSES = {
    ExteriorElement: (exterior_pair(), Fraction,
                      lambda x: ExteriorElement(x.dim, x.terms),
                      lambda a, b: a.wedge(b)),
    TensorPowerElement: (tensor_pair(), Fraction,
                         lambda x: TensorPowerElement(x.dim, x.m, x.terms),
                         lambda a, b: a * b),
    LetterplaceElement: (letterplace_pair(), int,
                         lambda x: LetterplaceElement(x.m, x.terms),
                         lambda a, b: a * b),
    FreeTensorElement: (free_tensor_pair(), int,
                        lambda x: FreeTensorElement(x.m, x.terms),
                        lambda a, b: a * b),
    BitableauElement: (bitableau_pair(), int,
                       lambda x: BitableauElement(x.m, x.terms),
                       lambda a, b: a * b),
}


def check_kernel(cls, a, b, scalar):
    _, ring, rebuild, product = CLASSES[cls]
    results = [a + b, a - b, -a, a.scale(scalar), scalar * a, product(a, b)]
    for r in results:
        assert type(r) is cls
        assert r == rebuild(r)
        assert all(c != 0 for c in r.terms.values())
        assert all(type(c) is ring for c in r.terms.values())
    assert a + b - b == a
    assert -(-a) == a
    zero = a.scale(0)
    assert not zero and zero == a - a


@pytest.mark.parametrize("cls", list(CLASSES), ids=lambda c: c.__name__)
def test_kernel_operations(cls):
    strategy, ring, _, _ = CLASSES[cls]
    scalars = fractions if ring is Fraction else integers

    @settings(max_examples=60, deadline=None)
    @given(strategy, scalars)
    def run(pair, scalar):
        check_kernel(cls, *pair, scalar)

    run()


def test_classes_never_compare_equal():
    # units and zeros share their terms dict across the letterplace side
    elements = [ExteriorElement.unit(2), TensorPowerElement.unit(2, 1),
                LetterplaceElement.unit(2), FreeTensorElement.unit(2),
                BitableauElement.unit(2)]
    elements += [x - x for x in elements]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            assert (x == y) == (i == j)
    assert LetterplaceElement.unit(2).terms == BitableauElement.unit(2).terms
    with pytest.raises(TypeError):
        LetterplaceElement.unit(2) + BitableauElement.unit(2)


def test_integer_classes_refuse_fractional_scalars():
    x = LetterplaceElement.generator(2, "a", 1)
    with pytest.raises(TypeError):
        Fraction(1, 2) * x
    with pytest.raises(TypeError):
        x.scale(Fraction(1, 2))
    assert Fraction(4, 2) * x == x.scale(2)
