"""Properties of the shared sparse term kernel over all four element types.

Every operation result, and the result of every linear map that sums
its images in the kernel, must equal its rebuild through the validating
public constructor of its own class, store no zero coefficient and keep
every coefficient in that class's ring, whichever class produced it.
Every element stores a reduced pair of integer numerators over one
positive denominator, and the module operations, the product ``*``
included, are defined once for all four classes; each product equals
a term-pair reference that shares no code with the product kernel.
Tensor power elements are drawn on index folds and, as a case of their
own, on letter folds (``dim`` None, the image of ``phi``).
"""

import inspect
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from extensor.bitableau import BitableauElement
from extensor.cg_algebra import standard_basis
from extensor.exterior import ExteriorElement
from extensor.letterplace import (Biproduct, LetterplaceElement, lp_normalize,
                                  make_biproduct, phi, phi_inv, polarize,
                                  polarize_divided)
from extensor.tensor_power import TensorPowerElement, diamond
from extensor.words import sort_with_sign
from test_rational_kernels import ref_graded_product

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
def letter_tensor_pair(draw):
    """Integral pairs on letter folds, the codomain of ``phi``."""
    m = draw(st.integers(1, 3))
    fold = st.sampled_from(subwords(LETTERS[:3]))
    keys = st.tuples(*[fold] * m)
    return tuple(TensorPowerElement(None, m, draw(st.dictionaries(keys, integers, max_size=4)))
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
# constructor)
CLASSES = {
    ExteriorElement: (exterior_pair(), Fraction,
                      lambda x: ExteriorElement(x.dim, x.terms)),
    TensorPowerElement: (tensor_pair(), Fraction,
                         lambda x: TensorPowerElement(x.dim, x.m, x.terms)),
    LetterplaceElement: (letterplace_pair(), int,
                         lambda x: LetterplaceElement(x.m, x.terms)),
    BitableauElement: (bitableau_pair(), int,
                       lambda x: BitableauElement(x.m, x.terms)),
}


def term_pairs(key_product):
    """The product of two elements summed term pair by term pair, with
    ``key_product(u, v)`` the ``(sign, key)`` of two keys."""
    def product(a, b):
        out = {}
        for u, x in a.terms.items():
            for v, y in b.terms.items():
                sign, w = key_product(u, v)
                if sign:
                    out[w] = out.get(w, 0) + sign * x * y
        return {k: c for k, c in out.items() if c}
    return product


# class -> the product as a second route, sharing no code with the kernel
REFERENCE_PRODUCTS = {
    ExteriorElement: term_pairs(lambda u, v: sort_with_sign(u + v)),
    TensorPowerElement: ref_graded_product,
    LetterplaceElement: term_pairs(lambda u, v: lp_normalize(u + v)),
    BitableauElement: term_pairs(lambda u, v: (1, u + v)),
}


def fold_maps(op, m):
    """``op(h, j, i)`` over every pair of folds, h = 1 on the diagonal."""
    return [op(h, j, i) for j in range(1, m + 1) for i in range(1, m + 1)
            for h in ((1,) if i == j else (0, 1, 2))]


def place_maps(a):
    m = a.m
    return ([polarize(k, h, a) for k in range(1, m + 1) for h in range(1, m + 1)]
            + [polarize_divided(h, j, i, a) for j in range(1, m + 1)
               for i in range(1, m + 1) if i != j for h in (0, 1, 2)])


# class -> the linear maps moved onto the kernel, applied to one element;
# their results may belong to another class
LINEAR_MAPS = {
    ExteriorElement: lambda a: (
        [a.slice(parts) for parts in ((1, 1), (2, 0), (0, 1, 1), (3,))]
        + ([standard_basis(a.dim).star(a)] if a.dim else [])),
    TensorPowerElement: lambda a: (
        fold_maps(lambda h, j, i: diamond(h, j, i, a), a.m)
        + [a.map_folds(standard_basis(a.dim).star) if a.dim is not None else phi_inv(a)]),
    LetterplaceElement: lambda a: place_maps(a) + [phi(a)],
    BitableauElement: lambda a: [a.to_letterplace()],
}


# (case id, class, pair strategy); letter folds, the free tensor algebra
# and image of ``phi``, are a case of their own
KERNEL_CASES = ([(cls.__name__, cls, strategy) for cls, (strategy, *_) in CLASSES.items()]
                + [("FreeTensorElement", TensorPowerElement, letter_tensor_pair())])


def check_kernel(cls, a, b, scalar):
    results = [a + b, a - b, -a, a.scale(scalar), scalar * a, a * b]
    assert all(type(r) is cls for r in results)
    for r in results + LINEAR_MAPS[cls](a):
        _, ring, rebuild = CLASSES[type(r)]
        assert r == rebuild(r)
        assert all(c != 0 for c in r.terms.values())
        assert all(type(c) is ring for c in r.terms.values())
        check_stored_pair(r, ring)
    assert a + b - b == a
    assert -(-a) == a
    zero = a.scale(0)
    assert not zero and zero == a - a


def check_stored_pair(r, ring):
    """``r`` stores ``num`` over ``den``: a positive int denominator, nonzero
    int numerators, no common factor; the int ring stores ``den == 1``."""
    assert type(r.den) is int and r.den > 0
    assert all(type(n) is int and n != 0 for n in r.num.values())
    assert gcd(r.den, *r.num.values()) == 1
    if ring is int:
        assert r.den == 1 and r.terms is r.num
    assert r.terms == {k: ring(Fraction(n, r.den)) for k, n in r.num.items()}


@pytest.mark.parametrize("cls, strategy", [case[1:] for case in KERNEL_CASES],
                         ids=[case[0] for case in KERNEL_CASES])
def test_kernel_operations(cls, strategy):
    ring = CLASSES[cls][1]
    scalars = fractions if ring is Fraction else integers

    @settings(max_examples=60, deadline=None)
    @given(strategy, scalars)
    def run(pair, scalar):
        check_kernel(cls, *pair, scalar)

    run()


@pytest.mark.parametrize("cls, strategy", [case[1:] for case in KERNEL_CASES],
                         ids=[case[0] for case in KERNEL_CASES])
def test_product_matches_the_term_pair_reference(cls, strategy):
    @settings(max_examples=60, deadline=None)
    @given(strategy)
    def run(pair):
        a, b = pair
        assert (a * b).terms == REFERENCE_PRODUCTS[cls](a, b)
        if cls is ExteriorElement:
            assert a * b == a.wedge(b) == a ^ b
            assert a * 3 == a.scale(3) == 3 * a

    run()


def test_classes_never_compare_equal():
    # units and zeros share their terms dict across the letterplace side
    elements = [ExteriorElement.unit(2), TensorPowerElement.unit(2, 1),
                TensorPowerElement.unit(None, 1), LetterplaceElement.unit(2),
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


@pytest.mark.parametrize("build", [
    lambda c: LetterplaceElement(1, {(("a", 1),): c}),
    lambda c: BitableauElement(1, {(Biproduct(("a",), ((1, 1),)),): c}),
])
def test_integer_constructors_refuse_fractional_coefficients(build):
    for coeff in (Fraction(1, 2), Fraction(3, 2)):
        with pytest.raises(TypeError):
            build(coeff)
    assert build(Fraction(4, 2)) == build(2)


def test_phi_inv_refuses_fractional_and_index_fold_elements():
    # letter folds take coefficients in Q; the way back into the integral
    # letterplace algebra refuses a non-integral element
    for coeff in (Fraction(1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="integral"):
            phi_inv(TensorPowerElement(None, 1, {(("a",),): coeff}))
    with pytest.raises(ValueError, match="letter folds"):
        phi_inv(TensorPowerElement(1, 1, {((1,),): 1}))
    assert phi_inv(TensorPowerElement(None, 1, {(("a",),): Fraction(4, 2)})) == \
        LetterplaceElement(1, {(("a", 1),): 2})


MODULE_OPERATIONS = ("_trusted", "_like", "_sum", "__add__", "__sub__", "__neg__",
                     "scale", "__mul__", "__rmul__", "__eq__", "__bool__")


@pytest.mark.parametrize("name", MODULE_OPERATIONS)
def test_every_class_shares_one_module_operation(name):
    """No element class keeps a module operation of its own."""
    found = [inspect.getattr_static(cls, name) for cls in CLASSES]
    assert all(f is found[0] for f in found)
