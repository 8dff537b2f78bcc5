"""The integer-numerator hot paths against the element routes they replaced.

``make_extensor``, ``extensor_span``, ``linalg.nullspace`` and
``linalg.invert``, ``MinimalRepresentation.tensor``,
``TensorPowerElement.map_folds`` and ``whitney.represent`` work on
integer numerators and build one element at the end.  Each is compared
here with the route it replaced, kept below as a reference: a chain of
``from_vector`` wedges, a nullspace read off ``rref``'s ``Fraction``
matrix, a ``_sum`` of ``from_elements`` pure tensors, and a per-key
``from_elements`` of the images of every word.  Results must be equal as stored pairs, entry
types included where the result is a list of Fractions.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from extensor import linalg
from extensor.cg_algebra import OrderedBasis
from extensor.exterior import (ExteriorElement, as_vector, extensor_span,
                               make_extensor)
from extensor.letterplace import LetterplaceElement, phi
from extensor.span_invariants import MinimalRepresentation
from extensor.tensor_power import TensorPowerElement
from extensor.whitney import Matroid, WhitneyElement, represent


def typed(x):
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return (type(x).__name__, x)


# -- the replaced routes -------------------------------------------------

def ref_make_extensor(vectors, dim):
    out = ExteriorElement.unit(dim)
    for v in vectors:
        out = out.wedge(ExteriorElement.from_vector(v))
    return out


def ref_nullspace(rows, ncols):
    red, pivots = linalg.rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def ref_invert(mat):
    n = len(mat)
    red, pivots = linalg.rref([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def ref_extensor_span(a):
    n = a.dim
    images = [ExteriorElement._trusted({(i,): 1}, 1, n).wedge(a)
              for i in range(1, n + 1)]
    out_words = sorted({w for img in images for w in img.num})
    rows = [[img.num.get(w, 0) * (a.den // img.den) for img in images]
            for w in out_words]
    return [tuple(v) for v in ref_nullspace(rows, n)]


def ref_map_folds(t, fn):
    return TensorPowerElement._sum(
        ((TensorPowerElement.from_elements(
            [fn(ExteriorElement._trusted({w: 1}, 1, t.dim)) for w in key]), n)
         for key, n in t.num.items()), t.dim, t.m, den=t.den)


def ref_tensor(rep):
    return TensorPowerElement._sum(
        ((TensorPowerElement.from_elements(pair), 1) for pair in rep.pairs), rep.dim, 2)


def ref_represent(columns, e):
    dim = len(next(iter(columns.values())))
    return TensorPowerElement._sum(
        ((TensorPowerElement.from_elements(
            [make_extensor([columns[x] for x in w], dim) for w in key]), c)
         for key, c in phi(e.raw).num.items()), dim, e.m)


# -- inputs --------------------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 6, 2 ** 61 - 1)))


def all_words(dim):
    return [w for k in range(dim + 1) for w in combinations(range(1, dim + 1), k)]


@st.composite
def exterior(draw, dim, max_terms=5):
    return ExteriorElement(dim, draw(st.dictionaries(
        st.sampled_from(all_words(dim)), coefficients, max_size=max_terms)))


@st.composite
def tensor(draw, dim, m, max_terms=5):
    keys = st.tuples(*[st.sampled_from(all_words(dim))] * m)
    return TensorPowerElement(dim, m, draw(st.dictionaries(keys, coefficients,
                                                          max_size=max_terms)))


@st.composite
def vector_lists(draw, max_dim=5):
    """Rational vectors that are random, zero, or combinations of
    earlier ones."""
    n = draw(st.integers(0, max_dim))
    vecs = []
    for _ in range(draw(st.integers(0, n + 1))):
        kind = draw(st.sampled_from(("random", "random", "random", "zero", "combination")))
        if kind == "zero" or (kind == "combination" and not vecs):
            vecs.append((0,) * n)
        elif kind == "random":
            vecs.append(tuple(draw(st.lists(coefficients, min_size=n, max_size=n))))
        else:
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            s, t = draw(coefficients), draw(coefficients)
            vecs.append(tuple(s * x + t * y for x, y in zip(as_vector(a), as_vector(b))))
    return n, vecs


# -- second routes -------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_make_extensor_matches_the_wedge_chain(case):
    n, vecs = case
    got = make_extensor(vecs, n)
    want = ref_make_extensor(vecs, n)
    assert got == want and (got.num, got.den) == (want.num, want.den)


@settings(max_examples=150, deadline=None)
@given(vector_lists(), st.data())
def test_extensor_span_matches_the_rref_route(case, data):
    n, vecs = case
    for a in (make_extensor(vecs, n), data.draw(exterior(n))):
        if a:
            assert typed(extensor_span(a)) == typed(ref_extensor_span(a))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nullspace_and_invert_match_the_rref_route(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.one_of(st.integers(-3, 3), coefficients),
                                       min_size=n, max_size=n), max_size=6))
    assert typed(linalg.nullspace(rows, n)) == typed(ref_nullspace(rows, n))
    square = rows[:n] if len(rows) >= n else rows + [[0] * n] * (n - len(rows))
    want = ref_invert(square)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            linalg.invert(square)
    else:
        assert typed(linalg.invert(square)) == typed(want)


@st.composite
def bases(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(coefficients, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(linalg.rank(rows) == n)
    return rows


@settings(max_examples=60, deadline=None)
@given(bases(), st.data())
def test_map_folds_matches_the_per_key_route(rows, data):
    n = len(rows)
    t = data.draw(tensor(n, data.draw(st.integers(1, 3)), max_terms=4))
    # separate bases, so that neither route sees the other's star table
    got = t.map_folds(OrderedBasis(rows).star)
    want = ref_map_folds(t, OrderedBasis(rows).star)
    assert got == want and (got.num, got.den) == (want.num, want.den)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_representation_tensor_matches_the_pure_tensor_sum(data):
    n = data.draw(st.integers(0, 4))
    pairs = data.draw(st.lists(st.tuples(exterior(n, max_terms=3), exterior(n, max_terms=3)),
                               max_size=4))
    rep = MinimalRepresentation(tuple(pairs), n)
    got, want = rep.tensor(), ref_tensor(rep)
    assert got == want and (got.num, got.den) == (want.num, want.den)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_represent_matches_the_per_key_route(data):
    dim, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    letters = "abcd"[:data.draw(st.integers(1, 4))]
    columns = {x: tuple(data.draw(st.lists(coefficients, min_size=dim, max_size=dim)))
               for x in letters}
    assume(any(any(v) for v in columns.values()))
    matroid = Matroid.linear(columns)
    variables = [(x, i) for x in letters for i in range(1, m + 1)]
    parts = data.draw(st.lists(st.tuples(st.lists(st.sampled_from(variables), max_size=3),
                                         st.integers(-3, 3)), max_size=4))
    e = WhitneyElement(matroid, sum(
        (LetterplaceElement.from_vars(m, seq, c) for seq, c in parts),
        LetterplaceElement.zero(m)))
    got, want = represent(columns, e), ref_represent(columns, e)
    assert got == want and (got.num, got.den) == (want.num, want.den)


# -- guards --------------------------------------------------------------

def test_make_extensor_builds_one_element_and_no_wedge(monkeypatch):
    built = []
    trusted = ExteriorElement._trusted.__func__

    def counted(cls, *args):
        out = trusted(cls, *args)
        built.append(out)
        return out

    def refused(*args):
        raise AssertionError("make_extensor built an intermediate element")

    monkeypatch.setattr(ExteriorElement, "_trusted", classmethod(counted))
    monkeypatch.setattr(ExteriorElement, "__init__", refused)
    monkeypatch.setattr(ExteriorElement, "wedge", refused)
    monkeypatch.setattr(ExteriorElement, "from_vector", classmethod(refused))
    vecs = [(1, Fraction(1, 2), 0, 3), (0, 2, Fraction(-1, 3), 1), (5, 0, 0, 1)]
    got = make_extensor(vecs, 4)
    assert built == [got]
    monkeypatch.undo()
    assert got == ref_make_extensor(vecs, 4)


def test_map_folds_calls_fn_once_per_distinct_word():
    t = TensorPowerElement(3, 3, {((1,), (2,), (1, 3)): 1, ((2,), (1,), ()): Fraction(1, 2),
                                  ((1, 3), (1,), (2,)): -3})
    seen = []

    def fn(x):
        seen.append(next(iter(x.num)))
        return 2 * x

    assert t.map_folds(fn) == ref_map_folds(t, lambda x: 2 * x)
    assert sorted(seen) == sorted({w for key in t.num for w in key})
