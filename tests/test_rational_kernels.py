"""The rational kernels against a per-term ``Fraction`` reference.

Exterior and tensor power elements store integer numerators over one
denominator, and the slice, diamond and graded product kernels apply one
folded sign per term.  Each operation is compared here with the
definition written term by term in ``Fraction`` arithmetic, with signs
from permutation parities, on coefficients whose denominators are 1, 6,
a large prime and the Mersenne prime 2**61 - 1.  After every operation
the stored pair must be reduced (a positive denominator sharing no
factor with all the numerators, no zero numerator), every coefficient
of the ``terms`` view must be a nonzero ``Fraction``, and ``==`` must
agree with comparing the views.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from extensor import linalg
from extensor.cg_algebra import OrderedBasis, PeanoSpace
from extensor.exterior import ExteriorElement, substitute
from extensor.tensor_power import TensorPowerElement, diamond

DENOMINATORS = (1, 6, 1_000_000_007, 2 ** 61 - 1)

coefficients = st.builds(Fraction, st.integers(-5, 5), st.sampled_from(DENOMINATORS))


def parity(seq) -> int:
    odd = sum(1 for i, x in enumerate(seq) for y in seq[i + 1:] if x > y) & 1
    return -1 if odd else 1


def merge(u, v):
    """``(sign, word)`` of the wedge of two index words, sign 0 when
    they share an index."""
    if set(u) & set(v):
        return 0, None
    return parity(u + v), tuple(sorted(u + v))


def slices(word, parts):
    """Signed ordered set partitions of ``word`` into blocks of the
    given sizes, chosen block by block."""
    if not parts:
        if not word:
            yield 1, ()
        return
    for first in combinations(word, parts[0]):
        rest = tuple(x for x in word if x not in first)
        for _, tail in slices(rest, parts[1:]):
            blocks = (first,) + tail
            yield parity([x for b in blocks for x in b]), blocks


def add(out, key, c):
    out[key] = out.get(key, Fraction(0)) + c


def nonzero(out):
    return {k: c for k, c in out.items() if c}


def ref_wedge_terms(a, b):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            sign, w = merge(u, v)
            if sign:
                add(out, w, sign * cu * cv)
    return nonzero(out)


def ref_wedge(a, b):
    return ref_wedge_terms(a.terms, b.terms)


def ref_substitute(a, images):
    out = {}
    for word, c in a.terms.items():
        image = {(): Fraction(1)}
        for i in word:
            image = ref_wedge_terms(image, images[i - 1].terms)
        for w, x in image.items():
            add(out, w, c * x)
    return nonzero(out)


def ref_star(basis, a):
    """Rewrite ``a`` in the basis, take the signed complement of every
    word, and map back."""
    n = basis.dim
    inv = linalg.invert([[v[i] for v in basis.vectors] for i in range(n)])
    to_basis = [ExteriorElement(n, {(i + 1,): inv[i][j] for i in range(n)})
                for j in range(n)]
    from_basis = [ExteriorElement.from_vector(v) for v in basis.vectors]
    full = tuple(range(1, n + 1))
    starred = {}
    for w, c in ref_substitute(a, to_basis).items():
        comp = tuple(i for i in full if i not in w)
        starred[comp] = merge(w, comp)[0] * c
    return ref_substitute(ExteriorElement(n, starred), from_basis)


def ref_meet(ps, a, b):
    """The left slice expansion: ``sum c [w1 ^ b] w2`` over the
    (n - step b, step a + step b - n) slices of ``a``."""
    n, sa, sb = ps.dim, a.step(), b.step()
    top = tuple(range(1, n + 1))
    scale = ps.integral.terms[top]
    out = {}
    for (w1, w2), c in ref_slice(a, (n - sb, sa + sb - n)).items():
        br = ref_wedge_terms({w1: Fraction(1)}, b.terms).get(top, 0) / scale
        add(out, w2, c * br)
    return nonzero(out)


def ref_from_elements(factors):
    out = {(): Fraction(1)}
    for f in factors:
        out = {k + (w,): c * cw for k, c in out.items() for w, cw in f.terms.items()}
    return nonzero(out)


def ref_slice(a, parts):
    out = {}
    for word, c in a.terms.items():
        if len(word) == sum(parts):
            for sign, blocks in slices(word, parts):
                add(out, blocks, sign * c)
    return nonzero(out)


def ref_graded_product(s, t):
    out = {}
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            koszul = sum(len(ka[i]) * len(kb[j])
                         for i in range(len(ka)) for j in range(i))
            sign, folds = (-1) ** koszul, []
            for u, v in zip(ka, kb):
                fold_sign, w = merge(u, v)
                sign *= fold_sign
                folds.append(w)
            if sign:
                add(out, tuple(folds), sign * ca * cb)
    return nonzero(out)


def ref_diamond(h, j, i, t):
    if i == j:
        return nonzero({k: c * len(k[i - 1]) for k, c in t.terms.items()})
    out = {}
    lo, hi = min(i, j), max(i, j)
    for key, c in t.terms.items():
        w = key[i - 1]
        if h > len(w):
            continue
        between = sum(len(key[k]) for k in range(lo, hi - 1))
        sign = (-1) ** (h * between)
        parts = (len(w) - h, h) if i < j else (h, len(w) - h)
        for sl, blocks in slices(w, parts):
            kept, moved = blocks if i < j else blocks[::-1]
            ms, merged = merge(moved, key[j - 1]) if i < j else merge(key[j - 1], moved)
            if ms:
                folds = list(key)
                folds[i - 1], folds[j - 1] = kept, merged
                add(out, tuple(folds), sign * sl * ms * c)
    return nonzero(out)


def all_words(dim):
    return [w for k in range(dim + 1) for w in combinations(range(1, dim + 1), k)]


@st.composite
def exterior(draw, dim, max_terms=5):
    terms = draw(st.dictionaries(st.sampled_from(all_words(dim)), coefficients,
                                 max_size=max_terms))
    return ExteriorElement(dim, terms)


@st.composite
def tensor(draw, dim, m, max_terms=5):
    keys = st.tuples(*[st.sampled_from(all_words(dim))] * m)
    return TensorPowerElement(dim, m, draw(st.dictionaries(keys, coefficients,
                                                          max_size=max_terms)))


def assert_stored(x, expected):
    assert type(x.den) is int and x.den >= 1
    assert all(type(n) is int and n != 0 for n in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1
    assert x.terms == expected
    assert all(type(c) is Fraction and c != 0 for c in x.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wedge_matches_the_per_term_reference(data):
    dim = data.draw(st.integers(0, 4))
    a, b = data.draw(exterior(dim)), data.draw(exterior(dim))
    assert_stored(a.wedge(b), ref_wedge(a, b))
    # a vector wedged with itself cancels term by term
    v = data.draw(exterior(dim)).homogeneous_component(1)
    assert_stored(v.wedge(v), {})
    assert_stored((a + v).wedge(v - a), ref_wedge(a + v, v - a))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pure_tensor_matches_the_per_term_reference(data):
    dim = data.draw(st.integers(0, 3))
    factors = data.draw(st.lists(exterior(dim, max_terms=4), min_size=1, max_size=3))
    assert_stored(TensorPowerElement.from_elements(factors), ref_from_elements(factors))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slice_matches_the_per_term_reference(data):
    dim = data.draw(st.integers(0, 4))
    total = data.draw(st.integers(0, dim))
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=2)))
    parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    # words of the sliced length, and others that slice to nothing
    words = [w for w in all_words(dim) if len(w) == total]
    a = data.draw(exterior(dim)) + ExteriorElement(dim, data.draw(
        st.dictionaries(st.sampled_from(words), coefficients, max_size=4)))
    out = a.slice(parts)
    assert (out.dim, out.m) == (dim, len(parts))
    assert_stored(out, ref_slice(a, parts))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graded_product_matches_the_per_term_reference(data):
    dim, m = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    s, t = data.draw(tensor(dim, m)), data.draw(tensor(dim, m))
    assert_stored(s * t, ref_graded_product(s, t))
    assert_stored(s * (t - t), {})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_diamond_matches_the_per_term_reference(data):
    dim, m = data.draw(st.integers(0, 4)), data.draw(st.integers(2, 3))
    t = data.draw(tensor(dim, m))
    j, i = data.draw(st.integers(1, m)), data.draw(st.integers(1, m))
    h = 1 if i == j else data.draw(st.integers(0, 3))
    assert_stored(diamond(h, j, i, t), ref_diamond(h, j, i, t))


LETTER_WORDS = [w for k in range(5) for w in combinations("abcd", k)]


@st.composite
def letter_tensor(draw, m, max_terms=5):
    keys = st.tuples(*[st.sampled_from(LETTER_WORDS)] * m)
    return TensorPowerElement(None, m, draw(st.dictionaries(keys, coefficients,
                                                           max_size=max_terms)))


@pytest.mark.parametrize("j, i", [(2, 1), (3, 1), (1, 2), (1, 3), (2, 2)])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diamond_on_letter_folds_matches_the_per_term_reference(j, i, data):
    # the kernel behind the letterplace polarizations: raising (i < j)
    # and lowering (i > j), across a fold or next to it, the diagonal,
    # and powers past the length of every source fold
    t = data.draw(letter_tensor(3))
    h = 1 if i == j else data.draw(st.integers(0, 5))
    assert_stored(diamond(h, j, i, t), ref_diamond(h, j, i, t))
    if i != j:
        past = 1 + max((len(key[i - 1]) for key in t.num), default=0)
        assert_stored(diamond(past, j, i, t), {})


@given(coefficients.filter(bool))
def test_diamond_signs_the_folds_crossed(c):
    # e1 crosses the one-letter fold 2 on its way to fold 3, and back
    t = TensorPowerElement(3, 3, {((1,), (2,), (3,)): c})
    assert_stored(diamond(1, 3, 1, t), {((), (2,), (1, 3)): -c})
    assert_stored(diamond(1, 1, 3, t), {((1, 3), (2,), ()): -c})
    assert_stored(diamond(1, 2, 1, t), {((), (1, 2), (3,)): c})


@given(coefficients.filter(bool))
def test_diamond_cancels_across_keys(c):
    # moving e1 onto e2 and e2 onto e1 gives e1^e2 with opposite signs
    t = TensorPowerElement(2, 2, {((1,), (2,)): c, ((2,), (1,)): c})
    assert_stored(diamond(1, 2, 1, t), {})
    assert_stored(diamond(1, 1, 2, t), {})
    assert ref_diamond(1, 2, 1, t) == {}


def assert_equality_agrees(x, y):
    assert (x == y) == (x.terms == y.terms)
    assert (x != y) == (x.terms != y.terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_module_operations_store_reduced_pairs(data):
    dim = data.draw(st.integers(0, 4))
    words = st.sampled_from(all_words(dim))
    ta, tb = (data.draw(st.dictionaries(words, coefficients, max_size=5)) for _ in "ab")
    a, b = ExteriorElement(dim, ta), ExteriorElement(dim, tb)
    s = data.draw(coefficients)
    assert_stored(a, nonzero(ta))
    assert_stored(b, nonzero(tb))
    # the public constructor reads ints and strings as well
    assert ExteriorElement(dim, {k: str(c) for k, c in ta.items()}) == a
    assert ExteriorElement(dim, {k: c.numerator for k, c in ta.items()}).den == 1
    assert_stored(a + b, nonzero({k: ta.get(k, 0) + tb.get(k, 0) for k in {**ta, **tb}}))
    assert_stored(a - b, nonzero({k: ta.get(k, 0) - tb.get(k, 0) for k in {**ta, **tb}}))
    assert_stored(-a, nonzero({k: -c for k, c in ta.items()}))
    assert_stored(a.scale(s), nonzero({k: s * c for k, c in ta.items()}))
    assert_stored(a - a, {})
    # the kernel sum of (element, coefficient) parts behind stars and meets
    assert_stored(ExteriorElement._sum([(a, s), (b, 2)], dim, den=3), nonzero(
        {k: (s * ta.get(k, 0) + 2 * tb.get(k, 0)) / 3 for k in {**ta, **tb}}))
    for x, y in ((a, b), (a, a + b - b), (a.scale(s), a), (a + b, b + a),
                 ((a + b).scale(s), a.scale(s) + b.scale(s))):
        assert_equality_agrees(x, y)
    t, u = data.draw(tensor(dim, 2)), data.draw(tensor(dim, 2))
    assert_stored(t + u, nonzero({k: t.terms.get(k, 0) + u.terms.get(k, 0)
                                  for k in {**t.terms, **u.terms}}))
    assert_stored(t.scale(s), nonzero({k: s * c for k, c in t.terms.items()}))
    for x, y in ((t, u), (t, t + u - u), (t.scale(s), t)):
        assert_equality_agrees(x, y)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_matches_the_per_term_reference(data):
    dim = data.draw(st.integers(0, 4))
    tdim = data.draw(st.integers(0, 4))
    a = data.draw(exterior(dim))
    images = [data.draw(exterior(tdim, max_terms=3)) for _ in range(dim)]
    assert_stored(substitute(a, images), ref_substitute(a, images))


@st.composite
def bases(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(coefficients, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(linalg.rank(rows) == n)
    return OrderedBasis(rows)


@settings(max_examples=60, deadline=None)
@given(bases(), st.data())
def test_star_matches_the_per_term_reference(basis, data):
    xs = data.draw(st.lists(exterior(basis.dim), min_size=1, max_size=4))
    for x in xs:
        # one missing word fills the star table, several are rewritten at once
        assert_stored(basis.star(x), ref_star(basis, x))
    t = data.draw(tensor(basis.dim, 2, max_terms=3))
    want = {}
    for (u, v), c in t.terms.items():
        for w1, c1 in ref_star(basis, ExteriorElement(basis.dim, {u: 1})).items():
            for w2, c2 in ref_star(basis, ExteriorElement(basis.dim, {v: 1})).items():
                add(want, (w1, w2), c * c1 * c2)
    assert_stored(basis.star_tensor(t), nonzero(want))


@st.composite
def homogeneous(draw, dim, step):
    words = [w for w in all_words(dim) if len(w) == step]
    return ExteriorElement(dim, draw(st.dictionaries(
        st.sampled_from(words), coefficients.filter(bool), min_size=1, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_meets_match_the_per_term_reference(data):
    n = data.draw(st.integers(1, 4))
    ps = PeanoSpace.standard(n, data.draw(coefficients.filter(bool)))
    sa, sb = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    a, b = data.draw(homogeneous(n, sa)), data.draw(homogeneous(n, sb))
    want = ref_meet(ps, a, b) if sa + sb >= n else {}
    assert_stored(ps.meet(a, b), want)
    assert_stored(ps.meet(a, b, side="right"), want)
    sign = (-1) ** ((sa + sb - n) * (n - sb)) if sa + sb >= n else 1
    assert_stored(ps.dot_meet(a, b), {k: sign * c for k, c in want.items()})
    c = ps.bracket_element(a.wedge(b))
    assert type(c) is Fraction
    assert c == ref_wedge(a, b).get(tuple(range(1, n + 1)), 0) / ps.integral.terms[
        tuple(range(1, n + 1))]
