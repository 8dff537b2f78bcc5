import random
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from extensor.exterior import DimensionMismatch
from extensor.letterplace import (Biproduct, LetterplaceElement, _merge_monomials,
                                  _sum_products, biproduct_expand, expand_raw,
                                  lp_normalize, make_biproduct, phi, phi_inv,
                                  polarize, polarize_divided)
from extensor.tensor_power import TensorPowerElement, diamond
from extensor.words import word_slices

LETTERS = "abcde"


def g(m, letter, place):
    return LetterplaceElement.generator(m, letter, place)


def rand_element(rng, m, nterms=3, letters=LETTERS):
    out = LetterplaceElement.zero(m)
    for _ in range(nterms):
        k = rng.randint(0, 3)
        seq = [(rng.choice(letters), rng.randint(1, m)) for _ in range(k)]
        out = out + LetterplaceElement.from_vars(m, seq, rng.randint(-3, 3))
    return out


def rand_multidegree(rng, total, m):
    degs = {}
    rem = total
    for place in range(1, m):
        take = rng.randint(0, rem)
        if take:
            degs[place] = take
        rem -= take
    if rem:
        degs[m] = degs.get(m, 0) + rem
    return degs


class TestNormalization:
    def test_place_major_swap(self):
        sign, mono = lp_normalize([("x", 2), ("y", 1)])
        assert sign == -1
        assert mono == (("y", 1), ("x", 2))

    def test_repeated_variable(self):
        assert lp_normalize([("x", 1), ("x", 1)]) == (0, ())

    def test_canonical_input_unchanged(self):
        seq = [("a", 1), ("b", 1), ("a", 2)]
        assert lp_normalize(seq) == (1, tuple(seq))

    def test_product_is_skew(self):
        a = g(2, "x", 1)
        assert not a * a
        b = g(2, "y", 2)
        assert a * b == -1 * (b * a)


# canonical monomials over letters a-e and places 1..4; two draws from
# the same 20 variables often share one, and the empty monomial is drawn
MONOMIALS = st.sets(st.tuples(st.sampled_from(LETTERS), st.integers(1, 4)),
                    max_size=6).map(lambda vs: tuple(sorted(vs, key=lambda v: (v[1], v[0]))))


def lp_sums(m):
    """Random elements: sums of signed products of generators, repeats
    and unsorted orders included, so terms cancel and vanish."""
    term = st.tuples(st.lists(st.tuples(st.sampled_from(LETTERS), st.integers(1, m)),
                              max_size=4),
                     st.integers(-3, 3))
    return st.lists(term, max_size=4).map(lambda terms: sum(
        (LetterplaceElement.from_vars(m, seq, c) for seq, c in terms),
        LetterplaceElement.zero(m)))


class TestMergeProduct:
    @settings(max_examples=400, deadline=None)
    @given(MONOMIALS, MONOMIALS)
    def test_merge_is_the_normalized_concatenation(self, u, v):
        # same sign, same monomial, and (0, ()) on a shared variable
        assert _merge_monomials(u, v) == lp_normalize(u + v)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(lp_sums(m), lp_sums(m))))
    def test_product_matches_the_normalizing_route(self, pair):
        x, y = pair
        want = LetterplaceElement.zero(x.m)
        for u, cu in x.terms.items():
            for v, cv in y.terms.items():
                want = want + LetterplaceElement.from_vars(x.m, u + v, cu * cv)
        assert x * y == want


class TestPolarizations:
    def test_generator_rule(self):
        assert polarize(2, 1, g(2, "x", 1)) == g(2, "x", 2)
        assert not polarize(2, 1, g(2, "x", 2))

    def test_leibniz_two_factors(self):
        e = g(2, "x", 1) * g(2, "y", 1)
        want = g(2, "x", 2) * g(2, "y", 1) + g(2, "x", 1) * g(2, "y", 2)
        assert polarize(2, 1, e) == want

    def test_commutation_relations(self):
        rng = random.Random(0)
        for _ in range(80):
            m = rng.randint(2, 4)
            e = rand_element(rng, m)
            k, h, j, i = (rng.randint(1, m) for _ in range(4))
            lhs = polarize(k, h, polarize(j, i, e)) - \
                polarize(j, i, polarize(k, h, e))
            rhs = LetterplaceElement.zero(m)
            if h == j:
                rhs = rhs + polarize(k, i, e)
            if k == i:
                rhs = rhs - polarize(j, h, e)
            assert lhs == rhs

    def test_divided_power_is_integral_iterate(self):
        rng = random.Random(1)
        for _ in range(40):
            m = rng.randint(2, 4)
            e = rand_element(rng, m)
            i, j = rng.sample(range(1, m + 1), 2)
            h = rng.randint(0, 3)
            iterated = e
            for _ in range(h):
                iterated = polarize(j, i, iterated)
            assert iterated == polarize_divided(h, j, i, e).scale(factorial(h))

    def test_divided_power_needs_distinct_places(self):
        with pytest.raises(ValueError):
            polarize_divided(1, 1, 1, LetterplaceElement.unit(2))


class TestBiproducts:
    def test_single_place_is_plain_product(self):
        got = expand_raw(("x", "y"), {1: 2}, 2)
        assert got == g(2, "x", 1) * g(2, "y", 1)

    def test_two_place_laplace(self):
        got = expand_raw(("x", "y"), {1: 1, 2: 1}, 2)
        want = g(2, "x", 1) * g(2, "y", 2) - g(2, "y", 1) * g(2, "x", 2)
        assert got == want

    def test_length_mismatch_is_zero(self):
        assert not expand_raw(("x", "y"), {1: 1}, 2)

    def test_empty_word_is_the_unit(self):
        assert expand_raw((), {}, 2) == LetterplaceElement.unit(2)

    def test_repeated_letter_is_zero(self):
        assert not expand_raw(("x", "x"), {1: 1, 2: 1}, 2)

    @pytest.mark.parametrize("degrees", [{0: 1, 1: 1}, {1: 1, 3: 1}])
    def test_place_outside_one_to_m_is_refused(self, degrees):
        with pytest.raises(ValueError):
            expand_raw(("x", "y"), degrees, 2)

    def test_skew_in_the_letters(self):
        sign, bp = make_biproduct(("c", "a", "b"), {1: 2, 2: 1})
        assert bp.word == ("a", "b", "c")
        assert sign == 1   # cab -> abc is an even permutation
        sign2, bp2 = make_biproduct(("b", "a", "c"), {1: 2, 2: 1})
        assert sign2 == -1 and bp2.word == ("a", "b", "c")

    def test_symmetric_in_the_places(self):
        a = expand_raw(("x", "y", "z"), {2: 1, 1: 2}, 2)
        b = expand_raw(("x", "y", "z"), {1: 2, 2: 1}, 2)
        assert a == b

    def test_anticommutation(self):
        rng = random.Random(2)
        for _ in range(40):
            m = 3
            w1 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
            w2 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
            d1 = rand_multidegree(rng, len(w1), m)
            d2 = rand_multidegree(rng, len(w2), m)
            a = expand_raw(w1, d1, m)
            b = expand_raw(w2, d2, m)
            assert a * b == (b * a).scale((-1) ** (len(w1) * len(w2)))

    def test_factorial_law_on_exponents(self):
        rng = random.Random(3)
        for _ in range(60):
            m = 3
            word = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
            qi = rng.randint(0, len(word))
            qj = rng.randint(0, len(word) - qi)
            q1 = len(word) - qi - qj
            degs = {1: q1, 2: qi, 3: qj}
            h = rng.randint(0, 4)
            el = expand_raw(word, degs, m)
            iterated = el
            for _ in range(h):
                iterated = polarize(3, 2, iterated)
            if h <= qi:
                want = expand_raw(word, {1: q1, 2: qi - h, 3: qj + h}, m) \
                    .scale(factorial(qj + h) // factorial(qj))
            else:
                want = LetterplaceElement.zero(m)
            assert iterated == want

    def test_binomial_law_on_exponents(self):
        rng = random.Random(4)
        for _ in range(60):
            m = 3
            word = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
            qi = rng.randint(0, len(word))
            qj = len(word) - qi
            degs = {2: qi, 3: qj}
            h = rng.randint(0, 4)
            got = polarize_divided(h, 3, 2, expand_raw(word, degs, m))
            if h <= qi:
                want = expand_raw(word, {2: qi - h, 3: qj + h}, m) \
                    .scale(comb(qj + h, qj))
            else:
                want = LetterplaceElement.zero(m)
            assert got == want

    def test_single_place_source_moves_cleanly(self):
        # the whole exponent block migrates with no coefficient
        got = polarize_divided(2, 2, 1, expand_raw(("x", "y", "z"), {1: 3}, 2))
        want = expand_raw(("x", "y", "z"), {1: 1, 2: 2}, 2)
        assert got == want
        assert not polarize_divided(4, 2, 1, expand_raw(("x", "y", "z"), {1: 3}, 2))


class TestPhi:
    def test_generator_rule(self):
        got = phi(g(2, "x", 1) * g(2, "y", 2))
        assert got == TensorPowerElement(None, 2, {(("x",), ("y",)): 1})
        assert got.dim is None and str(got) == "x # y"

    def test_inverse_pair(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(2, 4)
            e = rand_element(rng, m)
            assert phi_inv(phi(e)) == e
            t = phi(rand_element(rng, m))
            assert phi(phi_inv(t)) == t

    def test_algebra_morphism(self):
        rng = random.Random(6)
        for _ in range(40):
            m = rng.randint(2, 3)
            a = rand_element(rng, m)
            b = rand_element(rng, m)
            assert phi(a * b) == phi(a) * phi(b)

    def test_biproduct_image_is_the_slice_sum(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(2, 3)
            word = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
            degs = rand_multidegree(rng, len(word), m)
            got = phi(expand_raw(word, degs, m))
            sizes = tuple(degs.get(p, 0) for p in range(1, m + 1))
            want = TensorPowerElement.zero(None, m)
            for sign, blocks in word_slices(word, sizes):
                want = want + TensorPowerElement(None, m, {blocks: sign})
            assert got == want

    def test_divided_polarizations_intertwine(self):
        rng = random.Random(8)
        for _ in range(80):
            m = rng.randint(2, 4)
            e = rand_element(rng, m)
            i, j = rng.sample(range(1, m + 1), 2)
            h = rng.randint(0, 3)
            assert phi(polarize_divided(h, j, i, e)) == \
                diamond(h, j, i, phi(e))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lp_sums))
    def test_image_is_integral_on_letter_folds(self, e):
        t = phi(e)
        assert t.dim is None and t.m == e.m and t.den == 1

    def test_letter_and_index_folds_do_not_mix(self):
        x = phi(g(1, "a", 1))
        with pytest.raises(DimensionMismatch):
            x * TensorPowerElement.unit(1, 1)
        with pytest.raises(ValueError, match="index folds"):
            x.map_folds(lambda z: z)
        with pytest.raises(ValueError, match="not strictly increasing"):
            TensorPowerElement(None, 1, {(("b", "a"),): 1})


# -- second routes: every monomial put through lp_normalize -------------

def reference_polarize(k, h, e):
    """Each occurrence of (x|h) replaced by (x|k) in place, normalized."""
    return LetterplaceElement(e.m, _sum_products(
        (mono[:pos] + ((letter, k),) + mono[pos + 1:], c)
        for mono, c in e.terms.items()
        for pos, (letter, place) in enumerate(mono) if place == h))


def reference_polarize_divided(h, j, i, e):
    """Each h-subset of the place-i variables moved to place j in place,
    normalized."""
    if h == 0:
        return e
    return LetterplaceElement(e.m, _sum_products(
        ([(x, j) if p in chosen else (x, place) for p, (x, place) in enumerate(mono)], c)
        for mono, c in e.terms.items()
        for chosen in combinations([p for p, (_, place) in enumerate(mono) if place == i],
                                   h)))


def reference_expand(word, degrees, m):
    """The slice sum of a biproduct, each slice normalized."""
    places = [p for p, _ in degrees]
    return LetterplaceElement(m, _sum_products(
        ([(x, places[t]) for t, block in enumerate(blocks) for x in block], sign)
        for sign, blocks in word_slices(word, [q for _, q in degrees])))


@st.composite
def polarization_cases(draw):
    m = draw(st.integers(2, 3))
    e = draw(lp_sums(m))
    i, j = draw(st.permutations(range(1, m + 1)))[:2]
    return e, draw(st.integers(0, 4)), j, i, draw(st.integers(1, m))


@st.composite
def public_biproducts(draw):
    """Biproducts built as plain tuples: words in any letter order, a
    repeated letter now and then, places in any order."""
    m = draw(st.integers(2, 3))
    word = tuple(draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4)))
    places = draw(st.lists(st.integers(1, m), min_size=len(word), max_size=len(word)))
    degrees = {p: places.count(p) for p in places}
    order = draw(st.permutations(sorted(degrees)))
    return Biproduct(word, tuple((p, degrees[p]) for p in order)), m


class TestCanonicalConstructionsAgainstNormalizing:
    @settings(max_examples=300, deadline=None)
    @given(polarization_cases())
    def test_polarizations(self, case):
        e, h, j, i, k = case
        assert polarize_divided(h, j, i, e).terms == \
            reference_polarize_divided(h, j, i, e).terms
        for target in (j, i):
            assert polarize(target, k, e).terms == reference_polarize(target, k, e).terms

    @settings(max_examples=300, deadline=None)
    @given(public_biproducts())
    def test_biproduct_expansion_of_any_word(self, case):
        bp, m = case
        got = biproduct_expand(bp, m)
        assert got.terms == reference_expand(bp.word, bp.degrees, m).terms
        assert got == expand_raw(bp.word, bp.degrees, m)

    def test_an_unsorted_multi_letter_block(self):
        bp = Biproduct(("c", "a", "b"), ((1, 2), (2, 1)))
        assert biproduct_expand(bp, 2).terms == reference_expand(bp.word, bp.degrees, 2).terms
        # cab is an even permutation of abc
        assert biproduct_expand(bp, 2) == expand_raw("abc", {1: 2, 2: 1}, 2)
